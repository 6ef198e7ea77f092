"""Shared fixtures. The Monte Carlo summary used by the acceptance tests is
expensive (a rebuild at two threads, one BLAS thread each, took 460 s on a
2-core box), so it is built once per cache key and persisted to
.mc_cache.json next to this file. Delete that file to force a rebuild."""

import os

# One BLAS thread per Monte Carlo worker thread; numpy reads these when it is
# first imported, so they are set before anything below imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib
import json
from dataclasses import asdict

import pytest

from weakfuse.simulation import named_scenario, run_monte_carlo

MASTER_SEED = 20260815
REPS = 300
N_PER_SOURCE = 2000
ALL_LEVELS = ("fully_aligned", "strongly_aligned", "moderately_aligned",
              "poorly_aligned")
_CACHE_PATH = os.path.join(os.path.dirname(__file__), ".mc_cache.json")


def study_grid():
    grid = []
    for name in ALL_LEVELS:
        grid.append(named_scenario(
            name, n_per_source=N_PER_SOURCE,
            variants=("target_only", "naive_fusion", "efficient_fusion")))
    grid.append(named_scenario(
        "fully_aligned", n_per_source=N_PER_SOURCE,
        variants=("overparametrized+1", "overparametrized+2", "overparametrized+5")))
    for name in ALL_LEVELS:
        grid.append(named_scenario(
            name, covariate_shift="beta_shift", n_per_source=N_PER_SOURCE,
            variants=("efficient_fusion",)))
    return grid


def grid_key() -> str:
    payload = {
        "seed": MASTER_SEED,
        "reps": REPS,
        "cells": [[sc.name, sc.covariate_shift, sc.n_per_source, list(sc.variants)]
                  for sc in study_grid()],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def ensure_mc_cache() -> list[dict]:
    key = grid_key()
    if os.path.exists(_CACHE_PATH):
        try:
            with open(_CACHE_PATH) as fh:
                blob = json.load(fh)
            if blob.get("key") == key:
                return blob["rows"]
        except (json.JSONDecodeError, KeyError):
            pass
    rows = run_monte_carlo(study_grid(), reps=REPS, master_seed=MASTER_SEED,
                           threads=min(2, os.cpu_count() or 1))
    blob = {"key": key, "rows": [asdict(r) for r in rows]}
    tmp = _CACHE_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(blob, fh)
    os.replace(tmp, _CACHE_PATH)
    return blob["rows"]


@pytest.fixture(scope="session")
def mc_rows():
    return ensure_mc_cache()


@pytest.fixture(scope="session")
def mc_cell(mc_rows):
    """Lookup: (scenario, shift, variant) -> summary dict."""
    table = {(r["scenario"], r["shift"], r["variant"]): r for r in mc_rows}

    def get(scenario, shift, variant):
        return table[(scenario, shift, variant)]

    return get
