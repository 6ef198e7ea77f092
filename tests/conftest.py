"""Shared fixtures. The Monte Carlo summary used by the acceptance tests is
expensive (a rebuild at two threads, one BLAS thread each, took 342 s on a
2-core box), so it is built once and persisted to .mc_cache.json next to
this file; delete that file to rebuild it. The cache also stores rep 0 of a
few cells, and every session recomputes them: a cache that the code under
test no longer reproduces fails the acceptance tests instead of judging
them with stale numbers."""

import os

# One BLAS thread per Monte Carlo worker thread; numpy reads these when it is
# first imported, so they are set before anything below imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib
import json
from dataclasses import asdict

import numpy as np
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


# rep 0 of each of these cells is stored in the cache and recomputed on load
PINNED_CELLS = (("moderately_aligned", "none", "efficient_fusion"),
                ("fully_aligned", "none", "overparametrized+5"),
                ("poorly_aligned", "beta_shift", "efficient_fusion"))
STALE_RTOL = 1e-10
STALE_MESSAGE = "cache stale: rebuild (`rm tests/.mc_cache.json`, about 6 min at 2 threads)"


def pinned_replicates() -> list[dict]:
    """Estimate, se and β of rep 0 of each pinned cell, computed now."""
    out = []
    for name, shift, variant in PINNED_CELLS:
        scenario = named_scenario(name, covariate_shift=shift, n_per_source=N_PER_SOURCE,
                                  variants=(variant,))
        _, (rec,) = run_monte_carlo([scenario], reps=1, master_seed=MASTER_SEED,
                                    keep_replicates=True)
        out.append({"scenario": name, "shift": shift, "variant": variant, "rep": 0,
                    "estimate": rec.estimate, "se": rec.se, "beta": rec.beta})
    return out


def stale_reasons(blob: dict) -> list[str]:
    """Why a loaded cache does not describe the grid and the code under test;
    empty when it does."""
    if blob.get("key") != grid_key():
        return ["the study grid changed"]
    stored = blob.get("pinned") or []
    if [(r["scenario"], r["shift"], r["variant"]) for r in stored] != list(PINNED_CELLS):
        return ["the pinned replicates are missing or cover other cells"]
    reasons = []
    for want, got in zip(stored, pinned_replicates()):
        cell = f"{want['scenario']}/{want['shift']}/{want['variant']} rep 0"
        for key in ("estimate", "se", "beta"):
            w, g = np.atleast_1d(want[key]), np.atleast_1d(got[key])
            if w.shape != g.shape:
                reasons.append(f"{cell}: {key} has {g.size} entries, cached {w.size}")
            elif not np.all(np.abs(g - w) <= STALE_RTOL * np.abs(w)):
                rel = np.max(np.abs(g - w) / np.abs(w))
                reasons.append(f"{cell}: {key} moved by {rel:.1e} relative")
    return reasons


def ensure_mc_cache() -> list[dict]:
    """The cached summary rows; builds the cache only when the file is
    missing, and fails when it is stale, never rebuilding it silently."""
    if os.path.exists(_CACHE_PATH):
        try:
            with open(_CACHE_PATH) as fh:
                blob = json.load(fh)
        except json.JSONDecodeError as exc:
            pytest.fail(f"{STALE_MESSAGE}: unreadable ({exc})", pytrace=False)
        reasons = stale_reasons(blob)
        if reasons:
            pytest.fail(f"{STALE_MESSAGE}: " + "; ".join(reasons), pytrace=False)
        return blob["rows"]
    rows = run_monte_carlo(study_grid(), reps=REPS, master_seed=MASTER_SEED,
                           threads=min(2, os.cpu_count() or 1))
    blob = {"key": grid_key(), "rows": [asdict(r) for r in rows],
            "pinned": pinned_replicates()}
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
