"""Pinned estimates: a refactor of the engine or the β fit must reproduce
these reports to 1e-12 relative error, with flags and clip counts equal.
The fixed-β gradient variance pins the projected rows, tail adjustment
included, independently of the β update.

The pinned values live in pinned_estimates.json next to this file. After a
deliberate numerical change, regenerate them with

    PYTHONPATH=src python tests/test_pinned_estimates.py --write

To check that a change leaves every pinned case bit-identical, compare

    PYTHONPATH=src python tests/test_pinned_estimates.py --hex

before and after it with `diff`: it prints each case's full report, interval
flags and diagnostics included, as sorted JSON with every float in float hex.
"""

import json
import os
import sys

import numpy as np
import pytest

import weakfuse.nuisance as nuisance
from weakfuse.cli import default_config_dict, parse_config_dict
from weakfuse.estimator import EstimatorVariant, one_step_estimate
from weakfuse.gradients import EstimandSpec
from weakfuse.nuisance import NuisanceOptions, _GaussRows
from weakfuse.simulation import generate_dataset, named_scenario, study_design

from test_estimator import _exact_mode_instance, _linear_instance, _tilted_instance

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_estimates.json")
N_PER_SOURCE = 300
ATE = EstimandSpec("ate")


def _study_data():
    scenario = named_scenario("moderately_aligned", n_per_source=N_PER_SOURCE)
    return generate_dataset(scenario, 1, 0)


def _study(variant="efficient_fusion", options=None):
    return one_step_estimate(_study_data(), study_design(), ATE,
                             variant=EstimatorVariant.parse(variant), options=options)


def _truncation():
    blob = default_config_dict()
    blob["design"]["weight_specs"]["3,2"] = {
        "family": "truncated_above_threshold", "threshold": 0.2}
    cfg = parse_config_dict(blob)
    return one_step_estimate(_study_data(), cfg.design, cfg.estimand)


def _working_linear():
    data, design = _linear_instance(N_PER_SOURCE)
    return one_step_estimate(data, design, EstimandSpec("working_linear"))


def _moment():
    data, design = _tilted_instance(N_PER_SOURCE, seed=3)
    return one_step_estimate(data, design, EstimandSpec("moment", index=2))


def _exact(variant, cross_fit=False):
    # two continuous past coordinates: the index-3 panel is a tensor grid
    data, design = _exact_mode_instance()
    return one_step_estimate(data, design, EstimandSpec("moment", index=3),
                             variant=EstimatorVariant.parse(variant),
                             options=NuisanceOptions(cross_fit=cross_fit))


CASES = {
    "study_efficient_fusion": _study,
    "study_target_only": lambda: _study("target_only"),
    "study_naive_fusion": lambda: _study("naive_fusion"),
    "study_overparametrized+2": lambda: _study("overparametrized+2"),
    "study_truncation_threshold": _truncation,
    "study_cross_fit": lambda: _study(options=NuisanceOptions(cross_fit=True)),
    "study_ratio_clip": lambda: _study(options=NuisanceOptions(ratio_clip=(0.8, 1.25))),
    "working_linear": _working_linear,
    "moment": _moment,
    "exact_efficient_fusion": lambda: _exact("efficient_fusion"),
    "exact_target_only": lambda: _exact("target_only"),
    "exact_efficient_fusion_cross_fit": lambda: _exact("efficient_fusion", cross_fit=True),
    "exact_target_only_cross_fit": lambda: _exact("target_only", cross_fit=True),
}


def _record(report) -> dict:
    return {"estimate": report.estimate, "se": report.se, "beta": report.beta,
            "beta_se": report.beta_se, "flags": report.flags,
            "clip_counts": report.clip_counts,
            "gradient_variances": report.gradient_variances}


@pytest.fixture(scope="module")
def pinned():
    with open(_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_matches_pinned_value(name, pinned):
    got = _record(CASES[name]())
    want = pinned[name]
    assert got["flags"] == want["flags"]
    assert got["clip_counts"] == want["clip_counts"]
    for key in ("estimate", "se", "beta", "beta_se"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    for key, value in want["gradient_variances"].items():
        np.testing.assert_allclose(got["gradient_variances"][key], value, rtol=1e-12,
                                   atol=0, err_msg=key)


def _hex(value):
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def _kept_rows(Xq, Xt, h, keep):
    return _GaussRows(Xq, Xt, h, True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_does_not_depend_on_the_store_budget(monkeypatch, name):
    # every weight block rebuilt chunk by chunk on every read, the blocks
    # the design keeps, and every block kept whole give the same report,
    # bit for bit
    got = []
    for store_bytes, rows in ((0, _GaussRows), (nuisance._STORE_BYTES, _GaussRows),
                              (2 ** 62, _kept_rows)):
        monkeypatch.setattr(nuisance, "_STORE_BYTES", store_bytes)
        monkeypatch.setattr(nuisance, "_GaussRows", rows)
        got.append(_hex(_record(CASES[name]())))
    assert got[0] == got[1] == got[2]


if __name__ == "__main__":
    if sys.argv[1:] == ["--hex"]:
        reports = {name: _hex(fn().to_json_dict()) for name, fn in sorted(CASES.items())}
        print(json.dumps(reports, indent=2, sort_keys=True))
        raise SystemExit(0)
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_pinned_estimates.py --write | --hex")
    blob = {name: _record(fn()) for name, fn in sorted(CASES.items())}
    with open(_PATH, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(blob)} pinned estimates to {_PATH}", file=sys.stderr)
