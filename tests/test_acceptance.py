"""Acceptance gate: one test per criterion, each printing a single PASS/FAIL
line with the measured quantities. Criteria 1-3 read the cached Monte Carlo
summary (see conftest); the rest compute directly at the pinned sizes."""

import json
import time

import numpy as np
import pytest

from weakfuse.betafit import moment_match_beta
from weakfuse.cli import default_config_dict, main
from weakfuse.gradients import (
    EstimandSpec,
    compute_pass,
    seed_gradient,
)
from weakfuse.model import BetaParam, Dataset, FusionDesign
from weakfuse.nuisance import fit_nuisance_bundle
from weakfuse.simulation import generate_dataset, named_scenario, study_design
from weakfuse.weights import WeightSpec

from conftest import _CACHE_PATH, stale_reasons
from oracles import DiscreteLaw, gradient_aligned_only

REFERENCE_VAR_E5 = {"target_only": 5.76, "naive_fusion": 1.50, "efficient_fusion": 2.26}
COVERAGE_BAND = (0.91, 0.99)
VAR_RATIO_RTOL = 0.30


@pytest.fixture
def verdict(capfd):
    def emit(num, checks, detail):
        failed = [name for name, ok in checks if not ok]
        status = "PASS" if not failed else "FAIL"
        with capfd.disabled():
            print(f"CRITERION {num}: {status} ({detail})")
        assert not failed, f"criterion {num} failed: {failed}"
    return emit


def test_criterion_1_table_reproduction(mc_cell, verdict):
    checks = []
    fa = {v: mc_cell("fully_aligned", "none", v) for v in REFERENCE_VAR_E5}
    for v, row in fa.items():
        checks.append((f"fully/{v} coverage",
                       COVERAGE_BAND[0] <= row["coverage"] <= COVERAGE_BAND[1]))
    vn, ve, vt = (fa[v]["var_e5"] for v in
                  ("naive_fusion", "efficient_fusion", "target_only"))
    checks.append(("variance ordering", vn < ve < vt))
    for (a, b) in (("efficient_fusion", "naive_fusion"),
                   ("target_only", "efficient_fusion"),
                   ("target_only", "naive_fusion")):
        got = fa[a]["var_e5"] / fa[b]["var_e5"]
        ref = REFERENCE_VAR_E5[a] / REFERENCE_VAR_E5[b]
        checks.append((f"ratio {a}/{b}", abs(got / ref - 1.0) <= VAR_RATIO_RTOL))

    strong_n = mc_cell("strongly_aligned", "none", "naive_fusion")
    strong_e = mc_cell("strongly_aligned", "none", "efficient_fusion")
    checks.append(("strongly naive cov", strong_n["coverage"] <= 0.93))
    checks.append(("strongly efficient cov", strong_e["coverage"] >= 0.91))
    mod_n = mc_cell("moderately_aligned", "none", "naive_fusion")
    mod_e = mc_cell("moderately_aligned", "none", "efficient_fusion")
    checks.append(("moderately naive cov", mod_n["coverage"] <= 0.60))
    checks.append(("moderately efficient bias2", mod_e["bias2_e5"] <= 0.10))
    poor_n = mc_cell("poorly_aligned", "none", "naive_fusion")
    poor_e = mc_cell("poorly_aligned", "none", "efficient_fusion")
    checks.append(("poorly naive cov", poor_n["coverage"] <= 0.30))
    checks.append(("poorly efficient cov", poor_e["coverage"] >= 0.91))

    over = [fa["efficient_fusion"]["var_e5"]]
    over += [mc_cell("fully_aligned", "none", f"overparametrized+{k}")["var_e5"]
             for k in (1, 2, 5)]
    inversions = sum(1 for a, b in zip(over, over[1:]) if b < a)
    checks.append(("overparametrized monotone", inversions <= 1))

    verdict(1, checks,
            f"var x1e5 naive/eff/tgt = {vn:.2f}/{ve:.2f}/{vt:.2f}, "
            f"overparam {['%.2f' % v for v in over]}, "
            f"naive cov 0.2/0.5/0.7 = {strong_n['coverage']:.2f}/"
            f"{mod_n['coverage']:.2f}/{poor_n['coverage']:.2f}")


def test_criterion_2_covariate_shift_coverage(mc_cell, verdict):
    checks = []
    covs = {}
    for name in ("fully_aligned", "strongly_aligned", "moderately_aligned",
                 "poorly_aligned"):
        row = mc_cell(name, "beta_shift", "efficient_fusion")
        covs[name] = row["coverage"]
        checks.append((f"{name} coverage", row["coverage"] >= 0.91))
    verdict(2, checks, "efficient coverage under shift: "
            + ", ".join(f"{k.split('_')[0]}={v:.3f}" for k, v in covs.items()))


def test_criterion_3_beta_recovery(mc_cell, verdict):
    checks = []
    worst = 0.0
    for name, eps in (("strongly_aligned", 0.2), ("moderately_aligned", 0.5),
                      ("poorly_aligned", 0.7)):
        row = mc_cell(name, "none", "efficient_fusion")
        mean = np.array(row["mean_beta"])
        sd = np.array(row["sd_beta"])
        mc_se = sd / np.sqrt(row["reps"])
        dev = np.abs(mean + eps)
        worst = max(worst, float(np.max(dev / (3 * mc_se))))
        for c in range(mean.size):
            checks.append((f"{name} coord {c}", dev[c] <= 3 * mc_se[c]))
    verdict(3, checks, f"max |mean+eps| / (3 mc-se) = {worst:.2f} over 12 coords")


def test_criterion_4_discrete_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    law = DiscreteLaw()
    nuis = law.bundle()
    seed = seed_gradient(EstimandSpec("moment", index=3), nuis)
    got = compute_pass(nuis, law.beta_param(), seed).dtilde
    dense = law.projected_gradient()
    err = float(np.max(np.abs(got - dense)))
    elapsed = time.perf_counter() - t0
    verdict(4, [("max abs error", err <= 1e-10), ("runtime", elapsed < 1.0)],
            f"max |engine - dense solve| = {err:.2e}, {elapsed:.3f}s")


def test_criterion_5_orthogonality_and_ordering(verdict):
    t0 = time.perf_counter()
    sc = named_scenario("moderately_aligned", n_per_source=2000)
    data = generate_dataset(sc, seed=505)
    estimand = EstimandSpec("ate")
    bundle = fit_nuisance_bundle(data, study_design())
    seed = seed_gradient(estimand, bundle)
    beta, _ = compute_pass(bundle, moment_match_beta(bundle).beta).newton_step()
    final = compute_pass(bundle, beta, seed)
    rows = final.efficient_rows()
    scores = final.scores_raw
    corrs = [abs(np.corrcoef(rows, scores[:, m])[0, 1])
             for m in range(scores.shape[1])]
    da = gradient_aligned_only(seed, bundle)
    ratio = float(rows.var(ddof=1) / da.var(ddof=1))
    elapsed = time.perf_counter() - t0
    verdict(5, [("max |corr| with shift scores", max(corrs) <= 0.05),
                ("var(eff) <= 1.05 var(aligned)", ratio <= 1.05),
                ("runtime", elapsed < 30.0)],
            f"max |corr| = {max(corrs):.3f}, var ratio = {ratio:.3f}, "
            f"{elapsed:.1f}s at n = 8000")


def test_criterion_6_no_gain_and_strict_gain(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n_per = 10000
    z = np.concatenate([rng.normal(0.0, 1.0, n_per),
                        rng.normal(-0.5, 1.0, n_per)])   # exp(bz) tilt shifts the mean
    data = Dataset(z[:, None], np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(d=1, k=2, relevant=(1,), aligned={1: {1}}, weak={1: {2}},
                          weight_specs={(1, 2): WeightSpec.tilt(1, ["z1"])})
    bundle = fit_nuisance_bundle(data, design)
    beta, _ = compute_pass(bundle, moment_match_beta(bundle).beta).newton_step()
    ratios = {}
    for power in (1, 2):
        seed = seed_gradient(EstimandSpec("moment", index=1, power=power), bundle)
        rows = compute_pass(bundle, beta, seed).efficient_rows()
        da = gradient_aligned_only(seed, bundle)
        ratios[power] = float(rows.var(ddof=1) / da.var(ddof=1))
    elapsed = time.perf_counter() - t0
    verdict(6, [("mean estimand no gain", 0.95 <= ratios[1] <= 1.05),
                ("second moment strict gain", ratios[2] <= 0.95),
                ("runtime", elapsed < 60.0)],
            f"var ratios: mean = {ratios[1]:.3f}, second moment = {ratios[2]:.3f}, "
            f"{elapsed:.1f}s at n = 20000")


def test_criterion_7_degenerate_design_identity(verdict):
    rng = np.random.default_rng(707)
    n = 1000
    z1 = rng.uniform(0.5, 1.5, n)
    z2 = rng.beta(2, 2, n)
    data = Dataset(np.column_stack([z1, z2]), rng.integers(1, 3, n), k=2)
    design = FusionDesign(d=2, k=2, relevant=(1, 2),
                          aligned={1: {1, 2}, 2: {1, 2}}, weak={}, weight_specs={})
    bundle = fit_nuisance_bundle(data, design)
    seed = seed_gradient(EstimandSpec("moment", index=2), bundle)
    rows = compute_pass(bundle, BetaParam.zeros(()), seed).efficient_rows()
    da = gradient_aligned_only(seed, bundle)
    gap = float(np.max(np.abs(rows - da)))
    verdict(7, [("per-row identity", gap == 0.0)],
            f"max per-row |eff - aligned| = {gap} on {n} rows")


def _write_study_csv(tmp_path, scenario, seed, name="data.csv"):
    data = generate_dataset(scenario, seed=seed)
    lines = ["z1,z2,z3,source"]
    for i in range(data.z.shape[0]):
        vals = [repr(float(v)) for v in data.z[i]]
        lines.append(",".join(vals + [str(int(data.source[i]))]))
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


def _write_config(tmp_path, seed, name="config.json"):
    blob = default_config_dict()
    blob["seed"] = seed
    p = tmp_path / name
    p.write_text(json.dumps(blob))
    return p


def test_criterion_8_sensitivity_sweep(tmp_path, verdict):
    t0 = time.perf_counter()
    sc = named_scenario("strongly_aligned", n_per_source=2000)
    datap = _write_study_csv(tmp_path, sc, seed=808)
    cfgp = _write_config(tmp_path, seed=808)
    out = tmp_path / "sweep.csv"
    rc = main(["sensitivity", "--config", str(cfgp), "--data", str(datap),
               "--delta-grid", "0:0.01:0.001", "--out", str(out)])
    lines = out.read_text().strip().split("\n")[1:]
    widths = [float(l.split(",")[5]) for l in lines]
    tgt_width = float(lines[0].split(",")[6])
    increasing = all(b > a for a, b in zip(widths, widths[1:]))
    crossings = [i for i, w in enumerate(widths) if w > tgt_width]
    elapsed = time.perf_counter() - t0
    verdict(8, [("exit code", rc == 0),
                ("eleven grid rows", len(widths) == 11),
                ("widths strictly increasing", increasing),
                ("fused starts narrower", widths[0] < tgt_width),
                ("delta* exists on grid", bool(crossings)),
                ("runtime", elapsed < 600.0)],
            f"fused width {widths[0]:.4f} -> {widths[-1]:.4f}, target width "
            f"{tgt_width:.4f}, delta* = {0.001 * crossings[0] if crossings else -1:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_9_byte_identical_reruns(tmp_path, verdict):
    sc = named_scenario("strongly_aligned", n_per_source=300)
    datap = _write_study_csv(tmp_path, sc, seed=909)
    cfgp = _write_config(tmp_path, seed=909)
    checks = []

    def rerun(label, argv_of):
        a, b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        assert main(argv_of(str(a))) == 0
        assert main(argv_of(str(b))) == 0
        checks.append((label, a.read_bytes() == b.read_bytes()))

    rerun("config-dump", lambda out: ["config-dump", "--out", out])
    rerun("simulate", lambda out: [
        "simulate", "--scenario", "strongly_aligned", "--reps", "2", "--n", "200",
        "--seed", "909", "--variants", "efficient_fusion", "--threads", "1",
        "--out", out])
    rerun("estimate", lambda out: [
        "estimate", "--config", str(cfgp), "--data", str(datap), "--out", out])
    rerun("sensitivity", lambda out: [
        "sensitivity", "--config", str(cfgp), "--data", str(datap),
        "--delta-grid", "0:0.002:0.001", "--out", out])
    verdict(9, checks, "all four commands byte-identical across reruns")


def test_aggregate_efficient_coverage(mc_rows):
    # supplementary study-level check, not one of the numbered criteria
    covs = [r["coverage"] for r in mc_rows if r["variant"] == "efficient_fusion"]
    assert len(covs) == 8
    agg = float(np.mean(covs))
    assert 0.91 <= agg <= 0.98


def test_stale_cache_is_caught(mc_rows):
    # the cache the fixture accepted, with one pinned estimate nudged by
    # 1e-9 relative or with its pinned replicates dropped, is stale
    with open(_CACHE_PATH) as fh:
        blob = json.load(fh)
    blob["pinned"][0]["estimate"] *= 1 + 1e-9
    assert stale_reasons(blob) == [
        "moderately_aligned/none/efficient_fusion rep 0: estimate moved by 1.0e-09 relative"]
    del blob["pinned"]
    assert stale_reasons(blob) == ["the pinned replicates are missing or cover other cells"]
