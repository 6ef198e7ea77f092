import numpy as np
import pytest
from scipy import stats

import weakfuse.simulation as simulation
from weakfuse.errors import InvalidShape, NonFiniteNormalizer
from weakfuse.estimator import one_step_estimate
from weakfuse.gradients import EstimandSpec, compute_pass
from weakfuse.model import layout_from_design
from weakfuse.nuisance import NuisanceOptions, fit_nuisance_bundle
from weakfuse.simulation import (
    ALIGNMENT_LEVELS,
    CSV_HEADER,
    PSI_TRUE,
    Scenario,
    SummaryRow,
    generate_dataset,
    named_scenario,
    run_monte_carlo,
    study_design,
    summary_to_csv,
)

from oracles import assemble_beta, true_parameters

FAST = NuisanceOptions()
# a small, badly overlapping cell: at master seed 1, reps 0, 1 and 3 (of
# reps 0-3) end the moment match unconverged
POOR = named_scenario("poorly_aligned", covariate_shift="beta_shift", n_per_source=60)


# ---------------------------------------------------------------- scenarios

def test_alignment_levels_frozen():
    assert ALIGNMENT_LEVELS == {
        "fully_aligned": 0.0,
        "strongly_aligned": 0.2,
        "moderately_aligned": 0.5,
        "poorly_aligned": 0.7,
    }


def test_named_scenario_maps_epsilon():
    sc = named_scenario("moderately_aligned")
    assert sc.epsilon == 0.5
    assert sc.covariate_shift == "none"
    assert sc.variants == ("efficient_fusion",)
    with pytest.raises(ValueError, match="unknown scenario"):
        named_scenario("perfectly_aligned")


def test_scenario_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        Scenario(name="x", epsilon=-0.1)
    with pytest.raises(ValueError, match="at least 50"):
        Scenario(name="x", epsilon=0.0, n_per_source=10)
    with pytest.raises(ValueError, match="covariate shift"):
        Scenario(name="x", epsilon=0.0, covariate_shift="sideways")
    with pytest.raises(ValueError, match="unknown variant"):
        Scenario(name="x", epsilon=0.0, variants=("fastest",))


def test_content_key_tracks_cell_identity():
    a = Scenario(name="x", epsilon=0.2, n_per_source=400)
    b = Scenario(name="x", epsilon=0.2, n_per_source=400, variants=("naive_fusion",))
    c = Scenario(name="x", epsilon=0.2, n_per_source=500)
    assert a.content_key() == b.content_key()      # variants are not data identity
    assert a.content_key() != c.content_key()


def test_study_design_shape():
    design = study_design()
    assert design.d == 3 and design.k == 4
    assert design.relevant == (1, 3)
    assert design.aligned_at(2) == frozenset({1, 2, 3, 4})
    assert design.weak_at(3) == frozenset({2, 3, 4})
    assert design.spec_for(3, 2).nparams == 2
    assert design.spec_for(3, 3).nparams == 1
    assert design.spec_for(3, 4).nparams == 1


def test_true_parameters():
    psi, beta = true_parameters(named_scenario("moderately_aligned"))
    assert psi == PSI_TRUE == pytest.approx(2.0 / 3.0 - 0.5, abs=1e-15)
    assert beta.layout == layout_from_design(study_design())
    np.testing.assert_array_equal(beta.values, np.full(4, -0.5))


# --------------------------------------------------------------- generation

def test_generate_dataset_reproducible():
    sc = named_scenario("strongly_aligned", n_per_source=200)
    a = generate_dataset(sc, seed=4, rep=2)
    b = generate_dataset(sc, seed=4, rep=2)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.source, b.source)
    c = generate_dataset(sc, seed=4, rep=3)
    assert not np.array_equal(a.z, c.z)


def test_generate_dataset_shape_and_labels():
    sc = named_scenario("fully_aligned", n_per_source=200)
    data = generate_dataset(sc, seed=1)
    assert data.z.shape == (800, 3)
    np.testing.assert_array_equal(data.source, np.repeat([1, 2, 3, 4], 200))
    assert data.source_counts() == {1: 200, 2: 200, 3: 200, 4: 200}
    assert np.all((data.z[:, 2] > 0) & (data.z[:, 2] < 1))
    assert set(np.unique(data.z[:, 1])) == {0.0, 1.0}


def test_outcome_means_match_beta_shapes():
    # z3 | z1, z2 is Beta(a, b) so the arm means have closed forms
    sc = named_scenario("moderately_aligned", n_per_source=4000)
    data = generate_dataset(sc, seed=11)
    eps = 0.5

    def arm_mean(source, arm):
        rows = data.rows_of(source)
        z = data.z[rows]
        pick = z[:, 1] == arm
        return z[pick, 2].mean(), pick.sum()

    # source 1 is untilted: 1/2 and 2/3 exactly
    for arm, truth in ((0.0, 0.5), (1.0, 2.0 / 3.0)):
        m, n = arm_mean(1, arm)
        assert abs(m - truth) < 3 * 0.5 / np.sqrt(n)
    # source 2 scales a by (2 - eps): mean (2-eps)(1+z2)/((2-eps)(1+z2)+2)
    for arm in (0.0, 1.0):
        truth = (2 - eps) * (1 + arm) / ((2 - eps) * (1 + arm) + 2)
        m, n = arm_mean(2, arm)
        assert abs(m - truth) < 3 * 0.5 / np.sqrt(n)
    # source 3 scales b: mean 2(1+z2)/(2(1+z2)+(2-eps))
    for arm in (0.0, 1.0):
        truth = 2 * (1 + arm) / (2 * (1 + arm) + (2 - eps))
        m, n = arm_mean(3, arm)
        assert abs(m - truth) < 3 * 0.5 / np.sqrt(n)


def test_identical_laws_at_epsilon_zero():
    sc = named_scenario("fully_aligned", n_per_source=2000)
    data = generate_dataset(sc, seed=21)
    z3 = {s: data.z[data.rows_of(s), 2] for s in (1, 2, 3, 4)}
    for s in (2, 3, 4):
        assert stats.ks_2samp(z3[1], z3[s]).pvalue > 0.01


def test_covariate_shift_changes_z1_law():
    sc = named_scenario("fully_aligned", covariate_shift="beta_shift",
                        n_per_source=4000)
    data = generate_dataset(sc, seed=31)
    for s, a in ((1, 4.0), (4, 5.5)):
        z1 = data.z[data.rows_of(s), 0]
        truth = 1.0 + a / (a + 5.0)
        sd = np.sqrt(a * 5.0 / ((a + 5.0) ** 2 * (a + 6.0)))
        assert abs(z1.mean() - truth) < 3 * sd / np.sqrt(z1.size)
    assert np.all(data.z[:, 0] > 1.0) and np.all(data.z[:, 0] < 2.0)


def test_nonpositive_shape_rejected():
    sc = Scenario(name="x", epsilon=2.0, n_per_source=60)
    with pytest.raises(InvalidShape, match="source 2"):
        generate_dataset(sc, seed=1)


# ------------------------------------------------------------- monte carlo

def _tiny(name="strongly_aligned", variants=("target_only",), n=200, shift="none"):
    return named_scenario(name, covariate_shift=shift, n_per_source=n,
                          variants=variants)


def test_seed_schedule_is_permutation_invariant():
    a = _tiny("strongly_aligned")
    b = _tiny("poorly_aligned")
    fwd = run_monte_carlo([a, b], reps=2, master_seed=3, options=FAST)
    rev = run_monte_carlo([b, a], reps=2, master_seed=3, options=FAST)
    key = lambda r: (r.scenario, r.variant)
    for x, y in zip(sorted(fwd, key=key), sorted(rev, key=key)):
        assert x == y


def test_variant_order_does_not_touch_data():
    sc1 = _tiny(variants=("target_only", "naive_fusion"))
    sc2 = _tiny(variants=("naive_fusion", "target_only"))
    fwd = run_monte_carlo([sc1], reps=2, master_seed=5, options=FAST)
    rev = run_monte_carlo([sc2], reps=2, master_seed=5, options=FAST)
    key = lambda r: r.variant
    for x, y in zip(sorted(fwd, key=key), sorted(rev, key=key)):
        assert x == y


def test_single_rep_has_undefined_variance():
    rows = run_monte_carlo([_tiny(variants=("efficient_fusion",))],
                           reps=1, master_seed=7, options=FAST)
    (row,) = rows
    assert np.isnan(row.var_e5)
    assert "var_undefined" in row.flags
    assert len(row.mean_beta) == 4
    assert row.sd_beta == []
    with pytest.raises(ValueError, match="at least 1"):
        run_monte_carlo([_tiny()], reps=0, master_seed=7)


def test_keep_replicates_returns_records():
    rows, recs = run_monte_carlo([_tiny()], reps=2, master_seed=9, options=FAST,
                                 keep_replicates=True)
    assert len(rows) == 1 and len(recs) == 2
    assert [r.rep for r in recs] == [0, 1]
    est = np.array([r.estimate for r in recs])
    assert rows[0].bias2_e5 == pytest.approx((est.mean() - PSI_TRUE) ** 2 * 1e5)


def test_threaded_run_matches_serial(capsys):
    grid = [_tiny(variants=("naive_fusion",))]
    serial = run_monte_carlo(grid, reps=3, master_seed=13, options=FAST)
    threaded = run_monte_carlo(grid, reps=3, master_seed=13, options=FAST, threads=2)
    assert serial == threaded
    # flags travel with each estimate, so threads can neither swap nor drop
    # them, and no fallback reaches stderr
    serial, srecs = run_monte_carlo([POOR], reps=3, master_seed=1, keep_replicates=True)
    assert [r.flags for r in srecs] == [["NoConvergence"], ["NoConvergence"], []]
    threaded, trecs = run_monte_carlo([POOR], reps=3, master_seed=1, threads=2,
                                      keep_replicates=True)
    assert [r.flags for r in trecs] == [r.flags for r in srecs]
    assert threaded == serial
    assert capsys.readouterr().err == ""


def test_stalled_beta_fit_is_finite_and_flagged():
    # on rep 3 no damped Newton step lowers pair (3, 2)'s moment residual
    # after a few iterations; the fit stops at its best iterate instead of
    # drifting until source 2's tilt normalizer overflows
    data = generate_dataset(POOR, 1, 3)
    report = one_step_estimate(data, study_design(), EstimandSpec("ate"))
    assert np.isfinite(report.estimate) and np.isfinite(report.se)
    assert np.all(np.isfinite(report.beta)) and max(map(abs, report.beta)) < 10
    assert "NoConvergence" in report.flags


def test_engine_rejects_an_overflowing_beta():
    # a supplied beta far out along z1*z2*log(z3) overflows source 2's tilt
    # normalizer; the engine names the pair instead of failing in eigh
    data = generate_dataset(POOR, 1, 3)
    design = study_design()
    bundle = fit_nuisance_bundle(data, design)
    beta = assemble_beta(layout_from_design(design), {
        (3, 2): [-20.9, -1708.0], (3, 3): [-0.9], (3, 4): [-4.25]})
    with pytest.raises(NonFiniteNormalizer, match="index 3, source 2"):
        compute_pass(bundle, beta)


def test_cell_aborts_when_too_many_reps_fail(monkeypatch):
    def boom(scenario, variant, rep, master_seed, options):
        raise ValueError("boom")
    monkeypatch.setattr(simulation, "_run_one", boom)
    with pytest.raises(RuntimeError, match="replications failed"):
        run_monte_carlo([_tiny()], reps=2, master_seed=1)


def test_sporadic_failure_is_flagged_not_fatal(monkeypatch):
    real = simulation._run_one

    def flaky(scenario, variant, rep, master_seed, options):
        if rep == 0:
            raise ValueError("boom")
        return real(scenario, variant, rep, master_seed, options)

    monkeypatch.setattr(simulation, "_run_one", flaky)
    rows = run_monte_carlo([_tiny(n=120)], reps=21, master_seed=15, options=FAST)
    (row,) = rows
    assert row.reps == 20
    assert "failed:1" in row.flags


# -------------------------------------------------------------------- csv

def test_csv_round_trips_floats_exactly():
    rows = run_monte_carlo([_tiny(variants=("efficient_fusion",))],
                           reps=2, master_seed=17, options=FAST)
    text = summary_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "strongly_aligned"
    assert fields[2] == "efficient_fusion"
    assert int(fields[3]) == 2
    assert float(fields[4]) == rows[0].bias2_e5
    assert float(fields[5]) == rows[0].var_e5
    assert float(fields[6]) == rows[0].coverage
    assert [float(x) for x in fields[7].split(";")] == rows[0].mean_beta
    assert [float(x) for x in fields[8].split(";")] == rows[0].sd_beta


def test_csv_header_and_cells_are_fixed():
    row = SummaryRow(scenario="poorly_aligned", shift="beta_shift",
                     variant="overparametrized+2", reps=1, bias2_e5=0.1 + 0.2,
                     var_e5=float("nan"), coverage=1.0, mean_beta=[], sd_beta=[],
                     flags=["NoConvergence", "var_undefined"])
    assert CSV_HEADER == "scenario,shift,variant,reps,bias2_e5,var_e5,coverage,mean_beta,sd_beta,flags"
    assert summary_to_csv([row]) == (
        CSV_HEADER + "\npoorly_aligned,beta_shift,overparametrized+2,1,0.30000000000000004,"
        "nan,1.0,,,NoConvergence;var_undefined\n")


def test_csv_spells_out_nan_variance():
    rows = run_monte_carlo([_tiny()], reps=1, master_seed=19, options=FAST)
    line = summary_to_csv(rows).strip().split("\n")[1]
    assert ",nan," in line
    assert "var_undefined" in line
