import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfuse.errors import (
    BadLevel,
    InsufficientData,
    NonFiniteNormalizer,
    StructuralError,
    WeakfuseError,
)
from weakfuse.estimator import (
    EstimateReport,
    EstimatorVariant,
    apply_variant,
    one_step_estimate,
    wald_interval,
)
import weakfuse.estimator
import weakfuse.nuisance
from weakfuse.betafit import moment_match_beta
from weakfuse.gradients import EstimandSpec, compute_pass
from weakfuse.model import Dataset, FusionDesign, validate_design
from weakfuse.nuisance import MarginalRatioFits, NuisanceOptions, fit_nuisance_bundle
from weakfuse.simulation import generate_dataset, named_scenario, study_design
from weakfuse.weights import BasisTerm, WeightSpec, complex_family

from oracles import ExactPanel

MOMENT2 = EstimandSpec("moment", index=2)

# z(0.975), standard constant
Z975 = 1.959963984540054


def _tilted_beta_draws(rng, n, beta, a=2.0, b=2.0):
    out = np.empty(n)
    filled = 0
    bound = max(beta, 0.0)
    while filled < n:
        x = rng.beta(a, b, 2 * n)
        keep = rng.uniform(size=2 * n) < np.exp(beta * x - bound)
        take = x[keep][: n - filled]
        out[filled:filled + take.size] = take
        filled += take.size
    return out


def _tilted_instance(n_per, beta_true=0.8, seed=0):
    """Two sources sharing z1; source 2's outcome carries a single-term
    exponential tilt.  Target mean of z2 is exactly 1/2."""
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(0.5, 1.5, 2 * n_per)
    z2 = np.concatenate([
        rng.beta(2, 2, n_per),
        _tilted_beta_draws(rng, n_per, beta_true),
    ])
    s = np.repeat([1, 2], n_per)
    data = Dataset(np.column_stack([z1, z2]), s, k=2)
    design = FusionDesign(
        d=2, k=2, relevant=(1, 2),
        aligned={1: {1, 2}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])},
    )
    return data, design


# ---------------------------------------------------------------- variants

def test_variant_defaults_and_labels():
    v = EstimatorVariant()
    assert v.kind == "efficient_fusion"
    assert v.extra_terms == 0
    assert v.label() == "efficient_fusion"
    assert EstimatorVariant("overparametrized", extra_terms=3).label() == "overparametrized+3"


@pytest.mark.parametrize("label", [
    "target_only", "naive_fusion", "efficient_fusion",
    "overparametrized+1", "overparametrized+5",
])
def test_variant_parse_round_trip(label):
    assert EstimatorVariant.parse(label).label() == label
    assert EstimatorVariant.parse("  " + label + " ").label() == label


def test_variant_rejections():
    with pytest.raises(ValueError, match="unknown variant"):
        EstimatorVariant("fastest")
    with pytest.raises(ValueError, match="extra_terms only applies"):
        EstimatorVariant("naive_fusion", extra_terms=1)
    with pytest.raises(ValueError, match="extra_terms >= 1"):
        EstimatorVariant("overparametrized")


def test_apply_variant_target_only_strips_everything():
    _, design = _tilted_instance(10)
    out = apply_variant(design, EstimatorVariant("target_only"))
    assert out.aligned_at(1) == frozenset({1})
    assert out.aligned_at(2) == frozenset({1})
    assert not out.weak_pairs()
    assert not out.weight_specs


def test_apply_variant_naive_promotes_weak():
    _, design = _tilted_instance(10)
    out = apply_variant(design, EstimatorVariant("naive_fusion"))
    assert out.aligned_at(2) == frozenset({1, 2})
    assert not out.weak_pairs()


def test_apply_variant_efficient_is_identity():
    _, design = _tilted_instance(10)
    assert apply_variant(design, EstimatorVariant()) is design


def test_apply_variant_overparametrized_appends_fresh_terms():
    _, design = _tilted_instance(10)
    out = apply_variant(design, EstimatorVariant("overparametrized", extra_terms=2))
    spec = out.spec_for(2, 2)
    texts = [t.text() for t in spec.terms]
    # first two complex-family entries not already present
    assert texts == ["z2", "log(z2)", "z1*log(z2)"]
    assert spec.nparams == 3
    # the declared design is untouched
    assert [t.text() for t in design.spec_for(2, 2).terms] == ["z2"]


def test_apply_variant_overparametrized_skips_existing_terms():
    design = FusionDesign(
        d=3, k=2, relevant=(1, 2, 3),
        aligned={1: {1}, 2: {1}, 3: {1}},
        weak={3: {2}},
        weight_specs={(3, 2): WeightSpec.tilt(3, ["z1*log(z3)", "z1*z2*log(z3)"])},
    )
    out = apply_variant(design, EstimatorVariant("overparametrized", extra_terms=1))
    texts = [t.text() for t in out.spec_for(3, 2).terms]
    pool = [t.text() for t in complex_family(3)]
    assert texts == ["z1*log(z3)", "z1*z2*log(z3)", pool[0]]
    assert pool[0] == "log(z3)"


def test_apply_variant_overparametrized_keeps_a_weight_model_at_an_ignored_index():
    # a weak pair at an index the estimand ignores keeps its weight model, so
    # the padded design is valid and still notes the ignored index (it raised
    # "no weight model" when only the relevant pairs' models were copied)
    design = FusionDesign(d=2, k=2, relevant=(1,), aligned={1: {1}, 2: {1}}, weak={2: {2}},
                          weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])})
    out = apply_variant(design, EstimatorVariant("overparametrized", extra_terms=1))
    assert [t.text() for t in out.spec_for(2, 2).terms] == ["z2", "log(z2)"]
    data = Dataset(np.full((4, 2), 0.5), np.array([1, 2, 1, 2]), k=2)
    assert validate_design(out, data) == (
        "weak sources at index 2 are ignored (index not relevant)",)


def test_apply_variant_overparametrized_leaves_truncation_alone():
    spec = WeightSpec("truncated_above_threshold", 2, threshold=0.3)
    design = FusionDesign(
        d=2, k=2, relevant=(1, 2),
        aligned={1: {1, 2}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): spec},
    )
    out = apply_variant(design, EstimatorVariant("overparametrized", extra_terms=4))
    assert out.spec_for(2, 2) is spec


# ---------------------------------------------------------------- intervals

def _wald_z(level):
    # the normal quantile a unit-se interval around zero uses
    lo, hi = wald_interval(0.0, 1.0, level)
    assert lo == -hi
    return hi


def test_norm_quantile_frozen_points():
    assert _wald_z(0.95) == pytest.approx(Z975, abs=1e-15)
    assert _wald_z(0.8) == pytest.approx(1.2815515655446004, abs=1e-15)
    assert _wald_z(1e-12) == pytest.approx(0.0, abs=1e-11)


def test_norm_quantile_inverts_the_normal_cdf():
    rng = np.random.default_rng(11)
    levels = np.concatenate([rng.uniform(size=60), [1e-6, 0.003, 0.5, 0.997, 1 - 1e-6]])
    for level in levels:
        z = _wald_z(float(level))
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert abs(cdf - (0.5 + level / 2.0)) < 1e-12


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_norm_quantile_domain(bad):
    with pytest.raises(BadLevel):
        wald_interval(0.0, 1.0, bad)


def test_wald_interval_frozen():
    lo, hi = wald_interval(1.0 / 6.0, 0.005)
    assert lo == pytest.approx(1.0 / 6.0 - Z975 * 0.005, abs=1e-10)
    assert hi == pytest.approx(1.0 / 6.0 + Z975 * 0.005, abs=1e-10)
    assert wald_interval(0.3, 0.0) == (0.3, 0.3)


def test_wald_interval_width_grows_with_level():
    widths = []
    for level in (0.8, 0.95, 0.995):
        lo, hi = wald_interval(0.0, 1.0, level=level)
        assert lo == -hi
        widths.append(hi - lo)
    assert widths[0] < widths[1] < widths[2]


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.2, "95"])
def test_wald_interval_rejects_bad_level(bad):
    with pytest.raises(BadLevel):
        wald_interval(0.0, 1.0, level=bad)


def test_report_json_dict_shape():
    # every field under its own name; the source counts keyed by strings in
    # numeric order, so sorted JSON lists "10" between "1" and "2"
    rep = EstimateReport(
        estimate=0.25, se=0.01, ci_lo=0.23, ci_hi=0.27, level=0.95,
        variant="efficient_fusion", beta=[0.1], beta_se=[0.2],
        n_per_source={10: 5, 2: 6, 1: 7}, clip_counts={"wstar_j2": 3}, plugin=0.24,
        gradient_variances={"efficient": 0.5, "fixed_beta": 0.4}, flags=["NoConvergence"],
        overlap={"3,2": [0.5, 2.0, 0.0]}, seed=9,
    )
    d = rep.to_json_dict()
    assert list(d["n_per_source"]) == ["1", "2", "10"]
    assert json.dumps(d, sort_keys=True) == (
        '{"beta": [0.1], "beta_se": [0.2], "ci_hi": 0.27, "ci_lo": 0.23, '
        '"clip_counts": {"wstar_j2": 3}, "estimate": 0.25, "flags": ["NoConvergence"], '
        '"gradient_variances": {"efficient": 0.5, "fixed_beta": 0.4}, "level": 0.95, '
        '"n_per_source": {"1": 7, "10": 5, "2": 6}, "overlap": {"3,2": [0.5, 2.0, 0.0]}, '
        '"plugin": 0.24, "se": 0.01, "seed": 9, "variant": "efficient_fusion"}')


# ---------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def tilted_reports():
    data, design = _tilted_instance(1600, beta_true=0.8, seed=5)
    out = {}
    for label in ("efficient_fusion", "target_only", "naive_fusion",
                  "overparametrized+1"):
        out[label] = one_step_estimate(
            data, design, MOMENT2, EstimatorVariant.parse(label))
    return out


def test_efficient_report_recovers_target_mean(tilted_reports):
    rep = tilted_reports["efficient_fusion"]
    assert rep.variant == "efficient_fusion"
    assert rep.se > 0
    assert abs(rep.estimate - 0.5) < 4 * rep.se
    assert rep.ci_lo < rep.estimate < rep.ci_hi
    assert rep.n_per_source == {1: 1600, 2: 1600}
    assert len(rep.beta) == 1 and len(rep.beta_se) == 1
    assert rep.beta[0] == pytest.approx(0.8, abs=0.25)
    assert rep.beta_se[0] > 0
    assert set(rep.to_json_dict()) >= {"plugin", "gradient_variances", "flags", "overlap"}
    gv = rep.gradient_variances
    assert gv["efficient"] > 0 and np.isfinite(gv["fixed_beta"])
    assert "2,2" in rep.overlap


def test_target_only_drops_shift_parameters(tilted_reports):
    rep = tilted_reports["target_only"]
    assert rep.beta == [] and rep.beta_se == []
    assert abs(rep.estimate - 0.5) < 4 * rep.se


def test_efficient_no_wider_than_target_only(tilted_reports):
    eff = tilted_reports["efficient_fusion"]
    tgt = tilted_reports["target_only"]
    assert eff.se <= tgt.se * 1.05


def test_naive_fusion_is_biased_upward(tilted_reports):
    # pooling the positively tilted source inflates the mean
    rep = tilted_reports["naive_fusion"]
    assert rep.beta == []
    assert rep.estimate > 0.5 + 2 * rep.se


def test_overparametrized_variant_runs(tilted_reports):
    rep = tilted_reports["overparametrized+1"]
    assert rep.variant == "overparametrized+1"
    assert len(rep.beta) == 2
    assert abs(rep.estimate - 0.5) < 4 * rep.se


def test_bad_level_raised_before_fitting():
    data, design = _tilted_instance(12, seed=6)
    with pytest.raises(BadLevel):
        one_step_estimate(data, design, MOMENT2, level=1.2)


def test_identical_calls_identical_reports():
    data, design = _tilted_instance(500, beta_true=0.4, seed=7)
    a = one_step_estimate(data, design, MOMENT2, seed_value=77)
    b = one_step_estimate(data, design, MOMENT2, seed_value=77)
    assert a.seed == 77
    assert a.to_json_dict() == b.to_json_dict()


def test_level_changes_interval_not_point():
    data, design = _tilted_instance(500, beta_true=0.4, seed=7)
    a = one_step_estimate(data, design, MOMENT2, level=0.95)
    b = one_step_estimate(data, design, MOMENT2, level=0.8)
    assert b.estimate == a.estimate
    assert b.se == a.se
    assert (b.ci_hi - b.ci_lo) < (a.ci_hi - a.ci_lo)
    ratio = (b.ci_hi - b.ci_lo) / (a.ci_hi - a.ci_lo)
    assert ratio == pytest.approx(1.2815515655446004 / Z975, abs=1e-12)


def _ate_instance(n_per, beta_true=-0.8, seed=0):
    """d = 3 with a binary treatment and a linear outcome; source 2's
    outcome density is tilted.  A normal tilted by exp(b*y) is the same
    normal with mean shifted by b*sigma^2, so draws are exact."""
    rng = np.random.default_rng(seed)
    sigma = 0.5
    z1 = rng.uniform(1.0, 2.0, 2 * n_per)
    z2 = (rng.uniform(size=2 * n_per) < 0.5).astype(float)
    mu = 0.5 * z1 + 1.0 * z2
    shift = np.repeat([0.0, beta_true * sigma ** 2], n_per)
    z3 = mu + shift + rng.normal(0.0, sigma, 2 * n_per)
    data = Dataset(np.column_stack([z1, z2, z3]), np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=3, k=2, relevant=(1, 2, 3),
        aligned={1: {1, 2}, 2: {1, 2}, 3: {1}},
        weak={3: {2}},
        weight_specs={(3, 2): WeightSpec.tilt(3, ["z3"])},
    )
    return data, design


def test_mean_difference_pipeline():
    data, design = _ate_instance(2000, beta_true=-0.8, seed=8)
    rep = one_step_estimate(data, design, EstimandSpec("ate"))
    assert abs(rep.estimate - 1.0) < 4 * rep.se
    assert rep.beta[0] == pytest.approx(-0.8, abs=0.45)


def test_mean_difference_needs_three_coordinates():
    rng = np.random.default_rng(9)
    z1 = rng.uniform(0.0, 1.0, 200)
    z2 = (rng.uniform(size=200) < 0.5).astype(float)
    data = Dataset(np.column_stack([z1, z2]), np.ones(200, dtype=int), k=1)
    design = FusionDesign(d=2, k=1, relevant=(1, 2),
                          aligned={1: {1}, 2: {1}}, weak={}, weight_specs={})
    with pytest.raises(StructuralError, match="d = 3"):
        one_step_estimate(data, design, EstimandSpec("ate"))


@pytest.mark.parametrize("variant, estimate", [
    ("target_only", -0.03761502004170426), ("efficient_fusion", -0.04961742177085336)])
def test_a_separated_propensity_reaches_the_report(variant, estimate):
    # z2 = 1{z1 > 1.5} splits the arms along z1, so the propensity's logistic
    # fit needs its ridge; target_only fits no density ratio, so there the
    # flag can only come from the seed's propensity
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)
    z = data.z.copy()
    z[:, 1] = z[:, 0] > 1.5
    rep = one_step_estimate(Dataset(z, data.source, k=data.k), study_design(),
                            EstimandSpec("ate"), EstimatorVariant(variant))
    assert rep.flags == ["SeparationWarning"]
    assert rep.estimate == pytest.approx(estimate, rel=1e-12)


def _linear_instance(n_per, beta_true=-0.6, sigma=0.4, seed=10):
    """d = 2 with a linear outcome; source 2's outcome is a normal tilted by
    exp(b*y), which is the same normal with mean shifted by b*sigma^2."""
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(0.0, 1.0, 2 * n_per)
    mu = 0.3 + 0.9 * z1
    shift = np.repeat([0.0, beta_true * sigma ** 2], n_per)
    z2 = mu + shift + rng.normal(0.0, sigma, 2 * n_per)
    data = Dataset(np.column_stack([z1, z2]), np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=2, k=2, relevant=(1, 2),
        aligned={1: {1, 2}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])},
    )
    return data, design


def test_working_linear_pipeline():
    beta_true = -0.6
    data, design = _linear_instance(1600, beta_true=beta_true)
    rep = one_step_estimate(data, design, EstimandSpec("working_linear", coefficient="slope"))
    assert abs(rep.estimate - 0.9) < 4 * rep.se
    assert rep.beta[0] == pytest.approx(beta_true, abs=0.45)


@pytest.mark.parametrize("variant, passes", [
    ("efficient_fusion", 2), ("target_only", 2), ("naive_fusion", 2)])
def test_engine_pass_count(monkeypatch, variant, passes):
    # one pass at the initial beta for the Newton step, one seeded pass at
    # the updated beta for the gradient; variants without weak pairs run the
    # same pipeline over an empty beta
    calls = []
    real = weakfuse.estimator.compute_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(weakfuse.estimator, "compute_pass", counting)
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1)
    one_step_estimate(data, study_design(), EstimandSpec("ate"),
                      variant=EstimatorVariant(variant))
    assert len(calls) == passes


def test_beta_free_engine_inputs_are_built_once_per_bundle(monkeypatch):
    # the moment match and both engine passes read one set of β-free inputs:
    # each tilt term's prefactor on the index-3 states once, and each ρ_m at
    # the data rows once per (index, source); a further moment match and
    # pass on the same bundle evaluate neither again
    bundles, at_states, at_rows = [], [], []
    fit, prefactor, rho = (weakfuse.estimator.fit_nuisance_bundle, BasisTerm.prefactor,
                           MarginalRatioFits.rho)
    monkeypatch.setattr(weakfuse.estimator, "fit_nuisance_bundle",
                        lambda *a, **k: bundles.append(fit(*a, **k)) or bundles[-1])
    monkeypatch.setattr(BasisTerm, "prefactor",
                        lambda t, z: at_states.append(z) or prefactor(t, z))
    monkeypatch.setattr(MarginalRatioFits, "rho",
                        lambda r, s, z: at_rows.append((r.j, s, len(z))) or rho(r, s, z))
    design = study_design()
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1)
    one_step_estimate(data, design, EstimandSpec("ate"))
    (bundle,) = bundles

    def counts():
        states = bundle.panel(3).eval_states
        return (sum(z is states for z in at_states),
                sorted(key for key in at_rows if key[2] == data.n))

    once = (sum(design.spec_for(*pair).nparams for pair in design.weak_pairs()),
            [(3, s, data.n) for s in (1, 2, 3, 4)])
    assert counts() == once
    compute_pass(bundle, moment_match_beta(bundle).beta)
    assert counts() == once


def test_clip_counts_report_one_pass():
    # the counts are those of the seeded pass at beta-hat, whose machine
    # counts each S_3 row at most once, whichever weak sources' shifts clip
    design = study_design()
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1)
    report = one_step_estimate(data, design, EstimandSpec("ate"),
                               options=NuisanceOptions(ratio_clip=(0.8, 1.25)))
    n_rows = int(np.isin(data.source, sorted(design.sources_at(3))).sum())
    assert set(report.clip_counts) == {"wstar_j3"}
    assert 0 < report.clip_counts["wstar_j3"] <= n_rows


def _exact_mode_instance(n_per=300):
    # two continuous past coordinates, the instance that took the exact
    # layout before panels became tensor grids
    rng = np.random.default_rng(0)
    z12 = rng.uniform(0.5, 1.5, (2 * n_per, 2))
    z3 = np.concatenate([rng.beta(2, 2, n_per), _tilted_beta_draws(rng, n_per, 0.8)])
    data = Dataset(np.column_stack([z12, z3]), np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=3, k=2, relevant=(1, 2, 3),
        aligned={1: {1, 2}, 2: {1, 2}, 3: {1}},
        weak={3: {2}},
        weight_specs={(3, 2): WeightSpec.tilt(3, ["z3"])},
    )
    return data, design


def _varying_instance(n_per, c, seed, tilt=0.8):
    """c continuous past coordinates z1..zc ~ U(0.5, 1.5), then an outcome
    drawn from Beta(3 + 1.5 sin(4 z1) cos(3 z2) [+ 0.5 sin(5 z3) when c >= 3],
    3); source 2's outcome carries the tilt exp(tilt · z_{c+1}), and the
    design estimates the outcome's target mean."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    past = rng.uniform(0.5, 1.5, (n, c))
    shape = 3.0 + 1.5 * np.sin(4 * past[:, 0]) * np.cos(3 * past[:, 1])
    if c >= 3:
        shape += 0.5 * np.sin(5 * past[:, 2])
    t = np.where(np.arange(n) < n_per, 0.0, tilt)
    y = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        x = rng.beta(shape[todo], 3.0)
        ok = rng.uniform(size=todo.size) < np.exp(t[todo] * (x - 1.0))
        y[todo[ok]] = x[ok]
        todo = todo[~ok]
    d = c + 1
    data = Dataset(np.column_stack([past, y]), np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=d, k=2, relevant=tuple(range(1, d + 1)),
        aligned={**{i: {1, 2} for i in range(1, d)}, d: {1}},
        weak={d: {2}},
        weight_specs={(d, 2): WeightSpec.tilt(d, [f"z{d}"])},
    )
    return data, design


def test_efficient_estimate_on_exact_mode_panel():
    # the moment match reads the aligned rows through the tensor grid's row
    # map like the engine does
    data, design = _exact_mode_instance()
    rep = one_step_estimate(data, design, EstimandSpec("moment", index=3))
    assert np.isfinite(rep.estimate) and np.isfinite(rep.se)
    assert rep.flags == []
    # target mean of z3 is exactly 1/2
    assert abs(rep.estimate - 0.5) < 4 * rep.se


def test_exact_mode_memory_grows_linearly(monkeypatch):
    # with every weight block rebuilt chunk by chunk on each read, doubling
    # the rows doubles at most the O(n) arrays: the tensor grid's states
    # grow far slower than the rows, and no block is ever held whole
    monkeypatch.setattr(weakfuse.nuisance, "_STORE_BYTES", 0)
    peaks, states = [], []
    for n_per in (300, 600):
        data, design = _exact_mode_instance(n_per)
        states.append(fit_nuisance_bundle(data, design).panel(3).eval_states.shape[0])
        tracemalloc.start()
        try:
            one_step_estimate(data, design, EstimandSpec("moment", index=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert states[1] < 1.5 * states[0], states
    assert peaks[1] <= 2.2 * peaks[0], peaks


@pytest.mark.parametrize("cross_fit", [False, True])
def test_tensor_grid_estimate_matches_the_exact_layout(monkeypatch, cross_fit):
    # two continuous past coordinates and an outcome whose conditional law
    # varies with both: reading the index-3 fields on the tensor grid moves
    # the estimate by at most 0.1 se from the exact layout's, which
    # evaluates them at every data row
    data, design = _varying_instance(600, c=2, seed=1)
    estimand = EstimandSpec("moment", index=3)
    options = NuisanceOptions(cross_fit=cross_fit)
    grid = one_step_estimate(data, design, estimand, options=options)
    kernel_panel = weakfuse.nuisance.KernelPanel
    monkeypatch.setattr(weakfuse.nuisance, "KernelPanel",
                        lambda j, *args, **kw: (ExactPanel if j == 3 else kernel_panel)(
                            j, *args, **kw))
    exact = one_step_estimate(data, design, estimand, options=options)
    assert grid.flags == exact.flags == []
    assert abs(grid.estimate - exact.estimate) <= 0.1 * exact.se
    assert grid.se == pytest.approx(exact.se, rel=0.01)


def _permuted(data, perm):
    return Dataset(data.z[perm], data.source[perm], k=data.k)


def test_cross_fit_estimate_does_not_depend_on_row_order():
    # the folds split the training rows in row order, so a row permutation
    # draws a new split; every stage must read the rows' fields from one
    # fold per row, or the split moves the estimate by a first-order amount
    # (a median spread of 0.5-1.3 se when the seed's arm means read fold 0
    # only and every row that trained neither fold read fold 0)
    scenario = named_scenario("moderately_aligned", n_per_source=1000)
    options = NuisanceOptions(cross_fit=True)
    rng = np.random.default_rng(0)
    spread = {v: [] for v in ("target_only", "naive_fusion", "efficient_fusion")}
    for rep in range(4):
        data = generate_dataset(scenario, 1, rep)
        perms = [rng.permutation(data.n) for _ in range(5)]
        for v, out in spread.items():
            reports = [one_step_estimate(_permuted(data, p), study_design(), EstimandSpec("ate"),
                                         EstimatorVariant(v), options=options) for p in perms]
            est = np.array([r.estimate for r in reports])
            out.append(est.std(ddof=1) / np.mean([r.se for r in reports]))
    for v, out in spread.items():
        assert np.median(out) <= 0.2, (v, out)


def _swap_sources_3_and_4(data):
    source = data.source.copy()
    source[data.source == 3], source[data.source == 4] = 4, 3
    design = study_design()
    specs = {(j, {3: 4, 4: 3}.get(s, s)): spec for (j, s), spec in design.weight_specs}
    return Dataset(data.z, source, k=data.k), FusionDesign(
        design.d, design.k, design.relevant, dict(design.aligned), dict(design.weak), specs)


@functools.cache
def _invariance_base():
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)
    return data, one_step_estimate(data, study_design(), EstimandSpec("ate"))


@settings(max_examples=4, deadline=None)
@given(perm=st.permutations(range(1200)))
def test_estimate_ignores_row_order_and_source_labels(perm):
    # without cross-fitting, neither the order of the 1200 rows nor the
    # labels of two weak sources, their weight models going with them, are
    # part of the estimate: only summation order may move it
    data, base = _invariance_base()
    data = _permuted(data, np.array(perm))
    moved = one_step_estimate(data, study_design(), EstimandSpec("ate"))
    assert moved.flags == base.flags
    np.testing.assert_allclose([moved.estimate, moved.se], [base.estimate, base.se],
                               rtol=1e-12, atol=0)
    swapped = one_step_estimate(*_swap_sources_3_and_4(data), EstimandSpec("ate"))
    assert swapped.flags == base.flags
    np.testing.assert_allclose([swapped.estimate, swapped.se], [base.estimate, base.se],
                               rtol=1e-12, atol=0)
    # β lists pair (3, 2)'s two terms, then (3, 3)'s one, then (3, 4)'s one
    np.testing.assert_allclose(swapped.beta, np.array(base.beta)[[0, 1, 3, 2]],
                               rtol=1e-12, atol=0)


def test_study_estimate_frees_the_sweep_scratch():
    # the engine's chunk scratch is one allocation per sweep, sized for its
    # largest block, and is freed when the sweep ends; with one allocation
    # per block, alive until the fusion algebra was done, the peak was 4.7 MiB
    # (after a warm-up run, so that first-call caches do not count)
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)
    one_step_estimate(data, study_design(), EstimandSpec("ate"))
    tracemalloc.start()
    try:
        one_step_estimate(data, study_design(), EstimandSpec("ate"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * 2 ** 20, peak


def test_moment_tower_on_exact_mode_panel():
    # target_only trains the index-2 panel on source 1 only; the backward
    # tower reads the tensor-grid index-3 fields at those training rows
    data, design = _exact_mode_instance()
    rep = one_step_estimate(data, design, EstimandSpec("moment", index=3),
                            EstimatorVariant("target_only"))
    assert np.isfinite(rep.estimate) and np.isfinite(rep.se)
    assert abs(rep.estimate - 0.5) < 4 * rep.se


# ---------------------------------------------------------------------------
# small and degenerate designs

_SMALL = named_scenario("moderately_aligned", n_per_source=50)
_ALL_VARIANTS = [EstimatorVariant("target_only"), EstimatorVariant("naive_fusion"),
                 EstimatorVariant("efficient_fusion"),
                 EstimatorVariant("overparametrized", extra_terms=2)]


def _first_rows(seed, sizes, z_edit=None):
    """The first sizes[s-1] rows of each source of one small study draw,
    with z_edit(z, source) applied to a copy of z."""
    full = generate_dataset(_SMALL, seed, 0)
    idx = np.concatenate([np.flatnonzero(full.source == s)[:n]
                          for s, n in enumerate(sizes, start=1)])
    z, source = full.z[idx].copy(), full.source[idx]
    if z_edit is not None:
        z_edit(z, source)
    return Dataset(z, source, k=full.k)


def test_one_row_branch_is_insufficient_data():
    # the index-3 panel trains on source 1 alone, whose z2 = 0 branch holds
    # one row, and no tilt of that point mass reproduces source 2's z2 = 0
    # rows, so no shift parameter could be fitted
    data = _first_rows(1, [5] * 4)
    with pytest.raises(InsufficientData, match="index 3, branch z2 = 0: 1 training row$"):
        one_step_estimate(data, study_design(), EstimandSpec("ate"))


def test_non_finite_shift_moments_are_named():
    # with z1 constant the moment match stops at beta(3,2) near (-271, 267);
    # every normalizer is finite, but some of source 2's shift moments are
    # not, and the fusion matrices built from them cannot be inverted
    def constant_z1(z, source):
        z[:, 0] = 1.3
    data = _first_rows(247147, [20] * 4, constant_z1)
    with pytest.raises(NonFiniteNormalizer,
                       match="moments for index 3, source 2 are not finite at 18 states"):
        one_step_estimate(data, study_design(), EstimandSpec("ate"))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 20),
       sizes=st.lists(st.integers(5, 20), min_size=4, max_size=4),
       empty=st.sampled_from([None, None, None, 2, 3, 4]),
       constant=st.sampled_from([None, 0, 1, 2]), one_row_branch=st.booleans(),
       z3_power=st.sampled_from([1.0, 1 / 16, 16.0]), variant=st.sampled_from(_ALL_VARIANTS))
def test_small_designs_end_in_a_package_error_or_a_finite_report(
        seed, sizes, empty, constant, one_row_branch, z3_power, variant):
    # at most 80 rows: a weak source with no rows, a constant column, a
    # target z2 = 0 branch of one row, z3 pushed toward 0 or 1 (the tilts
    # read log z3 and log(1 - z3))
    if empty is not None:
        sizes[empty - 1] = 0

    def edit(z, source):
        if constant is not None:
            z[:, constant] = z[0, constant]
        if one_row_branch:
            zero = np.flatnonzero((source == 1) & (z[:, 1] == 0))
            z[zero[1:], 1] = 1.0
        z[:, 2] **= z3_power
    data = _first_rows(seed, sizes, edit)
    try:
        rep = one_step_estimate(data, study_design(), EstimandSpec("ate"), variant=variant)
    except WeakfuseError:
        return
    assert np.all(np.isfinite([rep.estimate, rep.se, rep.ci_lo, rep.ci_hi]))
    assert np.all(np.isfinite(rep.beta)) and np.all(np.isfinite(rep.beta_se))
