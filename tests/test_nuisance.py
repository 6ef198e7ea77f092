import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfuse.errors import (
    InsufficientData,
    NonBinaryTreatment,
    NuisanceMissing,
    StructuralError,
)
import weakfuse.nuisance as nuisance
from weakfuse.betafit import moment_match_beta
from weakfuse.estimator import EstimatorVariant, apply_variant, one_step_estimate
from weakfuse.gradients import EstimandSpec, _IndexMachine, compute_pass, seed_gradient
from weakfuse.model import Dataset, FusionDesign, layout_from_design
from weakfuse.nuisance import (
    _EPS_W,
    KernelPanel,
    MarginalRatioFits,
    NuisanceOptions,
    RowMap,
    _binary_columns,
    _chunks,
    _smooth_at_train,
    fit_nuisance_bundle,
    fit_propensity,
    silverman_bandwidths,
)
from weakfuse.simulation import generate_dataset, named_scenario, study_design
from weakfuse.weights import WeightSpec

from oracles import (
    DiscreteLaw,
    DiscretePanel,
    assemble_beta,
    beta_mean,
    binary_columns_by_set,
    dense_mean_field,
    dense_rowmean,
    dense_weights,
    kernel_regression,
    lambda_prev,
    rowmap_apply,
    smoother,
)


# ---------------------------------------------------------------------------
# bandwidths and kernel regression


def test_silverman_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 2))
    h, floored = silverman_bandwidths(X)
    assert not floored
    factor = (4.0 / (4 * 400)) ** (1.0 / 6.0)
    np.testing.assert_allclose(h, X.std(axis=0, ddof=1) * factor, rtol=1e-14)


def test_silverman_floors_constant_column():
    X = np.column_stack([np.full(50, 0.5), np.linspace(0, 1, 50)])
    h, floored = silverman_bandwidths(X)
    assert floored
    assert h[0] > 0
    # the tail smoother still reads the other column's signal exactly
    got = _smooth_at_train(X, h, X[:, 1:])[:, 0]
    np.testing.assert_allclose(got, kernel_regression(X, X, X[:, 1], h), rtol=1e-13)
    # a panel over the same two past coordinates records the floor as a
    # fit-time flag of the bundle
    data = Dataset(np.column_stack([X, X[::-1, 1]]), np.ones(50, dtype=int), k=1)
    design = FusionDesign(d=3, k=1, relevant=(3,), aligned={1: {1}, 2: {1}, 3: {1}})
    bundle = fit_nuisance_bundle(data, design)
    assert bundle.panel(3).floored
    assert bundle.flags == frozenset({"SingularBandwidth"})
    # far from zero a constant column's std is exactly 0 too, alone or beside
    # a varying column, where it was rounding noise (h about 7e83 at 1e100)
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e100, -1e150, 1e200):
            for X in (np.full((200, 1), value),
                      np.column_stack([np.full(200, value), rng.uniform(size=200)])):
                h, floored = silverman_bandwidths(X)
                assert floored and h[0] == nuisance._H_FLOOR, (value, h)
        # a column that spans more than the float range still has a finite spread
        X = np.column_stack([np.tile([-1e308, 1e308], 20), rng.uniform(size=40)])
        h, floored = silverman_bandwidths(X)
        assert not floored and np.all(np.isfinite(h)) and h[0] > 1e307, h
        # up to the float maximum its std is infinite, without a warning
        # (`Dataset` refuses such a column, as no grid axis over it is finite)
        top = np.finfo(float).max
        sd = nuisance._column_std(np.column_stack([np.tile([-top, top], 20), X[:, 1]]), 1)
        assert sd[0] == np.inf and np.isfinite(sd[1]), sd


def test_grid_panel_records_a_floored_bandwidth():
    # a constant z1 floors the grid panel's bandwidth at index 2, and the
    # floor reaches the estimate's flags; z1 gives the ratio fit no
    # features, so the ratio is flat over the panel's padded axis, and far
    # from zero nothing overflows
    rng = np.random.default_rng(0)
    z2 = np.concatenate([rng.beta(2, 2, 200), rng.beta(2.5, 2, 200)])
    design = FusionDesign(d=2, k=2, relevant=(1, 2), aligned={1: {1, 2}, 2: {1}},
                          weak={2: {2}}, weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])})
    for value in (0.7, 1e200, 1e306, np.finfo(float).max):
        data = Dataset(np.column_stack([np.full(400, value), z2]), np.repeat([1, 2], 200), k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = fit_nuisance_bundle(data, design)
            report = one_step_estimate(data, design, EstimandSpec("moment", index=2))
        assert len(bundle.panel(2).axes) == 1
        assert bundle.panel(2).floored
        rho = bundle.ratio_fits(2).rho(2, bundle.panel(2).eval_states)
        assert np.all(rho == rho[0])
        assert "SingularBandwidth" in report.flags


def test_an_overflowing_column_mean_changes_no_bit_of_the_estimate():
    # z1 near the float maximum, whose sum overflows, centers the ratio
    # features at the mean of its power-of-two-scaled values; every step is
    # then exact under a power-of-two change of units, so the estimate, se
    # and β equal those of the same data scaled by 2^-1000
    rng = np.random.default_rng(0)
    z2 = np.concatenate([rng.beta(2, 2, 200), rng.beta(2.5, 2, 200)])
    z1 = rng.uniform(1e307, 1.7e308, 400)
    design = FusionDesign(d=2, k=2, relevant=(1, 2), aligned={1: {1, 2}, 2: {1}},
                          weak={2: {2}}, weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])})
    reports = []
    for scale in (0, -1000):
        data = Dataset(np.column_stack([np.ldexp(z1, scale), z2]), np.repeat([1, 2], 200), k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports.append(one_step_estimate(data, design, EstimandSpec("moment", index=2)))
    big, small = reports
    assert (big.estimate, big.se, big.beta, big.flags) == (
        small.estimate, small.se, small.beta, small.flags)
    assert np.isfinite(big.estimate) and big.flags == []


def test_kernel_regression_constant_is_flat():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(60, 1))
    sm = smoother(rng.uniform(size=(20, 1)), X, silverman_bandwidths(X)[0])
    np.testing.assert_allclose(sm.mean_field(np.full(60, 3.7)), 3.7, rtol=1e-13)


def test_kernel_regression_tracks_smooth_signal():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 1500)
    y = np.sin(2 * np.pi * x) + rng.normal(scale=0.05, size=1500)
    xq = np.linspace(0.1, 0.9, 9)[:, None]
    got = smoother(xq, x[:, None], np.array([0.03])).mean_field(y)
    np.testing.assert_allclose(got, np.sin(2 * np.pi * xq.ravel()), atol=0.05)


@pytest.mark.parametrize("chunk_bytes", [8 * 300, 8 * 300 * 7, 2 ** 62],
                         ids=["one-row-strips", "uneven-strips", "one-strip"])
@pytest.mark.parametrize("columns", ["1-d", "2-d", "floored"])
def test_tail_smoother_matches_kernel_formula(monkeypatch, chunk_bytes, columns):
    # the tail adjustment's smoother, which builds each strip of rows on and
    # right of the diagonal and adds the transpose to the later rows, against
    # the dense kernel formula, one value column at a time; 300 rows make
    # strips of 1, of 7 (the last of 6) or of all rows
    monkeypatch.setattr(nuisance, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(300, 2))
    if columns == "1-d":
        X = X[:, 1:]
    elif columns == "floored":
        X[:, 0] = 0.5
    Y = np.column_stack([np.sin(6 * X[:, 0]), X[:, -1] ** 2 - 0.3])
    h, floored = silverman_bandwidths(X)
    assert floored == (columns == "floored")
    got = _smooth_at_train(X, h, Y)
    for c in range(2):
        np.testing.assert_allclose(got[:, c], kernel_regression(X, X, Y[:, c], h), rtol=1e-13)


def test_kernel_regression_rules_and_errors():
    # z1 is constant on the rows of source 1, the single source at index 1,
    # but not on index 2's training rows: only the tail adjustment's smoother
    # floors its bandwidth, and the engine pass flags it
    rng = np.random.default_rng(0)
    n = 200
    z1 = np.concatenate([np.full(n, 0.7), rng.uniform(0.5, 1.0, 2 * n)])
    data = Dataset(np.column_stack([z1, rng.beta(2, 2, 3 * n)]), np.repeat([1, 2, 3], n), k=3)
    design = FusionDesign(d=2, k=3, relevant=(1, 2), aligned={1: {1}, 2: {1, 3}},
                          weak={2: {2}}, weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])})
    nuis = fit_nuisance_bundle(data, design)
    assert not nuis.panel(2).floored and "SingularBandwidth" not in nuis.flags
    seed = seed_gradient(EstimandSpec("moment", index=2), nuis)
    p = compute_pass(nuis, moment_match_beta(nuis).beta, seed)
    assert "SingularBandwidth" in p.flags
    assert np.all(np.isfinite(p.dtilde))


# ---------------------------------------------------------------------------
# propensity


def _binary_design(n, rng, coef=(0.3, -0.2)):
    z1 = rng.uniform(1, 2, n)
    p = 1 / (1 + np.exp(-(coef[0] + coef[1] * z1)))
    z2 = (rng.uniform(size=n) < p).astype(float)
    data = Dataset(np.column_stack([z1, z2]), np.ones(n, dtype=int), k=1)
    design = FusionDesign(d=2, k=1, relevant=(2,), aligned={1: {1}, 2: {1}})
    return data, design


def test_propensity_recovers_logistic_coefficients():
    rng = np.random.default_rng(8)
    data, design = _binary_design(4000, rng)
    fit = fit_propensity(data, design)
    assert fit.coef[0] == pytest.approx(0.3, abs=0.25)
    assert fit.coef[1] == pytest.approx(-0.2, abs=0.18)
    p = fit.predict(np.array([1.0, 1.5, 2.0]))
    assert np.all((p >= 0.01) & (p <= 0.99))


def test_propensity_rejects_non_binary():
    rng = np.random.default_rng(9)
    z = np.column_stack([rng.uniform(size=50), rng.uniform(size=50)])
    data = Dataset(z, np.ones(50, dtype=int), k=1)
    design = FusionDesign(d=2, k=1, relevant=(2,), aligned={1: {1}, 2: {1}})
    with pytest.raises(NonBinaryTreatment):
        fit_propensity(data, design)


# ---------------------------------------------------------------------------
# marginal density ratios


def test_ratio_fits_trivial_at_first_index():
    law = DiscreteLaw()
    fits = MarginalRatioFits(1, law.design(), law.dataset(), NuisanceOptions())
    z0 = np.zeros((4, 0))
    np.testing.assert_array_equal(fits.rho(1, z0), np.ones(4))
    diag = fits.overlap_diagnostics(1)
    assert (diag.min_ratio, diag.max_ratio, diag.frac_clipped) == (1.0, 1.0, 0.0)


def test_ratio_single_aligned_source_is_exactly_one():
    law = DiscreteLaw()
    fits = MarginalRatioFits(3, law.design(), law.dataset(), NuisanceOptions())
    Zprev = law.dataset().z[:5, :2]
    np.testing.assert_array_equal(fits.rho(1, Zprev), np.ones(5))
    with pytest.raises(NuisanceMissing):
        fits.rho(9, Zprev)


def _two_source_data(n, rng):
    # source 1: z1 ~ Beta(2, 2); source 2: z1 ~ Beta(3, 2); z2 arbitrary
    z1 = np.concatenate([rng.beta(2, 2, n), rng.beta(3, 2, n)])
    z2 = rng.uniform(size=2 * n)
    s = np.repeat([1, 2], n)
    data = Dataset(np.column_stack([z1, z2]), s, k=2)
    design = FusionDesign(
        d=2, k=2, relevant=(2,),
        aligned={1: {1, 2}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): WeightSpec.tilt(2, ["z2"])},
    )
    return data, design


def test_ratio_integrates_to_one_over_pool():
    rng = np.random.default_rng(12)
    data, design = _two_source_data(2500, rng)
    fits = MarginalRatioFits(2, design, data, NuisanceOptions())
    pool = data.rows_of(1)
    mean_rho = float(fits.rho(2, data.z[pool]).mean())
    assert mean_rho == pytest.approx(1.0, abs=0.1)


def test_ratio_tracks_analytic_beta_ratio():
    rng = np.random.default_rng(13)
    data, design = _two_source_data(4000, rng)
    fits = MarginalRatioFits(2, design, data, NuisanceOptions())
    xs = np.linspace(0.15, 0.85, 8)
    got = fits.rho(2, np.column_stack([xs, np.zeros(8)]))
    b22 = math.lgamma(2) * 2 - math.lgamma(4)
    b32 = math.lgamma(3) + math.lgamma(2) - math.lgamma(5)
    want = np.exp((3 - 2) * np.log(xs) - b32 + b22)
    np.testing.assert_allclose(got, want, rtol=0.2)


def test_ratio_clipping_is_counted():
    rng = np.random.default_rng(14)
    data, design = _two_source_data(600, rng)
    fits = MarginalRatioFits(2, design, data, NuisanceOptions(ratio_clip=(0.8, 1.25)))
    vals = fits.rho(2, np.array([[1e6, 0.0], [-1e6, 0.0]]))
    lo, hi = fits.options.ratio_clip
    assert set(vals) <= {lo, hi}
    # the overlap record counts each data row once: the share of rows whose
    # ratio sits on a clip bound
    at_bound = np.isin(fits.rho(2, data.z), (lo, hi))
    frac = fits.overlap_diagnostics(2).frac_clipped
    assert 0.0 < frac < 1.0
    assert frac == float(np.mean(at_bound))


def test_lambda_prev_conventions():
    rng = np.random.default_rng(15)
    data, design = _two_source_data(800, rng)
    fits = MarginalRatioFits(2, design, data, NuisanceOptions())
    delta = {1: 0.5, 2: 0.5}
    Zprev = data.z[:6]
    lam = lambda_prev(fits, delta, Zprev)
    want = 1.0 / (0.5 * fits.rho(1, Zprev) + 0.5 * fits.rho(2, Zprev))
    np.testing.assert_allclose(lam, want, rtol=1e-12)
    # single participating source collapses to exactly one
    law = DiscreteLaw()
    fits1 = MarginalRatioFits(2, law.design(), law.dataset(), NuisanceOptions())
    np.testing.assert_array_equal(
        lambda_prev(fits1, {1: 1.0}, law.dataset().z[:4, :1]), np.ones(4))


# ---------------------------------------------------------------------------
# panels


def test_row_map_interpolates():
    rm = RowMap(np.array([[0, 1], [1, 2]]), np.array([[0.75, 0.5], [0.25, 0.5]]))
    np.testing.assert_allclose(rm.apply(np.array([10.0, 20.0, 40.0])), [12.5, 30.0])
    F = np.array([[10.0, 0.0], [20.0, 2.0], [40.0, 4.0]])
    np.testing.assert_allclose(rm.apply(F), [[12.5, 0.5], [30.0, 3.0]])


def test_row_map_reads_are_bit_exact_for_any_layout():
    # the pinned estimates allow 1e-12, so bit changes in a row read would
    # pass them unnoticed; here every read must equal the definition exactly,
    # for 2^c corners with product weights, c = 0..3 continuous coordinates
    rng = np.random.default_rng(5)
    E, n, k = 37, 500, 4
    P = rng.normal(size=(E, k, k)) * 10.0 ** rng.integers(-8, 8, (E, k, k))
    fields = {"1-d": P[:, 0, 0].copy(), "contiguous (E, k)": P[:, :, 1].copy(),
              "strided (E, k)": P[:, :, 2], "strided 1-d": P[:, 1, 3],
              "Fortran (E, k)": np.asfortranarray(P[:, 3, :])}
    for c in range(4):
        weight = [np.ones(n)]
        for _ in range(c):
            f = rng.random(n)
            weight = [w * (1.0 - f) for w in weight] + [w * f for w in weight]
        rm = RowMap(rng.integers(0, E, (2 ** c, n)), np.array(weight))
        for what, F in fields.items():
            got, want = rm.apply(F), rowmap_apply(rm, F)
            assert got.shape == want.shape, (c, what)
            assert got.tobytes() == want.tobytes(), (c, what)
            assert rm.take(np.arange(0, n, 3)).apply(F).tobytes() == want[::3].tobytes(), \
                (c, what)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 20), c=st.integers(0, 3), binary=st.booleans(),
       cross_fit=st.booleans())
def test_row_map_corners_are_a_partition_of_unity(seed, c, binary, cross_fit):
    # any rows, inside the data's range or not, read corner weights in [0, 1]
    # that sum to one; a row placed at a state's own point reads that
    # state's field, bit for bit
    rng = np.random.default_rng(seed)
    n = 200
    z = rng.uniform(0.1, 0.9, size=(n, c + binary + 1))
    if binary:
        z[:, c] = rng.integers(0, 2, n).astype(float)
    data = Dataset(z, np.ones(n, dtype=int), k=1)
    panel = KernelPanel(c + binary + 1, data, np.arange(n), NuisanceOptions(cross_fit=cross_fit))
    assert len(panel.axes) == c
    # a branch holds at most as many states as the data has rows
    assert math.prod(g.size for g in panel.axes) <= (301 if c == 1 else n)
    rows = rng.uniform(-0.2, 1.2, size=(50, c + binary))
    if binary:
        rows[:, c] = rng.integers(0, 2, 50).astype(float)
    rm = panel.row_map(rows)
    assert rm.idx.shape == rm.weight.shape == (2 ** c, 50)
    assert np.all((rm.weight >= 0) & (rm.weight <= 1))
    np.testing.assert_allclose(rm.weight.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    E0 = panel.folds[0][0].stop
    field = rng.normal(size=panel.eval_states.shape[0])
    own = panel.row_map(panel.eval_states[:E0])
    assert own.apply(field).tobytes() == field[:E0].tobytes()


@pytest.mark.parametrize("col, binary", [
    ([0.0, 1.0, 1.0, 0.0], True),
    ([-0.0, 1.0], True),
    ([0.0, 1.0, 0.5], False),
    ([0.0, 0.0, 0.0], True),
    ([1.0], True),
    ([0.0, math.nan], False),
], ids=["zero_one", "negative_zero", "half", "all_zero", "single_row", "nan"])
def test_binary_columns_match_the_set_rule(col, binary):
    Z = np.column_stack([col, np.full(len(col), 2.0), col])
    got = _binary_columns(Z)
    assert got.dtype == bool
    assert got.tolist() == binary_columns_by_set(Z).tolist() == [binary, False, binary]


def _panel_data(n, rng, d=3, binary_col=None):
    z = rng.uniform(0.1, 0.9, size=(n, d))
    if binary_col is not None:
        z[:, binary_col] = rng.integers(0, 2, n).astype(float)
    return Dataset(z, np.ones(n, dtype=int), k=1)


def test_kernel_panel_scope_mode():
    # index 1 has no past coordinate: a grid of one state whose all-ones
    # block averages the scope's training rows
    rng = np.random.default_rng(21)
    data = _panel_data(40, rng)
    panel = KernelPanel(1, data, np.arange(40), NuisanceOptions())
    assert panel.axes == []
    assert panel.eval_states.shape == (1, 0)
    (rows, cols, src), = panel.blocks
    W, deg = src.rows(0, rows.size)
    assert not deg.any()
    np.testing.assert_array_equal(rows, [0])
    np.testing.assert_array_equal(cols, np.arange(40))
    assert W.shape == (1, 40) and np.all(W == W[0, 0])
    f = panel.mean_field(data.z[:, 0])
    assert f.shape == (1,)
    assert f[0] == pytest.approx(data.z[:, 0].mean(), rel=1e-15)
    rm = panel.row_map(np.zeros((7, 0)))
    np.testing.assert_array_equal(rm.apply(f), np.full(7, f[0]))


def test_kernel_panel_grid_mode_single_continuous():
    rng = np.random.default_rng(22)
    data = _panel_data(500, rng, d=2)
    panel = KernelPanel(2, data, np.arange(500), NuisanceOptions())
    grid, = panel.axes
    assert panel.eval_states.shape == (301, 1)
    # conditional mean of a linear function of the conditioning value stays
    # close to the identity over the interior of the grid
    f = panel.mean_field(data.z[:, 0])
    inner = (grid > 0.25) & (grid < 0.75)
    np.testing.assert_allclose(f[inner], grid[inner], atol=0.02)
    rm = panel.row_map(data.z[:, :1])
    np.testing.assert_allclose(rm.apply(panel.eval_states[:, 0]), data.z[:, 0], atol=1e-9)


def test_kernel_panel_grid_mode_with_binary_stratum():
    rng = np.random.default_rng(23)
    n = 600
    z1 = rng.uniform(0.1, 0.9, n)
    z2 = rng.integers(0, 2, n).astype(float)
    z3 = z2 + 0.1 * z1 + rng.normal(scale=0.01, size=n)
    data = Dataset(np.column_stack([z1, z2, z3]), np.ones(n, dtype=int), k=1)
    panel = KernelPanel(3, data, np.arange(n), NuisanceOptions())
    G = panel.axes[0].size
    assert panel.eval_states.shape == (2 * G, 2)
    f = panel.mean_field(data.z[:, 2])
    rm0 = panel.row_map(np.array([[0.5, 0.0]]))
    rm1 = panel.row_map(np.array([[0.5, 1.0]]))
    # strata are matched exactly, so the fitted means differ by the z2 effect
    assert rm1.apply(f)[0] - rm0.apply(f)[0] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("case", ["plain", "cross_fit", "one_valued_z2", "two_binary"])
def test_at_branch_read_through_a_row_map_equals_the_map_of_the_set_rows(case):
    # the field re-indexed to a branch value, read through the data rows'
    # map, is the field read through the map of the same rows with that
    # column set to the value, bit for bit, cross-fit fold routing included
    rng = np.random.default_rng(29)
    n = 400
    z = rng.uniform(0.1, 0.9, size=(n, 4))
    z[:, 1] = 1.0 if case == "one_valued_z2" else rng.integers(0, 2, n)
    if case == "two_binary":
        z[:, 2] = rng.integers(0, 2, n)
    j = 4 if case == "two_binary" else 3
    data = Dataset(z[:, :j], np.ones(n, dtype=int), k=1)
    train = np.arange(n) if case != "cross_fit" else np.flatnonzero(rng.random(n) < 0.7)
    panel = KernelPanel(j, data, train, NuisanceOptions(cross_fit=case == "cross_fit"))
    assert len(panel.folds) == (2 if case == "cross_fit" else 1)
    every = np.arange(n)
    rows = data.z[:, :j - 1]
    rmap = panel.row_map(rows, row_idx=every)
    E = panel.eval_states.shape[0]
    for field in (rng.normal(size=E), rng.normal(size=(E, 2))):
        for col in panel.bin_cols:
            for value in (0.0, 1.0, 0.3, 2.0):
                set_rows = rows.copy()
                set_rows[:, col] = value
                want = panel.row_map(set_rows, row_idx=every).apply(field)
                got = rmap.apply(panel.at_branch(field, col, value))
                assert got.tobytes() == want.tobytes(), (col, value)


def test_kernel_panel_tensor_grid_maps_any_rows():
    # two continuous past coordinates: a tensor grid whose spacing is at most
    # the bandwidth unless floor(sqrt(n)) points per axis cap it (at 80 rows,
    # 8 points), and a row map that reads any rows, a subset of the data or
    # points off it, and reproduces a field that is linear in each axis
    rng = np.random.default_rng(24)
    for n, capped in ((80, True), (400, False)):
        data = _panel_data(n, rng, d=3)
        panel = KernelPanel(3, data, np.arange(n), NuisanceOptions())
        g1, g2 = panel.axes
        assert panel.eval_states.shape == (g1.size * g2.size, 2)
        for g, h in zip(panel.axes, panel.h[0]):
            assert g.size == min(math.ceil((g[-1] - g[0]) / h) + 1, math.isqrt(n))
            assert (g.size == math.isqrt(n)) == capped
            assert capped or np.diff(g).max() <= h
        full = panel.row_map(data.z[:, :2])
        part = panel.row_map(data.z[10:30, :2])
        np.testing.assert_array_equal(part.idx, full.idx[:, 10:30])
        np.testing.assert_array_equal(part.weight, full.weight[:, 10:30])

        def bilinear(X):
            return 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1] + 0.5 * X[:, 0] * X[:, 1]

        pts = np.column_stack([rng.uniform(g1[0], g1[-1], 50), rng.uniform(g2[0], g2[-1], 50)])
        np.testing.assert_allclose(panel.row_map(pts).apply(bilinear(panel.eval_states)),
                                   bilinear(pts), rtol=1e-13)


def test_tensor_grid_caps_an_axis_whose_bandwidth_is_floored():
    # the training rows hold z1 constant, so its bandwidth is floored, while
    # the data's z1 range reaches 1e303: range / h overflows, and the axis
    # takes the floor(sqrt(n)) cap (the Gaussian's scaled distances to the
    # far states overflow too, to weights of 0)
    rng = np.random.default_rng(28)
    z = rng.uniform(0.1, 0.9, size=(100, 3))
    z[:50, 0] = 0.5
    z[99, 0] = 1e303
    data = Dataset(z, np.ones(100, dtype=int), k=1)
    with np.errstate(over="ignore"):
        panel = KernelPanel(3, data, np.arange(50), NuisanceOptions())
        field = panel.mean_field(z[:50, 2])
    assert panel.floored
    assert panel.axes[0].size == 10
    assert np.all(np.isfinite(field))


_MAX = np.finfo(float).max


@pytest.mark.parametrize("value", [
    1e17, -1e17, 1e100, -1e150, 1e200, -1e250, _MAX, -_MAX,
    pytest.param([1e17, np.nextafter(1e17, np.inf)], id="1e17-alternating-ulp")])
def test_a_constant_axis_far_from_zero_maps_rows_with_finite_weights(value):
    # lo + 1 == lo beyond 2^53, so a constant z1 there needs a wider axis,
    # whose points stay distinct, as they do over a range of a few ulps,
    # where linspace repeats them; each row then reads its corners with
    # finite weights that sum to one. A constant column's std overflows from
    # 1e200 on, and the Gaussian's far states overflow to weights of 0 (any
    # warning here is an error in tests)
    rng = np.random.default_rng(29)
    z1 = np.resize(value, 40)
    z = np.column_stack([z1, rng.uniform(0.0, 1.0, (40, 2))])
    panel = KernelPanel(3, Dataset(z, np.ones(40, dtype=int), k=1), np.arange(40),
                        NuisanceOptions())
    assert np.all(np.isfinite(panel.h[0]))
    assert np.all(np.diff(panel.axes[0]) > 0)
    rmap = panel.row_map(z[:, :2])
    assert np.all(np.isfinite(rmap.weight))
    np.testing.assert_allclose(rmap.weight.sum(axis=0), 1.0, rtol=1e-15)
    assert np.all(np.isfinite(panel.mean_field(panel.zj)))


def test_kernel_panel_weights_at_matches_kernel():
    rng = np.random.default_rng(25)
    data = _panel_data(200, rng, d=2)
    panel = KernelPanel(2, data, np.arange(200), NuisanceOptions())
    # each panel row holds the kernel weights from its grid state to the
    # training rows
    e = 120
    x = panel.eval_states[e, 0]
    manual = np.exp(-0.5 * ((x - data.z[:, 0]) / panel.h[0][0]) ** 2)
    np.testing.assert_allclose(dense_weights(panel, data)[e], manual, rtol=1e-12)
    # without binary coordinates one block covers every state and training
    # row, each row normalized
    (rows, cols, src), = panel.blocks
    W, _ = src.rows(0, rows.size)
    np.testing.assert_array_equal(rows, np.arange(panel.eval_states.shape[0]))
    np.testing.assert_array_equal(cols, np.arange(200))
    np.testing.assert_allclose(W[e], manual / manual.sum(), rtol=1e-12)


def test_kernel_panel_insufficient_rows():
    rng = np.random.default_rng(26)
    data = _panel_data(4, rng, d=2)
    with pytest.raises(InsufficientData):
        KernelPanel(2, data, np.arange(4), NuisanceOptions())


def test_kernel_panel_needs_min_rows_per_branch():
    # z2 is binary; the panel trains on the first 30 rows, whose z2 = 0
    # branch holds `zeros` rows (rows 30..39 keep the branch declared)
    z = np.random.default_rng(27).uniform(0.1, 0.9, size=(60, 3))

    def panel(zeros, options=NuisanceOptions()):
        z[:, 1] = 1.0
        z[:zeros, 1] = 0.0
        z[30:40, 1] = 0.0
        return KernelPanel(3, Dataset(z.copy(), np.ones(60, dtype=int), k=1),
                           np.arange(30), options)

    panel(0)        # an empty branch reads the fold mean
    panel(5)
    for zeros, rows in ((1, "1 training row"), (4, "4 training rows")):
        with pytest.raises(InsufficientData, match=f"^index 3, branch z2 = 0: {rows}$"):
            panel(zeros)
    # with cross-fitting the rule holds per fold: 6 rows split 3 and 3
    panel(6)
    with pytest.raises(InsufficientData, match="branch z2 = 0: 3 training rows"):
        panel(6, NuisanceOptions(cross_fit=True))


def test_discrete_panel_exactness():
    law = DiscreteLaw()
    panel = law.bundle().panel(3)
    f = panel.mean_field(law.Z3)
    want = np.array([law.Q3[(b1, b2)] @ law.Z3 for b1 in range(2) for b2 in range(2)])
    np.testing.assert_array_equal(f, want)
    rm = panel.row_map(np.array([[law.Z1[1], law.Z2[0]]]))
    np.testing.assert_array_equal(rm.idx, [[2]])
    with pytest.raises(StructuralError, match="support"):
        panel.row_map(np.array([[5.0, 5.0]]))
    e = panel.row_map(np.array([[law.Z1[0], law.Z2[1]]])).idx[0, 0]
    (rows, cols, src), = panel.blocks
    W, _ = src.rows(0, rows.size)
    np.testing.assert_array_equal(W[e], law.Q3[(0, 1)])


def _grid_data(n, n_binary, rng):
    """z1 continuous, then `n_binary` binary coordinates, then an outcome."""
    z = rng.uniform(0.1, 0.9, size=(n, n_binary + 2))
    z[:, 1:n_binary + 1] = rng.integers(0, 2, size=(n, n_binary)).astype(float)
    return Dataset(z, np.ones(n, dtype=int), k=1)


def _build_block_panels():
    rng = np.random.default_rng(29)
    cases = {}
    for nb in (0, 1, 2):
        data = _grid_data(300, nb, rng)
        cases[f"grid_{nb}_binary"] = (data, KernelPanel(nb + 2, data, np.arange(300),
                                                        NuisanceOptions()))
    data = _grid_data(300, 1, rng)
    data.z[:, 0] = data.z[:, 1]                  # every past coordinate binary
    cases["grid_only_binary"] = (data, KernelPanel(2, data, np.arange(300),
                                                   NuisanceOptions()))
    data = _grid_data(300, 1, rng)
    cases["grid_empty_branch"] = (data, KernelPanel(
        3, data, np.flatnonzero(data.z[:, 1] == 0.0), NuisanceOptions()))
    data = _panel_data(120, rng)
    cases["scope"] = (data, KernelPanel(1, data, np.arange(120), NuisanceOptions()))
    # the "exact" cases have two continuous past coordinates, the data that
    # once took the exact layout, and are read on a tensor grid
    cases["exact"] = (data, KernelPanel(3, data, np.arange(120), NuisanceOptions()))
    data = _grid_data(300, 1, rng)
    cases["cross_fit"] = (data, KernelPanel(3, data, np.arange(300),
                                            NuisanceOptions(cross_fit=True)))
    data = _panel_data(120, rng)
    cases["cross_fit_exact"] = (data, KernelPanel(3, data, np.arange(120),
                                                  NuisanceOptions(cross_fit=True)))
    data = _grid_data(300, 1, rng)
    cases["cross_fit_empty_branch"] = (data, KernelPanel(
        3, data, np.flatnonzero(data.z[:, 1] == 0.0), NuisanceOptions(cross_fit=True)))
    # training rows bunched at small z1: states far above them have no
    # kernel mass, so their rows are degenerate
    data = _grid_data(300, 1, rng)
    cases["grid_degenerate"] = (data, KernelPanel(
        3, data, np.flatnonzero(data.z[:, 0] < 0.2), NuisanceOptions()))
    data = _panel_data(120, rng)
    cases["exact_degenerate"] = (data, KernelPanel(
        3, data, np.flatnonzero(data.z[:, 0] < 0.2), NuisanceOptions()))
    return cases


@pytest.fixture(scope="module")
def block_panels():
    return _build_block_panels()


@pytest.fixture(scope="module")
def rebuilt_block_panels():
    # with no byte budget every block is rebuilt chunk by chunk on each read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nuisance, "_STORE_BYTES", 0)
        return _build_block_panels()


def _read_dense(panel):
    """A panel's normalized weights and degenerate rows as read through
    `_chunks`, scattered into one (E, T) matrix and an (E,) mask."""
    E, T = panel.eval_states.shape[0], panel.zj.size
    W, deg = np.zeros((E, T)), np.zeros(E, dtype=bool)
    for rows, Wc, dc, (cols,), _ in _chunks(panel, np.arange(T)):
        W[np.ix_(rows, cols)] = Wc
        deg[rows] = dc
    return W, deg


def _check_block_panel(data, panel):
    W = dense_weights(panel, data)
    E, T = W.shape
    assert E == panel.eval_states.shape[0] and T == panel.zj.size
    # blocks cover exactly the nonzero weights, and never a dense (E, T)
    # array when there are binary branches or folds
    cover = np.zeros((E, T), dtype=bool)
    for rows, cols, _ in panel.blocks:
        cover[np.ix_(rows, cols)] = True
    assert not np.any(W[~cover])
    # the rows read through `_chunks` are the kernel rows scaled to sum to
    # one, except degenerate ones, which keep their raw weights
    Wn, deg = _read_dense(panel)
    np.testing.assert_array_equal(deg, cover.any(axis=1) & (W.sum(axis=1) < 1e-12))
    rng = np.random.default_rng(30)
    F = rng.uniform(0.5, 2.0, size=(E, T))
    V = rng.normal(size=(T, 3))
    tol = dict(rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose((Wn * F).sum(axis=1), dense_rowmean(W, F), **tol)
    np.testing.assert_allclose((Wn * F * F) @ V, dense_rowmean(W, F * F, V), **tol)
    np.testing.assert_allclose(Wn @ V[:, 0], dense_rowmean(W, np.ones_like(F), V[:, 0]), **tol)
    np.testing.assert_allclose(panel.mean_field(V), dense_mean_field(panel, data, V), **tol)
    np.testing.assert_allclose(panel.mean_field(V[:, 1]),
                               dense_mean_field(panel, data, V[:, 1]), **tol)


_BLOCK_CASES = ["cross_fit", "cross_fit_empty_branch", "cross_fit_exact", "exact",
                "exact_degenerate", "grid_0_binary", "grid_1_binary", "grid_2_binary",
                "grid_degenerate", "grid_empty_branch", "grid_only_binary", "scope"]


@pytest.mark.parametrize("name", _BLOCK_CASES)
def test_block_panel_matches_dense_oracle(block_panels, name):
    _check_block_panel(*block_panels[name])


@pytest.mark.parametrize("name", _BLOCK_CASES)
def test_rebuilt_block_panel_matches_dense_oracle(block_panels, rebuilt_block_panels, name):
    data, panel = rebuilt_block_panels[name]
    assert all(src._kept is None for _, _, src in panel.blocks)
    assert all(src._kept is not None for _, _, src in block_panels[name][1].blocks)
    _check_block_panel(data, panel)


def test_block_panel_shapes(block_panels):
    assert len(block_panels["grid_2_binary"][1].blocks) == 4
    assert len(block_panels["cross_fit"][1].blocks) == 4
    for name in ("grid_1_binary", "grid_2_binary", "cross_fit", "grid_empty_branch"):
        data, panel = block_panels[name]
        E, T = panel.eval_states.shape[0], panel.zj.size
        assert sum(rows.size * cols.size for rows, cols, _ in panel.blocks) <= E * T // 2
    # a branch without training rows gets no block; its states read the
    # train mean, and the covered states are not degenerate
    data, panel = block_panels["grid_empty_branch"]
    G = panel.axes[0].size
    (rows, cols, _), = panel.blocks
    np.testing.assert_array_equal(rows, np.arange(G))
    assert not _read_dense(panel)[1].any()
    v = data.z[panel.train_idx, 2]
    np.testing.assert_array_equal(panel.mean_field(v)[G:], v.mean())
    # degenerate rows read the train mean too, and only they do
    for name in ("grid_degenerate", "exact_degenerate"):
        data, panel = block_panels[name]
        deg = _read_dense(panel)[1]
        assert 0 < deg.sum() < deg.size
        v = data.z[panel.train_idx, 2]
        f = panel.mean_field(v)
        np.testing.assert_array_equal(f[deg], v.mean())
        assert np.all(f[~deg] != v.mean())


def test_discrete_panel_block_rowmeans():
    # the stored table is read as it is, and the backward tower of the
    # third moment's seed reads its factor through it to the exact mean
    law = DiscreteLaw()
    bundle = law.bundle()
    panel = bundle.panel(3)
    Q = np.array([law.Q3[(b1, b2)] for b1 in range(2) for b2 in range(2)])
    W, deg = _read_dense(panel)
    np.testing.assert_array_equal(W, Q)
    assert not deg.any()
    np.testing.assert_array_equal(panel.mean_field(law.Z3), Q @ law.Z3)
    seed = seed_gradient(EstimandSpec("moment", index=3), bundle)
    assert seed.plugin == pytest.approx(law.psi, rel=1e-13)


def test_discrete_panel_guards():
    with pytest.raises(StructuralError, match="shape"):
        DiscretePanel(2, np.zeros((2, 1)), np.array([0.0, 1.0]), np.ones((3, 2)) / 2)
    with pytest.raises(StructuralError, match="sum"):
        DiscretePanel(2, np.zeros((1, 1)), np.array([0.0, 1.0]), np.array([[0.7, 0.4]]))


def test_crossfit_panel_reads_opposite_fold():
    rng = np.random.default_rng(27)
    data = _panel_data(300, rng, d=2)
    rows = np.arange(300)
    panel = KernelPanel(2, data, rows, NuisanceOptions(cross_fit=True))
    E0 = panel.folds[1][0].start
    f = panel.mean_field(data.z[panel.train_idx, 1])
    assert f.shape == (panel.eval_states.shape[0],)
    rm = panel.row_map(data.z[:4, :1], row_idx=rows[:4])
    # even data rows train fold 0, so they must read fold-1 states
    assert np.all(rm.idx[:, [0, 2]] >= E0)
    assert np.all(rm.idx[:, [1, 3]] < E0)


# ---------------------------------------------------------------------------
# fitted bundle


def test_bundle_wiring_and_deltas():
    law = DiscreteLaw()
    data = law.dataset()
    bundle = fit_nuisance_bundle(data, law.design())
    assert sum(bundle.delta.values()) == pytest.approx(1.0, rel=1e-15)
    for j in (1, 2, 3):
        assert bundle.panel(j) is not None
    # density ratios are fitted exactly where a source is weak: index 3
    assert bundle.ratio_fits(3).j == 3
    for j in (1, 2, 9):
        with pytest.raises(NuisanceMissing):
            bundle.ratio_fits(j)
    with pytest.raises(NuisanceMissing):
        bundle.panel(9)
    assert bundle.delta_of([1, 2]) == pytest.approx(
        bundle.delta[1] + bundle.delta[2], rel=1e-15)


def test_bundle_rejects_an_empty_dataset():
    # the CLI never reaches this: ingest rejects a file with no data rows
    data = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), k=1)
    design = FusionDesign(d=2, k=1, relevant=(1, 2), aligned={1: {1}, 2: {1}})
    with pytest.raises(StructuralError, match="^empty dataset$"):
        fit_nuisance_bundle(data, design)


@pytest.fixture(scope="module")
def study_data():
    return generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)


@pytest.mark.parametrize("variant, cross_fit", [
    ("target_only", False), ("naive_fusion", False), ("efficient_fusion", False),
    ("overparametrized+2", False), ("efficient_fusion", True)])
def test_bundle_keeps_blocks_only_at_indices_with_weak_sources(study_data, variant,
                                                               cross_fit):
    # the β sweeps re-read the blocks of indices with weak sources; every
    # other block is read a fixed few times and streamed on each read
    design = apply_variant(study_design(), EstimatorVariant.parse(variant))
    bundle = fit_nuisance_bundle(study_data, design, NuisanceOptions(cross_fit=cross_fit))
    kept = {j: [src._kept is not None for _, _, src in p.blocks]
            for j, p in bundle.panels.items()}
    assert kept == {j: [bool(design.weak_at(j))] * len(bundle.panel(j).blocks)
                    for j in design.relevant}
    assert any(any(k) for k in kept.values()) == (variant not in ("target_only",
                                                                  "naive_fusion"))


@pytest.mark.parametrize("variant, fits", [
    ("target_only", 1), ("naive_fusion", 1), ("efficient_fusion", 4)])
def test_an_estimate_fits_ratios_only_at_indices_with_weak_sources(study_data, monkeypatch,
                                                                   variant, fits):
    # one logistic fit for the ATE propensity, plus one per non-trivial ratio
    # at the weak index 3 (source 1 is the only aligned source there, so its
    # ratio is exactly one); the report's overlap covers the same pairs
    calls = []

    def counted(X, y):
        calls.append(X.shape)
        return logistic_fit(X, y)

    logistic_fit = nuisance._logistic_fit
    monkeypatch.setattr(nuisance, "_logistic_fit", counted)
    v = EstimatorVariant.parse(variant)
    rep = one_step_estimate(study_data, study_design(), EstimandSpec("ate"), v)
    assert len(calls) == fits
    design = apply_variant(study_design(), v)
    assert set(rep.overlap) == {f"{j},{s}" for j in design.relevant if j > 1
                                and design.weak_at(j) for s in design.sources_at(j)}


def test_naive_fusion_estimate_holds_less_than_one_index3_block(study_data):
    # no index of the naive design has a weak source, so no weight block is
    # kept: the estimate peaks below the bytes of one index-3 block
    variant = EstimatorVariant("naive_fusion")
    bundle = fit_nuisance_bundle(study_data, apply_variant(study_design(), variant))
    block_bytes = min(8 * rows.size * cols.size for rows, cols, _ in bundle.panel(3).blocks)
    tracemalloc.start()
    try:
        one_step_estimate(study_data, study_design(), EstimandSpec("ate"), variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block_bytes, (peak, block_bytes)


def test_bundle_registers_outcome_regression_for_ate():
    rng = np.random.default_rng(31)
    n = 400
    z1 = rng.uniform(1, 2, n)
    z2 = rng.integers(0, 2, n).astype(float)
    z3 = 0.5 * z1 + z2 + rng.normal(scale=0.1, size=n)
    data = Dataset(np.column_stack([z1, z2, z3]), np.ones(n, dtype=int), k=1)
    design = FusionDesign(d=3, k=1, relevant=(1, 2, 3),
                          aligned={1: {1}, 2: {1}, 3: {1}})
    bundle = fit_nuisance_bundle(data, design)
    # the outcome regression is the terminal panel's mean field of z3
    panel = bundle.panel(3)
    point = panel.row_map(np.array([[1.5, 1.0]]))
    mu = point.apply(panel.mean_field(panel.zj))[0]
    assert mu == pytest.approx(0.5 * 1.5 + 1.0, abs=0.15)
    # a constant field comes back unchanged
    const = point.apply(panel.mean_field(np.full(panel.zj.size, 0.5)))[0]
    assert const == pytest.approx(0.5, rel=1e-14)


def test_normalizer_floor_is_counted():
    # an extreme tilt drives the normalizer below its floor at every index-3
    # state; the engine floors it there and counts each floored state once
    law = DiscreteLaw()
    bundle = law.bundle()
    beta = assemble_beta(layout_from_design(law.design()),
                         {(3, 2): [1000.0], (3, 3): [law.beta3]})
    mach = _IndexMachine(bundle, beta, 3)
    np.testing.assert_array_equal(mach.wfield[2], _EPS_W)
    assert mach.wfield[3].min() > _EPS_W
    assert mach.clip_counts["normalizer_floor_j3"] == 4


def test_fitted_evaluations_are_deterministic():
    rng = np.random.default_rng(32)
    data, design = _two_source_data(700, rng)
    bundle = fit_nuisance_bundle(data, design)
    Zprev = data.z[:40]
    r1 = bundle.ratio_fits(2).rho(2, Zprev)
    r2 = bundle.ratio_fits(2).rho(2, Zprev)
    np.testing.assert_array_equal(r1, r2)
    f1 = bundle.panel(2).mean_field(data.z[bundle.panel(2).train_idx, 1])
    f2 = bundle.panel(2).mean_field(data.z[bundle.panel(2).train_idx, 1])
    np.testing.assert_array_equal(f1, f2)


def test_propensity_flat_on_study_like_data():
    # binary coordinate drawn independently of the past: sup |p_hat - 0.5|
    # over the observed range must stay small at large n
    rng = np.random.default_rng(33)
    n = 8000
    z1 = 1.0 + rng.beta(4.0, 5.0, n)
    z2 = rng.integers(0, 2, n).astype(float)
    z3 = rng.beta(2, 3, n)
    data = Dataset(np.column_stack([z1, z2, z3]), np.ones(n, dtype=int), k=1)
    design = FusionDesign(d=3, k=1, relevant=(1, 2, 3),
                          aligned={1: {1}, 2: {1}, 3: {1}})
    fit = fit_propensity(data, design)
    grid = np.linspace(z1.min(), z1.max(), 60)
    assert np.max(np.abs(fit.predict(grid) - 0.5)) <= 0.05
