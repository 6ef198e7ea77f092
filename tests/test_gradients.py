import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import weakfuse.estimator as estimator
import weakfuse.nuisance as nuisance
from weakfuse.betafit import moment_match_beta
from weakfuse.errors import StructuralError
from weakfuse.gradients import (
    EstimandSpec,
    _batched_pinv,
    _IndexMachine,
    compute_pass,
    seed_gradient,
)
from weakfuse.model import BetaParam, Dataset, FusionDesign, layout_from_design
from weakfuse.nuisance import NuisanceOptions, WeakShift, _chunks, fit_nuisance_bundle
from weakfuse.simulation import generate_dataset, named_scenario, study_design
from weakfuse.weights import WeightSpec

from oracles import (
    DiscreteLaw,
    dense_weights,
    eval_weight_many,
    gradient_aligned_only,
    lambda_prev,
    true_parameters,
)
from test_betafit import _tilted_instance


MOMENT3 = EstimandSpec("moment", index=3)
ATE = EstimandSpec("ate")


@pytest.fixture(scope="module")
def law():
    return DiscreteLaw()


@pytest.fixture(scope="module")
def law_pass(law):
    nuis = law.bundle()
    seed = seed_gradient(MOMENT3, nuis)
    return law, nuis, seed


# ---------------------------------------------------------------------------
# estimand specs and seeds


def test_estimand_spec_validation():
    with pytest.raises(StructuralError, match="kind"):
        EstimandSpec("quantile")
    with pytest.raises(StructuralError, match="coefficient"):
        EstimandSpec("working_linear", coefficient="curvature")
    with pytest.raises(StructuralError, match="index"):
        EstimandSpec("moment", index=0)
    with pytest.raises(StructuralError, match="power"):
        EstimandSpec("moment", index=1, power=0)
    assert EstimandSpec("moment", index=2, power=2).power == 2
    # a field the kind does not read keeps its default
    for kind, field in (("ate", "index"), ("ate", "power"), ("moment", "coefficient"),
                        ("working_linear", "power")):
        with pytest.raises(StructuralError, match=f"{field}: not read by kind '{kind}'"):
            EstimandSpec(kind, **{field: "intercept" if field == "coefficient" else 2})
    assert EstimandSpec() == EstimandSpec("ate", coefficient="slope", index=1, power=1)


def test_seed_rows_match_exact_tower(law_pass):
    law, nuis, seed = law_pass
    assert seed.plugin == pytest.approx(law.psi, abs=1e-13)
    m2 = law.m2[law.i1, law.i2]
    m1 = (law.Q2 * law.m2).sum(axis=1)[law.i1]
    np.testing.assert_allclose(seed.rows[3], law.Z3[law.i3] - m2, atol=1e-12)
    np.testing.assert_allclose(seed.rows[2], m2 - m1, atol=1e-12)
    np.testing.assert_allclose(seed.rows[1], m1 - law.psi, atol=1e-12)


def test_seed_separable_form_reproduces_rows(law_pass):
    law, nuis, seed = law_pass
    panel = nuis.panel(3)
    E, T = panel.eval_states.shape[0], panel.zj.size
    Dmat = np.zeros((E, T))
    for coef, col in seed.sep[3]:
        Dmat += np.broadcast_to(coef, (E,))[:, None] * np.broadcast_to(col, (T,))[None, :]
    states = law.i1 * 2 + law.i2
    np.testing.assert_allclose(Dmat[states, law.i3], seed.rows[3], atol=1e-12)


def test_seed_increments_center_through_panels(law_pass):
    law, nuis, seed = law_pass
    for j, sep in seed.sep.items():
        panel = nuis.panel(j)
        E, T = panel.eval_states.shape[0], panel.zj.size
        Dmat = np.zeros((E, T))
        for coef, col in sep:
            Dmat += (np.broadcast_to(coef, (E,))[:, None]
                     * np.broadcast_to(col, (T,))[None, :])
        centered = np.zeros(E)
        for rows, W, _, (cols,), _ in nuisance._chunks(panel, np.arange(T)):
            centered[rows] = (W * Dmat[np.ix_(rows, cols)]).sum(axis=1)
        np.testing.assert_allclose(centered, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# projections on the exact finite-support instance


def test_aligned_only_gradient_is_exact(law_pass):
    law, nuis, seed = law_pass
    got = gradient_aligned_only(seed, nuis)
    np.testing.assert_allclose(got, law.aligned_gradient(), atol=1e-13)


def test_projected_gradient_matches_dense_least_squares(law_pass):
    law, nuis, seed = law_pass
    got = compute_pass(nuis, law.beta_param(), seed).dtilde
    np.testing.assert_allclose(got, law.projected_gradient(), atol=1e-10)


def test_projection_certificates(law_pass):
    # the engine output must lie in the tangent space with a residual that is
    # orthogonal to it, and it must be mean zero under the sampling law
    law, nuis, seed = law_pass
    dt = compute_pass(nuis, law.beta_param(), seed).dtilde
    B = law.tangent_basis()
    resid = law.aligned_gradient() - dt
    np.testing.assert_allclose(B.T @ (law.pi * resid), 0.0, atol=1e-12)
    coef, res, *_ = np.linalg.lstsq(B * np.sqrt(law.pi)[:, None],
                                    dt * np.sqrt(law.pi), rcond=None)
    np.testing.assert_allclose(B @ coef, dt, atol=1e-10)
    assert abs(law.pi @ dt) < 1e-13


def test_projection_reduces_variance(law_pass):
    law, nuis, seed = law_pass
    dt = compute_pass(nuis, law.beta_param(), seed).dtilde
    da = law.aligned_gradient()
    var_dt = law.pi @ (dt * dt)
    var_da = law.pi @ (da * da)
    assert var_dt < var_da  # strict: the aligned-only gradient is not tangent


def _pi_efficient_rows(law, p):
    """dtilde - S_eff I_pi^-1 E_pi[S_raw dtilde] with I_pi = E_pi[S_eff S_eff^T]:
    the engine's efficient-row composition under the law's atom weights."""
    info = (p.scores_eff * law.pi[:, None]).T @ p.scores_eff
    grad_gamma = p.scores_raw.T @ (law.pi * p.dtilde)
    return p.dtilde - p.scores_eff @ np.linalg.solve(info, grad_gamma)


def test_efficient_scores_are_residuals_on_the_nonparametric_basis(law_pass):
    law, nuis, seed = law_pass
    p = compute_pass(nuis, law.beta_param(), seed)
    S = law.beta_scores()
    np.testing.assert_allclose(p.scores_raw, S, atol=1e-12, rtol=0)
    B = law.tangent_basis()
    sw = np.sqrt(law.pi)
    coef, *_ = np.linalg.lstsq(B * sw[:, None], S * sw[:, None], rcond=None)
    np.testing.assert_allclose(p.scores_eff, S - B @ coef, atol=1e-12, rtol=0)


def test_efficient_rows_match_the_dense_efficient_influence_function(law_pass):
    # the beta scores and the aligned gradient live on different sources, so
    # projecting onto the enlarged basis subtracts only the efficient-score part
    law, nuis, seed = law_pass
    p = compute_pass(nuis, law.beta_param(), seed)
    eif = _pi_efficient_rows(law, p)
    np.testing.assert_allclose(eif, law.projected_gradient(beta_scores=True),
                               atol=1e-12, rtol=0)
    assert abs(law.pi @ eif) < 1e-12


def test_efficiency_bound_orders_the_variances(law_pass):
    # known beta <= unknown beta (the efficiency bound) <= aligned only
    law, nuis, seed = law_pass
    p = compute_pass(nuis, law.beta_param(), seed)
    known, eff, aligned = (law.pi @ (g * g) for g in (
        p.dtilde, _pi_efficient_rows(law, p), law.aligned_gradient()))
    assert known < eff - 1e-12
    assert eff < aligned - 1e-12


def _oracle_wstar(law, Z):
    """Exact normalized shift w/W at each row's own value (1 on aligned rows)."""
    wst = np.ones(law.n)
    for s in (2, 3):
        w = law.weight(s, Z[:, 0], Z[:, 2])
        W = np.array([law.p3_table(1, b1, b2) @ law.weight(s, law.Z1[b1], law.Z3)
                      for b1, b2 in zip(law.i1, law.i2)])
        wst = np.where(law.src == s, w / W, wst)
    return wst


def test_known_beta_gradient_pointwise(law_pass):
    # inverse-shift form at the weak index: each row carries lambda-dagger
    # times its seed increment over the participating mass, read off the
    # machine's row-side mixture weights and clipped shifts
    law, nuis, seed = law_pass
    mach = _IndexMachine(nuis, law.beta_param(), 3)
    Z = law.dataset().z
    lam = lambda_prev(nuis.ratio_fits(3), nuis.delta, Z[:, :2])
    want = lam / _oracle_wstar(law, Z) * seed.rows[3] / 1.0  # S_3 holds the full mass
    src_S = law.src[mach.inp.rows]
    lam_dag = nuis.delta_of(mach.inp.S) / mach.dt_rows.sum(axis=1)
    for s in mach.inp.Wk:
        lam_dag = np.where(src_S == s, lam_dag / mach.wst_own[s], lam_dag)
    got = lam_dag * seed.rows[3][mach.inp.rows] / nuis.delta_of(mach.inp.S)
    np.testing.assert_array_equal(mach.inp.rows, np.arange(law.n))
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# pointwise fusion machinery


def test_batched_pinv_drops_null_direction():
    M = np.array([
        np.diag([2.0, 1.0, 0.0]),
        np.diag([3.0, 2.0, 1.0]),
    ])
    pinv, dropped = _batched_pinv(M)
    np.testing.assert_allclose(pinv[0], np.diag([0.5, 1.0, 0.0]), atol=1e-14)
    # the smallest magnitude eigenvalue is dropped even when nonzero
    np.testing.assert_allclose(pinv[1], np.diag([1 / 3, 0.5, 0.0]), atol=1e-14)
    np.testing.assert_array_equal(dropped, [1, 1])


def test_batched_pinv_symmetrizes():
    M = np.array([[[2.0, 1.0], [0.0, 2.0]]])
    pinv, _ = _batched_pinv(M)
    # symmetrized matrix has eigenpairs (1.5, [1,-1]) and (2.5, [1,1])
    want = np.outer([1.0, 1.0], [1.0, 1.0]) / 2 / 2.5
    np.testing.assert_allclose(pinv[0], want, atol=1e-14)


def test_fusion_matrix_pointwise_oracle(law):
    nuis = law.bundle()
    mach = _IndexMachine(nuis, law.beta_param(), 3)
    assert mach.inp.S == [1, 2, 3]
    b1, b2 = 0, 1
    e = b1 * 2 + b2
    np.testing.assert_array_equal(mach.inp.panel.eval_states[e], [law.Z1[b1], law.Z2[b2]])
    probs = law.Q3[(b1, b2)]
    dt = np.array([law.DELTA[s] * law.P_Z1[s][b1] * law.p2_table(s, b1)[b2]
                   for s in (1, 2, 3)])
    dt = dt / (law.P_Z1[1][b1] * law.Q2[b1, b2])  # rho convention: relative to q
    wst = {}
    for s in (2, 3):
        w = law.weight(s, law.Z1[b1], law.Z3)
        wst[s] = w / (probs @ w)
    wst[1] = np.ones(3)
    R = 1.0 / sum(dt[i] * wst[s] for i, s in enumerate((1, 2, 3)))
    M = np.diag(1.0 / dt)
    for a, sa in enumerate((1, 2, 3)):
        for c, sc in enumerate((1, 2, 3)):
            M[a, c] -= probs @ (wst[sa] * wst[sc] * R)
    np.testing.assert_allclose(mach.M[e], M, atol=1e-12)
    # the local mixture weights span the exact null space
    np.testing.assert_allclose(mach.M[e] @ dt, 0.0, atol=1e-12)
    _, dropped = _batched_pinv(mach.M[e:e + 1])
    assert 3 - dropped[0] == 2
    pinv = mach.Minv[e]
    np.testing.assert_allclose(pinv @ mach.M[e] @ pinv, pinv, atol=1e-10)


def test_lambda_dagger_values(law):
    # lambda_{j-1} on aligned rows, additionally divided by the clipped
    # normalized shift on weakly aligned ones
    nuis = law.bundle()
    mach = _IndexMachine(nuis, law.beta_param(), 3)
    Z = law.dataset().z
    lam = lambda_prev(nuis.ratio_fits(3), nuis.delta, Z[:, :2])
    got = nuis.delta_of(mach.inp.S) / mach.dt_rows.sum(axis=1)
    on1 = law.src == 1
    np.testing.assert_allclose(got[on1], lam[on1], atol=1e-12)
    on2 = law.src == 2
    np.testing.assert_allclose((got / mach.wst_own[2])[on2],
                               (lam / _oracle_wstar(law, Z))[on2], atol=1e-12)


# ---------------------------------------------------------------------------
# parameter coupling


def test_gamma_derivative_moment_matches_fd():
    data, design = _tilted_instance(2500, beta_true=0.8, seed=1)
    nuis = fit_nuisance_bundle(data, design)
    beta = moment_match_beta(nuis).beta
    seed = seed_gradient(EstimandSpec("moment", index=2), nuis)
    gm = compute_pass(nuis, beta, seed).grad_gamma
    # perturb beta in the projected-gradient map with every aligned-data fit
    # held fixed; moving the model parameter by h moves the implied estimand
    # by -grad_gamma * h
    h = 1e-4
    gf = np.zeros(beta.t)
    for c in range(beta.t):
        e = np.zeros(beta.t)
        e[c] = h
        up = compute_pass(nuis, beta.replace_values(beta.values + e), seed).dtilde
        dn = compute_pass(nuis, beta.replace_values(beta.values - e), seed).dtilde
        gf[c] = -(up.mean() - dn.mean()) / (2 * h)
    np.testing.assert_allclose(gm, gf, atol=1.5e-3)
    assert gm[0] > 0  # a positive tilt raises the outcome mean


def test_efficient_gradient_composition(law_pass):
    law, nuis, seed = law_pass
    p = compute_pass(nuis, law.beta_param(), seed)
    grad_gamma = p.scores_raw.T @ p.dtilde / law.n
    np.testing.assert_array_equal(p.grad_gamma, grad_gamma)
    adj = p.information.pinv @ grad_gamma
    np.testing.assert_allclose(p.efficient_rows(), p.dtilde - p.scores_eff @ adj,
                               atol=1e-14, rtol=0)
    assert p.scores_eff.shape == (law.n, 2)


def test_compute_pass_is_stateless(law_pass):
    # every call recomputes from the fitted bundle; the seed only adds the
    # gradient rows and leaves the scores and their information untouched
    law, nuis, seed = law_pass
    beta = law.beta_param()
    p1 = compute_pass(nuis, beta, seed)
    p2 = compute_pass(nuis, beta, seed)
    assert p1 is not p2
    np.testing.assert_array_equal(p1.dtilde, p2.dtilde)
    np.testing.assert_array_equal(p1.scores_eff, p2.scores_eff)
    p_noseed = compute_pass(nuis, beta)
    assert p_noseed.dtilde is None
    np.testing.assert_array_equal(p_noseed.scores_raw, p1.scores_raw)
    np.testing.assert_array_equal(p_noseed.scores_eff, p1.scores_eff)
    np.testing.assert_array_equal(p_noseed.information.pinv, p1.information.pinv)


def _study_pass_inputs(n_per_source, cross_fit=False):
    scenario = named_scenario("moderately_aligned", n_per_source=n_per_source)
    nuis = fit_nuisance_bundle(generate_dataset(scenario, 1, 0), study_design(),
                               NuisanceOptions(cross_fit=cross_fit))
    return nuis, true_parameters(scenario)[1], seed_gradient(ATE, nuis)


def _study_truncation_design():
    # source 2 truncated above 0.2 at index 3 instead of tilted
    base = study_design()
    specs = dict(base.weight_specs)
    specs[(3, 2)] = WeightSpec("truncated_above_threshold", 3, threshold=0.2)
    return FusionDesign(d=base.d, k=base.k, relevant=base.relevant,
                        aligned=dict(base.aligned), weak=dict(base.weak), weight_specs=specs)


def _chunk_case_inputs(case):
    if case == "discrete":
        law = DiscreteLaw()
        nuis = law.bundle(NuisanceOptions(ratio_clip=(0.8, 1.25)))    # clips shifts
        return nuis, law.beta_param(), seed_gradient(MOMENT3, nuis)
    if case == "study_truncation":
        scenario = named_scenario("moderately_aligned", n_per_source=300)
        nuis = fit_nuisance_bundle(generate_dataset(scenario, 1, 0), _study_truncation_design())
        return nuis, moment_match_beta(nuis).beta, seed_gradient(ATE, nuis)
    return _study_pass_inputs(300, cross_fit=case == "study_cross_fit")


@pytest.mark.parametrize("case", ["study", "study_cross_fit", "study_truncation", "discrete"])
def test_compute_pass_does_not_depend_on_chunk_size(monkeypatch, case):
    # one state per chunk against one chunk per weight block: only the
    # summation order of the row means may change, in the engine and in the
    # moment match's tilt fields
    inputs = _chunk_case_inputs(case)
    passes, fits = [], []
    for chunk_bytes in (1, 2 ** 40):
        monkeypatch.setattr(nuisance, "_CHUNK_BYTES", chunk_bytes)
        passes.append(compute_pass(*inputs))
        fits.append(moment_match_beta(inputs[0]))
    one, whole = passes
    for got, want in ((one.scores_eff, whole.scores_eff), (one.dtilde, whole.dtilde),
                      (one.information.matrix, whole.information.matrix)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert one.flags == whole.flags
    assert one.clip_counts == whole.clip_counts
    one, whole = fits
    np.testing.assert_allclose(one.beta.values, whole.beta.values, rtol=1e-13, atol=1e-13)
    assert one.iterations == whole.iterations
    assert one.converged == whole.converged


@pytest.mark.parametrize("terms", [1, 2])
def test_shift_exponent_is_bit_exact(terms):
    # exp of a chunk's tilt exponent, formed by np.dot, against exp of the
    # plain product (one term) or of the matmul (two terms), bit for bit,
    # with signed zeros, infinities, NaN and 1e308 in both factors; np.dot
    # may only turn a -0 exponent into +0, which exp maps to the same 1
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 0.5, -2.0, 1e-300])
    G = np.column_stack([np.roll(special, 3 * c) for c in range(terms)])
    P = np.column_stack([np.roll(special[::-1], 5 * c) for c in range(terms)])
    b = np.array([1.0, -1.0])[:terms]
    rows = np.arange(special.size)
    W = np.ones((special.size, special.size))
    buf, tmp = np.empty_like(W), np.empty_like(W)
    V = np.column_stack([np.ones(special.size), P])
    shift = WeakShift(None, G, V, np.empty((0, terms)))
    with np.errstate(over="ignore", invalid="ignore"):
        got = shift.chunk(b, rows, W, (V, P), buf, tmp)[0]
        want = np.exp((np.multiply if terms == 1 else np.matmul)(G * b, P.T))
    assert got.tobytes() == want.tobytes()


def _exp_path_field(shift, b):
    """A shift's field by the exponent path alone: each chunk's shift, then
    its row means against V."""
    out = np.zeros((shift.panel.eval_states.shape[0], shift.V.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, W, _, vc, (buf,) in _chunks(shift.panel, *shift.vals, scratch=1):
            out[rows] = shift.chunk(b, rows, W, vc, buf, buf)[1]
    return out


@pytest.mark.parametrize("pair", [(3, 2), (3, 3)])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_tilt_field_at_zero_matches_the_exponent_path(pair, zero):
    # at b = 0 the shift is exp(±0) = 1 and the field skips the exponent;
    # it equals the exponent path bit for bit, and a -inf ψ (log 0) or an
    # infinite prefactor still gives the same non-finite field
    nuis = _study_pass_inputs(300)[0]
    shift = nuis.weak_inputs[pair[0]].shifts[pair[1]]
    V_inf, G_inf = shift.V.copy(), shift.G.copy()
    V_inf[7, 1] = -np.inf
    G_inf[5, 0] = np.inf
    b = np.full(shift.G.shape[1], zero)
    fields = []
    for sh in (shift, replace(shift, V=V_inf), replace(shift, G=G_inf)):
        got = sh.field(b)
        assert _bits(got) == _bits(_exp_path_field(sh, b))
        fields.append(got)
    assert [np.isfinite(f).all() for f in fields] == [True, False, False]


@pytest.mark.parametrize("family", ["tilt", "truncation"])
def test_shift_record_matches_the_weight_oracle(family):
    # source 2 at index 3 of the study data, at a random β: the record's row
    # weight is the oracle's w(z̄_3; β) at the S_3 rows bit for bit; its
    # field is the exponent path's bit for bit, and the oracle's row means
    # of w·[1, ψ] against the dense panel weights, state by state
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)
    design = study_design() if family == "tilt" else _study_truncation_design()
    inp = fit_nuisance_bundle(data, design).weak_inputs[3]
    shift, spec = inp.shifts[2], design.spec_for(3, 2)
    b = np.random.default_rng(24).normal(scale=0.5, size=spec.nparams)
    assert _bits(shift.weight(b)) == _bits(eval_weight_many(spec, b, inp.Z))
    field = shift.field(b)
    assert _bits(field) == _bits(_exp_path_field(shift, b))
    W = dense_weights(inp.panel, data)
    W /= W.sum(axis=1, keepdims=True)
    zj = inp.panel.zj
    w = np.array([eval_weight_many(spec, b, np.column_stack([np.tile(e, (zj.size, 1)), zj]))
                  for e in inp.panel.eval_states])
    psi = [term.terminal_values(zj) for term in spec.terms]
    want = np.column_stack([(W * w) @ v for v in (np.ones(zj.size), *psi)])
    assert field.shape == want.shape == (inp.panel.eval_states.shape[0], 1 + spec.nparams)
    np.testing.assert_allclose(field, want, rtol=1e-12, atol=0)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _fitted_bits(nuis) -> dict:
    """Bit images of the data and of every panel's weight blocks (as their
    row sources give them out), training values, states and row map."""
    out = {"z": _bits(nuis.data.z)}
    for j, p in nuis.panels.items():
        rm = nuis.rowmaps[j]
        blocks = [tuple(map(_bits, (rows, cols, *src.rows(0, rows.size))))
                  for rows, cols, src in p.blocks]
        out[j] = (blocks, _bits(p.zj),
                  _bits(p.eval_states), _bits(rm.idx), _bits(rm.weight))
    return out


def _pass_bits(p) -> tuple:
    return (_bits(p.scores_raw), _bits(p.scores_eff), _bits(p.dtilde),
            _bits(p.information.matrix), _bits(p.information.pinv), p.flags, p.clip_counts)


@pytest.mark.parametrize("case", ["efficient_fusion", "truncation", "cross_fit"])
def test_estimate_leaves_the_fitted_bundle_bit_unchanged(monkeypatch, case):
    # the engine and the moment match work in scratch buffers and must never
    # write into what the fit shares with them, so a second pass at the same
    # β repeats the first bit for bit
    design = _study_truncation_design() if case == "truncation" else study_design()
    options = NuisanceOptions(cross_fit=case == "cross_fit")
    fitted = []

    def fit_and_record(*args):
        nuis = fit_nuisance_bundle(*args)
        fitted.append((nuis, _fitted_bits(nuis)))
        return nuis

    monkeypatch.setattr(estimator, "fit_nuisance_bundle", fit_and_record)
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), 1, 0)
    report = estimator.one_step_estimate(data, design, ATE, options=options)
    (nuis, before), = fitted
    assert _fitted_bits(nuis) == before
    beta = BetaParam(report.beta, layout_from_design(nuis.design))
    seed = seed_gradient(ATE, nuis)
    assert _pass_bits(compute_pass(nuis, beta, seed)) == _pass_bits(compute_pass(nuis, beta, seed))
    assert _fitted_bits(nuis) == before


def test_compute_pass_memory_stays_chunk_sized():
    # the (E, T) pipeline lives in cache-sized chunks: at 4 x 2000 rows one
    # weight block alone is 301 x 1000 floats (2.4 MB), and a pass that kept
    # whole-block shifts, r and their products peaked at 63 MB
    inputs = _study_pass_inputs(2000)
    tracemalloc.start()
    try:
        compute_pass(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_pass_rejects_foreign_layout(law):
    nuis = law.bundle()
    bad = BetaParam([0.1], ((3, 2, 1),))
    with pytest.raises(StructuralError, match="layout"):
        compute_pass(nuis, bad)


# ---------------------------------------------------------------------------
# degenerate designs


def test_projected_gradient_centered_within_each_source():
    # every tangent component is conditionally centered per source, so the
    # sample mean of dtilde inside each source stays O(1/sqrt(n))
    data, design = _tilted_instance(2000, beta_true=0.8, seed=23)
    nuis = fit_nuisance_bundle(data, design)
    beta = moment_match_beta(nuis).beta
    seed = seed_gradient(EstimandSpec("moment", index=2), nuis)
    p = compute_pass(nuis, beta, seed)
    for s in (1, 2):
        rows = p.dtilde[data.source == s]
        assert abs(rows.mean()) <= 10.0 / np.sqrt(rows.size)


def test_all_paths_coincide_without_weak_sources():
    rng = np.random.default_rng(17)
    n = 1000
    z1 = rng.uniform(0.5, 1.5, n)
    z2 = rng.beta(2, 2, n)
    data = Dataset(np.column_stack([z1, z2]), np.ones(n, dtype=int), k=1)
    design = FusionDesign(d=2, k=1, relevant=(1, 2), aligned={1: {1}, 2: {1}})
    nuis = fit_nuisance_bundle(data, design)
    seed = seed_gradient(EstimandSpec("moment", index=2), nuis)
    beta = BetaParam.zeros(())
    p = compute_pass(nuis, beta, seed)
    da = gradient_aligned_only(seed, nuis)
    np.testing.assert_array_equal(p.dtilde, da)
    np.testing.assert_array_equal(p.efficient_rows(), da)
