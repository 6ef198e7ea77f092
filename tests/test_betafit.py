import numpy as np
import pytest

from weakfuse.betafit import _pair_moment_and_jac, moment_match_beta
from weakfuse.gradients import compute_pass, information_matrix
from weakfuse.model import (
    Dataset,
    FusionDesign,
    layout_from_design,
)
from weakfuse.nuisance import fit_nuisance_bundle
from weakfuse.simulation import generate_dataset, named_scenario, study_design
from weakfuse.weights import WeightSpec

from oracles import DiscreteLaw, beta_slice


def _tilted_beta_draws(rng, n, beta, a=2.0, b=2.0):
    """Rejection draws from Beta(a, b) tilted by exp(beta * x)."""
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
    """Two sources sharing the first coordinate; the second source's outcome
    is exponentially tilted with a single identity term."""
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


def test_moment_match_recovers_tilt():
    data, design = _tilted_instance(2500, beta_true=0.8, seed=1)
    nuis = fit_nuisance_bundle(data, design)
    res = moment_match_beta(nuis)
    assert res.all_converged
    assert res.max_residual < 1e-8
    b = beta_slice(res.beta, 2, 2)[0]
    assert b == pytest.approx(0.8, abs=0.15)


def test_moment_match_residual_never_rises(monkeypatch):
    # each Newton iteration solves J step = -m at the current iterate, so the
    # solves see every accepted iterate's residual; on rep 3 of the small
    # poorly aligned beta-shift cell, pair (3, 2) (the only two-term pair)
    # stalls instead of climbing
    data = generate_dataset(named_scenario(
        "poorly_aligned", covariate_shift="beta_shift", n_per_source=60), 1, 3)
    nuis = fit_nuisance_bundle(data, study_design())
    seen = []
    solve = np.linalg.solve

    def spy(J, rhs):
        if rhs.size == 2:
            seen.append(float(np.max(np.abs(rhs))))
        return solve(J, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    res = moment_match_beta(nuis)
    assert len(seen) >= 2
    assert all(b < a for a, b in zip(seen, seen[1:]))
    assert not res.converged[(3, 2)]
    assert np.all(np.abs(beta_slice(res.beta, 3, 2)) < 10)


def test_pair_jacobian_matches_finite_differences():
    data, design = _tilted_instance(600, beta_true=0.4, seed=3)
    nuis = fit_nuisance_bundle(data, design)
    system = nuis.weak_inputs[2].moment_system(2, design.aligned_at(2))
    b = np.array([0.3])
    m, J = _pair_moment_and_jac(b, *system)
    h = 1e-6
    mp, _ = _pair_moment_and_jac(b + h, *system)
    mm, _ = _pair_moment_and_jac(b - h, *system)
    fd = (mp - mm) / (2 * h)
    assert J[0, 0] == pytest.approx(fd[0], rel=1e-4)


def test_raw_score_is_centered_basis_on_exact_tables():
    law = DiscreteLaw()
    nuis = law.bundle()
    beta = law.beta_param()
    S = compute_pass(nuis, beta).scores_raw
    assert S.shape == (law.n, 2)
    z1 = law.Z1[law.i1]
    logz3 = np.log(law.Z3[law.i3])
    cen = np.array([
        law.p3_table(2, b1, b2) @ (law.Z1[b1] * np.log(law.Z3))
        for b1, b2 in zip(law.i1, law.i2)
    ])
    want0 = (law.src == 2) * (z1 * logz3 - cen)
    np.testing.assert_allclose(S[:, 0], want0, atol=1e-12)
    # the other block lives on source-3 rows only
    assert np.all(S[law.src != 3, 1] == 0)
    cen3 = np.array([
        law.p3_table(3, b1, b2) @ (law.Z1[b1] * np.log1p(-law.Z3))
        for b1, b2 in zip(law.i1, law.i2)
    ])
    want1 = (law.src == 3) * (z1 * np.log1p(-law.Z3[law.i3]) - cen3)
    np.testing.assert_allclose(S[:, 1], want1, atol=1e-12)


def test_raw_score_residualizes_through_the_panel():
    # the fitted tilted conditional mean of the raw score is ~0 at train states
    data, design = _tilted_instance(2000, beta_true=0.6, seed=4)
    nuis = fit_nuisance_bundle(data, design)
    res = moment_match_beta(nuis)
    S = compute_pass(nuis, res.beta).scores_raw
    rows2 = data.rows_of(2)
    assert abs(S[rows2, 0].mean()) <= 10 / np.sqrt(rows2.size)


def test_information_matrix_properties():
    law = DiscreteLaw()
    nuis = law.bundle()
    info = compute_pass(nuis, law.beta_param()).information
    assert np.all(np.abs(info.matrix - info.matrix.T) == 0.0)
    assert np.all(np.linalg.eigvalsh(info.matrix) >= -1e-12)
    assert info.rank == 2
    assert info.eig_min > 0
    np.testing.assert_allclose(info.pinv @ info.matrix, np.eye(2), atol=1e-10)
    # the pass's information is a pure function of its scores
    S = compute_pass(nuis, law.beta_param()).scores_eff
    again = information_matrix(S)
    np.testing.assert_array_equal(again.pinv, info.pinv)
    empty = information_matrix(S[:, :0])
    assert empty.rank == 0 and empty.pinv.shape == (0, 0)


def _collinear_binary_instance(n_per, seed=5):
    # binary outcome makes z2 and z2^2 identical columns, so the information
    # matrix is exactly rank one
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(0.5, 1.5, 2 * n_per)
    p2 = 0.5 * np.exp(0.6) / (0.5 * np.exp(0.6) + 0.5)
    z2 = np.concatenate([
        (rng.uniform(size=n_per) < 0.5).astype(float),
        (rng.uniform(size=n_per) < p2).astype(float),
    ])
    data = Dataset(np.column_stack([z1, z2]), np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=2, k=2, relevant=(1, 2),
        aligned={1: {1, 2}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): WeightSpec.tilt(2, ["z2", "z2^2"])},
    )
    return data, design


def test_singular_information_is_flagged_and_uses_pinv():
    data, design = _collinear_binary_instance(400)
    nuis = fit_nuisance_bundle(data, design)
    res = moment_match_beta(nuis)
    assert res.all_converged
    p = compute_pass(nuis, res.beta)
    info = p.information
    assert p.flags == frozenset({"SingularInformation"})
    assert info.eig_min < 1e-10
    assert info.rank == 1
    assert info.cond == np.inf
    np.testing.assert_allclose(info.pinv, info.pinv.T, atol=1e-15)


def test_one_step_beta_moves_to_root():
    data, design = _tilted_instance(3000, beta_true=0.8, seed=6)
    nuis = fit_nuisance_bundle(data, design)
    init = moment_match_beta(nuis).beta
    beta, se = compute_pass(nuis, init).newton_step()
    assert beta_slice(beta, 2, 2)[0] == pytest.approx(0.8, abs=0.15)
    assert se.shape == (1,)
    assert np.all(se > 0)
    # the efficient score empirically re-centers at the updated value
    S1 = compute_pass(nuis, beta).scores_eff
    assert np.linalg.norm(S1.mean(axis=0)) <= 10 / np.sqrt(data.n)


def test_score_blocks_decouple_across_indices():
    # weak pairs at two different indices give an (almost) block-diagonal
    # information matrix
    rng = np.random.default_rng(7)
    n_per = 5000
    ba, bb = 0.5, 0.7
    z1_1 = rng.uniform(0.5, 1.5, n_per)
    u = rng.uniform(0.5, 1.5, 3 * n_per)
    keep = rng.uniform(size=3 * n_per) < np.exp(ba * (u - 1.5))
    z1_2 = u[keep][:n_per]
    z2_1 = rng.beta(2, 2, n_per)
    z2_2 = _tilted_beta_draws(rng, n_per, bb)
    data = Dataset(
        np.column_stack([np.concatenate([z1_1, z1_2]), np.concatenate([z2_1, z2_2])]),
        np.repeat([1, 2], n_per), k=2)
    design = FusionDesign(
        d=2, k=2, relevant=(1, 2),
        aligned={1: {1}, 2: {1}},
        weak={1: {2}, 2: {2}},
        weight_specs={(1, 2): WeightSpec.tilt(1, ["z1"]),
                      (2, 2): WeightSpec.tilt(2, ["z2"])},
    )
    nuis = fit_nuisance_bundle(data, design)
    assert layout_from_design(design) == ((1, 2, 1), (2, 2, 1))
    res = moment_match_beta(nuis)
    assert beta_slice(res.beta, 1, 2)[0] == pytest.approx(ba, abs=0.2)
    assert beta_slice(res.beta, 2, 2)[0] == pytest.approx(bb, abs=0.2)
    info = compute_pass(nuis, res.beta).information
    assert abs(info.matrix[0, 1]) <= 0.05
