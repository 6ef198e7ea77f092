"""Shift-parameter estimation: moment matching for the initial value, and the
one-step update based on projected (efficient) scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import InformationMatrix, compute_pass
from .model import BetaParam, layout_from_design
from .nuisance import FittedNuisance
from .weights import basis_matrix

_MM_TOL = 1e-8
_MM_MAX_ITER = 200


@dataclass
class MomentMatchResult:
    beta: BetaParam
    converged: dict[tuple[int, int], bool]
    iterations: dict[tuple[int, int], int]
    max_residual: float

    @property
    def all_converged(self) -> bool:
        return all(self.converged.values())


def _pair_moment_system(nuisance: FittedNuisance, j: int, s: int):
    """Precompute everything the per-pair Newton solve reuses: the basis split
    into state factors G and value columns V = [1, ψ] on the index panel, the
    basis at the source's own rows, and the reweighting that maps pooled
    aligned rows to the source's conditioning-state marginal."""
    design = nuisance.design
    data = nuisance.data
    spec = design.spec_for(j, s)
    panel = nuisance.panel(j)
    ratio = nuisance.ratio_fits(j)

    G = np.column_stack([t.prefactor(panel.eval_states) for t in spec.terms])
    V = np.column_stack([np.ones(panel.zj.size)]
                        + [t.terminal_values(panel.zj) for t in spec.terms])

    rows_s = data.rows_of(s)
    t_s = basis_matrix(spec, data.z[rows_s, :j])
    tbar = t_s.mean(axis=0)

    rows_a = np.concatenate([data.rows_of(m) for m in sorted(design.aligned_at(j))])
    rows_a.sort()
    t_a = basis_matrix(spec, data.z[rows_a, :j])
    rho_a = ratio.rho(s, data.z[rows_a, :j - 1])
    rmap = panel.row_map(data.z[rows_a, :j - 1])
    return panel, (G, V), tbar, rows_a, t_a, rho_a, rmap


def _pair_moment_and_jac(b, panel, basis, tbar, t_a, rho_a, rmap, eps_w):
    # tilt exponent and its row means against [1, ψ] in one matmul per block
    G, V = basis
    wmat = [np.exp(np.clip(L, -60.0, 60.0)) for L in panel.outer_sum(G * b, V[:, 1:].T)]
    raw = panel.rowmean(wmat, values=V)
    wfield = np.maximum(raw[:, 0], eps_w)
    wcfield = G * raw[:, 1:]

    wf_rows = rmap.apply(wfield)
    wtilda = rho_a * np.exp(np.clip(t_a @ b, -60.0, 60.0)) / wf_rows
    D = wtilda.sum()
    N = t_a.T @ wtilda
    m = N / D - tbar
    score_rows = t_a - rmap.apply(wcfield) / wf_rows[:, None]
    J = (t_a * wtilda[:, None]).T @ score_rows / D \
        - np.outer(N / D, wtilda @ score_rows / D)
    return m, J


def moment_match_beta(nuisance: FittedNuisance, beta0: BetaParam | None = None,
                      max_iter: int = _MM_MAX_ITER, tol: float = _MM_TOL) -> MomentMatchResult:
    """Initial shift parameters: for each estimable weak pair, damped Newton
    on the self-normalized moment condition that the reweighted aligned rows
    reproduce the source's own basis means. Known-threshold blocks are left
    at their supplied (or zero) values. A pair that hits the iteration cap
    keeps its last iterate and reads False in `converged`."""
    design = nuisance.design
    layout = layout_from_design(design)
    beta = beta0 if beta0 is not None else BetaParam.zeros(layout)
    values = beta.values.copy()
    offs = beta.offsets()
    converged: dict[tuple[int, int], bool] = {}
    iters: dict[tuple[int, int], int] = {}
    max_resid = 0.0
    for (j, s) in design.weak_pairs():
        spec = design.spec_for(j, s)
        if spec.family != "exponential_tilt":
            continue
        sl = offs[(j, s)]
        b = values[sl].copy()
        panel, basis, tbar, rows_a, t_a, rho_a, rmap = _pair_moment_system(nuisance, j, s)
        eps_w = nuisance.options.eps_w
        m, J = _pair_moment_and_jac(b, panel, basis, tbar, t_a, rho_a, rmap, eps_w)
        ok = False
        it = 0
        for it in range(1, max_iter + 1):
            resid = float(np.max(np.abs(m)))
            if resid < tol:
                ok = True
                break
            try:
                step = np.linalg.solve(J, -m)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -m, rcond=None)[0]
            scale = 1.0
            for _ in range(25):
                m_new, J_new = _pair_moment_and_jac(
                    b + scale * step, panel, basis, tbar, t_a, rho_a, rmap, eps_w)
                if np.max(np.abs(m_new)) < resid or scale < 1e-6:
                    break
                scale *= 0.5
            b = b + scale * step
            m, J = m_new, J_new
        resid = float(np.max(np.abs(m)))
        if resid < tol:
            ok = True
        converged[(j, s)] = ok
        iters[(j, s)] = it
        max_resid = max(max_resid, resid)
        values[sl] = b
    return MomentMatchResult(beta=beta.replace_values(values), converged=converged,
                             iterations=iters, max_residual=max_resid)


@dataclass
class OneStepBeta:
    beta: BetaParam
    se: np.ndarray
    information: InformationMatrix
    score_mean: np.ndarray
    flags: frozenset[str]


def one_step_beta(nuisance: FittedNuisance, beta_init: BetaParam) -> OneStepBeta:
    """Single Newton step from the initial value along the efficient score."""
    p = compute_pass(nuisance, beta_init)
    S = p.scores_eff
    n = S.shape[0]
    sbar = S.mean(axis=0)
    info = p.information
    update = info.pinv @ sbar
    beta1 = beta_init.replace_values(beta_init.values + update)
    se = np.sqrt(np.maximum(np.diag(info.pinv), 0.0) / n)
    return OneStepBeta(beta=beta1, se=se, information=info, score_mean=sbar,
                       flags=p.flags)
