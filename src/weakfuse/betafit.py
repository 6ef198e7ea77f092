"""Shift-parameter estimation: moment matching for the initial value, and the
one-step update based on projected (efficient) scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import InformationMatrix, _rowmap_at, _tilt_basis, _tilt_field, compute_pass
from .model import BetaParam, layout_from_design
from .nuisance import FittedNuisance
from .weights import basis_matrix

_MM_TOL = 1e-8
_MM_MAX_ITER = 200
# line-search step scales: 1 down to 2^-20, the first below 1e-6
_MM_SCALES = 0.5 ** np.arange(21)


@dataclass
class MomentMatchResult:
    beta: BetaParam
    converged: dict[tuple[int, int], bool]
    iterations: dict[tuple[int, int], int]
    max_residual: float

    @property
    def all_converged(self) -> bool:
        return all(self.converged.values())


def _pair_moment_system(nuisance: FittedNuisance, j: int, s: int) -> tuple:
    """Precompute everything the per-pair Newton solve reuses: the β-free
    tilt basis on the index panel, the basis at the source's own rows, and
    the reweighting that maps pooled aligned rows to the source's
    conditioning-state marginal, with those rows' map onto the panel."""
    design = nuisance.design
    data = nuisance.data
    spec = design.spec_for(j, s)
    panel = nuisance.panel(j)

    tbar = basis_matrix(spec, data.z[data.rows_of(s), :j]).mean(axis=0)
    rows_a = np.concatenate([data.rows_of(m) for m in sorted(design.aligned_at(j))])
    rows_a.sort()
    t_a = basis_matrix(spec, data.z[rows_a, :j])
    rho_a = nuisance.ratio_fits(j).rho(s, data.z[rows_a, :j - 1])
    rmap = _rowmap_at(nuisance.rowmaps[j], rows_a)
    return panel, _tilt_basis(panel, spec), tbar, t_a, rho_a, rmap, nuisance.options.eps_w


def _pair_moment_and_jac(b, panel, basis, tbar, t_a, rho_a, rmap, eps_w):
    """Moment residual and its Jacobian at b. Nothing is clipped, so a b out
    of range gives non-finite values, which the line search rejects."""
    raw = _tilt_field(panel, b, basis)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wfield = np.maximum(raw[:, 0], eps_w)
        wcfield = basis[0] * raw[:, 1:]
        wf_rows = rmap.apply(wfield)
        wtilda = rho_a * np.exp(t_a @ b) / wf_rows
        D = wtilda.sum()
        N = t_a.T @ wtilda
        m = N / D - tbar
        score_rows = t_a - rmap.apply(wcfield) / wf_rows[:, None]
        J = (t_a * wtilda[:, None]).T @ score_rows / D \
            - np.outer(N / D, wtilda @ score_rows / D)
    return m, J


def _residual(m, J) -> float:
    """Max-abs moment residual; infinite when the moments are not finite."""
    if np.all(np.isfinite(m)) and np.all(np.isfinite(J)):
        return float(np.max(np.abs(m)))
    return np.inf


def moment_match_beta(nuisance: FittedNuisance,
                      beta0: BetaParam | None = None) -> MomentMatchResult:
    """Initial shift parameters: for each tilted pair, damped Newton from
    `beta0` (zero by default) on the self-normalized moment condition that
    the reweighted aligned rows reproduce the source's own basis means.
    Every accepted step lowers the pair's max-abs residual; a pair whose
    line search cannot lower it, or that hits the iteration cap, keeps its
    last (best) iterate and reads False in `converged`."""
    beta = beta0 if beta0 is not None else BetaParam.zeros(layout_from_design(nuisance.design))
    values = beta.values.copy()
    offs = beta.offsets()
    converged: dict[tuple[int, int], bool] = {}
    iters: dict[tuple[int, int], int] = {}
    max_resid = 0.0
    for (j, s, _) in beta.layout:
        sl = offs[(j, s)]
        b = values[sl].copy()
        system = _pair_moment_system(nuisance, j, s)
        m, J = _pair_moment_and_jac(b, *system)
        it = 0
        for it in range(1, _MM_MAX_ITER + 1):
            resid = _residual(m, J)
            if resid < _MM_TOL or resid == np.inf:    # a non-finite start cannot step
                break
            try:
                step = np.linalg.solve(J, -m)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -m, rcond=None)[0]
            for scale in _MM_SCALES:
                m_new, J_new = _pair_moment_and_jac(b + scale * step, *system)
                if _residual(m_new, J_new) < resid:
                    break
            else:
                break                   # no scale lowers it: stop at the best iterate
            b, m, J = b + scale * step, m_new, J_new
        resid = _residual(m, J)
        converged[(j, s)] = resid < _MM_TOL
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
    return OneStepBeta(beta=beta1, se=se, information=info, flags=p.flags)
