"""Shift-parameter estimation: moment matching for the initial value. The
one-step update along the efficient score is `EnginePass.newton_step`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BetaParam, layout_from_design
from .nuisance import _EPS_W, FittedNuisance

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


def _pair_moment_and_jac(b, shift, tbar, rho_a, rmap):
    """Moment residual and its Jacobian at b, from the pair's `WeakShift` at
    the aligned rows. Nothing is clipped, so a b out of range gives
    non-finite values, which the line search rejects."""
    raw = shift.field(b)
    t_a = shift.t
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the normalizer and E_Q[w t | e] reach the rows in one row-map read
        at = rmap.apply(np.column_stack([np.maximum(raw[:, 0], _EPS_W),
                                         shift.G * raw[:, 1:]]))
        wf_rows = at[:, 0]
        wtilda = rho_a * shift.weight(b) / wf_rows
        D = wtilda.sum()
        N = t_a.T @ wtilda
        m = N / D - tbar
        score_rows = t_a - at[:, 1:] / wf_rows[:, None]
        J = (t_a * wtilda[:, None]).T @ score_rows / D \
            - np.outer(N / D, wtilda @ score_rows / D)
    return m, J


def _residual(m, J) -> float:
    """Max-abs moment residual; infinite when the moments are not finite."""
    if np.all(np.isfinite(m)) and np.all(np.isfinite(J)):
        return float(np.max(np.abs(m)))
    return np.inf


def moment_match_beta(nuisance: FittedNuisance) -> MomentMatchResult:
    """Initial shift parameters: for each tilted pair, damped Newton from
    zero on the self-normalized moment condition that the reweighted aligned
    rows reproduce the source's own basis means.
    Every accepted step lowers the pair's max-abs residual; a pair whose
    line search cannot lower it, or that hits the iteration cap, keeps its
    last (best) iterate and reads False in `converged`."""
    beta = BetaParam.zeros(layout_from_design(nuisance.design))
    values = beta.values.copy()
    offs = beta.offsets()
    converged: dict[tuple[int, int], bool] = {}
    iters: dict[tuple[int, int], int] = {}
    max_resid = 0.0
    for (j, s, _) in beta.layout:
        sl = offs[(j, s)]
        b = values[sl].copy()
        system = nuisance.weak_inputs[j].moment_system(s, nuisance.design.aligned_at(j))
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

