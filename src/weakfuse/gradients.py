"""Gradient engine: estimand seeds, projection onto the fusion tangent space,
and the efficient one-step gradient.

The machinery for one relevant index j with weak sources works on panels of
conditional moments (see the nuisance module). Every object indexed by
(conditioning state e, current value v) lives in an (E, T) matrix: normalized
shifts w*_s, the local posterior weights r, and the working gradient d. All
conditional means of such objects are taken against the panel's target
conditional weights, so the identities E_Q[w*_s | e] = 1 and the seed
centerings hold exactly by construction, for kernel and exact-table backends
alike. Rows of the dataset read grid fields through the panel's row map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NuisanceMissing,
    RankDeficiency,
    SingularInformation,
    SingularJacobian,
    StructuralError,
)
from .model import BetaParam, estimable_mask, layout_from_design
from .nuisance import FittedNuisance, fit_kernel_regression
from .weights import eval_weight_many

_EIG_TOL = 1e-10


@dataclass(frozen=True)
class EstimandSpec:
    """What is being estimated.

    ate             mean difference of the terminal outcome under the two arms
                    of the binary index-2 coordinate (needs d = 3)
    working_linear  a coefficient of the least-squares linear model of the
                    index-2 outcome on the index-1 covariate (needs d = 2)
    moment          E_Q[Z_index^power]; indices 1..index must all be relevant,
                    and weak sources may appear at the terminal index only
    """

    kind: str
    coefficient: str = "slope"
    index: int = 1
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("ate", "working_linear", "moment"):
            raise StructuralError(f"unknown estimand kind {self.kind!r}")
        if self.kind == "working_linear" and self.coefficient not in ("intercept", "slope"):
            raise StructuralError(f"unknown coefficient {self.coefficient!r}")
        if self.kind == "moment" and self.index < 1:
            raise StructuralError("moment index must be a positive integer")
        if self.kind == "moment" and self.power < 1:
            raise StructuralError("moment power must be a positive integer")


@dataclass
class GradientSeed:
    """Estimand-specific ingredients, all fitted from aligned rows only.

    `rows[j]` holds the index-j inner-gradient increment at every data row;
    `sep[j]` holds the same function on the index-j panel as a short sum of
    (state coefficient field, value column) products, which is what the
    weak-index machinery consumes. Increments are exactly mean-zero against
    the panel's conditional weights at every state.
    """

    estimand: EstimandSpec
    plugin: float
    rows: dict[int, np.ndarray]
    sep: dict[int, list[tuple[np.ndarray, np.ndarray]]]


def seed_gradient(estimand: EstimandSpec, nuisance: FittedNuisance) -> GradientSeed:
    """Build the inner-gradient seed for an estimand from the fitted bundle."""
    design = nuisance.design
    data = nuisance.data
    Z = data.z
    rmaps = nuisance.rowmaps
    rows: dict[int, np.ndarray] = {}
    sep: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    if estimand.kind == "ate":
        if data.d != 3:
            raise StructuralError("the mean-difference estimand needs d = 3")
        if 1 not in design.relevant or 3 not in design.relevant:
            raise StructuralError("indices 1 and 3 must be relevant for this estimand")
        if nuisance.propensity is None:
            raise NuisanceMissing("no fitted propensity in the bundle")
        p3 = nuisance.panel(3)
        mu_field = p3.mean_field(p3.zj)                      # E[Y | z1, z2] on states
        st = p3.eval_states
        pi_st = nuisance.propensity.predict(st[:, 0])
        h_st = st[:, 1] / pi_st - (1.0 - st[:, 1]) / (1.0 - pi_st)
        sep[3] = [(h_st, p3.zj.copy()), (-h_st * mu_field, np.ones(p3.zj.size))]
        rm3 = rmaps[3]
        mu_rows = rm3.apply(mu_field)
        pi_rows = nuisance.propensity.predict(Z[:, 0])
        h_rows = Z[:, 1] / pi_rows - (1.0 - Z[:, 1]) / (1.0 - pi_rows)
        rows[3] = h_rows * (Z[:, 2] - mu_rows)

        # arm means as functions of z1 come from the same index-3 fields, read
        # along the two branches, so their contrast is exactly centered below
        p1 = nuisance.panel(1)
        br1 = np.column_stack([st[:, 0], np.ones(st.shape[0])])
        br0 = np.column_stack([st[:, 0], np.zeros(st.shape[0])])
        mu1_rows = p3.row_map(np.column_stack([Z[:, 0], np.ones(data.n)])).apply(mu_field)
        mu0_rows = p3.row_map(np.column_stack([Z[:, 0], np.zeros(data.n)])).apply(mu_field)
        contrast_rows = mu1_rows - mu0_rows
        mu1_tr = p3.row_map(np.column_stack([p1.zj, np.ones(p1.zj.size)])).apply(mu_field)
        mu0_tr = p3.row_map(np.column_stack([p1.zj, np.zeros(p1.zj.size)])).apply(mu_field)
        contrast_tr = mu1_tr - mu0_tr
        plugin = float(p1.mean_field(contrast_tr)[0])
        rows[1] = contrast_rows - plugin
        sep[1] = [(np.ones(1), contrast_tr - plugin)]

    elif estimand.kind == "working_linear":
        if data.d != 2:
            raise StructuralError("the working-linear estimand needs d = 2")
        if 1 not in design.relevant or 2 not in design.relevant:
            raise StructuralError("indices 1 and 2 must be relevant for this estimand")
        p2 = nuisance.panel(2)
        p1 = nuisance.panel(1)
        muy_field = p2.mean_field(p2.zj)
        rm2 = rmaps[2]
        muy_rows = rm2.apply(muy_field)
        x_tr = p1.zj                                        # covariate draws under Q
        muy_tr = p2.row_map(x_tr[:, None]).apply(muy_field)
        V = np.column_stack([np.ones(x_tr.size), x_tr])
        G = (V.T @ V) / x_tr.size
        if np.linalg.cond(G) > 1e12:
            raise SingularJacobian("covariate is (numerically) constant")
        theta = np.linalg.solve(G, V.T @ muy_tr / x_tr.size)
        evec = np.array([1.0, 0.0]) if estimand.coefficient == "intercept" else np.array([0.0, 1.0])
        lever = np.linalg.solve(G, evec)

        def a_of(x):
            return np.column_stack([np.ones(np.size(x)), np.ravel(x)]) @ lever

        plugin = float(evec @ theta)
        a_rows = a_of(Z[:, 0])
        rows[2] = a_rows * (Z[:, 1] - muy_rows)
        a_st = a_of(p2.eval_states[:, 0])
        sep[2] = [(a_st, p2.zj.copy()), (-a_st * muy_field, np.ones(p2.zj.size))]
        rows[1] = a_rows * (muy_rows - np.column_stack([np.ones(data.n), Z[:, 0]]) @ theta)
        sep[1] = [(np.ones(1), a_of(x_tr) * (muy_tr - V @ theta))]

    else:  # marginal moment of one coordinate
        jm = estimand.index
        if jm > data.d:
            raise StructuralError(f"moment index {jm} exceeds d = {data.d}")
        for j in range(1, jm + 1):
            if j not in design.relevant:
                raise StructuralError(
                    f"moment of index {jm} needs index {j} to be relevant")
            if j < jm and design.weak_at(j):
                raise StructuralError(
                    "weak sources below the moment index are not supported")
        # backward tower of conditional-mean fields: fields[j] lives on the
        # index-(j+1) panel's states and estimates E_Q[Z_jm^p | z̄_j]
        pjm = nuisance.panel(jm)
        m_rows = {jm: Z[:, jm - 1] ** estimand.power}
        vals_tr = pjm.zj ** estimand.power            # m_jm, value-only
        fields: dict[int, np.ndarray] = {}
        fields[jm - 1] = pjm.mean_field(vals_tr)
        for j in range(jm - 1, 0, -1):
            panel_j = nuisance.panel(j)
            upper = nuisance.panel(j + 1)
            if panel_j._mode == "discrete":
                st = panel_j.eval_states
                E, T = st.shape[0], panel_j.zj.size
                prefixes = np.column_stack([np.repeat(st, T, axis=0),
                                            np.tile(panel_j.zj, E)])
                mj = upper.row_map(prefixes).apply(fields[j]).reshape(E, T)
                fields[j - 1] = (panel_j.W * mj).sum(axis=1) / panel_j._wsafe
            else:
                tr_vals = upper.row_map(Z[panel_j.train_idx, :j]).apply(fields[j])
                fields[j - 1] = panel_j.mean_field(tr_vals)
        for j in range(1, jm):
            m_rows[j] = rmaps[j + 1].apply(fields[j])
        plugin = float(fields[0][0])
        for j in range(1, jm + 1):
            lower = m_rows[j - 1] if j > 1 else np.full(data.n, plugin)
            rows[j] = m_rows[j] - lower
        sep[jm] = [(np.ones(1), vals_tr), (-fields[jm - 1], np.ones(pjm.zj.size))]

    return GradientSeed(estimand=estimand, plugin=plugin, rows=rows, sep=sep)


def gradient_aligned_only(seed: GradientSeed, nuisance: FittedNuisance) -> np.ndarray:
    """Per-row aligned-only gradient: each relevant index contributes its seed
    increment on rows of its aligned sources, scaled by 1/P(S in A_j). The
    reference-measure correction is identically one under the pooled-aligned
    reference and is applied as such."""
    design = nuisance.design
    src = nuisance.data.source
    out = np.zeros(nuisance.data.n)
    for j in design.relevant:
        if j not in seed.rows:
            continue
        aj = sorted(design.aligned_at(j))
        out += np.isin(src, aj) * seed.rows[j] / nuisance.delta_of(aj)
    return out


def _batched_pinv(M: np.ndarray, force_null: bool = True):
    """Pseudo-inverse of a stack of symmetric matrices.

    Beyond the relative eigenvalue cutoff, the smallest-magnitude eigenvalue
    is always dropped when `force_null`: these matrices have a known one-
    dimensional null space at the truth, and keeping a noisy near-zero
    eigenvalue would amplify noise instead of removing the null direction.
    Returns the stack of inverses plus the per-point count of dropped
    eigenvalues.
    """
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    vals, vecs = np.linalg.eigh(M)
    absvals = np.abs(vals)
    keep = absvals > _EIG_TOL * np.maximum(absvals.max(axis=-1, keepdims=True), 1e-300)
    if force_null:
        idx = np.argmin(absvals, axis=-1)
        np.put_along_axis(keep, idx[..., None], False, axis=-1)
    inv_vals = np.where(keep, 1.0 / np.where(vals != 0, vals, 1.0), 0.0)
    pinv = np.einsum("...ij,...j,...kj->...ik", vecs, inv_vals, vecs)
    dropped = (~keep).sum(axis=-1)
    return pinv, dropped


class _IndexMachine:
    """All (E, T) machinery for one relevant index with weak sources, at a
    fixed parameter value."""

    def __init__(self, nuisance: FittedNuisance, beta: BetaParam, j: int):
        design = nuisance.design
        data = nuisance.data
        self.j = j
        self.panel = panel = nuisance.panel(j)
        self.S = sorted(design.sources_at(j))
        self.A = sorted(design.aligned_at(j))
        self.Wk = sorted(design.weak_at(j))
        self.dSj = nuisance.delta_of(self.S)
        offs = beta.offsets()
        ratio = nuisance.ratio_fits(j)
        E = panel.eval_states.shape[0]
        T = panel.zj.size
        eps_w = nuisance.options.eps_w

        # local mixture weights at states and the clipped versions at rows
        self.dt_e = np.column_stack([
            nuisance.delta[m] * ratio.rho(m, panel.eval_states) for m in self.S])
        Zprev = data.z[:, :j - 1]
        self.dt_rows = np.column_stack([
            nuisance.delta[m] * ratio.rho(m, Zprev) for m in self.S])

        # normalized shifts as (E, T) matrices: weight models are separable in
        # (state, value), so entries are exact evaluations at state-value pairs
        self.wst: dict[int, np.ndarray] = {}
        self.wfield: dict[int, np.ndarray] = {}
        self.basis_ev: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for s in self.Wk:
            spec = design.spec_for(j, s)
            b = beta.values[offs[(j, s)]]
            if spec.family == "exponential_tilt":
                pairs = [(t.prefactor(panel.eval_states), t.terminal_values(panel.zj))
                         for t in spec.terms]
                self.basis_ev[s] = pairs
                L = np.zeros((E, T))
                for bc, (g, psi) in zip(b, pairs):
                    L += bc * np.outer(g, psi)
                wmat = np.exp(L)
            else:
                wmat = np.broadcast_to((panel.zj >= b[0]).astype(float), (E, T)).copy()
                self.basis_ev[s] = []
            wf = self._rowmean(wmat, panel)
            n_floor = int(np.sum(wf < eps_w))
            if n_floor:
                nuisance.clips.bump("normalizer_floor", j, n_floor)
            wf = np.maximum(wf, eps_w)
            self.wfield[s] = wf
            self.wst[s] = wmat / wf[:, None]

        den = np.zeros((E, T))
        for i, m in enumerate(self.S):
            den += self.dt_e[:, i:i + 1] * (self.wst[m] if m in self.wst else 1.0)
        self.R = 1.0 / den

        # second moments of the shifts against r; aligned entries double as
        # the first-moment fields E_Q[w*_m r | e]
        k = len(self.S)
        self.P = np.empty((E, k, k))
        for a in range(k):
            for bdx in range(a, k):
                F = self.R
                if self.S[a] in self.wst:
                    F = F * self.wst[self.S[a]]
                if self.S[bdx] in self.wst:
                    F = F * self.wst[self.S[bdx]]
                val = self._rowmean(F, panel)
                self.P[:, a, bdx] = val
                self.P[:, bdx, a] = val
        a0 = self.S.index(self.A[0])
        self.Ewr = self.P[:, :, a0]                  # (E, k)
        M = -self.P.copy()
        idx = np.arange(k)
        M[:, idx, idx] += 1.0 / self.dt_e
        self.M = M
        self.Minv, dropped = _batched_pinv(M)
        n_extra = int(np.sum(dropped > 1))
        if n_extra:
            warnings.warn(
                f"fusion matrix lost rank beyond the expected null at {n_extra} "
                f"states (index {j})", RankDeficiency, stacklevel=3)

        # row-side shifts for own realized values, clipped like any ratio
        rowmap = nuisance.rowmaps[j]
        self.rowmap = rowmap
        self.in_S = np.isin(data.source, self.S)
        self.rows_S = np.flatnonzero(self.in_S)
        ZS = data.z[self.rows_S, :j]
        lo, hi = nuisance.options.ratio_clip
        self.wst_own: dict[int, np.ndarray] = {}
        for s in self.Wk:
            spec = design.spec_for(j, s)
            b = beta.values[offs[(j, s)]]
            w_own = eval_weight_many(spec, b, ZS)
            wf_own = rowmap.apply(self.wfield[s])[self.rows_S]
            ws = w_own / wf_own
            clipped = np.clip(ws, lo, hi)
            nclip = int(np.sum(clipped != ws))
            if nclip:
                nuisance.clips.bump("wstar", j, nclip)
            self.wst_own[s] = clipped
        dt_S = self.dt_rows[self.rows_S]
        den_own = np.zeros(self.rows_S.size)
        for i, m in enumerate(self.S):
            den_own += dt_S[:, i] * (self.wst_own[m] if m in self.wst_own else 1.0)
        self.R_own = 1.0 / den_own
        self.dtsum_own = dt_S.sum(axis=1)
        self.dt_own = dt_S

    @staticmethod
    def _rowmean(F: np.ndarray, panel) -> np.ndarray:
        return (panel.W * F).sum(axis=1) / panel._wsafe

    def project(self, mat: np.ndarray):
        """Moment fields the projection display needs for an (E, T) function:
        its conditional mean, its moments against each normalized shift, the
        correction coefficients u = M⁻ D, and the per-weak-source conditional
        means of the corrected function."""
        panel = self.panel
        Emean = self._rowmean(mat, panel)
        k = len(self.S)
        D = np.empty((mat.shape[0], k))
        for i, m in enumerate(self.S):
            F = mat * self.wst[m] if m in self.wst else mat
            D[:, i] = self._rowmean(F, panel)
        u = np.einsum("eij,ej->ei", self.Minv, D)
        centers = {}
        for i, m in enumerate(self.S):
            if m in self.wst:
                centers[m] = (D[:, i] - Emean
                              + np.einsum("ei,ei->e", u, self.P[:, :, i] - self.Ewr))
        return Emean, D, u, centers


def _interp_S(machine: _IndexMachine, fields: np.ndarray) -> np.ndarray:
    """Interpolate (E,) or (E, q) fields to the machine's S_j rows."""
    return machine.rowmap.apply(fields)[machine.rows_S]


@dataclass(frozen=True)
class InformationMatrix:
    matrix: np.ndarray
    pinv: np.ndarray
    rank: int
    eig_min: float
    cond: float


def information_matrix(scores_eff: np.ndarray, mask: np.ndarray) -> InformationMatrix:
    """Empirical second moment of the efficient score, inverted on the
    estimable block `mask`. Known-threshold coordinates stay zero on both
    sides."""
    S = scores_eff
    n = S.shape[0]
    t = S.shape[1]
    info = S.T @ S / n
    idx = np.flatnonzero(mask)
    pinv = np.zeros((t, t))
    if idx.size == 0:
        return InformationMatrix(info, pinv, 0, 0.0, np.inf)
    sub = info[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(0.5 * (sub + sub.T))
    eig_min = float(vals.min())
    if eig_min < 1e-10:
        warnings.warn("efficient information is numerically singular",
                      SingularInformation, stacklevel=2)
    keep = np.abs(vals) > 1e-12 * max(float(np.abs(vals).max()), 1e-300)
    inv_vals = np.where(keep, 1.0 / np.where(vals != 0, vals, 1.0), 0.0)
    sub_pinv = (vecs * inv_vals) @ vecs.T
    pinv[np.ix_(idx, idx)] = sub_pinv
    cond = float(np.abs(vals).max() / np.abs(vals).min()) if eig_min > 0 else np.inf
    return InformationMatrix(info, pinv, int(keep.sum()), eig_min, cond)


@dataclass
class EnginePass:
    """Everything one β evaluation produces at the data rows."""

    beta: BetaParam
    scores_raw: np.ndarray
    scores_eff: np.ndarray
    information: InformationMatrix
    dtilde: np.ndarray | None


def compute_pass(nuisance: FittedNuisance, beta: BetaParam,
                 seed: GradientSeed | None = None) -> EnginePass:
    """Run the engine at one parameter value: efficient scores and their
    information always, plus the projected gradient rows when a seed is
    supplied."""
    design = nuisance.design
    data = nuisance.data
    n = data.n
    Z = data.z
    src = data.source
    offs = beta.offsets()
    t = beta.t
    expected = layout_from_design(design)
    if beta.layout != expected:
        raise StructuralError(f"parameter layout {beta.layout} does not match design")

    scores_raw = np.zeros((n, t))
    scores_eff = np.zeros((n, t))
    dtilde = np.zeros(n) if seed is not None else None
    # per-index inverse-shift-weighted seed rows; the tail adjustments below
    # regress on them
    cterm: dict[int, np.ndarray] = {}
    any_weak = bool(design.weak_pairs())

    for j in design.relevant:
        Aj = sorted(design.aligned_at(j))
        Sj = sorted(design.sources_at(j))
        Wj = sorted(design.weak_at(j))
        dSj = nuisance.delta_of(Sj)
        in_Sj = np.isin(src, Sj)

        if not Wj:
            if seed is not None and j in seed.rows:
                # all-aligned index: the projected term coincides with the
                # aligned-only term (the posterior weights are value-free and
                # the correction vanishes); centering is exactly zero by seed
                # construction under the pooled reference
                term = in_Sj * seed.rows[j] / dSj
                dtilde += term
                cterm[j] = term
            continue

        mach = _IndexMachine(nuisance, beta, j)
        rows_S = mach.rows_S
        src_S = src[rows_S]

        # ---- efficient scores for every weak pair at this index ----
        for s in Wj:
            spec = design.spec_for(j, s)
            if spec.family != "exponential_tilt":
                continue  # known thresholds carry no estimable score
            sl = offs[(j, s)]
            sidx = mach.S.index(s)
            t_own = np.column_stack([trm.evaluate(Z[rows_S, :j]) for trm in spec.terms])
            r_own_s = mach.dt_own[:, sidx] * mach.wst_own[s] * mach.R_own
            for c, (g, psi) in enumerate(mach.basis_ev[s]):
                et_field = g * mach._rowmean(mach.wst[s] * psi[None, :], mach.panel)
                et_own = _interp_S(mach, et_field)
                resid_own = t_own[:, c] - et_own
                raw_col = np.zeros(n)
                raw_col[rows_S] = (src_S == s) * resid_own
                scores_raw[:, sl.start + c] = raw_col

                amat = (mach.dt_e[:, sidx:sidx + 1] * mach.wst[s] * mach.R
                        * (np.outer(g, psi) - et_field[:, None]))
                Ea, Da, ua, centers = mach.project(amat)
                a_own = r_own_s * resid_own
                astar_own = (a_own - _interp_S(mach, Ea)
                             + np.einsum("ri,ri->r", _interp_S(mach, ua),
                                         _row_wr(mach) - _interp_S(mach, mach.Ewr)))
                corr = astar_own.copy()
                for m, fld in centers.items():
                    corr -= (src_S == m) * _interp_S(mach, fld)
                eff_col = raw_col.copy()
                eff_col[rows_S] -= corr
                scores_eff[:, sl.start + c] = eff_col

        # ---- projected gradient term (absent seed entries mean the estimand
        # has no increment at this index, so the projection is zero) ----
        if seed is not None and j in seed.rows:
            sep = seed.sep.get(j)
            if sep is None:
                raise StructuralError(
                    f"estimand needs a separable seed at weak index {j}")
            E = mach.panel.eval_states.shape[0]
            T = mach.panel.zj.size
            Dmat = np.zeros((E, T))
            cq = np.zeros(E)
            for coef, col in sep:
                coef = np.broadcast_to(coef, (E,))
                Dmat += coef[:, None] * col[None, :]
                cq += coef * mach._rowmean(np.broadcast_to(col, (E, T)), mach.panel)
            dtsum_e = mach.dt_e.sum(axis=1)
            lam_e = dSj / dtsum_e
            dmat = mach.R * Dmat - (lam_e * cq / dSj)[:, None]
            Ed, Dd, ud, dcenters = mach.project(dmat)

            dq_own = seed.rows[j][rows_S]
            lam_own = dSj / mach.dtsum_own
            cq_own = _interp_S(mach, cq)
            d_own = mach.R_own * dq_own - lam_own * cq_own / dSj
            dt_own_full = (d_own - _interp_S(mach, Ed)
                           + np.einsum("ri,ri->r", _interp_S(mach, ud),
                                       _row_wr(mach) - _interp_S(mach, mach.Ewr)))
            termS = dt_own_full.copy()
            for m, fld in dcenters.items():
                termS -= (src_S == m) * _interp_S(mach, fld)
            term = np.zeros(n)
            term[rows_S] = termS
            dtilde += term

            lam_dag = lam_own.copy()
            for m in Wj:
                lam_dag = np.where(src_S == m, lam_own / mach.wst_own[m], lam_dag)
            crow = np.zeros(n)
            crow[rows_S] = lam_dag * dq_own / dSj
            cterm[j] = crow

    # ---- tail adjustments at single-source indices (finite-sample variance
    # accounting; identically zero in population and skipped for exact-table
    # backends and all-aligned designs) ----
    if seed is not None and any_weak:
        for j in design.relevant:
            Sj = sorted(design.sources_at(j))
            if len(Sj) != 1 or nuisance.panel(j)._mode == "discrete":
                continue
            m = Sj[0]
            later = [jp for jp in design.relevant if jp > j and m in design.sources_at(jp)]
            if not later:
                continue
            later = [jp for jp in later if jp in cterm]
            if not later:
                continue
            m_rows = data.rows_of(m)
            panel = nuisance.panel(j)
            tailval = np.zeros(m_rows.size)
            center_tr = np.zeros(panel.train_idx.size)
            for jp in later:
                fit = fit_kernel_regression(Z[m_rows, :j], cterm[jp][m_rows])
                tailval += fit.predict(Z[m_rows, :j])
                # center through the panel so the fitted tail stays mean-zero
                # against the target conditional at every state
                center_tr += fit.predict(Z[panel.train_idx, :j])
            cfield = panel.mean_field(center_tr)
            center_rows = nuisance.rowmaps[j].apply(cfield)[m_rows]
            add = np.zeros(n)
            add[m_rows] = tailval - center_rows
            dtilde += add

    if seed is not None and not any_weak:
        dtilde = gradient_aligned_only(seed, nuisance)

    info = information_matrix(scores_eff, estimable_mask(design))
    return EnginePass(beta=beta, scores_raw=scores_raw, scores_eff=scores_eff,
                      information=info, dtilde=dtilde)


def _row_wr(mach: _IndexMachine) -> np.ndarray:
    """(rows, |S|) matrix of w*_m r at the realized S_j rows."""
    cols = []
    for m in mach.S:
        w = mach.wst_own[m] if m in mach.wst_own else 1.0
        cols.append(w * mach.R_own)
    return np.column_stack(cols)


def efficient_gradient(seed: GradientSeed, beta: BetaParam,
                       nuisance: FittedNuisance) -> dict:
    """Per-row efficient gradient and its components at a parameter value.

    Returns a dict with the efficient rows, the fixed-β projected rows, the
    efficient scores, the information matrix and its pseudo-inverse, and the
    estimand derivative along β (raw-score form).
    """
    p = compute_pass(nuisance, beta, seed)
    info = p.information
    grad_gamma = p.scores_raw.T @ p.dtilde / nuisance.data.n
    adj = info.pinv @ grad_gamma
    rows = p.dtilde - p.scores_eff @ adj
    return {
        "rows": rows,
        "fixed_beta_rows": p.dtilde,
        "scores_eff": p.scores_eff,
        "scores_raw": p.scores_raw,
        "information": info,
        "grad_gamma": grad_gamma,
    }
