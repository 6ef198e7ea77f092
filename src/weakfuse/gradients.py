"""Gradient engine: estimand seeds, projection onto the fusion tangent space,
and the efficient one-step gradient.

The machinery for one relevant index j with weak sources works on panels of
conditional moments (see the nuisance module). Every object indexed by
(conditioning state e, current value v) lives on the panel's (E, T) weight
blocks: normalized shifts w*_s, the local posterior weights r, and the working
gradient d. All conditional means of such objects are taken against the target
conditional weights, so the identities E_Q[w*_s | e] = 1 and the seed
centerings hold exactly by construction, for kernel and exact-table backends
alike. Rows of the dataset read grid fields through the panel's row map.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from itertools import combinations_with_replacement
from typing import ClassVar

import numpy as np

from .errors import NonFiniteNormalizer, SingularJacobian, StructuralError
from .model import BetaParam, layout_from_design
from .nuisance import (
    _EPS_W,
    FittedNuisance,
    _chunks,
    _smooth_at_train,
    fit_propensity,
    silverman_bandwidths,
)

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

    kind: str = "ate"
    coefficient: str = "slope"
    index: int = 1
    power: int = 1
    # the fields besides `kind` that each kind reads; the others keep their defaults
    _READS: ClassVar[dict] = {"ate": (), "working_linear": ("coefficient",),
                              "moment": ("index", "power")}

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self._READS:
            raise StructuralError(f"unknown estimand kind {self.kind!r}")
        for f in dataclass_fields(self)[1:]:
            if f.name not in self._READS[self.kind] and getattr(self, f.name) != f.default:
                raise StructuralError(f"{f.name}: not read by kind {self.kind!r}")
        # a field the kind does not read holds its default, which is valid
        if self.coefficient not in ("intercept", "slope"):
            raise StructuralError(f"unknown coefficient {self.coefficient!r}")
        for name in ("index", "power"):
            if getattr(self, name) < 1:
                raise StructuralError(f"moment {name} must be a positive integer")


@dataclass
class GradientSeed:
    """Estimand-specific ingredients, all fitted from aligned rows only.

    `rows[j]` holds the index-j inner-gradient increment at every data row;
    `sep[j]` holds the same function on the index-j panel as a short sum of
    (state coefficient field, value column) products, which is what the
    weak-index machinery consumes. Increments are exactly mean-zero against
    the panel's conditional weights at every state. `flags` holds
    `SeparationWarning` when the mean difference's propensity needed a ridge.
    """

    plugin: float
    rows: dict[int, np.ndarray]
    sep: dict[int, list[tuple[np.ndarray, np.ndarray]]]
    flags: frozenset[str]


def seed_gradient(estimand: EstimandSpec, nuisance: FittedNuisance) -> GradientSeed:
    """Build the inner-gradient seed for an estimand from the fitted bundle;
    the mean difference first fits its propensity with the bundle's options."""
    design = nuisance.design
    data = nuisance.data
    Z = data.z
    rmaps = nuisance.rowmaps
    rows: dict[int, np.ndarray] = {}
    sep: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    flags = frozenset()

    if estimand.kind == "ate":
        if data.d != 3:
            raise StructuralError("the mean-difference estimand needs d = 3")
        if 1 not in design.relevant or 3 not in design.relevant:
            raise StructuralError("indices 1 and 3 must be relevant for this estimand")
        propensity = fit_propensity(data, design, nuisance.options)
        flags = frozenset({"SeparationWarning"} if propensity.ridged else ())
        p3 = nuisance.panel(3)
        if not p3.binary[1]:         # a continuous z2 has no two arms to read
            raise StructuralError("the mean-difference estimand needs a binary z2")
        mu_field = p3.mean_field(p3.zj)                      # E[Y | z1, z2] on states
        st = p3.eval_states
        pi_st = propensity.predict(st[:, 0])
        h_st = st[:, 1] / pi_st - (1.0 - st[:, 1]) / (1.0 - pi_st)
        sep[3] = [(h_st, p3.zj.copy()), (-h_st * mu_field, np.ones(p3.zj.size))]
        mu_rows = rmaps[3].apply(mu_field)
        pi_rows = propensity.predict(Z[:, 0])
        h_rows = Z[:, 1] / pi_rows - (1.0 - Z[:, 1]) / (1.0 - pi_rows)
        rows[3] = h_rows * (Z[:, 2] - mu_rows)

        # arm means as functions of z1 come from the same index-3 fields, read
        # along the two branches, so their contrast is exactly centered below
        p1 = nuisance.panel(1)
        contrast_rows = (rmaps[3].apply(p3.at_branch(mu_field, 1, 1.0))
                         - rmaps[3].apply(p3.at_branch(mu_field, 1, 0.0)))
        contrast_tr = contrast_rows[p1.train_idx]
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
        muy_rows = rmaps[2].apply(muy_field)
        x_tr = p1.zj                                        # covariate draws under Q
        muy_tr = rmaps[2].take(p1.train_idx).apply(muy_field)
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
            fields[j - 1] = nuisance.panel(j).next_mean(fields[j], nuisance)
        for j in range(1, jm):
            m_rows[j] = rmaps[j + 1].apply(fields[j])
        plugin = float(fields[0][0])
        for j in range(1, jm + 1):
            lower = m_rows[j - 1] if j > 1 else np.full(data.n, plugin)
            rows[j] = m_rows[j] - lower
        sep[jm] = [(np.ones(1), vals_tr), (-fields[jm - 1], np.ones(pjm.zj.size))]

    return GradientSeed(plugin=plugin, rows=rows, sep=sep, flags=flags)


def _batched_pinv(M: np.ndarray):
    """Pseudo-inverse of a stack of symmetric matrices.

    Beyond the relative eigenvalue cutoff, the smallest-magnitude eigenvalue
    is always dropped: these matrices have a known one-dimensional null
    space at the truth, and keeping a noisy near-zero eigenvalue would
    amplify noise instead of removing the null direction.
    Returns the stack of inverses plus the per-point count of dropped
    eigenvalues.
    """
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    vals, vecs = np.linalg.eigh(M)
    absvals = np.abs(vals)
    keep = absvals > _EIG_TOL * np.maximum(absvals.max(axis=-1, keepdims=True), 1e-300)
    np.put_along_axis(keep, np.argmin(absvals, axis=-1)[..., None], False, axis=-1)
    inv_vals = np.where(keep, 1.0 / np.where(vals != 0, vals, 1.0), 0.0)
    pinv = np.einsum("...ij,...j,...kj->...ik", vecs, inv_vals, vecs)
    dropped = (~keep).sum(axis=-1)
    return pinv, dropped


class _IndexMachine:
    """All (E, T) machinery for one relevant index with weak sources, at a
    fixed parameter value. Its β-free inputs (the S_j rows and their row
    map, the density ratios, each weak source's shift) are the bundle's
    `WeakIndexInputs` `inp`, built once; it forms only what β and the seed
    change, and δ_m ρ_m at the rows (`dt_rows`), which lives no longer than
    the pass.

    Every conditional moment the projection needs is a row mean of r times a
    product of at most two normalized shifts against a value column (1, each
    tilt term ψ, each separable seed column). One sweep over cache-sized row
    chunks of the panel's weight blocks forms the shifts, r and each distinct
    product, and multiplies it by the whole value stack in one matmul; only
    (E,) and (E, q) fields outlive a chunk.

    `clip_counts` holds the states whose normalizer was floored and the S_j
    rows at which some weak source's shift was clipped (each row once), and
    `rank_lost` the states whose fusion matrix lost rank beyond the expected
    null.
    """

    def __init__(self, nuisance: FittedNuisance, beta: BetaParam, j: int, sep=None):
        design = nuisance.design
        self.inp = inp = nuisance.weak_inputs[j]
        offs = beta.offsets()
        T = inp.panel.zj.size
        self.clip_counts: dict[str, int] = {}

        # value columns: 1, then each tilt term ψ, then each seed column; the
        # arrays each weak source's shift reads follow them in the sweep's `_chunks`
        cols = [np.ones(T)]
        shifts = {}                                 # (b, shift, span of its arrays)
        vals = []
        self.psi_cols: dict[int, slice] = {}
        for s in inp.Wk:
            b = beta.values[offs.get((j, s), slice(0, 0))]     # empty for a truncation
            shift = inp.shifts[s]
            shifts[s] = (b, shift, slice(1 + len(vals), 3 + len(vals)))
            vals.extend(shift.vals)
            self.psi_cols[s] = slice(len(cols), len(cols) + shift.G.shape[1])
            cols.extend(shift.V[:, 1:].T)
        self.seed_cols = slice(len(cols), len(cols) + len(sep or ()))
        cols.extend(np.broadcast_to(col, (T,)) for _, col in sep or ())
        V = np.column_stack(cols)

        raw = self._sweep(V, vals, shifts)

        self.wfield: dict[int, np.ndarray] = {}
        self.et: dict[int, np.ndarray] = {}         # E_Q[w*_s t_c | e]
        self.wst_own: dict[int, np.ndarray] = {}    # at each S_j row's own value
        clipped = np.zeros(inp.rows.size, dtype=bool)
        n_floor = 0
        for s in inp.Wk:
            finite = [np.isfinite(raw[s][:, 0])] + [np.isfinite(m).all(axis=1)
                                                    for key, m in self.mom.items() if s in key]
            bad = int(np.sum(~np.logical_and.reduce(finite)))
            if bad:
                raise NonFiniteNormalizer(
                    f"tilt normalizer or moments for index {j}, source {s} are not finite "
                    f"at {bad} states; the shift parameter diverged")
            n_floor += int(np.sum(raw[s][:, 0] < _EPS_W))
            self.wfield[s] = wf = np.maximum(raw[s][:, 0], _EPS_W)
            b, shift, _ = shifts[s]
            self.et[s] = shift.G * raw[s][:, 1:] / wf[:, None]
            with np.errstate(over="ignore"):
                ws = shift.weight(b) / inp.rmap.apply(wf)
            self.wst_own[s] = np.clip(ws, *nuisance.options.ratio_clip)   # like any ratio
            clipped |= self.wst_own[s] != ws
        n_clip = int(clipped.sum())
        for what, n in (("normalizer_floor", n_floor), ("wstar", n_clip)):
            if n:
                self.clip_counts[f"{what}_j{j}"] = n
        # E_Q[w*_m | e]
        self.wnorm = np.column_stack([raw[m][:, 0] / self.wfield[m] if m in self.wfield
                                      else self.wv[:, 0] for m in inp.S])

        # second moments of the shifts against r; aligned entries double as
        # the first-moment fields E_Q[w*_m r | e]
        k = len(inp.S)
        P = np.array([[self.mom[self._key(ma, mc)][:, 0] for mc in inp.S]
                      for ma in inp.S]).transpose(2, 0, 1)
        Ewr = P[:, :, inp.S.index(min(design.aligned_at(j)))]   # (E, k)
        self.M = -P.copy()
        self.M[:, np.arange(k), np.arange(k)] += 1.0 / inp.dt_e
        self.Minv, dropped = _batched_pinv(self.M)
        self.rank_lost = int(np.sum(dropped > 1))

        # posterior weights at the realized S_j rows, from δ_m ρ_m there
        self.dt_rows = inp.rho_rows * inp.delta
        den_own = np.zeros(inp.rows.size)
        for i, m in enumerate(inp.S):
            den_own += self.dt_rows[:, i] * self.wst_own.get(m, 1.0)
        self.R_own = 1.0 / den_own
        # (rows, |S|) matrix of w*_m r at the realized S_j rows
        wr_own = np.column_stack([self.wst_own.get(m, 1.0) * self.R_own for m in inp.S])

        # β-fixed parts of every projection: the realized shifts less their
        # mean, and per weak source its rows and second moments less the mean
        self.wr_dev = wr_own - inp.rmap.apply(Ewr)
        self.weak_parts = [(i, inp.src == m, P[:, :, i] - Ewr)
                           for i, m in enumerate(inp.S) if m in self.wfield]

    def _sweep(self, V, vals, shifts) -> dict:
        """One sweep over the chunks: each shift and its row means, returned
        per weak source, then w*, the mixture denominator, W·r and every
        product moment, into `wv` and `mom`. Its scratch is reused from chunk
        to chunk and dies with the sweep."""
        inp = self.inp
        E = inp.panel.eval_states.shape[0]
        raw = {s: np.zeros((E, inp.shifts[s].V.shape[1])) for s in inp.Wk}
        keys = [(), *((s,) for s in inp.Wk), *combinations_with_replacement(inp.Wk, 2)]
        self.wv = np.zeros((E, V.shape[1]))
        self.mom = {key: np.zeros((E, V.shape[1])) for key in keys}
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, W, _, vc, (r, prod, tmp, *wbuf) in _chunks(
                    inp.panel, V, *vals, scratch=3 + len(inp.Wk)):
                Vc = vc[0]
                self.wv[rows] = W @ Vc
                wst = {}
                for s, buf in zip(inp.Wk, wbuf):
                    b, shift, span = shifts[s]
                    w, raw[s][rows] = shift.chunk(b, rows, W, vc[span], buf, tmp)
                    wst[s] = np.divide(w, np.maximum(raw[s][rows, 0], _EPS_W)[:, None], out=buf)
                for a, m in enumerate(inp.S):       # r = 1 / (0 + t₀ + t₁ + …), then W·r
                    dt = inp.dt_e[rows, a:a + 1]
                    term = np.multiply(dt, wst[m], out=tmp) if m in wst else dt
                    np.add(r if a else 0.0, term, out=r)
                np.divide(1.0, r, out=r)
                r *= W
                self.mom[()][rows] = r @ Vc
                for x, s in enumerate(inp.Wk):
                    self.mom[(s,)][rows] = np.multiply(r, wst[s], out=prod) @ Vc
                    for t in inp.Wk[x:]:
                        self.mom[(s, t)][rows] = np.multiply(prod, wst[t], out=tmp) @ Vc
        return raw

    def _key(self, *ms) -> tuple:
        return tuple(sorted(m for m in ms if m in self.wfield))

    def project(self, shift: tuple, alpha: np.ndarray, own: np.ndarray,
                free=(0.0, 0.0)) -> np.ndarray:
        """Projected S_j rows of f = r · w*_shift · Σ_q alpha[:, q] V_q, whose
        realized values at the rows are `own`, plus an r-free part whose
        moments `free` = (E_Q[· | e], E_Q[· w*_m | e]) are given.

        Subtracts the conditional mean, adds the correction u = M⁻ D along
        the realized shifts and subtracts the per-weak-source centers; the
        three fields reach the rows through one row-map read."""
        Emean = np.einsum("eq,eq->e", alpha, self.mom[self._key(*shift)]) + free[0]
        D = np.column_stack([np.einsum("eq,eq->e", alpha, self.mom[self._key(*shift, m)])
                             for m in self.inp.S]) + free[1]
        u = np.einsum("eij,ej->ei", self.Minv, D)
        centers = [D[:, i] - Emean + np.einsum("ei,ei->e", u, dev)
                   for i, _, dev in self.weak_parts]
        k = len(self.inp.S)
        at = self.inp.rmap.apply(np.column_stack([Emean, u, *centers]))
        out = own - at[:, 0] + np.einsum("ri,ri->r", at[:, 1:1 + k], self.wr_dev)
        for c, (_, in_m, _) in enumerate(self.weak_parts):
            out -= in_m * at[:, 1 + k + c]
        return out


@dataclass(frozen=True)
class InformationMatrix:
    matrix: np.ndarray
    pinv: np.ndarray
    rank: int
    eig_min: float
    cond: float


def information_matrix(scores_eff: np.ndarray) -> InformationMatrix:
    """Empirical second moment of the efficient score and its
    pseudo-inverse."""
    S = scores_eff
    n = S.shape[0]
    info = S.T @ S / n
    if S.shape[1] == 0:
        return InformationMatrix(info, np.zeros((0, 0)), 0, 0.0, np.inf)
    if not np.isfinite(info).all():
        raise StructuralError("the data give no finite estimate: the efficient "
                              "information is not finite")
    vals, vecs = np.linalg.eigh(0.5 * (info + info.T))
    eig_min = float(vals.min())
    keep = np.abs(vals) > 1e-12 * max(float(np.abs(vals).max()), 1e-300)
    inv_vals = np.where(keep, 1.0 / np.where(vals != 0, vals, 1.0), 0.0)
    pinv = (vecs * inv_vals) @ vecs.T
    cond = float(np.abs(vals).max() / np.abs(vals).min()) if eig_min > 0 else np.inf
    return InformationMatrix(info, pinv, int(keep.sum()), eig_min, cond)


@dataclass
class EnginePass:
    """Everything one β evaluation produces at the data rows, with the
    fallbacks it hit: `flags` names them (`RankDeficiency`,
    `SingularInformation`, `SingularBandwidth` from a tail regression) and
    `clip_counts` sums the machines' counts by key. `grad_gamma` and
    `efficient_rows` need the projected gradient rows, so only a seeded
    pass has them."""

    beta: BetaParam
    scores_raw: np.ndarray
    scores_eff: np.ndarray
    information: InformationMatrix
    dtilde: np.ndarray | None
    flags: frozenset[str]
    clip_counts: dict[str, int]

    def newton_step(self) -> tuple[BetaParam, np.ndarray]:
        """One Newton step from this pass's β along the efficient score, and
        the standard errors of the stepped β."""
        S = self.scores_eff
        n = S.shape[0]
        update = self.information.pinv @ S.mean(axis=0)
        se = np.sqrt(np.maximum(np.diag(self.information.pinv), 0.0) / n)
        return self.beta.replace_values(self.beta.values + update), se

    @property
    def grad_gamma(self) -> np.ndarray:
        """The estimand's derivative along β, in raw-score form."""
        return self.scores_raw.T @ self.dtilde / self.scores_raw.shape[0]

    def efficient_rows(self) -> np.ndarray:
        """Per-row efficient gradient: the fixed-β rows minus their
        projection on the efficient scores."""
        adj = self.information.pinv @ self.grad_gamma
        return self.dtilde - self.scores_eff @ adj


def compute_pass(nuisance: FittedNuisance, beta: BetaParam,
                 seed: GradientSeed | None = None) -> EnginePass:
    """Run the engine at one parameter value: efficient scores and their
    information always, plus the projected gradient rows when a seed is
    supplied."""
    design = nuisance.design
    data = nuisance.data
    n = data.n
    offs = beta.offsets()
    t = beta.t
    if beta.layout != layout_from_design(design):
        raise StructuralError(f"parameter layout {beta.layout} does not match design")

    scores_raw = np.zeros((n, t))
    scores_eff = np.zeros((n, t))
    dtilde = np.zeros(n) if seed is not None else None
    # per-index inverse-shift-weighted seed rows; the tail adjustments below
    # regress on them
    cterm: dict[int, np.ndarray] = {}
    flags: set[str] = set()
    clip_counts: dict[str, int] = {}

    for j in design.relevant:
        Sj = sorted(design.sources_at(j))
        dSj = nuisance.delta_of(Sj)
        if j not in nuisance.weak_inputs:
            if seed is not None and j in seed.rows:
                # all-aligned index: the projected term coincides with the
                # aligned-only term (the posterior weights are value-free and
                # the correction vanishes); centering is exactly zero by seed
                # construction under the pooled reference
                term = np.isin(data.source, Sj) * seed.rows[j] / dSj
                dtilde += term
                cterm[j] = term
            continue

        sep = None
        if seed is not None and j in seed.rows:
            sep = seed.sep.get(j)
            if sep is None:
                raise StructuralError(
                    f"estimand needs a separable seed at weak index {j}")
        mach = _IndexMachine(nuisance, beta, j, sep)
        clip_counts.update(mach.clip_counts)
        if mach.rank_lost:
            flags.add("RankDeficiency")
        inp = mach.inp
        E = inp.panel.eval_states.shape[0]
        q = mach.wv.shape[1]

        # ---- efficient scores for every weak pair at this index; a
        # truncation has no parameter, so its slice and score are empty ----
        for s in inp.Wk:
            shift, sl = inp.shifts[s], offs.get((j, s), slice(0, 0))
            sidx = inp.S.index(s)
            r_own_s = mach.dt_rows[:, sidx] * mach.wst_own[s] * mach.R_own
            resid_own = shift.t - inp.rmap.apply(mach.et[s])
            scores_raw[inp.rows, sl] = (inp.src == s)[:, None] * resid_own
            scores_eff[:, sl] = scores_raw[:, sl]
            dt_s = inp.dt_e[:, sidx]
            for c in range(resid_own.shape[1]):
                # a = δ̃_s w*_s r (t_c - E_Q[w*_s t_c | e]) with t_c = g_c ψ_c
                alpha = np.zeros((E, q))
                alpha[:, mach.psi_cols[s].start + c] = dt_s * shift.G[:, c]
                alpha[:, 0] = -dt_s * mach.et[s][:, c]
                scores_eff[inp.rows, sl.start + c] -= mach.project(
                    (s,), alpha, r_own_s * resid_own[:, c])

        # ---- projected gradient term (absent seed entries mean the estimand
        # has no increment at this index, so the projection is zero) ----
        if sep is not None:
            # d = r D - λ cq / δ_S with D = Σ coef ⊗ col and cq = E_Q[D | e]
            alpha = np.zeros((E, q))
            alpha[:, mach.seed_cols] = np.column_stack(
                [np.broadcast_to(coef, (E,)) for coef, _ in sep])
            cq = np.einsum("eq,eq->e", alpha, mach.wv)
            lamcq = dSj / inp.dt_e.sum(axis=1) * cq / dSj
            free = (-lamcq * mach.wv[:, 0], -lamcq[:, None] * mach.wnorm)

            dq_own = seed.rows[j][inp.rows]
            lam_own = dSj / mach.dt_rows.sum(axis=1)
            d_own = mach.R_own * dq_own - lam_own * inp.rmap.apply(cq) / dSj
            dtilde[inp.rows] += mach.project((), alpha, d_own, free)

            lam_dag = lam_own.copy()
            for m in inp.Wk:
                lam_dag = np.where(inp.src == m, lam_own / mach.wst_own[m], lam_dag)
            crow = np.zeros(n)
            crow[inp.rows] = lam_dag * dq_own / dSj
            cterm[j] = crow

    # ---- tail adjustments at single-source indices (finite-sample variance
    # accounting; identically zero in population and skipped for exact-table
    # backends and all-aligned designs) ----
    if seed is not None and nuisance.weak_inputs:
        for j in design.relevant:
            Sj = sorted(design.sources_at(j))
            if len(Sj) != 1 or nuisance.panel(j).train_idx is None:
                continue
            m = Sj[0]
            later = [jp for jp in design.relevant
                     if jp > j and m in design.sources_at(jp) and jp in cterm]
            if not later:
                continue
            # one kernel smoother over the rows of m regresses the later
            # indices' seed rows on z̄_j, one column each
            m_rows = data.rows_of(m)
            panel = nuisance.panel(j)
            X = data.z[m_rows, :j]
            h, floored = silverman_bandwidths(X)
            if floored:
                flags.add("SingularBandwidth")
            tailval = _smooth_at_train(
                X, h, np.column_stack([cterm[jp][m_rows] for jp in later])).sum(axis=1)
            # center through the panel so the fitted tail stays mean-zero
            # against the target conditional at every state; the panel trains
            # on the rows of m, in its own (fold) order
            cfield = panel.mean_field(tailval[np.searchsorted(m_rows, panel.train_idx)])
            dtilde[m_rows] += tailval - nuisance.rowmaps[j].take(m_rows).apply(cfield)

    info = information_matrix(scores_eff)
    if t and info.eig_min < 1e-10:
        flags.add("SingularInformation")
    return EnginePass(beta=beta, scores_raw=scores_raw, scores_eff=scores_eff,
                      information=info, dtilde=dtilde, flags=frozenset(flags),
                      clip_counts=clip_counts)

