"""Independent oracles the tests compare the package against.

Everything here is computed from first principles: finite-support laws with
exact tables, dense least-squares projections onto the tangent space, dense
kernel-panel weights, and closed-form Beta/Gaussian moments. None of it
reuses engine code paths beyond plain data containers and, for the exact
finite-support panel, the exact-layout panel and the one-block smoother, the
package's block-panel reader.
"""

import csv
import io
import math

import numpy as np

from weakfuse.cli import _read_text
from weakfuse.errors import EmptyFile, MissingColumn, NonNumericCell, ParseError, StructuralError
from weakfuse.model import BetaParam, Dataset, FusionDesign, layout_from_design
from weakfuse.nuisance import (
    _MIN_ROWS,
    FittedNuisance,
    KernelPanel,
    NuisanceOptions,
    RowMap,
    _BlockPanel,
    _GaussRows,
    silverman_bandwidths,
)
from weakfuse.estimator import wald_interval
from weakfuse.simulation import PSI_TRUE, study_design
from weakfuse.weights import WeightSpec, basis_matrix


def lambda_prev(ratio_fits, delta, Zprev) -> np.ndarray:
    """λ_{j-1} = q(z̄_{j-1}) / p(z̄_{j-1} | S ∈ S_j) with q the pooled aligned
    reference, from a ratio fit's sources and clipped ratios; identically one
    when S_j is a single source."""
    Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
    dsum = sum(delta[s] for s in ratio_fits.sources)
    den = np.zeros(Zprev.shape[0])
    for s in ratio_fits.sources:
        den += delta[s] * ratio_fits.rho(s, Zprev)
    return dsum / den


def design_rules(d, k, relevant, aligned, weak, specs, data: Dataset) -> tuple[str, ...]:
    """Every rule a fusion design must obey, as one function of the raw
    declaration and a dataset, in the order of a per-index sweep over 1..d:
    raises the error a faulty design raises and returns the notes of a sound
    one. `aligned` and `weak` map an index to its sources, `specs` a (j, s)
    pair to its weight model."""
    relevant = sorted(relevant)
    if d < 1 or k < 1:
        raise StructuralError("need d >= 1 and k >= 1")
    if not relevant:
        raise StructuralError("relevant index set is empty")
    for j in relevant:
        if not 1 <= j <= d:
            raise StructuralError(f"relevant index {j} outside 1..{d}")
    for j in sorted(aligned) + sorted(weak):
        if not 1 <= j <= d:
            raise StructuralError(f"index {j} outside 1..{d}")
    if data.d != d or data.k != k:
        raise StructuralError(f"design is for d={d}, k={k}; data has d={data.d}, k={data.k}")
    counts = data.source_counts()
    notes = []
    for j in range(1, d + 1):
        a, w = set(aligned.get(j, ())), set(weak.get(j, ()))
        if not a:
            raise StructuralError(f"aligned set A_{j} is empty")
        if a & w:
            raise StructuralError(f"sources {sorted(a & w)} are in both A_{j} and W_{j}")
        for s in sorted(a | w):
            if not 1 <= s <= k:
                raise StructuralError(f"source {s} at index {j} outside 1..{k}")
            if counts.get(s, 0) == 0:
                raise StructuralError(f"source {s} referenced at index {j} has no rows")
        for s in sorted(w):
            if (j, s) not in specs:
                raise StructuralError(f"no weight model for weak source {s} at index {j}")
        if w and j not in relevant:
            notes.append(f"weak sources at index {j} are ignored (index not relevant)")
    for (j, s), spec in sorted(specs.items(), key=lambda item: item[0]):
        if s not in weak.get(j, ()):
            raise StructuralError(f"weight model given for ({j}, {s}) but source not weak there")
        if spec.index != j:
            raise ParseError(f"weight model for index {spec.index} used at index {j}")
    return tuple(notes)


def gradient_aligned_only(seed, nuisance: FittedNuisance) -> np.ndarray:
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


def eval_weight_many(spec: WeightSpec, beta_js: np.ndarray, zbar: np.ndarray) -> np.ndarray:
    """A weight model's w(z̄_j; β) on rows of z̄_j prefixes, straight from its
    definition: exp(t(z̄_j) · β) for a tilt, 1{z_j >= threshold} for a step."""
    zbar = np.atleast_2d(np.asarray(zbar, dtype=float))
    beta_js = np.asarray(beta_js, dtype=float).ravel()
    if beta_js.size != spec.nparams:
        raise ValueError(f"expected {spec.nparams} parameters, got {beta_js.size}")
    if spec.family == "truncated_above_threshold":
        return (zbar[:, spec.index - 1] >= spec.threshold).astype(float)
    return np.exp(basis_matrix(spec, zbar) @ beta_js)


def sensitivity_interval(estimate: float, se: float, delta: float,
                         level: float) -> tuple[float, float]:
    """Wald interval widened by ±delta, one sensitivity row at a time."""
    lo, hi = wald_interval(estimate, se, level)
    return lo - delta, hi + delta


def beta_slice(beta: BetaParam, j: int, s: int) -> np.ndarray:
    """The (j, s) block of a stacked parameter; KeyError if absent."""
    sl = beta.offsets().get((int(j), int(s)))
    if sl is None:
        raise KeyError(f"no parameter block for index {j}, source {s}")
    return beta.values[sl].copy()


def assemble_beta(layout, blocks) -> BetaParam:
    """Inverse of beta_slice over a full layout."""
    layout = tuple((int(j), int(s), int(c)) for j, s, c in layout)
    vals = []
    for j, s, c in layout:
        if (j, s) not in blocks:
            raise KeyError(f"missing block for index {j}, source {s}")
        b = np.asarray(blocks[(j, s)], dtype=float).ravel()
        if b.size != c:
            raise StructuralError(f"block ({j}, {s}) has length {b.size}, layout says {c}")
        vals.append(b)
    return BetaParam(np.concatenate(vals) if vals else np.empty(0), layout)


def beta_mean(a: float, b: float) -> float:
    return a / (a + b)


def beta_logpdf(x: float, a: float, b: float) -> float:
    lb = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb


# ------------------------------------------------------- kernel panels ----

def binary_columns_by_set(Z: np.ndarray) -> np.ndarray:
    """Which columns of Z are binary, by testing each column's distinct values
    for inclusion in the set {0, 1}."""
    return np.array([set(np.unique(Z[:, c])) <= {0.0, 1.0} for c in range(Z.shape[1])],
                    dtype=bool)


def dense_weights(panel, data: Dataset) -> np.ndarray:
    """A kernel panel's weights as one dense, unnormalized (E, T) matrix
    rebuilt from the kernel formula: a Gaussian in each continuous past
    coordinate times an exact match on each binary one. A cross-fit panel is
    block-diagonal in its folds, each with its own bandwidths."""
    W = np.zeros((panel.eval_states.shape[0], panel.zj.size))
    for f, (states, cols) in enumerate(panel.folds):
        st = panel.eval_states[states]
        zprev = data.z[panel.train_idx[cols], :panel.j - 1]
        Wf = np.ones((st.shape[0], zprev.shape[0]))
        for c in range(zprev.shape[1]):
            if panel.binary[c]:
                Wf *= st[:, c, None] == zprev[None, :, c]
            else:
                h = panel.h[f][list(panel.cont_cols).index(c)]
                Wf *= np.exp(-0.5 * ((st[:, c, None] - zprev[None, :, c]) / h) ** 2)
        W[states, cols] = Wf
    return W


def kernel_regression(Xq: np.ndarray, Xt: np.ndarray, y: np.ndarray,
                      h: np.ndarray) -> np.ndarray:
    """Nadaraya-Watson regression of y on Xt read at Xq, as the kernel
    formula (w @ y) / w.sum(1) over one dense Gaussian product-kernel
    matrix w with bandwidths h."""
    d2 = sum(((Xq[:, None, c] - Xt[None, :, c]) / h[c]) ** 2 for c in range(Xt.shape[1]))
    w = np.exp(-0.5 * d2)
    return (w @ y) / w.sum(axis=1)


def smoother(Xq: np.ndarray, Xt: np.ndarray, h: np.ndarray) -> _BlockPanel:
    """A one-block panel whose `mean_field` of values at the training points
    `Xt` is their Nadaraya-Watson regression, read at the query points `Xq`
    chunk by chunk through the package's Gaussian row source."""
    return _BlockPanel(Xq, [(np.arange(Xq.shape[0]), np.arange(Xt.shape[0]),
                             _GaussRows(Xq, Xt, h, keep=True))])


class ExactPanel(_BlockPanel):
    """The exact layout, the reference for a kernel panel's tensor grid: one
    state per data row, in data order, a Gaussian over every past
    coordinate with the Silverman bandwidths of the training rows, and a row
    map that reads each data row at its own state, so it maps only the full
    dataset. With `options.cross_fit` the folds are those of `KernelPanel`.
    It takes `KernelPanel`'s arguments, so it can stand in for it in
    `fit_nuisance_bundle`."""

    def __init__(self, j: int, data: Dataset, train_idx, options: NuisanceOptions,
                 keep: bool = True):
        self.j = j
        rows = np.asarray(train_idx, dtype=int)
        fold_rows = ((rows[::2], rows[1::2])
                     if options.cross_fit and rows.size >= 2 * _MIN_ROWS else (rows,))
        self.train_idx = np.concatenate(fold_rows)
        self.zj = data.z[self.train_idx, j - 1]
        Z = data.z[:, :j - 1]
        n = data.n
        fits = [silverman_bandwidths(Z[fr]) for fr in fold_rows]
        self.h = [h for h, _ in fits]
        self.floored = any(floored for _, floored in fits)
        blocks, folds, T0 = [], [], 0
        for f, fr in enumerate(fold_rows):
            blocks.append((np.arange(n) + f * n, np.arange(fr.size) + T0,
                           _GaussRows(Z, Z[fr], self.h[f], keep)))
            folds.append((slice(f * n, (f + 1) * n), slice(T0, T0 + fr.size)))
            T0 += fr.size
        super().__init__(np.vstack([Z] * len(fold_rows)), blocks, tuple(folds))

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        n = self.eval_states.shape[0] // len(self.folds)
        if np.shape(Zprev)[0] != n:
            raise StructuralError("the exact layout maps only the full dataset")
        idx = np.arange(n)
        if len(self.folds) > 1 and row_idx is not None:
            idx = idx + n * np.where(np.isin(row_idx, self.train_idx),
                                     np.isin(row_idx, self.train_idx[self.folds[0][1]]),
                                     np.asarray(row_idx) % 2)
        return RowMap(idx[None], np.ones((1, n)))

    next_mean = KernelPanel.next_mean


def dense_rowmean(W: np.ndarray, F: np.ndarray, values=None) -> np.ndarray:
    """sum_t W F V / sum_t W per row (V = 1 when `values` is None); rows
    whose weight mass is below 1e-12 keep the raw sum."""
    wsum = W.sum(axis=1)
    wsafe = np.where(wsum < 1e-12, 1.0, wsum)
    X = W * F
    num = X.sum(axis=1) if values is None else X @ values
    return num / (wsafe if num.ndim == 1 else wsafe[:, None])


def dense_mean_field(panel, data: Dataset, values: np.ndarray) -> np.ndarray:
    """Nadaraya-Watson means of train-side values at every state; states
    without weight mass read the train mean of their own fold."""
    W = dense_weights(panel, data)
    out = dense_rowmean(W, np.ones_like(W), values)
    for states, cols in panel.folds:
        empty = W[states].sum(axis=1) < 1e-12
        out[states][empty] = values[cols].mean(axis=0)
    return out


# --------------------------------------------------------- discrete law ----

class _Table:
    """A stored weight table read as it is: its rows are never rescaled and
    never degenerate."""

    def __init__(self, W: np.ndarray):
        self.W = W

    def rows(self, lo: int, hi: int):
        W = self.W[lo:hi]
        return W, np.zeros(W.shape[0], dtype=bool)


class DiscretePanel(_BlockPanel):
    """Exact conditional-moment evaluator over a finite support.

    `eval_states` enumerates the support of z̄_{j-1}; the single weight block
    holds the exact target conditional probabilities q(z_j | z̄_{j-1}), so
    every field is an exact expectation and rows map onto their support state
    without interpolation. Its columns are the support values of z_j, not
    data rows, so `train_idx` is None. Backs the oracle tests and the discrete
    acceptance check.
    """

    def __init__(self, j: int, eval_states: np.ndarray, zj_values: np.ndarray,
                 cond_probs: np.ndarray):
        self.j = j
        self.eval_states = np.atleast_2d(np.asarray(eval_states, dtype=float))
        self.zj = np.asarray(zj_values, dtype=float)
        W = np.asarray(cond_probs, dtype=float)
        E = self.eval_states.shape[0]
        if W.shape != (E, self.zj.size):
            raise StructuralError("conditional probability table has wrong shape")
        if np.any(np.abs(W.sum(axis=1) - 1.0) > 1e-12):
            raise StructuralError("conditional probabilities must sum to one")
        self.train_idx = None
        super().__init__(self.eval_states, [(np.arange(E), np.arange(self.zj.size), _Table(W))])

    def next_mean(self, field: np.ndarray, nuisance: FittedNuisance) -> np.ndarray:
        """E_Q[f(z̄_j) | z̄_{j-1}] at every support state, exactly: f, a field
        on the index-(j+1) panel's states, is read at each state extended by
        each support value of z_j and weighted by the table."""
        W = self.blocks[0][2].W
        E, T = W.shape
        prefixes = np.column_stack([np.repeat(self.eval_states, T, axis=0),
                                    np.tile(self.zj, E)])
        f = nuisance.panel(self.j + 1).row_map(prefixes).apply(field).reshape(E, T)
        return np.einsum("gt,gt->g", W, f)

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        idx = np.empty(Zprev.shape[0], dtype=int)
        for r in range(Zprev.shape[0]):
            hit = np.flatnonzero(np.all(np.abs(self.eval_states - Zprev[r]) < 1e-9, axis=1))
            if hit.size == 0:
                raise StructuralError("row state not in the declared support")
            idx[r] = hit[0]
        return RowMap(idx[None], np.ones((1, idx.size)))


class DiscreteLaw:
    """Three-source, three-index finite-support instance with exact tables.

    Source 1 is aligned everywhere; sources 2 and 3 are exponentially tilted
    at the terminal index and arbitrarily off-model at the earlier indices.
    Every expectation is a finite sum, so the projected gradient can be
    computed by dense weighted least squares and compared exactly.
    """

    Z1 = np.array([1.0, 1.5])
    Z2 = np.array([0.0, 1.0])
    Z3 = np.array([0.2, 0.5, 0.8])
    DELTA = {1: 0.4, 2: 0.35, 3: 0.25}
    P_Z1 = {1: np.array([0.5, 0.5]), 2: np.array([0.3, 0.7]),
            3: np.array([0.6, 0.4])}
    Q2 = np.array([[0.4, 0.6], [0.55, 0.45]])
    P2_OFF = {2: np.array([[0.5, 0.5], [0.3, 0.7]]),
              3: np.array([[0.6, 0.4], [0.5, 0.5]])}
    Q3 = {(0, 0): np.array([0.3, 0.4, 0.3]),
          (0, 1): np.array([0.25, 0.5, 0.25]),
          (1, 0): np.array([0.2, 0.5, 0.3]),
          (1, 1): np.array([0.4, 0.35, 0.25])}

    def __init__(self, beta2: float = -0.4, beta3: float = 0.3):
        self.beta2 = beta2
        self.beta3 = beta3
        atoms = []
        for s in (1, 2, 3):
            for i1 in range(2):
                for i2 in range(2):
                    for i3 in range(3):
                        pi = (self.DELTA[s] * self.P_Z1[s][i1]
                              * self.p2_table(s, i1)[i2]
                              * self.p3_table(s, i1, i2)[i3])
                        atoms.append((i1, i2, i3, s, pi))
        self.i1 = np.array([a[0] for a in atoms])
        self.i2 = np.array([a[1] for a in atoms])
        self.i3 = np.array([a[2] for a in atoms])
        self.src = np.array([a[3] for a in atoms])
        self.pi = np.array([a[4] for a in atoms])
        self.n = len(atoms)

        q1 = self.P_Z1[1]
        self.m2 = np.zeros((2, 2))
        psi = 0.0
        for i1 in range(2):
            for i2 in range(2):
                self.m2[i1, i2] = self.Q3[(i1, i2)] @ self.Z3
                psi += q1[i1] * self.Q2[i1, i2] * self.m2[i1, i2]
        self.psi = psi

    def weight(self, s: int, z1, z3):
        if s == 2:
            return np.exp(self.beta2 * np.asarray(z1) * np.log(np.asarray(z3)))
        if s == 3:
            return np.exp(self.beta3 * np.asarray(z1) * np.log1p(-np.asarray(z3)))
        return np.ones_like(np.asarray(z3, dtype=float))

    def p3_table(self, s: int, i1: int, i2: int) -> np.ndarray:
        q = self.Q3[(i1, i2)]
        t = q * self.weight(s, self.Z1[i1], self.Z3)
        return t / t.sum()

    def p2_table(self, s: int, i1: int) -> np.ndarray:
        return self.Q2[i1] if s == 1 else self.P2_OFF[s][i1]

    # ---- package-facing construction ----

    def design(self) -> FusionDesign:
        return FusionDesign(
            d=3, k=3, relevant=(1, 2, 3),
            aligned={1: {1}, 2: {1}, 3: {1}},
            weak={3: {2, 3}},
            weight_specs={(3, 2): WeightSpec.tilt(3, ["z1*log(z3)"]),
                          (3, 3): WeightSpec.tilt(3, ["z1*log1m(z3)"])},
        )

    def dataset(self) -> Dataset:
        z = np.column_stack([self.Z1[self.i1], self.Z2[self.i2], self.Z3[self.i3]])
        return Dataset(z, self.src, k=3)

    def beta_param(self):
        return assemble_beta(layout_from_design(self.design()),
                             {(3, 2): [self.beta2], (3, 3): [self.beta3]})

    def bundle(self, options: NuisanceOptions | None = None) -> FittedNuisance:
        st3 = np.array([[self.Z1[b1], self.Z2[b2]]
                        for b1 in range(2) for b2 in range(2)])
        q3rows = np.array([self.Q3[(b1, b2)] for b1 in range(2) for b2 in range(2)])
        panels = {
            1: DiscretePanel(1, np.zeros((1, 0)), self.Z1, self.P_Z1[1][None, :]),
            2: DiscretePanel(2, self.Z1[:, None], self.Z2, self.Q2),
            3: DiscretePanel(3, st3, self.Z3, q3rows),
        }
        ratios = {1: _ExactRatio(self, 1, [1]), 2: _ExactRatio(self, 2, [1]),
                  3: _ExactRatio(self, 3, [1, 2, 3])}
        return FittedNuisance(self.dataset(), self.design(), options or NuisanceOptions(),
                              dict(self.DELTA), panels, ratios)

    # ---- dense projection oracle ----

    def aligned_gradient(self) -> np.ndarray:
        """1{s=1} (z3 - psi) / delta_1: the target-only influence function,
        which is a valid gradient because source 1 is aligned at every index."""
        return (self.src == 1) * (self.Z3[self.i3] - self.psi) / self.DELTA[1]

    def tilt_term(self, s: int, z1, z3):
        """The tilt term t of source s's weight exp(beta_s t)."""
        z1, z3 = np.asarray(z1), np.asarray(z3)
        return z1 * (np.log(z3) if s == 2 else np.log1p(-z3))

    def beta_scores(self) -> np.ndarray:
        """The two beta-score columns: on source s rows, t - E_{P_s}[t | z_bar_2]
        with t source s's tilt term; zero on every other source."""
        i1, i2 = self.i1, self.i2
        cols = []
        for s in (2, 3):
            t = self.tilt_term(s, self.Z1[i1], self.Z3[self.i3])
            tbar = np.array([self.p3_table(s, b1, b2) @ self.tilt_term(s, self.Z1[b1], self.Z3)
                             for b1, b2 in zip(i1, i2)])
            cols.append((self.src == s) * (t - tbar))
        return np.column_stack(cols)

    def tangent_basis(self, beta_scores: bool = False) -> np.ndarray:
        """Columns spanning the tangent space of the nonparametric part, and
        with `beta_scores` also the two beta-score columns, so that the
        span is the tangent space of the model with beta unknown.

        One shared perturbation a(z_bar_j) per support point of each index;
        each column is a(z_bar_j) minus its per-source conditional mean given
        z_bar_{j-1} (plain target mean for aligned rows, tilted mean for
        weakly aligned ones), placed on the rows of the sources in S_j.
        """
        i1, i2, i3, src = self.i1, self.i2, self.i3, self.src
        q1 = self.P_Z1[1]
        cols = []
        for b in range(2):
            cols.append((src == 1) * ((i1 == b).astype(float) - q1[b]))
        for b1 in range(2):
            for b2 in range(2):
                ind = ((i1 == b1) & (i2 == b2)).astype(float)
                cen = (i1 == b1) * self.Q2[b1, b2]
                cols.append((src == 1) * (ind - cen))
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(3):
                    ind = ((i1 == b1) & (i2 == b2) & (i3 == b3)).astype(float)
                    cen = np.zeros(self.n)
                    for s in (1, 2, 3):
                        cen += ((src == s) * (i1 == b1) * (i2 == b2)
                                * self.p3_table(s, b1, b2)[b3])
                    cols.append(ind - cen)
        if beta_scores:
            cols.extend(self.beta_scores().T)
        return np.column_stack(cols)

    def projected_gradient(self, beta_scores: bool = False) -> np.ndarray:
        """Dense pi-weighted least-squares projection of the aligned gradient
        onto the tangent basis: the fixed-beta canonical gradient, exactly,
        or with `beta_scores` the efficient influence function with beta
        unknown."""
        B = self.tangent_basis(beta_scores)
        sw = np.sqrt(self.pi)
        target = self.aligned_gradient()
        coef, *_ = np.linalg.lstsq(B * sw[:, None], target * sw, rcond=None)
        return B @ coef


class _ExactRatio:
    """Marginal density ratios of z_bar_{j-1} from the true tables; mirrors
    the fitted-ratio interface the gradient engine consumes."""

    def __init__(self, law: DiscreteLaw, j: int, sources):
        self.law = law
        self.j = j
        self.sources = tuple(sources)

    def _marg(self, s: int, Zprev: np.ndarray) -> np.ndarray:
        law = self.law
        out = np.ones(Zprev.shape[0])
        if self.j >= 2:
            b1 = (np.abs(Zprev[:, 0] - law.Z1[1]) < 1e-9).astype(int)
            out = out * law.P_Z1[s][b1]
        if self.j >= 3:
            b2 = (np.abs(Zprev[:, 1] - law.Z2[1]) < 1e-9).astype(int)
            out = out * np.array([law.p2_table(s, a)[b] for a, b in zip(b1, b2)])
        return out

    def rho(self, s: int, Zprev: np.ndarray) -> np.ndarray:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        if self.j == 1:
            return np.ones(Zprev.shape[0])
        return self._marg(s, Zprev) / self._marg(1, Zprev)

    def overlap_diagnostics(self, s: int):
        return None


def rowmap_apply(rmap: RowMap, fields: np.ndarray) -> np.ndarray:
    """A row map's read by its definition: the sum over each row's corner
    states of the state's field times the corner's weight, in corner order."""
    parts = [fields[idx] * (w if np.ndim(fields) == 1 else w[:, None])
             for idx, w in zip(rmap.idx, rmap.weight)]
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out


def ingest_csv_by_csv_reader(path: str, mapping: dict) -> tuple[Dataset, dict]:
    """CSV ingest through the csv reader alone, cell by cell with `float`:
    the reference the package's one-pass parse must match, dataset or
    error. A row the reader rejects is a ParseError naming that row."""
    zcols = mapping.get("z")
    scol = mapping.get("source")
    if not zcols or not isinstance(zcols, list) or not scol:
        raise ParseError('column mapping needs "z" (list) and "source" (name)')
    reader = csv.reader(io.StringIO(_read_text(path, "data"), newline=""))
    rows = []
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        raise ParseError(f"data {path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise EmptyFile(f"{path} has no header row")
    header = [h.strip() for h in rows[0]]
    index = {}
    for col in list(zcols) + [scol]:
        if col not in header:
            raise MissingColumn(f"column {col!r} not in header {header}")
        index[col] = header.index(col)
    body = rows[1:]
    if not body:
        raise EmptyFile(f"{path} has a header but no data rows")
    z = np.empty((len(body), len(zcols)))
    for i, row in enumerate(body):
        for cidx, col in enumerate(zcols):
            cell = row[index[col]] if index[col] < len(row) else ""
            try:
                z[i, cidx] = float(cell)
            except ValueError:
                raise NonNumericCell(i + 2, col, cell) from None
    si = index[scol]
    raw_labels = [row[si].strip() if si < len(row) else "" for row in body]
    if "" in raw_labels:
        raise ParseError(f"data {path}: row {raw_labels.index('') + 2}, column {scol!r}: "
                         f"blank source label")
    uniq = sorted(set(raw_labels))
    label_map = {lab: i + 1 for i, lab in enumerate(uniq)}
    source = np.array([label_map[lab] for lab in raw_labels], dtype=int)
    return Dataset(z, source, k=len(uniq)), label_map


def true_parameters(scenario) -> tuple[float, BetaParam]:
    """The study's closed-form truth: the arm contrast of Beta means is
    z1-free and equals 2/3 - 1/2; every tilt coordinate equals -epsilon on
    the study bases."""
    layout = layout_from_design(study_design())
    beta = BetaParam(np.full(sum(c for _, _, c in layout), -scenario.epsilon), layout)
    return PSI_TRUE, beta
