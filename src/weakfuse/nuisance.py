"""Nuisance fits: kernel regressions, propensity, density ratios, and the
conditional-moment panels that back the gradient engine.

Everything here is deterministic given the data: bandwidths are closed-form,
logistic fits use IRLS from a zero start, and conditional-mean fields are
evaluated on fixed grids. Panels evaluate Nadaraya-Watson fields at a set of
conditioning states and map data rows onto those states by linear
interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral, Real

import numpy as np

from .errors import (
    InsufficientData,
    NonBinaryTreatment,
    NuisanceMissing,
    ParseError,
    StructuralError,
)
from .model import Dataset, FusionDesign, OverlapDiagnostics

_MIN_ROWS = 5
_H_FLOOR = 1e-6
_MAX_GRID_POINTS = 2001
_CHUNK_BYTES = 1 << 18      # one float temporary per row chunk: about 256 KiB, cache-sized


@dataclass(frozen=True)
class NuisanceOptions:
    """Fit options, checked on construction: each clip is a pair
    0 < lo <= hi (hi < 1 for the propensity), and `grid_points` lies in
    2.._MAX_GRID_POINTS, since a grid weight block holds grid_points ×
    training rows floats."""

    ratio_clip: tuple[float, float] = (1e-3, 1e3)
    propensity_clip: tuple[float, float] = (0.01, 0.99)
    eps_w: float = 1e-8
    grid_points: int = 301
    cross_fit: bool = False

    def __post_init__(self):
        for name, top in (("ratio_clip", math.inf), ("propensity_clip", 1.0)):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, Real) for v in pair)
                    and 0 < pair[0] <= pair[1] < top):
                bound = "" if top == math.inf else f" < {top:g}"
                raise ParseError(f"{name}: expected [lo, hi] with 0 < lo <= hi{bound}, "
                                 f"got {pair!r}")
            object.__setattr__(self, name, (float(pair[0]), float(pair[1])))
        if not (isinstance(self.grid_points, Integral)
                and 2 <= self.grid_points <= _MAX_GRID_POINTS):
            raise ParseError(f"grid_points: expected an integer in 2..{_MAX_GRID_POINTS}, "
                             f"got {self.grid_points!r}")
        if not isinstance(self.cross_fit, bool):
            raise ParseError(f"cross_fit: expected true or false, got {self.cross_fit!r}")


def silverman_bandwidths(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-column rule-of-thumb bandwidths, and whether any was floored
    (a constant column)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    sd = X.std(axis=0, ddof=1) if n > 1 else np.zeros(p)
    factor = (4.0 / ((p + 2) * n)) ** (1.0 / (p + 4))
    h = sd * factor
    floored = bool(np.any(h < _H_FLOOR))
    if floored:
        h = np.maximum(h, _H_FLOOR)
    return h, floored


def _gauss_weights(Xq: np.ndarray, Xt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unnormalized Gaussian product-kernel weights, shape (m, n)."""
    d2 = np.zeros((Xq.shape[0], Xt.shape[0]))
    for c in range(Xt.shape[1]):
        diff = (Xq[:, c, None] - Xt[None, :, c]) / h[c]
        d2 += diff * diff
    return np.exp(-0.5 * d2)


@dataclass
class RegressionFit:
    """Nadaraya-Watson regression with a Gaussian product kernel; `floored`
    records that a bandwidth hit its floor."""

    X: np.ndarray
    y: np.ndarray
    h: np.ndarray
    floored: bool = False

    def predict(self, Xq: np.ndarray) -> np.ndarray:
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        out = np.empty(Xq.shape[0])
        fallback = float(self.y.mean())
        step = max(1, _CHUNK_BYTES // (8 * self.X.shape[0]))
        for lo in range(0, Xq.shape[0], step):
            w = _gauss_weights(Xq[lo:lo + step], self.X, self.h)
            den = w.sum(axis=1)
            num = w @ self.y
            out[lo:lo + step] = np.where(den > 1e-300, num / np.where(den > 0, den, 1.0),
                                         fallback)
        return out


def fit_kernel_regression(X, y) -> RegressionFit:
    """Fit a kernel regression of y on X with Silverman bandwidths; needs at
    least five rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise StructuralError("X and y row counts differ")
    if X.shape[0] < _MIN_ROWS:
        raise InsufficientData(f"kernel regression needs >= {_MIN_ROWS} rows, got {X.shape[0]}")
    return RegressionFit(X, y, *silverman_bandwidths(X))


def _irls_logistic(X: np.ndarray, y: np.ndarray, ridge: float = 0.0,
                   max_iter: int = 60) -> np.ndarray:
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        eta = np.clip(X @ beta, -30, 30)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(p * (1 - p), 1e-10)
        H = (X * w[:, None]).T @ X + ridge * np.eye(X.shape[1])
        g = X.T @ (y - p) - ridge * beta
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < 1e-10:
            break
    return beta


def _separated(coef: np.ndarray) -> bool:
    return not np.all(np.isfinite(coef)) or np.max(np.abs(coef)) > 30


@dataclass
class PropensityFit:
    """Main-terms linear-logistic model of the binary index-2 coordinate;
    `ridged` records that separation forced a ridge penalty."""

    coef: np.ndarray
    clip: tuple[float, float]
    ridged: bool

    def predict(self, z1: np.ndarray) -> np.ndarray:
        z1 = np.asarray(z1, dtype=float).ravel()
        eta = self.coef[0] + self.coef[1] * z1
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -30, 30)))
        return np.clip(p, self.clip[0], self.clip[1])


def fit_propensity(data: Dataset, design: FusionDesign,
                   options: NuisanceOptions | None = None) -> PropensityFit:
    """Fit P(Z_2 = 1 | Z_1) on rows whose source participates at index 2."""
    options = options or NuisanceOptions()
    rows = np.concatenate([data.rows_of(s) for s in sorted(design.sources_at(2))])
    rows.sort()
    if rows.size < _MIN_ROWS:
        raise InsufficientData("too few rows in the index-2 scope")
    y = data.z[rows, 1]
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise NonBinaryTreatment("index-2 values outside {0, 1}")
    X = np.column_stack([np.ones(rows.size), data.z[rows, 0]])
    coef = _irls_logistic(X, y)
    ridged = _separated(coef)
    if ridged:
        coef = _irls_logistic(X, y, ridge=1e-4)
    return PropensityFit(coef=coef, clip=options.propensity_clip, ridged=ridged)


def _ratio_features(Zprev: np.ndarray, binary: np.ndarray,
                    center: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Cubic expansion of continuous coordinates, binaries passed through."""
    Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
    cols = [np.ones(Zprev.shape[0])]
    for c in range(Zprev.shape[1]):
        if binary[c]:
            cols.append(Zprev[:, c])
        else:
            u = (Zprev[:, c] - center[c]) / scale[c]
            cols.extend([u, u * u, u * u * u])
    return np.column_stack(cols)


class MarginalRatioFits:
    """Fitted marginal density ratios rho_s = p(z̄_{j-1}|s) / p(z̄_{j-1}|A_j)
    for every source participating at index j, via logistic classification
    with a prior-odds correction. At j = 1 every ratio is exactly one.
    `ridged` records that separation forced a ridge penalty on some fit."""

    def __init__(self, j: int, design: FusionDesign, data: Dataset,
                 options: NuisanceOptions):
        self.j = j
        self.options = options
        self.ridged = False
        self.sources = tuple(sorted(design.sources_at(j)))
        aligned = sorted(design.aligned_at(j))
        self._coef: dict[int, np.ndarray | None] = {}
        self._ld: dict[int, float] = {}
        self._diag: dict[int, OverlapDiagnostics] = {}
        p = j - 1
        self._p = p
        if p == 0:
            for s in self.sources:
                self._coef[s] = None
                self._ld[s] = 0.0
                self._diag[s] = OverlapDiagnostics(1.0, 1.0, 0.0)
            return
        Zfull = data.z[:, :p]
        self._binary = np.array([set(np.unique(Zfull[:, c])) <= {0.0, 1.0}
                                 for c in range(p)])
        self._center = Zfull.mean(axis=0)
        sd = Zfull.std(axis=0)
        self._scale = np.where(sd > 1e-12, sd, 1.0)
        pool_rows = np.concatenate([data.rows_of(s) for s in aligned])
        pool_rows.sort()
        X0 = _ratio_features(Zfull[pool_rows], self._binary, self._center, self._scale)
        single_aligned = aligned[0] if len(aligned) == 1 else None
        for s in self.sources:
            rows_s = data.rows_of(s)
            if rows_s.size < _MIN_ROWS or pool_rows.size < _MIN_ROWS:
                raise InsufficientData(f"too few rows to fit the ratio for source {s}")
            if s == single_aligned:
                self._coef[s] = None  # identical laws, ratio is exactly one
                self._ld[s] = 0.0
            else:
                X1 = _ratio_features(Zfull[rows_s], self._binary, self._center, self._scale)
                X = np.vstack([X0, X1])
                yy = np.concatenate([np.zeros(X0.shape[0]), np.ones(X1.shape[0])])
                coef = _irls_logistic(X, yy)
                if _separated(coef):
                    self.ridged = True
                    coef = _irls_logistic(X, yy, ridge=1e-4)
                self._coef[s] = coef
                self._ld[s] = float(np.log(pool_rows.size / rows_s.size))
            vals = self._rho_unclipped(s, Zfull)
            lo, hi = options.ratio_clip
            self._diag[s] = OverlapDiagnostics(
                min_ratio=float(vals.min()),
                max_ratio=float(vals.max()),
                frac_clipped=float(np.mean((vals < lo) | (vals > hi))),
            )

    def _rho_unclipped(self, s: int, Zprev: np.ndarray) -> np.ndarray:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        coef = self._coef.get(s)
        if s not in self._coef:
            raise NuisanceMissing(f"source {s} not fitted at index {self.j}")
        if coef is None:
            return np.ones(Zprev.shape[0])
        X = _ratio_features(Zprev[:, : self._p], self._binary, self._center, self._scale)
        eta = np.clip(X @ coef + self._ld[s], -np.log(1e6), np.log(1e6))
        return np.exp(eta)

    def rho(self, s: int, Zprev: np.ndarray) -> np.ndarray:
        """Clipped ratio estimate for source s at past-prefix rows."""
        lo, hi = self.options.ratio_clip
        return np.clip(self._rho_unclipped(s, Zprev), lo, hi)

    def overlap_diagnostics(self, s: int) -> OverlapDiagnostics | None:
        """Range of the unclipped ratio over all data rows, and the fraction
        of rows the clip bounds."""
        return self._diag.get(s)


@dataclass
class RowMap:
    """Interpolation of data rows onto panel evaluation states."""

    lo: np.ndarray
    hi: np.ndarray
    frac: np.ndarray

    def apply(self, fields: np.ndarray) -> np.ndarray:
        fields = np.asarray(fields)
        f = self.frac if fields.ndim == 1 else self.frac[:, None]
        return fields[self.lo] * (1.0 - f) + fields[self.hi] * f


def _chunks(panel):
    """Row slices (views) of each weight block `(rows, cols, W)`, sized so
    that a float array over one slice holds about `_CHUNK_BYTES`."""
    for rows, cols, W in panel.blocks:
        step = max(1, _CHUNK_BYTES // (8 * cols.size))
        for lo in range(0, rows.size, step):
            yield rows[lo:lo + step], cols, W[lo:lo + step]


class _BlockPanel:
    """Conditional-moment math over a panel's target conditional weights.

    The weights are stored as dense blocks `(rows, cols, W)`: states `rows`
    against training columns `cols`, each row scaled at fit time to sum to
    one. Rows whose kernel mass underflows keep their raw weights and are
    marked degenerate, as are states that no block covers; those carry no
    weight at all. The engine forms its (E, T) objects chunk by chunk.
    """

    def _set_blocks(self, blocks: list):
        """Take freshly built blocks, scaling each row in place to sum to one."""
        self.blocks = blocks
        self.degenerate = np.ones(self.eval_states.shape[0], dtype=bool)
        for rows, cols, W in blocks:
            wsum = W.sum(axis=1)
            self.degenerate[rows] = deg = wsum < 1e-12
            W /= np.where(deg, 1.0, wsum)[:, None]

    def rowmean(self, *factors, values=None) -> np.ndarray:
        """Row means against the weights of the elementwise product of
        `factors` (each a list of per-block arrays) with the value columns
        `values`, of shape (T,) or (T, q), when given: one einsum or one
        matmul per block, never a temporary larger than a block."""
        E = self.eval_states.shape[0]
        out = np.zeros((E,) if values is None else (E,) + np.shape(values)[1:])
        for i, (rows, cols, W) in enumerate(self.blocks):
            fs = [f[i] for f in factors]
            if values is None:
                out[rows] = np.einsum(",".join(["gt"] * (1 + len(fs))) + "->g", W, *fs)
            else:
                out[rows] = reduce(np.multiply, fs, W) @ values[cols]
        return out

    def mean_field(self, train_values: np.ndarray) -> np.ndarray:
        """NW conditional mean of train-side values at every eval state;
        degenerate states read the train mean."""
        out = self.rowmean(values=train_values)
        if self.degenerate.any():
            out[self.degenerate] = train_values.mean(axis=0)
        return out


class KernelPanel(_BlockPanel):
    """Kernel conditional-moment evaluator for one index j.

    Fields are Nadaraya-Watson means over the training rows, evaluated at a
    fixed set of conditioning states: a linspace grid along the (single)
    continuous past coordinate crossed with exact branches of the binary past
    coordinates, one weight block per branch with training rows. Rows map
    onto states by linear interpolation along the grid; the Gaussian kernel
    acts only on the continuous coordinate, binary coordinates are matched
    exactly; at index 1, with no past coordinate, the grid is one state
    whose all-ones block averages the training rows. With two or more
    continuous past coordinates the panel falls back to one evaluation state
    per data row, in data order, and `row_map` only accepts that full-row
    layout. Both layouts take Silverman bandwidths, and `floored` records
    that one of them hit its floor.
    """

    def __init__(self, j: int, data: Dataset, train_idx: np.ndarray,
                 options: NuisanceOptions):
        self.j = j
        self.train_idx = np.asarray(train_idx, dtype=int)
        if self.train_idx.size < _MIN_ROWS:
            raise InsufficientData(f"index {j} has {self.train_idx.size} training rows")
        p = j - 1
        self.zj = data.z[self.train_idx, j - 1].copy()
        zprev_all = data.z[:, :p]
        zprev_tr = data.z[self.train_idx, :p]
        self.binary = np.array([set(np.unique(zprev_all[:, c])) <= {0.0, 1.0}
                                for c in range(p)], dtype=bool)
        self.cont_cols = np.flatnonzero(~self.binary)
        self.bin_cols = np.flatnonzero(self.binary)
        self._branch_vals = {int(c): np.unique(zprev_all[:, c]) for c in self.bin_cols}
        self.floored = False

        if self.cont_cols.size >= 2:
            self._mode = "exact"
            self.eval_states = zprev_all.copy()
            self.h, self.floored = silverman_bandwidths(zprev_tr)
            self._set_blocks([(np.arange(data.n), np.arange(self.train_idx.size),
                               _gauss_weights(self.eval_states, zprev_tr, self.h))])
        else:
            self._mode = "grid"
            combos: list[tuple[float, ...]] = [()]
            for c in self.bin_cols:
                combos = [cb + (v,) for cb in combos for v in self._branch_vals[int(c)]]
            if self.cont_cols.size == 1:
                c0 = int(self.cont_cols[0])
                lo, hi = float(zprev_all[:, c0].min()), float(zprev_all[:, c0].max())
                if hi <= lo:
                    hi = lo + 1.0
                self.grid = np.linspace(lo, hi, options.grid_points)
                self.h, self.floored = silverman_bandwidths(zprev_tr[:, [c0]])
            else:
                self.grid = np.zeros(1)
                self.h = np.array([1.0])
            G = self.grid.size
            states = []
            blocks = []
            tr_branch = self._branch_of(zprev_tr)
            for b, combo in enumerate(combos):
                st = np.zeros((G, p))
                if self.cont_cols.size == 1:
                    st[:, self.cont_cols[0]] = self.grid
                for c, v in zip(self.bin_cols, combo):
                    st[:, c] = v
                states.append(st)
                cols = np.flatnonzero(tr_branch == b)
                if cols.size == 0:
                    continue
                if self.cont_cols.size == 1:
                    # exp(-d²/2) in place; d·d·(-0.5) rounds as (-0.5·d)·d did
                    W = np.subtract.outer(self.grid, zprev_tr[cols, self.cont_cols[0]])
                    W /= self.h[0]
                    W *= W
                    W *= -0.5
                    np.exp(W, out=W)
                else:
                    W = np.ones((G, cols.size))
                blocks.append((np.arange(b * G, (b + 1) * G), cols, W))
            self.eval_states = np.vstack(states)
            self._set_blocks(blocks)

    def _branch_of(self, Zprev: np.ndarray) -> np.ndarray:
        """Branch id of each row, snapping to the nearest declared value."""
        b = np.zeros(Zprev.shape[0], dtype=int)
        stride = 1
        for c in reversed(list(self.bin_cols)):
            vals = self._branch_vals[int(c)]
            pos = np.clip(np.searchsorted(vals, Zprev[:, c]), 0, len(vals) - 1)
            left = np.maximum(pos - 1, 0)
            use_left = np.abs(Zprev[:, c] - vals[left]) < np.abs(Zprev[:, c] - vals[pos])
            pos = np.where(use_left, left, pos)
            b += pos * stride
            stride *= len(vals)
        return b

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        m = Zprev.shape[0]
        if self._mode == "exact":
            if m != self.eval_states.shape[0]:
                raise StructuralError("exact-mode panels map only the full dataset")
            idx = np.arange(m)
            return RowMap(idx, idx, np.zeros(m))
        G = self.grid.size
        branch = self._branch_of(Zprev)
        if self.cont_cols.size == 1:
            x = np.clip(Zprev[:, self.cont_cols[0]], self.grid[0], self.grid[-1])
            hi = np.clip(np.searchsorted(self.grid, x), 1, G - 1)
            lo = hi - 1
            frac = (x - self.grid[lo]) / (self.grid[hi] - self.grid[lo])
        else:
            lo = np.zeros(m, dtype=int)
            hi = lo.copy()
            frac = np.zeros(m)
        return RowMap(branch * G + lo, branch * G + hi, frac)


class DiscretePanel(_BlockPanel):
    """Exact conditional-moment evaluator over a finite support.

    `eval_states` enumerates the support of z̄_{j-1}; the single weight block
    holds the exact target conditional probabilities q(z_j | z̄_{j-1}), so
    every field is an exact expectation and rows map onto their support state
    without interpolation. Backs the oracle tests and the discrete acceptance
    check.
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
        self.train_idx = np.arange(self.zj.size)
        self.blocks = [(np.arange(E), self.train_idx, W)]
        self.degenerate = np.zeros(E, dtype=bool)
        self._mode = "discrete"

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        idx = np.empty(Zprev.shape[0], dtype=int)
        for r in range(Zprev.shape[0]):
            hit = np.flatnonzero(np.all(np.abs(self.eval_states - Zprev[r]) < 1e-9, axis=1))
            if hit.size == 0:
                raise StructuralError("row state not in the declared support")
            idx[r] = hit[0]
        return RowMap(idx, idx, np.zeros(Zprev.shape[0]))


class CrossFitPanel(_BlockPanel):
    """Two half-sample panels side by side: rows of one fold evaluate against
    fields trained on the other fold. The weight blocks are those of the two
    sub-panels, with fold-1 states and columns placed after fold 0's."""

    def __init__(self, j: int, data: Dataset, rows: np.ndarray, options: NuisanceOptions):
        self.j = j
        self.sub = (KernelPanel(j, data, rows[::2], options),
                    KernelPanel(j, data, rows[1::2], options))
        self.eval_states = np.vstack([self.sub[0].eval_states, self.sub[1].eval_states])
        self.train_idx = np.concatenate([self.sub[0].train_idx, self.sub[1].train_idx])
        self.zj = np.concatenate([self.sub[0].zj, self.sub[1].zj])
        self._E0 = self.sub[0].eval_states.shape[0]
        self._T0 = self.sub[0].zj.size
        self.blocks = self.sub[0].blocks + [(r + self._E0, c + self._T0, W)
                                            for r, c, W in self.sub[1].blocks]
        self.degenerate = np.concatenate([self.sub[0].degenerate, self.sub[1].degenerate])
        self.floored = self.sub[0].floored or self.sub[1].floored
        self._mode = "crossfit"

    def mean_field(self, train_values: np.ndarray) -> np.ndarray:
        # degenerate states fall back to their own fold's train mean
        f0 = self.sub[0].mean_field(train_values[: self._T0])
        f1 = self.sub[1].mean_field(train_values[self._T0:])
        return np.concatenate([f0, f1], axis=0)

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        # rows trained in fold 0 read fold-1 fields and vice versa; rows in
        # neither fold read fold 0
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        rm0 = self.sub[0].row_map(Zprev)
        rm1 = self.sub[1].row_map(Zprev)
        use1 = np.zeros(Zprev.shape[0], dtype=bool)
        if row_idx is not None:
            use1 = np.isin(row_idx, self.sub[0].train_idx)
        lo = np.where(use1, rm1.lo + self._E0, rm0.lo)
        hi = np.where(use1, rm1.hi + self._E0, rm0.hi)
        frac = np.where(use1, rm1.frac, rm0.frac)
        return RowMap(lo, hi, frac)


class FittedNuisance:
    """Everything the estimator and gradient engine need, fitted once.

    Holds source frequencies, per-index panels with the row map of every data
    row onto each panel's states, the propensity and marginal density-ratio
    fits, and the flags of the fallbacks that fired while fitting them.
    Weight-dependent fields (normalizers, score means, fusion-matrix moments)
    are computed per β by the gradient engine, so refreshing β never touches
    the β-free fits, and nothing here changes after construction.
    """

    def __init__(self, data: Dataset, design: FusionDesign, options: NuisanceOptions,
                 delta: dict[int, float], panels: dict[int, object],
                 ratios: dict[int, MarginalRatioFits], propensity: PropensityFit | None,
                 flags: frozenset[str] = frozenset()):
        self.data = data
        self.design = design
        self.options = options
        self.delta = delta
        self.panels = panels
        self.rowmaps = {j: p.row_map(data.z[:, :j - 1], row_idx=np.arange(data.n))
                        for j, p in panels.items()}
        self.ratios = ratios
        self.propensity = propensity
        self.flags = flags

    def panel(self, j: int):
        p = self.panels.get(j)
        if p is None:
            raise NuisanceMissing(f"no conditional-moment panel for index {j}")
        return p

    def ratio_fits(self, j: int) -> MarginalRatioFits:
        r = self.ratios.get(j)
        if r is None:
            raise NuisanceMissing(f"no marginal density-ratio fit for index {j}")
        return r

    def delta_of(self, sources) -> float:
        return float(sum(self.delta[s] for s in sources))


def fit_nuisance_bundle(data: Dataset, design: FusionDesign, estimand=None,
                        options: NuisanceOptions | None = None) -> FittedNuisance:
    """Fit every β-free nuisance component a design and estimand require."""
    options = options or NuisanceOptions()
    if data.n == 0:
        raise StructuralError("empty dataset")
    delta = {s: c / data.n for s, c in data.source_counts().items()}
    panels: dict[int, object] = {}
    ratios: dict[int, MarginalRatioFits] = {}
    for j in design.relevant:
        rows = np.concatenate([data.rows_of(s) for s in sorted(design.aligned_at(j))])
        rows.sort()
        if options.cross_fit and rows.size >= 2 * _MIN_ROWS:
            panels[j] = CrossFitPanel(j, data, rows, options)
        else:
            panels[j] = KernelPanel(j, data, rows, options)
    for j in design.relevant:
        ratios[j] = MarginalRatioFits(j, design, data, options)
    propensity = None
    if getattr(estimand, "kind", None) == "ate":
        propensity = fit_propensity(data, design, options)
    flags = set()
    if any(p.floored for p in panels.values()):
        flags.add("SingularBandwidth")
    if any(r.ridged for r in ratios.values()) or (propensity is not None and propensity.ridged):
        flags.add("SeparationWarning")
    return FittedNuisance(data, design, options, delta, panels, ratios, propensity,
                          frozenset(flags))
