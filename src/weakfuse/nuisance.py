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
_STORE_BYTES = 1 << 24      # a weight block up to 16 MiB is kept; a larger one is rebuilt per read


@dataclass(frozen=True)
class NuisanceOptions:
    """Fit options, checked on construction: each clip is a pair
    0 < lo <= hi (hi < 1 for the propensity), and `grid_points` lies in
    2.._MAX_GRID_POINTS, since a grid weight block holds grid_points ×
    training rows floats."""

    ratio_clip: tuple[float, float] = (1e-3, 1e3)
    propensity_clip: tuple[float, float] = (0.01, 0.99)
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
    """Unnormalized Gaussian product-kernel weights, shape (m, n), built in
    place from the first column's squared scaled distance; a temporary of
    the same shape is allocated only when there is a second column."""
    d2 = np.subtract.outer(Xq[:, 0], Xt[:, 0])
    d2 /= h[0]
    d2 *= d2
    diff = np.empty_like(d2) if Xt.shape[1] > 1 else None
    for c in range(1, Xt.shape[1]):
        np.subtract.outer(Xq[:, c], Xt[:, c], out=diff)
        diff /= h[c]
        diff *= diff
        d2 += diff
    d2 *= -0.5      # exact, so exp sees the same exponent as -0.5 * d2
    return np.exp(d2, out=d2)


def _binary_columns(Z: np.ndarray) -> np.ndarray:
    """Whether each column of Z holds only the values 0 and 1."""
    return np.all((Z == 0.0) | (Z == 1.0), axis=0)


def _logistic_fit(X: np.ndarray, y: np.ndarray):
    """Logistic coefficients by IRLS from a zero start, and whether
    separation (a coefficient above 30 in size, or not finite) forced a
    refit with a 1e-4 ridge penalty."""
    for ridge in (0.0, 1e-4):
        beta = np.zeros(X.shape[1])
        for _ in range(60):
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
        if np.all(np.isfinite(beta)) and np.max(np.abs(beta)) <= 30:
            break
    return beta, ridge > 0


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
    rows = data.rows_in(design.sources_at(2))
    if rows.size < _MIN_ROWS:
        raise InsufficientData("too few rows in the index-2 scope")
    y = data.z[rows, 1]
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise NonBinaryTreatment("index-2 values outside {0, 1}")
    X = np.column_stack([np.ones(rows.size), data.z[rows, 0]])
    coef, ridged = _logistic_fit(X, y)
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
        self._binary = _binary_columns(Zfull)
        self._center = Zfull.mean(axis=0)
        sd = Zfull.std(axis=0)
        self._scale = np.where(sd > 1e-12, sd, 1.0)
        aligned = design.aligned_at(j)
        pool_rows = data.rows_in(aligned)
        X0 = _ratio_features(Zfull[pool_rows], self._binary, self._center, self._scale)
        single_aligned = min(aligned) if len(aligned) == 1 else None
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
                self._coef[s], ridged = _logistic_fit(X, yy)
                self.ridged |= ridged
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
        """fields[lo] * (1 - frac) + fields[hi] * frac, gathered by `np.take`
        and combined in place, which skips numpy's slow 2-D fancy index."""
        fields = np.asarray(fields, dtype=float)
        f = self.frac if fields.ndim == 1 else self.frac[:, None]
        out = np.take(fields, self.lo, axis=0)
        out *= 1.0 - f
        upper = np.take(fields, self.hi, axis=0)
        upper *= f
        out += upper
        return out

    def take(self, rows: np.ndarray) -> "RowMap":
        """The part of the map that covers the given rows."""
        return RowMap(self.lo[rows], self.hi[rows], self.frac[rows])


class _GaussRows:
    """Nadaraya-Watson weight rows of the query points `Xq` against the
    training points `Xt`: Gaussian product-kernel rows with bandwidths `h`,
    all ones when there is no kernel column. `rows(lo, hi)` returns rows
    lo:hi, each scaled to sum to one, and which of them are degenerate: a
    row whose mass is below 1e-12 keeps its raw weights. A block of at most
    `_STORE_BYTES` is built once and kept; a larger one is rebuilt on every
    read, so it never holds more than the rows asked for."""

    def __init__(self, Xq: np.ndarray, Xt: np.ndarray, h: np.ndarray):
        self.Xq, self.Xt, self.h = Xq, Xt, h
        self._kept = (self._build(0, Xq.shape[0])
                      if 8 * Xq.shape[0] * Xt.shape[0] <= _STORE_BYTES else None)

    def _build(self, lo: int, hi: int):
        Xq = self.Xq[lo:hi]
        W = (_gauss_weights(Xq, self.Xt, self.h) if self.Xt.shape[1]
             else np.ones((Xq.shape[0], self.Xt.shape[0])))
        wsum = W.sum(axis=1)
        deg = wsum < 1e-12
        W /= np.where(deg, 1.0, wsum)[:, None]
        return W, deg

    def rows(self, lo: int, hi: int):
        if self._kept is None:
            return self._build(lo, hi)
        W, deg = self._kept
        return W[lo:hi], deg[lo:hi]


def _chunks(panel, *values, scratch=0):
    """Row slices of each weight block as (rows, W, deg, vals, bufs), read
    from the block's row source and sized so that a float array over one
    slice holds about `_CHUNK_BYTES`; `deg` marks the degenerate rows, `vals`
    holds each of `values` (arrays over the training columns) gathered at
    the block's columns, and `bufs` holds `scratch` uninitialized arrays
    shaped like the slice. Gathers and buffers are made once per block."""
    for rows, cols, src in panel.blocks:
        step = max(1, _CHUNK_BYTES // (8 * cols.size))
        vals = tuple(np.take(v, cols, axis=0) for v in values)
        bufs = np.empty((scratch, min(step, rows.size), cols.size))
        for lo in range(0, rows.size, step):
            W, deg = src.rows(lo, lo + step)
            yield rows[lo:lo + step], W, deg, vals, bufs[:, :W.shape[0]]


class _BlockPanel:
    """Conditional-moment math over a panel's target conditional weights.

    The weights come in blocks `(rows, cols, src)`: states `rows` against
    training columns `cols`, whose weight rows the row source `src` gives
    out (see `_GaussRows`). Every reader takes them chunk by chunk through
    `_chunks`. A degenerate row keeps its raw weights; it and the states
    that no block covers carry no usable weight.

    `folds` pairs a slice of states with the slice of training columns their
    blocks read; by default one fold covers everything.
    """

    def __init__(self, eval_states: np.ndarray, blocks: list,
                 folds=((slice(None), slice(None)),)):
        self.eval_states = eval_states
        self.blocks = blocks
        self.folds = folds

    def mean_field(self, train_values: np.ndarray) -> np.ndarray:
        """NW conditional mean of train-side values, of shape (T,) or (T, q),
        at every eval state; a degenerate or uncovered state reads the train
        mean of its own fold."""
        out = np.empty(self.eval_states.shape[:1] + np.shape(train_values)[1:])
        for states, cols in self.folds:
            out[states] = train_values[cols].mean(axis=0)
        for rows, W, deg, (V,), _ in _chunks(self, train_values):
            out[rows[~deg]] = (W @ V)[~deg]
        return out


def _smooth_at_train(X: np.ndarray, h: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Nadaraya-Watson regression of the columns of V on X with bandwidths
    h, read at the training points X themselves.

    That Gaussian is symmetric, so each strip of rows builds only its
    entries on or right of the diagonal and also adds their transpose to the
    later rows; one matmul against [V, 1] gives the numerator and the row
    mass. A strip holds about `_CHUNK_BYTES`, and the diagonal entry is 1, so
    no row is degenerate."""
    n = X.shape[0]
    V1 = np.column_stack([V, np.ones(n)])
    acc = np.zeros_like(V1)
    step = max(1, _CHUNK_BYTES // (8 * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        K = _gauss_weights(X[lo:hi], X[lo:], h)
        acc[lo:hi] += K @ V1[lo:]
        acc[hi:] += K[:, hi - lo:].T @ V1[lo:hi]
    return acc[:, :-1] / acc[:, -1:]


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
    continuous past coordinates the panel takes the exact layout (`grid` is
    None): one evaluation state per data row, in data order, a Gaussian over
    every past coordinate, and a `row_map` that only accepts that full-row
    layout.

    With `options.cross_fit` and at least 2 * _MIN_ROWS training rows, the
    rows split into two folds, `train_idx[::2]` and `train_idx[1::2]`, and
    `train_idx` and `zj` list fold 0's rows, then fold 1's. Each fold has its
    own copy of the states (fold 1's after fold 0's), its own blocks and its
    own Silverman bandwidths `h[f]`; `floored` records that any bandwidth hit
    its floor. A data row that trained fold 0 reads fold 1's fields, and
    every other row reads fold 0's.
    """

    def __init__(self, j: int, data: Dataset, train_idx: np.ndarray,
                 options: NuisanceOptions):
        self.j = j
        rows = np.asarray(train_idx, dtype=int)
        if rows.size < _MIN_ROWS:
            raise InsufficientData(f"index {j} has {rows.size} training rows")
        fold_rows = ((rows[::2], rows[1::2])
                     if options.cross_fit and rows.size >= 2 * _MIN_ROWS else (rows,))
        self.train_idx = np.concatenate(fold_rows) if len(fold_rows) > 1 else rows
        self.zj = data.z[self.train_idx, j - 1]
        p = j - 1
        zprev_all = data.z[:, :p]
        self.binary = _binary_columns(zprev_all)
        self.cont_cols = np.flatnonzero(~self.binary)
        self.bin_cols = np.flatnonzero(self.binary)
        self._branch_vals = {int(c): np.unique(zprev_all[:, c]) for c in self.bin_cols}

        if self.cont_cols.size >= 2:
            # the exact layout's kernel acts on every past coordinate
            self.grid = None
            kcols = np.arange(p)
            states = Xq = zprev_all
        else:
            combos: list[tuple[float, ...]] = [()]
            for c in self.bin_cols:
                combos = [cb + (v,) for cb in combos for v in self._branch_vals[int(c)]]
            if self.cont_cols.size:
                x = zprev_all[:, self.cont_cols[0]]
                lo, hi = float(x.min()), float(x.max())
                if hi <= lo:
                    hi = lo + 1.0
                self.grid = np.linspace(lo, hi, options.grid_points)
            else:
                self.grid = np.zeros(1)
            G = self.grid.size
            kcols = self.cont_cols
            Xq = self.grid[:, None]
            states = np.zeros((len(combos) * G, p))
            for b, combo in enumerate(combos):
                st = states[b * G:(b + 1) * G]
                st[:, kcols] = Xq
                st[:, self.bin_cols] = combo
        E = states.shape[0]

        self.h, folds, blocks = [], [], []
        self.floored = False
        T0 = 0
        for f, fr in enumerate(fold_rows):
            kern = data.z[np.ix_(fr, kcols)]
            h, floored = (silverman_bandwidths(kern) if kcols.size
                          else (np.array([1.0]), False))
            self.h.append(h)
            self.floored |= floored
            if self.grid is None:
                parts = [(np.arange(E), np.arange(fr.size))]
            else:
                tr_branch = self._branch_of(data.z[fr, :p])
                parts = ((np.arange(b * G, (b + 1) * G), np.flatnonzero(tr_branch == b))
                         for b in range(len(combos)))
            for st_rows, cols in parts:
                if cols.size == 0:
                    continue
                src = _GaussRows(Xq, kern[cols], h)
                blocks.append((st_rows + f * E, cols + T0, src))
            folds.append((slice(f * E, (f + 1) * E), slice(T0, T0 + fr.size)))
            T0 += fr.size
        super().__init__(np.vstack([states] * len(fold_rows)), blocks, tuple(folds))

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
        """Map rows onto fold 0's states; with two folds, the data rows in
        `row_idx` that trained fold 0 move to the same states of fold 1."""
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        m = Zprev.shape[0]
        E = self.eval_states.shape[0] // len(self.folds)
        if self.grid is None:
            if m != E:
                raise StructuralError("exact-layout panels map only the full dataset")
            lo = hi = np.arange(m)
            frac = np.zeros(m)
        else:
            G = self.grid.size
            base = self._branch_of(Zprev) * G
            if self.cont_cols.size == 1:
                x = np.clip(Zprev[:, self.cont_cols[0]], self.grid[0], self.grid[-1])
                hi = np.clip(np.searchsorted(self.grid, x), 1, G - 1)
                lo = hi - 1
                frac = (x - self.grid[lo]) / (self.grid[hi] - self.grid[lo])
            else:
                lo = hi = np.zeros(m, dtype=int)
                frac = np.zeros(m)
            lo, hi = base + lo, base + hi
        if len(self.folds) > 1 and row_idx is not None:
            shift = E * np.isin(row_idx, self.train_idx[self.folds[0][1]])
            lo, hi = lo + shift, hi + shift
        return RowMap(lo, hi, frac)

    def next_mean(self, field: np.ndarray, nuisance: FittedNuisance) -> np.ndarray:
        """E_Q[f(z̄_j) | z̄_{j-1}] at this panel's states, for f given as a
        field on the states of the index-(j+1) panel of `nuisance`: f is read
        at the training rows through that panel's row map and averaged by
        `mean_field`."""
        return self.mean_field(nuisance.rowmaps[self.j + 1].take(self.train_idx).apply(field))


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
        panels[j] = KernelPanel(j, data, data.rows_in(design.aligned_at(j)), options)
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
