"""Nuisance fits: kernel regressions, propensity, density ratios, and the
conditional-moment panels that back the gradient engine.

Everything here is deterministic given the data: bandwidths are closed-form,
logistic fits use IRLS from a zero start, and conditional-mean fields are
evaluated on fixed grids. Panels evaluate Nadaraya-Watson fields at a set of
conditioning states and map data rows onto those states by multilinear
interpolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import (
    InsufficientData,
    NonBinaryTreatment,
    NuisanceMissing,
    ParseError,
    StructuralError,
)
from .model import Dataset, FusionDesign, OverlapDiagnostics
from .weights import basis_matrix

_MIN_ROWS = 5
_H_FLOOR = 1e-6
_GRID_POINTS = 301          # the axis length of a panel with one continuous past coordinate
_CHUNK_BYTES = 1 << 18      # one float temporary per row chunk: about 256 KiB, cache-sized
_STORE_BYTES = 1 << 24      # a re-read block up to 16 MiB is kept; any other is rebuilt per read
_EPS_W = 1e-8               # floor on a `WeakShift` normalizer, in the engine and the moment match


@dataclass(frozen=True)
class NuisanceOptions:
    """Fit options, checked on construction: each clip is a pair
    0 < lo <= hi (hi < 1 for the propensity)."""

    ratio_clip: tuple[float, float] = (1e-3, 1e3)
    propensity_clip: tuple[float, float] = (0.01, 0.99)
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
        if not isinstance(self.cross_fit, bool):
            raise ParseError(f"cross_fit: expected true or false, got {self.cross_fit!r}")


def _pow2_scaled(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X with each column scaled by the power of two above its largest
    magnitude, which is exact, and the exponents of those powers."""
    e = np.frexp(np.abs(X).max(axis=0))[1]
    return np.ldexp(X, -e), e


def _column_std(X: np.ndarray, ddof: int) -> np.ndarray:
    """Each column's standard deviation: exactly 0 for a column whose values
    are all equal, and taken from X - X[0] where `X.std` overflows, with the
    column scaled by `_pow2_scaled`, which changes no bit of the result
    unless X - X[0] would overflow. A column that spans more than the float
    range has an infinite std, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = X.std(axis=0, ddof=ddof)
        bad = ~np.isfinite(sd)
        if bad.any():
            Xs, e = _pow2_scaled(X[:, bad])
            sd[bad] = np.ldexp((Xs - Xs[0]).std(axis=0, ddof=ddof), e)
    sd[np.all(X == X[0], axis=0)] = 0.0
    return sd


def silverman_bandwidths(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-column rule-of-thumb bandwidths, and whether any was floored
    (a constant column)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    sd = _column_std(X, ddof=1) if n > 1 else np.zeros(p)
    factor = (4.0 / ((p + 2) * n)) ** (1.0 / (p + 4))
    h = sd * factor
    floored = bool(np.any(h < _H_FLOOR))
    if floored:
        h = np.maximum(h, _H_FLOOR)
    return h, floored


def _gauss_weights(Xq: np.ndarray, Xt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unnormalized Gaussian product-kernel weights, shape (m, n), built in
    place from the first column's squared scaled distance; a temporary of
    the same shape is allocated only when there is a second column. A
    scaled distance that overflows is inf, whose weight is exactly 0. The
    Gaussian over zero columns is all ones."""
    if not Xt.shape[1]:
        return np.ones((Xq.shape[0], Xt.shape[0]))
    d2 = np.subtract.outer(Xq[:, 0], Xt[:, 0])
    diff = np.empty_like(d2) if Xt.shape[1] > 1 else None
    with np.errstate(over="ignore"):
        d2 /= h[0]
        d2 *= d2
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
        if p == 0:
            for s in self.sources:
                self._coef[s] = None
                self._ld[s] = 0.0
                self._diag[s] = OverlapDiagnostics(1.0, 1.0, 0.0)
            return
        Zfull = data.z[:, :p]
        sd = _column_std(Zfull, ddof=0)
        self._cols = np.flatnonzero(sd > 0)     # a constant column has no features
        self._binary = _binary_columns(Zfull)[self._cols]
        # a varying column whose sum overflows is centered at the mean of its
        # `_pow2_scaled` values, scaled back; a constant column's is never read
        with np.errstate(over="ignore"):
            center = Zfull.mean(axis=0)
            big = ~np.isfinite(center)
            Zs, e = _pow2_scaled(Zfull[:, big])
            center[big] = np.ldexp(Zs.mean(axis=0), e)
        self._center = center[self._cols]
        self._scale = np.where(sd > 1e-12, sd, 1.0)[self._cols]
        aligned = design.aligned_at(j)
        pool_rows = data.rows_in(aligned)
        X0 = self._features(Zfull[pool_rows])
        single_aligned = min(aligned) if len(aligned) == 1 else None
        for s in self.sources:
            rows_s = data.rows_of(s)
            if rows_s.size < _MIN_ROWS or pool_rows.size < _MIN_ROWS:
                raise InsufficientData(f"too few rows to fit the ratio for source {s}")
            if s == single_aligned:
                self._coef[s] = None  # identical laws, ratio is exactly one
                self._ld[s] = 0.0
            else:
                X1 = self._features(Zfull[rows_s])
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

    def _features(self, Zprev: np.ndarray) -> np.ndarray:
        """Cubic expansion of the continuous past columns, binaries passed
        through; a constant column has no features."""
        cols = [np.ones(Zprev.shape[0])]
        for c, binary, center, scale in zip(self._cols, self._binary, self._center, self._scale):
            if binary:
                cols.append(Zprev[:, c])
            else:
                u = (Zprev[:, c] - center) / scale
                cols.extend([u, u * u, u * u * u])
        return np.column_stack(cols)

    def _rho_unclipped(self, s: int, Zprev: np.ndarray) -> np.ndarray:
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        coef = self._coef.get(s)
        if s not in self._coef:
            raise NuisanceMissing(f"source {s} not fitted at index {self.j}")
        if coef is None:
            return np.ones(Zprev.shape[0])
        X = self._features(Zprev)
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
    """Multilinear interpolation of data rows onto panel evaluation states:
    row i reads the states `idx[k, i]` with weights `weight[k, i]`, over the
    2^c corners k of its grid cell (one corner when c = 0)."""

    idx: np.ndarray
    weight: np.ndarray

    def apply(self, fields: np.ndarray) -> np.ndarray:
        """The sum over corners of fields[idx[k]] * weight[k], in corner
        order, gathered by `np.take` and combined in place, which skips
        numpy's slow 2-D fancy index."""
        fields = np.asarray(fields, dtype=float)
        out = None
        for idx, w in zip(self.idx, self.weight):
            part = np.take(fields, idx, axis=0)
            part *= w if fields.ndim == 1 else w[:, None]
            if out is None:
                out = part
            else:
                out += part
        return out

    def take(self, rows: np.ndarray) -> "RowMap":
        """The part of the map that covers the given rows."""
        return RowMap(np.take(self.idx, rows, axis=1), np.take(self.weight, rows, axis=1))


class _GaussRows:
    """Nadaraya-Watson weight rows of the query points `Xq` against the
    training points `Xt`: Gaussian product-kernel rows with bandwidths `h`.
    `rows(lo, hi)` returns rows lo:hi, each scaled to sum to one, and which
    of them are degenerate: a row whose mass is below 1e-12 keeps its raw
    weights. With `keep`, a block of at most `_STORE_BYTES` is built once
    and kept; any other block is rebuilt on every read, so it never holds
    more than the rows asked for. Both give the same rows, bit for bit."""

    def __init__(self, Xq: np.ndarray, Xt: np.ndarray, h: np.ndarray, keep: bool):
        self.Xq, self.Xt, self.h = Xq, Xt, h
        self._kept = (self._build(0, Xq.shape[0])
                      if keep and 8 * Xq.shape[0] * Xt.shape[0] <= _STORE_BYTES else None)

    def _build(self, lo: int, hi: int):
        W = _gauss_weights(self.Xq[lo:hi], self.Xt, self.h)
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
    shaped like the slice. Gathers are made once per block; the buffers are
    views into one allocation per call, sized for the largest block."""
    shapes = [(max(1, min(_CHUNK_BYTES // (8 * cols.size), rows.size)), cols.size)
              for rows, cols, _ in panel.blocks]
    pool = np.empty(scratch * max((r * c for r, c in shapes), default=0))
    for (rows, cols, src), (step, c) in zip(panel.blocks, shapes):
        vals = tuple(np.take(v, cols, axis=0) for v in values)
        bufs = pool[:scratch * step * c].reshape(scratch, step, c)
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
    fixed set of conditioning states: a tensor grid over the c continuous
    past coordinates, one `np.linspace` axis each over the data's range
    with repeated points dropped (a range of a few ulps repeats them), in
    one product after the binary past coordinates' values (the branches),
    with one weight block per branch with training rows. The Gaussian acts on
    the continuous coordinates; binary ones are matched exactly. Rows map
    onto states by multilinear interpolation in their grid cell. An axis has
    `_GRID_POINTS` points when c = 1; when c >= 2 it has
    max(2, min(ceil(range / h) + 1, floor(n^(1/c)))) points, h being the
    axis's smallest bandwidth over the folds and n the data rows, so that
    its spacing is at most h and a branch never holds more than n states.
    At c = 0 a branch has one state, whose block is the Gaussian over zero
    columns (all ones; `h[f]` is empty), so it reads the branch's mean.

    With `options.cross_fit` and at least 2 * _MIN_ROWS training rows, the
    rows split into two folds, `train_idx[::2]` and `train_idx[1::2]`, and
    `train_idx` and `zj` list fold 0's rows, then fold 1's. Each fold has its
    own copy of the states (fold 1's after fold 0's), its own blocks and its
    own Silverman bandwidths `h[f]`; `floored` records that any bandwidth hit
    its floor. A data row that trained one fold reads the other fold's
    fields, and data row i that trained neither reads fold i % 2's.

    `keep` says that the blocks are read more than once, so that each one
    within `_STORE_BYTES` is kept rather than rebuilt on every read.
    """

    def __init__(self, j: int, data: Dataset, train_idx: np.ndarray,
                 options: NuisanceOptions, keep: bool = True):
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
        self._branch_vals = [np.unique(zprev_all[:, c]) for c in self.bin_cols]
        c = self.cont_cols.size

        kerns = [data.z[np.ix_(fr, self.cont_cols)] for fr in fold_rows]
        fits = [silverman_bandwidths(kern) for kern in kerns]
        self.h = [h for h, _ in fits]
        self.floored = any(floored for _, floored in fits)
        self.axes = []
        for a, col in enumerate(self.cont_cols):
            x = zprev_all[:, col]
            lo, hi = float(x.min()), float(x.max())
            if hi <= lo:
                # a constant column: an axis of width 1, or |lo| 2^-30 where its
                # points would repeat, below lo where lo + width overflows
                pad = max(1.0, abs(lo) * 2.0 ** -30)
                lo, hi = (lo, lo + pad) if lo + pad < math.inf else (lo - pad, lo)
            points = _GRID_POINTS
            if c > 1:
                root = round(data.n ** (1.0 / c))
                root -= root ** c > data.n
                # min(ceil(span / h) + 1, root), without forming a span / h
                # that overflows when a fold's bandwidth is floored
                span, h_min = hi - lo, min(h[a] for h in self.h)
                points = max(2, root if span > (root - 1) * h_min
                             else math.ceil(span / h_min) + 1)
            self.axes.append(np.unique(np.linspace(lo, hi, points)))
        # the states: branches outer, grid points inner, as one product
        grid = np.array(list(itertools.product(*self._branch_vals, *self.axes)), dtype=float)
        states = grid[:, np.argsort(np.concatenate([self.bin_cols, self.cont_cols]))]
        E, G = states.shape[0], math.prod(g.size for g in self.axes)
        Xq = states[:G, self.cont_cols]

        folds, blocks = [], []
        T0 = 0
        for f, (fr, kern) in enumerate(zip(fold_rows, kerns)):
            tr_branch = self._branch_of(data.z[fr, :p])
            for b in range(E // G):
                cols = np.flatnonzero(tr_branch == b)
                # an empty branch reads the fold mean; a thin one cannot fit
                if 0 < cols.size < _MIN_ROWS:
                    branch = ", ".join(f"z{col + 1} = {v:g}"
                                       for col, v in zip(self.bin_cols, grid[b * G]))
                    raise InsufficientData(f"index {j}, branch {branch}: {cols.size} "
                                           f"training row{'s' * (cols.size > 1)}")
                if cols.size:
                    src = _GaussRows(Xq, kern[cols], self.h[f], keep)
                    blocks.append((np.arange(b * G, (b + 1) * G) + f * E, cols + T0, src))
            folds.append((slice(f * E, (f + 1) * E), slice(T0, T0 + fr.size)))
            T0 += fr.size
        super().__init__(np.vstack([states] * len(fold_rows)), blocks, tuple(folds))

    def _branch_of(self, Zprev: np.ndarray) -> np.ndarray:
        """Branch id of each row: each binary column split at 0.5 and
        clipped to the column's declared values, which picks the nearest of
        them, as they lie in {0, 1}. (Adding zeros gives the rows' shape
        when no column is binary.)"""
        split = Zprev[:, self.bin_cols].T >= 0.5
        return (np.ravel_multi_index(split, [v.size for v in self._branch_vals], mode="clip")
                + np.zeros(Zprev.shape[0], dtype=int))

    def row_map(self, Zprev: np.ndarray, row_idx=None) -> RowMap:
        """Map any rows onto fold 0's states: each row reads the 2^c corners
        of its grid cell, clipped to the grid, with product weights; with
        two folds, each data row in `row_idx` moves to the same states of
        one fold: the fold it did not train, or fold `row_idx % 2` if it
        trained neither."""
        Zprev = np.atleast_2d(np.asarray(Zprev, dtype=float))
        stride = math.prod(g.size for g in self.axes)
        idx, weight = [self._branch_of(Zprev) * stride], [np.ones(Zprev.shape[0])]
        for col, g in zip(self.cont_cols, self.axes):
            stride //= g.size
            x = np.clip(Zprev[:, col], g[0], g[-1])
            hi = np.clip(np.searchsorted(g, x), 1, g.size - 1)
            lo = hi - 1
            frac = (x - g[lo]) / (g[hi] - g[lo])
            idx = [i + lo * stride for i in idx] + [i + hi * stride for i in idx]
            weight = [w * (1.0 - frac) for w in weight] + [w * frac for w in weight]
        idx = np.array(idx)
        if len(self.folds) > 1 and row_idx is not None:
            E = self.eval_states.shape[0] // len(self.folds)
            idx += E * np.where(np.isin(row_idx, self.train_idx),
                                np.isin(row_idx, self.train_idx[self.folds[0][1]]),
                                np.asarray(row_idx) % 2)
        return RowMap(idx, np.array(weight))

    def at_branch(self, field: np.ndarray, col: int, value: float) -> np.ndarray:
        """`field` re-indexed so that each state reads the state of its own
        fold and grid point whose binary past column `col` holds `value`,
        split at 0.5 and clipped as `_branch_of` does: read through a row
        map, it is the field read at the same rows with that column set."""
        states = self.eval_states.copy()
        states[:, col] = value
        e = np.arange(states.shape[0])
        E = e.size // len(self.folds)
        G = math.prod(g.size for g in self.axes)
        return field[e - e % E + self._branch_of(states) * G + e % G]

    def next_mean(self, field: np.ndarray, nuisance: FittedNuisance) -> np.ndarray:
        """E_Q[f(z̄_j) | z̄_{j-1}] at this panel's states, for f given as a
        field on the states of the index-(j+1) panel of `nuisance`: f is read
        at the training rows through that panel's row map and averaged by
        `mean_field`."""
        return self.mean_field(nuisance.rowmaps[self.j + 1].take(self.train_idx).apply(field))


@dataclass(frozen=True, eq=False)
class WeakShift:
    """A weak pair's shift w(z̄_j; b) from the target law at index j, in
    β-free factors on the index's `panel` and at the S_j rows: the
    prefactors `G` at the states, the value columns V = [1, ψ] at the
    training values and the basis values `t` at the rows. A tilt is
    w = exp(Σ_c b_c G_c ψ_c); a truncation is the parameter-free step
    1{z_j >= threshold}, held as V = [step] and as `step` at the rows, and
    its G, ψ and t have no columns, so that readers size and slice both
    alike. Every tilt exponent is formed by `chunk` or `weight`.

    No exponent is clipped: `exp` overflows silently into a non-finite
    value, which the engine reports as `NonFiniteNormalizer` and the moment
    match counts as a trial step that did not lower its residual."""

    panel: object
    G: np.ndarray
    V: np.ndarray
    t: np.ndarray
    step: np.ndarray | None = None

    @classmethod
    def of(cls, panel, spec, Z: np.ndarray) -> "WeakShift":
        """The shift of `spec` on `panel`, with rows z̄_j `Z`."""
        if spec.family != "exponential_tilt":
            step = (panel.zj >= spec.threshold).astype(float)[:, None]
            return cls(panel, np.empty((panel.eval_states.shape[0], 0)), step,
                       np.empty((Z.shape[0], 0)),
                       (Z[:, spec.index - 1] >= spec.threshold).astype(float))
        G = np.column_stack([t.prefactor(panel.eval_states) for t in spec.terms])
        V = np.column_stack([np.ones(panel.zj.size)]
                            + [t.terminal_values(panel.zj) for t in spec.terms])
        return cls(panel, G, V, basis_matrix(spec, Z))

    @property
    def vals(self) -> tuple:
        """The training-side arrays a chunk reads, V and its ψ part Ψ, kept
        apart so that the gathers of Ψ are contiguous."""
        return self.V, self.V[:, 1:]

    def chunk(self, b, rows, W, vals, buf, tmp):
        """The shift at b on a chunk of a weight block, given `vals` gathered
        at the block's columns, and its row means against V. A tilt's shift
        is formed in `buf` and W times it in `tmp`, which may be `buf` when
        only the means are wanted; a step's shift is its gathered values, to
        be read only."""
        Vc, Pc = vals
        if self.step is not None:
            return Vc[:, 0], W @ Vc
        np.exp(np.dot(self.G[rows] * b, Pc.T, out=buf), out=buf)
        return buf, np.multiply(W, buf, out=tmp) @ Vc

    def field(self, b) -> np.ndarray:
        """The shift at b as the field of its row means against V: the
        normalizer, then E_Q[w ψ | e]. A shift at b = 0 with finite factors
        is exp(±0) = 1 exactly, or the step, so its field is W·V, formed
        without exponent or product."""
        out = np.zeros((self.panel.eval_states.shape[0], self.V.shape[1]))
        flat = not np.any(b) and np.isfinite(self.G).all() and np.isfinite(self.V[:, 1:]).all()
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, W, _, vc, (buf,) in _chunks(self.panel, *self.vals, scratch=1):
                out[rows] = W @ vc[0] if flat else self.chunk(b, rows, W, vc, buf, buf)[1]
        return out

    def weight(self, b) -> np.ndarray:
        """The shift at b at the rows."""
        return self.step if self.step is not None else np.exp(self.t @ b)

    def take(self, on: np.ndarray) -> "WeakShift":
        """The shift at the rows selected by the mask `on`."""
        return replace(self, t=self.t[on], step=None if self.step is None else self.step[on])


class WeakIndexInputs:
    """The β-free inputs of the moment match and the engine at an index j
    with weak sources: sorted sources `S` and weak sources `Wk`; the S_j
    `rows` with their sources `src`, z̄_j `Z` and map `rmap` onto the panel;
    per m in S, δ_m (`delta`), δ_m ρ_m at the states (`dt_e`) and ρ_m at the
    rows (`rho_rows`); and per weak source its `WeakShift` (`shifts`), the
    one owner of its tilt-or-step factors."""

    def __init__(self, nuisance: FittedNuisance, j: int):
        design, data = nuisance.design, nuisance.data
        self.panel = panel = nuisance.panel(j)
        self.S = sorted(design.sources_at(j))
        self.Wk = sorted(design.weak_at(j))
        self.rows = data.rows_in(self.S)
        self.src = data.source[self.rows]
        self.Z = np.take(data.z[:, :j], self.rows, axis=0)
        self.rmap = nuisance.rowmaps[j].take(self.rows)
        ratio = nuisance.ratio_fits(j)
        self.delta = np.array([nuisance.delta[m] for m in self.S])
        self.dt_e = np.column_stack([ratio.rho(m, panel.eval_states) for m in self.S]) * self.delta
        self.rho_rows = np.take(np.column_stack(
            [ratio.rho(m, data.z[:, :j - 1]) for m in self.S]), self.rows, axis=0)
        self.shifts = {s: WeakShift.of(panel, design.spec_for(j, s), self.Z) for s in self.Wk}

    def moment_system(self, s: int, aligned) -> tuple:
        """What the moment match's Newton solve for tilted source s reuses:
        s's shift at the rows of the `aligned` sources, its basis mean over
        its own rows, and ρ_s and the row map at the aligned rows."""
        shift, on = self.shifts[s], np.isin(self.src, sorted(aligned))
        return (shift.take(on), shift.t[self.src == s].mean(axis=0),
                self.rho_rows[on, self.S.index(s)], self.rmap.take(np.flatnonzero(on)))


class FittedNuisance:
    """Everything the estimator and gradient engine need from the data and
    the design alone, fitted once; the propensity is the seed's own fit.

    Holds source frequencies, per-index panels with the row map of every data
    row onto each panel's states, the marginal density-ratio fits at the
    indices with weak sources (`ratio_fits` raises `NuisanceMissing` at any
    other index), and the flags of the fallbacks that fired while fitting
    them; at those indices `weak_inputs` holds the
    moment match's and the engine's β-free inputs (`WeakIndexInputs`), built
    once, among them each weak pair's shift record (`WeakShift`), which alone
    decides between a tilt and a step and forms every tilt exponent.
    Weight-dependent fields (normalizers, score means, fusion-matrix moments)
    are computed per β by the gradient engine, so refreshing β never touches
    the β-free fits, and nothing here changes after construction.
    """

    def __init__(self, data: Dataset, design: FusionDesign, options: NuisanceOptions,
                 delta: dict[int, float], panels: dict[int, object],
                 ratios: dict[int, MarginalRatioFits], flags: frozenset[str] = frozenset()):
        self.data = data
        self.design = design
        self.options = options
        self.delta = delta
        self.panels = panels
        self.ratios = ratios
        self.rowmaps = {j: p.row_map(data.z[:, :j - 1], row_idx=np.arange(data.n))
                        for j, p in panels.items()}
        self.weak_inputs = {j: WeakIndexInputs(self, j)
                            for j in design.relevant if design.weak_at(j)}
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


def fit_nuisance_bundle(data: Dataset, design: FusionDesign,
                        options: NuisanceOptions | None = None) -> FittedNuisance:
    """Fit every β-free nuisance component the design requires.
    Only the panels at indices with weak sources keep their weight blocks:
    the moment match and the engine sweep those once per β, while every
    other panel is read by the seed and at most one tail adjustment. Density
    ratios are fitted only at those indices too, since nothing reads a ratio
    at an index whose sources are all aligned; so the bundle's
    `SeparationWarning` comes from a ratio fit the estimate reads."""
    options = options or NuisanceOptions()
    if data.n == 0:
        raise StructuralError("empty dataset")
    delta = {s: c / data.n for s, c in data.source_counts().items()}
    panels: dict[int, object] = {}
    ratios: dict[int, MarginalRatioFits] = {}
    for j in design.relevant:
        panels[j] = KernelPanel(j, data, data.rows_in(design.aligned_at(j)), options,
                                keep=bool(design.weak_at(j)))
    for j in design.relevant:
        if design.weak_at(j):
            ratios[j] = MarginalRatioFits(j, design, data, options)
    flags = set()
    if any(p.floored for p in panels.values()):
        flags.add("SingularBandwidth")
    if any(r.ridged for r in ratios.values()):
        flags.add("SeparationWarning")
    return FittedNuisance(data, design, options, delta, panels, ratios, frozenset(flags))
