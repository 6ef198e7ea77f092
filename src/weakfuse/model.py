"""Core data model: datasets, fusion designs, and stacked weight parameters.

A fusion design declares, for each coordinate index j of the outcome vector,
which sources are aligned with the target conditional law (set A_j) and which
are only weakly aligned through a parametric tilt (set W_j). Index numbering is
1-based throughout to match the usual time-ordering notation; array storage is
0-based and conversion happens at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import StructuralError
from .weights import WeightSpec


class Dataset:
    """Immutable column store for fused samples.

    Rows keep their input order; `rows_of` returns positional indices for one
    source. Labels must be dense integers 1..k (the CSV ingester remaps
    arbitrary labels before construction).
    """

    __slots__ = ("z", "source", "k", "_rows_by_source")

    def __init__(self, z: np.ndarray, source: np.ndarray, k: int | None = None):
        z = np.asarray(z, dtype=float)
        source = np.asarray(source)
        if z.ndim != 2:
            raise StructuralError(f"z must be a 2-d array, got ndim={z.ndim}")
        if source.ndim != 1 or source.shape[0] != z.shape[0]:
            raise StructuralError("source labels must be one per row")
        if not np.all(np.isfinite(z)):
            raise StructuralError("non-finite outcome values")
        if source.size and not np.all(source == source.astype(int)):
            raise StructuralError("source labels must be integers")
        source = source.astype(int)
        if k is None:
            k = int(source.max()) if source.size else 0
        if source.size and (source.min() < 1 or source.max() > k):
            raise StructuralError(f"source labels must lie in 1..{k}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(
            self, "_rows_by_source",
            {s: np.flatnonzero(source == s) for s in range(1, k + 1)},
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def rows_of(self, s: int) -> np.ndarray:
        """Positional indices of rows from source s (possibly empty)."""
        return self._rows_by_source.get(s, np.empty(0, dtype=int))

    def rows_in(self, sources: Iterable[int]) -> np.ndarray:
        """Positional indices of rows from any of the given sources, in order."""
        parts = [self.rows_of(s) for s in sources]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=int)

    def source_counts(self) -> dict[int, int]:
        return {s: self.rows_of(s).size for s in range(1, self.k + 1)}

def _freeze_sets(m: Mapping[int, Iterable[int]]) -> tuple[tuple[int, frozenset[int]], ...]:
    return tuple(sorted((int(j), frozenset(int(s) for s in v)) for j, v in m.items()))


@dataclass(frozen=True)
class FusionDesign:
    """Alignment structure plus weight models for the weakly aligned pairs.

    `aligned` must cover every index 1..d; `weak` may be sparse. `relevant`
    lists the indices whose conditionals enter the estimand (the gradient
    engine only builds machinery there, but alignment of the remaining indices
    still matters for scoping regressions such as the propensity).
    """

    d: int
    k: int
    relevant: tuple[int, ...]
    aligned: tuple[tuple[int, frozenset[int]], ...]
    weak: tuple[tuple[int, frozenset[int]], ...]
    weight_specs: tuple[tuple[tuple[int, int], WeightSpec], ...]

    def __init__(
        self,
        d: int,
        k: int,
        relevant: Sequence[int],
        aligned: Mapping[int, Iterable[int]],
        weak: Mapping[int, Iterable[int]] | None = None,
        weight_specs: Mapping[tuple[int, int], WeightSpec] | None = None,
    ):
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "relevant", tuple(sorted(int(j) for j in relevant)))
        object.__setattr__(self, "aligned", _freeze_sets(aligned))
        object.__setattr__(self, "weak", _freeze_sets(weak or {}))
        specs = tuple(sorted(((int(j), int(s)), sp) for (j, s), sp in (weight_specs or {}).items()))
        object.__setattr__(self, "weight_specs", specs)
        if self.d < 1 or self.k < 1:
            raise StructuralError("need d >= 1 and k >= 1")
        if not self.relevant:
            raise StructuralError("relevant index set is empty")
        for j in self.relevant:
            if not 1 <= j <= self.d:
                raise StructuralError(f"relevant index {j} outside 1..{self.d}")
        for j, _ in self.aligned + self.weak:
            if not 1 <= j <= self.d:
                raise StructuralError(f"index {j} outside 1..{self.d}")

    def aligned_at(self, j: int) -> frozenset[int]:
        return dict(self.aligned).get(j, frozenset())

    def weak_at(self, j: int) -> frozenset[int]:
        return dict(self.weak).get(j, frozenset())

    def sources_at(self, j: int) -> frozenset[int]:
        return self.aligned_at(j) | self.weak_at(j)

    def spec_for(self, j: int, s: int) -> WeightSpec | None:
        return dict(self.weight_specs).get((j, s))

    def weak_pairs(self) -> tuple[tuple[int, int], ...]:
        """(j, s) pairs with s weakly aligned at a relevant index, sorted."""
        return tuple((j, s) for j in self.relevant for s in sorted(self.weak_at(j)))


@dataclass(frozen=True)
class OverlapDiagnostics:
    """Range of fitted marginal density ratios for one (index, source) pair."""

    min_ratio: float
    max_ratio: float
    frac_clipped: float


def validate_design(design: FusionDesign, data: Dataset) -> tuple[str, ...]:
    """Check a design against a dataset; hard violations raise StructuralError.

    Soft issues (weak sources at an index the estimand ignores) are returned
    as notes, not raised.
    """
    if data.d != design.d or data.k != design.k:
        raise StructuralError(
            f"design is for d={design.d}, k={design.k}; data has d={data.d}, k={data.k}"
        )
    counts = data.source_counts()
    warn: list[str] = []
    weak_map = dict(design.weak)
    spec_map = dict(design.weight_specs)
    for j in range(1, design.d + 1):
        a = design.aligned_at(j)
        w = design.weak_at(j)
        if not a:
            raise StructuralError(f"aligned set A_{j} is empty")
        if a & w:
            raise StructuralError(f"sources {sorted(a & w)} are in both A_{j} and W_{j}")
        for s in sorted(a | w):
            if not 1 <= s <= design.k:
                raise StructuralError(f"source {s} at index {j} outside 1..{design.k}")
            if counts.get(s, 0) == 0:
                raise StructuralError(f"source {s} referenced at index {j} has no rows")
        for s in sorted(w):
            if (j, s) not in spec_map:
                raise StructuralError(f"no weight model for weak source {s} at index {j}")
        if w and j not in design.relevant:
            warn.append(f"weak sources at index {j} are ignored (index not relevant)")
    for (j, s), spec in spec_map.items():
        if s not in weak_map.get(j, frozenset()):
            raise StructuralError(f"weight model given for ({j}, {s}) but source not weak there")
        spec.check_index(j)
    return tuple(warn)


@dataclass(frozen=True)
class BetaParam:
    """Stacked tilt parameters with a (index, source, block length) layout."""

    values: np.ndarray
    layout: tuple[tuple[int, int, int], ...]

    def __init__(self, values, layout):
        values = np.asarray(values, dtype=float).ravel()
        layout = tuple((int(j), int(s), int(c)) for j, s, c in layout)
        if sorted(layout) != list(layout):
            raise StructuralError("layout must be sorted by (index, source)")
        if any(c < 1 for _, _, c in layout):
            raise StructuralError("block lengths must be positive")
        total = sum(c for _, _, c in layout)
        if values.size != total:
            raise StructuralError(f"layout wants {total} values, got {values.size}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layout", layout)

    @property
    def t(self) -> int:
        return self.values.size

    def offsets(self) -> dict[tuple[int, int], slice]:
        out: dict[tuple[int, int], slice] = {}
        pos = 0
        for j, s, c in self.layout:
            out[(j, s)] = slice(pos, pos + c)
            pos += c
        return out

    def replace_values(self, values: np.ndarray) -> "BetaParam":
        return BetaParam(values, self.layout)

    @classmethod
    def zeros(cls, layout) -> "BetaParam":
        layout = tuple(layout)
        return cls(np.zeros(sum(c for _, _, c in layout)), layout)


def beta_slice(beta: BetaParam, j: int, s: int) -> np.ndarray:
    """The (j, s) block of a stacked parameter; KeyError if absent."""
    sl = beta.offsets().get((int(j), int(s)))
    if sl is None:
        raise KeyError(f"no parameter block for index {j}, source {s}")
    return beta.values[sl].copy()


def assemble_beta(layout, blocks: Mapping[tuple[int, int], Sequence[float]]) -> BetaParam:
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


def layout_from_design(design: FusionDesign) -> tuple[tuple[int, int, int], ...]:
    """Parameter layout implied by a design's weak pairs, sorted by (j, s).
    A truncation has no parameter and so no block."""
    out = []
    for j, s in design.weak_pairs():
        spec = design.spec_for(j, s)
        if spec is None:
            raise StructuralError(f"no weight model for weak source {s} at index {j}")
        if spec.nparams:
            out.append((j, s, spec.nparams))
    return tuple(out)

