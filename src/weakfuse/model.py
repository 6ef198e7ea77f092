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

from .errors import ParseError, StructuralError
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
        order = np.argsort(source, kind="stable")     # each source's rows stay in order
        cuts = np.searchsorted(source[order], np.arange(1, k + 2))
        object.__setattr__(
            self, "_rows_by_source",
            {s: order[cuts[s - 1]:cuts[s]] for s in range(1, k + 1)},
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

def _freeze_sets(m) -> dict[int, frozenset[int]]:
    """A mapping, or its (index, sources) pairs as `dataclasses.replace` passes
    a design's own field, as a map sorted by index."""
    return dict(sorted((int(j), frozenset(int(s) for s in v)) for j, v in dict(m).items()))


@dataclass(frozen=True)
class FusionDesign:
    """Alignment structure plus weight models for the weakly aligned pairs.

    `aligned` must cover every index 1..d; `weak` may be sparse, and every
    weak pair, and only those, has a weight model for its index. `relevant`
    lists the indices whose conditionals enter the estimand (the gradient
    engine only builds machinery there, but alignment of the remaining indices
    still matters for scoping regressions such as the propensity). Every rule
    that reads only the design is checked here, reading the declared entries
    alone, so neither building nor reading a design costs more as d grows.
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
        amap, wmap = _freeze_sets(aligned), _freeze_sets(weak or {})
        smap = dict(sorted(((int(j), int(s)), sp)
                           for (j, s), sp in dict(weight_specs or {}).items()))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "relevant", tuple(sorted(int(j) for j in relevant)))
        object.__setattr__(self, "aligned", tuple(amap.items()))
        object.__setattr__(self, "weak", tuple(wmap.items()))
        object.__setattr__(self, "weight_specs", tuple(smap.items()))
        object.__setattr__(self, "_aligned_map", amap)
        object.__setattr__(self, "_weak_map", wmap)
        object.__setattr__(self, "_spec_map", smap)
        if self.d < 1 or self.k < 1:
            raise StructuralError("need d >= 1 and k >= 1")
        if not self.relevant:
            raise StructuralError("relevant index set is empty")
        for j in self.relevant:
            if not 1 <= j <= self.d:
                raise StructuralError(f"relevant index {j} outside 1..{self.d}")
        for j in [*amap, *wmap]:
            if not 1 <= j <= self.d:
                raise StructuralError(f"index {j} outside 1..{self.d}")
        filled = [j for j, a in amap.items() if a]      # sorted, distinct, within 1..d
        if len(filled) < self.d:
            gap = next((i for i, j in enumerate(filled, 1) if i != j), len(filled) + 1)
            raise StructuralError(f"aligned set A_{gap} is empty")
        for j in sorted(amap.keys() | wmap.keys()):
            a, w = self.aligned_at(j), self.weak_at(j)
            if a & w:
                raise StructuralError(f"sources {sorted(a & w)} are in both A_{j} and W_{j}")
            for s in sorted(a | w):
                if not 1 <= s <= self.k:
                    raise StructuralError(f"source {s} at index {j} outside 1..{self.k}")
            for s in sorted(w):
                if (j, s) not in smap:
                    raise StructuralError(f"no weight model for weak source {s} at index {j}")
        for (j, s), spec in smap.items():
            if s not in self.weak_at(j):
                raise StructuralError(
                    f"weight model given for ({j}, {s}) but source not weak there")
            if spec.index != j:
                raise ParseError(f"weight model for index {spec.index} used at index {j}")

    def aligned_at(self, j: int) -> frozenset[int]:
        return self._aligned_map.get(j, frozenset())

    def weak_at(self, j: int) -> frozenset[int]:
        return self._weak_map.get(j, frozenset())

    def sources_at(self, j: int) -> frozenset[int]:
        return self.aligned_at(j) | self.weak_at(j)

    def spec_for(self, j: int, s: int) -> WeightSpec | None:
        return self._spec_map.get((j, s))

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
    """Check a design against a dataset: the same d and k, and rows for every
    source the design names; a violation raises StructuralError. The rules
    that read only the design hold once it is built.

    Soft issues (weak sources at an index the estimand ignores) are returned
    as notes, not raised.
    """
    if data.d != design.d or data.k != design.k:
        raise StructuralError(
            f"design is for d={design.d}, k={design.k}; data has d={data.d}, k={data.k}"
        )
    empty = {s for s, c in data.source_counts().items() if c == 0}
    for j in sorted({j for j, _ in design.aligned + design.weak}):
        missing = design.sources_at(j) & empty
        if missing:
            raise StructuralError(f"source {min(missing)} referenced at index {j} has no rows")
    relevant = set(design.relevant)
    return tuple(f"weak sources at index {j} are ignored (index not relevant)"
                 for j, w in design.weak if w and j not in relevant)


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


def layout_from_design(design: FusionDesign) -> tuple[tuple[int, int, int], ...]:
    """Parameter layout implied by a design's weak pairs, sorted by (j, s).
    A truncation has no parameter and so no block."""
    return tuple((j, s, design.spec_for(j, s).nparams) for j, s in design.weak_pairs()
                 if design.spec_for(j, s).nparams)

