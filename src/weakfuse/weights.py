"""Parametric conditional-density-shift models.

A weight model for (index j, source s) describes how that source's conditional
law of Z_j given the past tilts away from the target law. The exponential-tilt
family uses a log-linear basis in hand-written terms like ``z1*log(z3)``; the
truncation family keeps only values above a known threshold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParseError, UnsupportedFamily

TERMINALS = ("identity", "square", "log", "log1m")

_FACTOR_RE = re.compile(r"^(?:z(\d+)(\^2)?|(log|log1m)\(z(\d+)\))$")


@dataclass(frozen=True)
class BasisTerm:
    """One log-linear basis function: a monomial in past coordinates times a
    transform of the current coordinate.

    `exponents` holds (coordinate, power) pairs with coordinate < index and
    power in {1, 2}; `terminal` names the transform applied to z_index.
    """

    index: int
    exponents: tuple[tuple[int, int], ...]
    terminal: str

    def __post_init__(self):
        if self.terminal not in TERMINALS:
            raise ParseError(f"unknown transform {self.terminal!r}")
        seen = set()
        for i, e in self.exponents:
            if not 1 <= i < self.index:
                raise ParseError(f"prefactor z{i} must precede index {self.index}")
            if e not in (1, 2):
                raise ParseError(f"exponent {e} for z{i} not supported")
            if i in seen:
                raise ParseError(f"duplicate prefactor z{i}")
            seen.add(i)
        if tuple(sorted(self.exponents)) != self.exponents:
            raise ParseError("exponents must be sorted by coordinate")

    def prefactor(self, zprev: np.ndarray) -> np.ndarray:
        """Monomial part evaluated on rows of past coordinates (m, >= index-1)."""
        zprev = np.atleast_2d(np.asarray(zprev, dtype=float))
        out = np.ones(zprev.shape[0])
        for i, e in self.exponents:
            out = out * zprev[:, i - 1] ** e
        return out

    def terminal_values(self, zj: np.ndarray) -> np.ndarray:
        zj = np.asarray(zj, dtype=float)
        if self.terminal == "identity":
            return zj
        if self.terminal == "square":
            return zj * zj
        if self.terminal == "log":
            if np.any(zj <= 0):
                raise DomainError(f"log(z{self.index}) needs positive values")
            return np.log(zj)
        if np.any(zj >= 1):
            raise DomainError(f"log1m(z{self.index}) needs values below 1")
        return np.log1p(-zj)

    def evaluate(self, zbar: np.ndarray) -> np.ndarray:
        """Term value on rows carrying at least `index` coordinates."""
        zbar = np.atleast_2d(np.asarray(zbar, dtype=float))
        return self.prefactor(zbar) * self.terminal_values(zbar[:, self.index - 1])

    def text(self) -> str:
        parts = [f"z{i}" if e == 1 else f"z{i}^2" for i, e in self.exponents]
        zj = f"z{self.index}"
        if self.terminal == "identity":
            parts.append(zj)
        elif self.terminal == "square":
            parts.append(f"{zj}^2")
        else:
            parts.append(f"{self.terminal}({zj})")
        return "*".join(parts)


def parse_term(text: str, index: int) -> BasisTerm:
    """Parse a ``*``-separated basis term such as ``z1*z2*log(z3)``.

    Exactly one factor must involve z_index (the terminal transform); the rest
    are monomial prefactors in strictly earlier coordinates.
    """
    if not text or not text.strip():
        raise ParseError("empty basis term")
    exponents: dict[int, int] = {}
    terminal: str | None = None
    for raw in text.strip().split("*"):
        m = _FACTOR_RE.match(raw.strip())
        if m is None:
            raise ParseError(f"cannot parse factor {raw.strip()!r}")
        if m.group(3):
            g, i = m.group(3), int(m.group(4))
            if i != index:
                raise ParseError(f"{g}(z{i}) invalid in a term for index {index}")
            if terminal is not None:
                raise ParseError(f"multiple z{index} factors in {text!r}")
            terminal = g
        else:
            i, squared = int(m.group(1)), bool(m.group(2))
            if i == index:
                if terminal is not None:
                    raise ParseError(f"multiple z{index} factors in {text!r}")
                terminal = "square" if squared else "identity"
            elif i < index:
                exponents[i] = exponents.get(i, 0) + (2 if squared else 1)
                if exponents[i] > 2:
                    raise ParseError(f"exponent above 2 for z{i} in {text!r}")
            else:
                raise ParseError(f"z{i} cannot appear in a term for index {index}")
    if terminal is None:
        raise ParseError(f"term {text!r} must involve z{index}")
    return BasisTerm(index, tuple(sorted(exponents.items())), terminal)


@dataclass(frozen=True)
class WeightSpec:
    """Weight model for one (index, source) pair.

    families:
      exponential_tilt        w(z̄_j; β) = exp(Σ_c β_c t_c(z̄_j))
      truncated_above_threshold  w(z̄_j) = 1{z_j >= threshold}, a known
                              finite threshold; no parameter to estimate

    A tilt reads only `terms`, a truncation only `threshold`; each check's
    message starts with the field it faults."""

    family: str
    index: int
    terms: tuple[BasisTerm, ...] = ()
    threshold: float | None = None

    def __post_init__(self):
        if self.family not in ("exponential_tilt", "truncated_above_threshold"):
            raise ParseError(f"family: unknown family {self.family!r}")
        if self.family == "exponential_tilt":
            if not self.terms:
                raise ParseError("terms: exponential tilt needs at least one basis term")
            if self.threshold is not None:
                raise ParseError("threshold: exponential tilt takes no threshold")
            texts = [t.text() for t in self.terms]
            if len(set(texts)) != len(texts):
                raise ParseError(f"terms: duplicate basis terms: {texts}")
            for t in self.terms:
                if t.index != self.index:
                    raise ParseError(f"terms: {t.text()!r} is for index {t.index}, "
                                     f"spec is for {self.index}")
            return
        if self.terms:
            raise ParseError("terms: truncation family takes no basis terms")
        if not (isinstance(self.threshold, (int, float)) and math.isfinite(self.threshold)):
            raise ParseError(f"threshold: truncation threshold must be a finite number, "
                             f"got {self.threshold!r}")
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def nparams(self) -> int:
        return len(self.terms)

    @classmethod
    def tilt(cls, index: int, term_texts: Sequence[str]) -> "WeightSpec":
        return cls("exponential_tilt", index,
                   tuple(parse_term(t, index) for t in term_texts))


def basis_matrix(spec: WeightSpec, zbar: np.ndarray) -> np.ndarray:
    """Stacked term values t(z̄_j), shape (rows, nparams)."""
    if spec.family != "exponential_tilt":
        raise UnsupportedFamily("truncation family has no basis")
    zbar = np.atleast_2d(np.asarray(zbar, dtype=float))
    return np.column_stack([t.evaluate(zbar) for t in spec.terms])


def complex_family(index: int) -> list[BasisTerm]:
    """Deterministic ordered pool of redundant tilt terms for one index.

    All products of distinct earlier coordinates (by degree, then
    lexicographically) crossed with the log transform first, then log1m.
    Used to pad weight models in the overparametrized estimator variant.
    """
    coords = list(range(1, index))
    monomials: list[tuple[int, ...]] = [()]
    for size in range(1, len(coords) + 1):
        from itertools import combinations

        monomials.extend(combinations(coords, size))
    out = []
    for terminal in ("log", "log1m"):
        for mono in monomials:
            out.append(BasisTerm(index, tuple((i, 1) for i in mono), terminal))
    return out
