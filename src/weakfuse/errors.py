"""Exception types shared across the package.

Every error that the input causes (arguments, config, data, or data that give
no finite estimate) is a `WeakfuseError`, on which the CLI exits 1; any other
exception is a fault in the program (exit 2). Recoverable numerical
conditions are not signalled here: each fitting step returns what happened
as a value, and every estimate reports the fallbacks that fired as flag
strings (`SeparationWarning`, `SingularBandwidth`, `UserWarning` for a
validation note, `NoConvergence`, `RankDeficiency`, `SingularInformation`).
"""


class WeakfuseError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(WeakfuseError):
    """A fusion design or dataset violates a structural precondition."""


class InvalidShape(WeakfuseError):
    """A distribution parameter left its admissible range during generation."""


class InsufficientData(WeakfuseError):
    """Too few rows to fit the requested nuisance component."""


class NonBinaryTreatment(WeakfuseError):
    """Propensity fitting was asked for a column that is not in {0, 1}."""


class NuisanceMissing(WeakfuseError):
    """The bundle fitted no panel (or density ratio) at the index asked for:
    it fits them at relevant indices (with weak sources) only."""


class UnsupportedFamily(WeakfuseError):
    """A weight-model operation is undefined for the given family."""


class DomainError(WeakfuseError):
    """A basis transform was evaluated outside its domain."""


class SingularJacobian(WeakfuseError):
    """A design matrix inversion failed (for example a constant covariate)."""


class BadLevel(WeakfuseError):
    """Confidence level outside (0, 1)."""


class NegativeDelta(WeakfuseError):
    """Sensitivity radius must be nonnegative."""


class ParseError(WeakfuseError):
    """A config file, basis-term string, option, CLI argument, estimator
    variant label or study scenario could not be parsed, or holds a value out
    of range."""


class MissingColumn(WeakfuseError):
    """An ingested CSV lacks a required column."""


class NonNumericCell(WeakfuseError):
    """An ingested CSV cell could not be converted to a number."""

    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"non-numeric value {value!r} at row {row}, column {column!r}")


class EmptyFile(WeakfuseError):
    """An ingested CSV has no data rows."""


class NonFiniteNormalizer(WeakfuseError):
    """A tilt parameter drove a weight normalizer out of floating-point range in
    the engine. Moment matching checks its moments at the aligned rows only, so
    its β can still overflow at panel states those rows never read."""
