"""One-step estimation pipeline: estimator variants, confidence intervals,
and the reportable result object."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from statistics import NormalDist

import numpy as np

from .betafit import moment_match_beta
from .errors import BadLevel, ParseError, StructuralError
from .gradients import EstimandSpec, compute_pass, seed_gradient
from .model import FusionDesign, validate_design
from .nuisance import NuisanceOptions, fit_nuisance_bundle
from .weights import WeightSpec, complex_family

_LEVEL = 0.95       # the default two-sided confidence level
_VARIANT_KINDS = ("target_only", "naive_fusion", "efficient_fusion", "overparametrized")
# the report's numbers that an estimate must give as finite values, in report order
_FINITE_FIELDS = ("estimate", "se", "ci_lo", "ci_hi", "beta", "beta_se", "plugin",
                  "gradient_variances")


@dataclass(frozen=True)
class EstimatorVariant:
    """How the declared design is used.

    target_only      discard every non-target source (source 1 is the target)
    naive_fusion     treat weakly aligned sources as if fully aligned
    efficient_fusion the design as declared
    overparametrized efficient fusion with `extra_terms` redundant tilt terms
                     appended to every weak weight model
    """

    kind: str = "efficient_fusion"
    extra_terms: int = 0

    def __post_init__(self):
        if self.kind not in _VARIANT_KINDS:
            raise ParseError(f"unknown variant {self.kind!r}")
        if self.kind != "overparametrized" and self.extra_terms:
            raise ParseError("extra_terms only applies to the overparametrized variant")
        if self.kind == "overparametrized" and self.extra_terms < 1:
            raise ParseError("overparametrized variant needs extra_terms >= 1")

    def label(self) -> str:
        if self.kind == "overparametrized":
            return f"overparametrized+{self.extra_terms}"
        return self.kind

    @classmethod
    def parse(cls, label: str) -> "EstimatorVariant":
        label = label.strip()
        if label.startswith("overparametrized+"):
            try:
                return cls("overparametrized", extra_terms=int(label.split("+", 1)[1]))
            except ValueError:
                raise ParseError(f"variant {label!r}: the count after '+' is not an integer") from None
        return cls(label)


def apply_variant(design: FusionDesign, variant: EstimatorVariant) -> FusionDesign:
    """Design actually handed to the fitting pipeline under a variant. An
    `overparametrized+N` whose N exceeds the terms of `complex_family` that
    some tilt model does not already hold raises StructuralError."""
    if variant.kind == "efficient_fusion":
        return design
    if variant.kind == "target_only":
        aligned = {j: frozenset({1}) for j in range(1, design.d + 1)}
        return replace(design, aligned=aligned, weak={}, weight_specs={})
    if variant.kind == "naive_fusion":
        aligned = {j: design.sources_at(j) or frozenset({1})
                   for j in range(1, design.d + 1)}
        return replace(design, aligned=aligned, weak={}, weight_specs={})
    specs = {}
    for (j, s), spec in design.weight_specs:
        if spec.family == "exponential_tilt":
            have = [t.text() for t in spec.terms]
            pool = [t for t in complex_family(j) if t.text() not in have]
            if variant.extra_terms > len(pool):
                raise StructuralError(f"{variant.label()}: the weight model of pair ({j}, {s}) "
                                      f"has only {len(pool)} unused terms to append")
            spec = WeightSpec("exponential_tilt", j, spec.terms + tuple(pool[:variant.extra_terms]))
        specs[(j, s)] = spec
    return replace(design, weight_specs=specs)


def wald_interval(estimate: float, se: float, level: float = _LEVEL) -> tuple[float, float]:
    """Symmetric normal-theory interval at the given two-sided level."""
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise BadLevel(f"confidence level must be in (0, 1), got {level!r}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return estimate - z * se, estimate + z * se


@dataclass
class EstimateReport:
    """One estimation run, with everything needed to report or re-run it.

    `gradient_variances` holds the sample variances of the efficient rows and
    of the rows at fixed β; `overlap` maps each "j,s" pair at an index j > 1
    with weak sources to the range of its fitted density ratio and the
    fraction of rows clipped (indices whose sources are all aligned fit no
    ratio, so `target_only` and `naive_fusion` report none)."""

    estimate: float
    se: float
    ci_lo: float
    ci_hi: float
    level: float
    variant: str
    beta: list[float]
    beta_se: list[float]
    n_per_source: dict[int, int]
    clip_counts: dict[str, int]
    plugin: float
    gradient_variances: dict[str, float]
    flags: list[str]
    overlap: dict[str, list[float]]
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["n_per_source"] = {str(k): v for k, v in sorted(self.n_per_source.items())}
        return out


def one_step_estimate(data, design: FusionDesign, estimand: EstimandSpec,
                      variant: EstimatorVariant | None = None,
                      options: NuisanceOptions | None = None,
                      level: float = _LEVEL,
                      seed_value: int | None = None) -> EstimateReport:
    """Full pipeline: fit nuisances, estimate the shift parameters the
    variant keeps (none for `target_only` and `naive_fusion`), and return the
    one-step estimate with a Wald interval.

    The report's `flags` name every fallback that fired, by the stage that
    raised it: `UserWarning` for a validation note; the bundle's fit-time
    `SingularBandwidth` and ratio `SeparationWarning`; the seed's propensity
    `SeparationWarning`; `NoConvergence` from the moment match; and the
    engine passes' flags. `clip_counts` are the counts of the seeded pass at β̂.
    Data that give a report number that is not finite (such as a moment that
    overflows) raise StructuralError naming the first such field.
    """
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise BadLevel(f"confidence level must be in (0, 1), got {level!r}")
    variant = variant or EstimatorVariant()
    design_v = apply_variant(design, variant)
    notes = validate_design(design_v, data)
    bundle = fit_nuisance_bundle(data, design_v, options)
    seed = seed_gradient(estimand, bundle)
    flags = set(bundle.flags | seed.flags)
    if notes:
        flags.add("UserWarning")

    mm = moment_match_beta(bundle)
    if not mm.all_converged:
        flags.add("NoConvergence")
    first = compute_pass(bundle, mm.beta)
    beta, beta_se = first.newton_step()
    flags |= first.flags
    del first       # released before the seeded pass allocates its own arrays
    final = compute_pass(bundle, beta, seed)
    rows = final.efficient_rows()
    flags |= final.flags

    estimate = seed.plugin + float(rows.mean())
    # n >= 5, since a kernel panel needs 5 training rows
    se = float(rows.std(ddof=1) / math.sqrt(data.n))
    ci_lo, ci_hi = wald_interval(estimate, se, level)
    overlap = {}
    for j, rf in bundle.ratios.items():
        for s in rf.sources:
            diag = rf.overlap_diagnostics(s)
            if diag is not None and j > 1:
                overlap[f"{j},{s}"] = [diag.min_ratio, diag.max_ratio, diag.frac_clipped]
    report = EstimateReport(
        estimate=estimate,
        se=se,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        level=level,
        variant=variant.label(),
        beta=[float(v) for v in beta.values],
        beta_se=[float(v) for v in beta_se],
        n_per_source={s: int(c) for s, c in data.source_counts().items()},
        clip_counts=final.clip_counts,
        plugin=seed.plugin,
        gradient_variances={
            "efficient": float(rows.var(ddof=1)),
            "fixed_beta": float(final.dtilde.var(ddof=1)),
        },
        flags=sorted(flags),
        overlap=overlap,
        seed=seed_value,
    )
    for name in _FINITE_FIELDS:
        value = getattr(report, name)
        if not np.all(np.isfinite(list(value.values()) if isinstance(value, dict) else value)):
            raise StructuralError(f"the data give no finite estimate: {name} is {value}")
    return report
