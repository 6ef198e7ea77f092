"""One-step estimation pipeline: estimator variants, confidence intervals,
and the reportable result object."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .betafit import moment_match_beta, one_step_beta
from .errors import BadLevel, NegativeDelta
from .gradients import (
    EstimandSpec,
    efficient_gradient,
    gradient_aligned_only,
    seed_gradient,
)
from .model import BetaParam, FusionDesign, layout_from_design, validate_design
from .nuisance import NuisanceOptions, fit_nuisance_bundle
from .weights import WeightSpec, complex_family

_VARIANT_KINDS = ("target_only", "naive_fusion", "efficient_fusion", "overparametrized")


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
            raise ValueError(f"unknown variant {self.kind!r}")
        if self.kind != "overparametrized" and self.extra_terms:
            raise ValueError("extra_terms only applies to the overparametrized variant")
        if self.kind == "overparametrized" and self.extra_terms < 1:
            raise ValueError("overparametrized variant needs extra_terms >= 1")

    def label(self) -> str:
        if self.kind == "overparametrized":
            return f"overparametrized+{self.extra_terms}"
        return self.kind

    @classmethod
    def parse(cls, label: str) -> "EstimatorVariant":
        label = label.strip()
        if label.startswith("overparametrized+"):
            return cls("overparametrized", extra_terms=int(label.split("+", 1)[1]))
        return cls(label)


def apply_variant(design: FusionDesign, variant: EstimatorVariant) -> FusionDesign:
    """Design actually handed to the fitting pipeline under a variant."""
    if variant.kind == "efficient_fusion":
        return design
    if variant.kind == "target_only":
        aligned = {j: frozenset({1}) for j in range(1, design.d + 1)}
        return FusionDesign(d=design.d, k=design.k, relevant=design.relevant,
                            aligned=aligned, weak={}, weight_specs={})
    if variant.kind == "naive_fusion":
        aligned = {j: design.sources_at(j) or frozenset({1})
                   for j in range(1, design.d + 1)}
        return FusionDesign(d=design.d, k=design.k, relevant=design.relevant,
                            aligned=aligned, weak={}, weight_specs={})
    specs = {}
    for (j, s) in design.weak_pairs():
        spec = design.spec_for(j, s)
        if spec.family != "exponential_tilt":
            specs[(j, s)] = spec
            continue
        have = [t.text() for t in spec.terms]
        pool = [t for t in complex_family(j) if t.text() not in have]
        extra = pool[:variant.extra_terms]
        specs[(j, s)] = WeightSpec("exponential_tilt", j, spec.terms + tuple(extra))
    return FusionDesign(d=design.d, k=design.k, relevant=design.relevant,
                        aligned=dict(design.aligned), weak=dict(design.weak),
                        weight_specs=specs)


def _norm_quantile(p: float) -> float:
    """Standard normal quantile, rational approximation polished by two
    Newton corrections through the complementary error function."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    plow = 0.02425
    if p < plow:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - plow:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    for _ in range(2):
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        x -= (cdf - p) / pdf
    return x


def wald_interval(estimate: float, se: float, level: float = 0.95) -> tuple[float, float]:
    """Symmetric normal-theory interval at the given two-sided level."""
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise BadLevel(f"confidence level must be in (0, 1), got {level!r}")
    z = _norm_quantile(0.5 + level / 2.0)
    return estimate - z * se, estimate + z * se


def sensitivity_interval(estimate: float, se: float, delta: float,
                         level: float = 0.95) -> tuple[float, float]:
    """Wald interval widened by ±delta to cover bounded alignment violations."""
    if delta < 0:
        raise NegativeDelta(f"sensitivity radius must be nonnegative, got {delta}")
    lo, hi = wald_interval(estimate, se, level)
    return lo - delta, hi + delta


@dataclass
class EstimateReport:
    """One estimation run, with everything needed to report or re-run it."""

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
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "se": self.se,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "level": self.level,
            "variant": self.variant,
            "beta": list(self.beta),
            "beta_se": list(self.beta_se),
            "n_per_source": {str(k): int(v) for k, v in sorted(self.n_per_source.items())},
            "clip_counts": {k: int(v) for k, v in sorted(self.clip_counts.items())},
            "seed": self.seed,
        }
        out.update(self.extras)
        return out


def one_step_estimate(data, design: FusionDesign, estimand: EstimandSpec,
                      variant: EstimatorVariant | None = None,
                      options: NuisanceOptions | None = None,
                      level: float = 0.95,
                      beta0: BetaParam | None = None,
                      seed_value: int | None = None) -> EstimateReport:
    """Full pipeline: fit nuisances, estimate shift parameters when the
    variant keeps any, and return the one-step estimate with a Wald interval.

    `extras["flags"]` names every fallback that fired: the fit-time flags
    of the nuisance bundle, `UserWarning` for a validation note,
    `NoConvergence` from the moment match, and the flags of both engine
    passes. `clip_counts` are the counts of the seeded pass at β̂.
    """
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise BadLevel(f"confidence level must be in (0, 1), got {level!r}")
    variant = variant or EstimatorVariant()
    design_v = apply_variant(design, variant)
    validation = validate_design(design_v, data)
    bundle = fit_nuisance_bundle(data, design_v, estimand, options)
    seed = seed_gradient(estimand, bundle)
    flags = set(bundle.flags)
    if validation.warnings:
        flags.add("UserWarning")

    if design_v.weak_pairs():
        mm = moment_match_beta(bundle, beta0)
        if not mm.all_converged:
            flags.add("NoConvergence")
        osb = one_step_beta(bundle, mm.beta)
        beta_hat = osb.beta
        beta_se = osb.se
        eg = efficient_gradient(seed, beta_hat, bundle)
        rows = eg["rows"]
        fixed_rows = eg["fixed_beta_rows"]
        flags |= osb.flags | eg["flags"]
        clip_counts = eg["clip_counts"]
    else:
        layout = layout_from_design(design_v)
        beta_hat = BetaParam.zeros(layout)
        beta_se = np.zeros(0)
        rows = gradient_aligned_only(seed, bundle)
        fixed_rows = rows
        clip_counts = {}

    n = data.n
    estimate = seed.plugin + float(rows.mean())
    se = float(rows.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    ci_lo, ci_hi = wald_interval(estimate, se, level)
    overlap = {}
    for j in design_v.relevant:
        rf = bundle.ratio_fits(j)
        for s in rf.sources:
            diag = rf.overlap_diagnostics(s)
            if diag is not None and j > 1:
                overlap[f"{j},{s}"] = [diag.min_ratio, diag.max_ratio, diag.frac_clipped]
    extras = {
        "plugin": seed.plugin,
        "gradient_variances": {
            "efficient": float(rows.var(ddof=1)) if n > 1 else float("nan"),
            "fixed_beta": float(fixed_rows.var(ddof=1)) if n > 1 else float("nan"),
        },
        "flags": sorted(flags),
        "overlap": overlap,
    }
    return EstimateReport(
        estimate=estimate,
        se=se,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        level=level,
        variant=variant.label(),
        beta=[float(v) for v in beta_hat.values],
        beta_se=[float(v) for v in np.asarray(beta_se)],
        n_per_source={s: int(c) for s, c in data.source_counts().items()},
        clip_counts=clip_counts,
        seed=seed_value,
        extras=extras,
    )
