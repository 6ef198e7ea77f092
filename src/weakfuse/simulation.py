"""Simulation study harness: the four-source data-generating process, its
target value `PSI_TRUE`, and a Monte Carlo runner that aggregates bias, variance, and
coverage per scenario and estimator variant."""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import InvalidShape
from .estimator import EstimatorVariant, one_step_estimate
from .gradients import EstimandSpec
from .model import Dataset, FusionDesign
from .nuisance import NuisanceOptions
from .weights import WeightSpec

ALIGNMENT_LEVELS = {
    "fully_aligned": 0.0,
    "strongly_aligned": 0.2,
    "moderately_aligned": 0.5,
    "poorly_aligned": 0.7,
}
SHIFT_KINDS = ("none", "beta_shift")
PSI_TRUE = 1.0 / 6.0       # the arm contrast of Beta means, 2/3 - 1/2, free of z1


def study_design() -> FusionDesign:
    """The four-source design: the target source is aligned everywhere, the
    other three are exponentially tilted in the outcome index with source-
    specific bases, and only indices 1 and 3 matter for the estimand."""
    specs = {
        (3, 2): WeightSpec.tilt(3, ("z1*log(z3)", "z1*z2*log(z3)")),
        (3, 3): WeightSpec.tilt(3, ("z1*log1m(z3)",)),
        (3, 4): WeightSpec.tilt(3, ("z1*z2*log(z3)",)),
    }
    return FusionDesign(
        d=3, k=4, relevant=(1, 3),
        aligned={1: {1}, 2: {1, 2, 3, 4}, 3: {1}},
        weak={3: {2, 3, 4}},
        weight_specs=specs,
    )


@dataclass(frozen=True)
class Scenario:
    """One cell of the study grid."""

    name: str
    epsilon: float
    covariate_shift: str = "none"
    n_per_source: int = 2000
    variants: tuple[str, ...] = (EstimatorVariant().label(),)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.n_per_source < 50:
            raise ValueError("need at least 50 rows per source")
        if self.covariate_shift not in SHIFT_KINDS:
            raise ValueError(f"unknown covariate shift {self.covariate_shift!r}")
        for v in self.variants:
            EstimatorVariant.parse(v)          # fail fast on bad labels

    def content_key(self) -> int:
        """Stable integer identity used in the seed schedule, so adding or
        reordering grid cells never changes another cell's replications."""
        payload = json.dumps({
            "name": self.name,
            "epsilon": self.epsilon,
            "shift": self.covariate_shift,
            "n": self.n_per_source,
        }, sort_keys=True).encode()
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def named_scenario(name: str, covariate_shift: str = "none", n_per_source: int = 2000,
                   variants=None) -> Scenario:
    if name not in ALIGNMENT_LEVELS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(ALIGNMENT_LEVELS)}")
    v = (tuple(x.label() if isinstance(x, EstimatorVariant) else str(x) for x in variants)
         if variants else Scenario.variants)
    return Scenario(name=name, epsilon=ALIGNMENT_LEVELS[name],
                    covariate_shift=covariate_shift, n_per_source=n_per_source,
                    variants=v)


def _beta_from_two_gammas(rng: np.random.Generator, a, b) -> np.ndarray:
    g1 = rng.standard_gamma(a)
    g2 = rng.standard_gamma(b)
    return g1 / (g1 + g2)


def generate_dataset(scenario: Scenario, seed: int, rep: int = 0) -> Dataset:
    """Draw one replication: four sources with fixed per-source sample size.

    Each source reads an independent counter-based stream keyed by
    (seed, scenario content, replication, source), so replications are
    reproducible under any execution order or thread count.
    """
    n = scenario.n_per_source
    eps = scenario.epsilon
    key = scenario.content_key()
    blocks = []
    labels = []
    for s in (1, 2, 3, 4):
        ss = np.random.SeedSequence((seed, key, rep, s))
        rng = np.random.Generator(np.random.Philox(ss))
        if scenario.covariate_shift == "beta_shift":
            z1 = 1.0 + _beta_from_two_gammas(
                rng, np.full(n, 0.5 * (s - 1) + 4.0), np.full(n, 5.0))
        else:
            z1 = 1.0 + rng.random(n)
        z2 = (rng.random(n) < 0.5).astype(float)
        a = (2.0 - eps * (s == 2)) * (z1 + z1 * z2) - eps * (s == 4) * z1 * z2
        b = (2.0 - eps * (s == 3)) * z1
        if np.min(a) <= 0 or np.min(b) <= 0:
            raise InvalidShape(f"nonpositive Beta shape for source {s} at epsilon {eps}")
        z3 = _beta_from_two_gammas(rng, a, b)
        blocks.append(np.column_stack([z1, z2, z3]))
        labels.append(np.full(n, s, dtype=int))
    return Dataset(np.vstack(blocks), np.concatenate(labels), k=4)


@dataclass
class ReplicateRecord:
    scenario: str
    shift: str
    variant: str
    rep: int
    estimate: float
    se: float
    ci_lo: float
    ci_hi: float
    beta: list[float]
    flags: list[str]


@dataclass
class SummaryRow:
    scenario: str
    shift: str
    variant: str
    reps: int
    bias2_e5: float
    var_e5: float
    coverage: float
    mean_beta: list[float]
    sd_beta: list[float] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def csv_values(self) -> list[str]:
        """Each field as a CSV cell: a number by `repr` and text as is; a
        list's items are written the same way and joined by `;`."""
        return [";".join(x if isinstance(x, str) else repr(x)
                         for x in (v if isinstance(v, list) else (v,)))
                for v in astuple(self)]


CSV_HEADER = ",".join(f.name for f in fields(SummaryRow))


def summary_to_csv(rows: list[SummaryRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(r.csv_values()))
    return "\n".join(lines) + "\n"


def _run_one(scenario: Scenario, variant: EstimatorVariant, rep: int, master_seed: int,
             options: NuisanceOptions | None) -> ReplicateRecord:
    data = generate_dataset(scenario, master_seed, rep)
    estimand = EstimandSpec("ate")
    report = one_step_estimate(data, study_design(), estimand, variant=variant,
                               options=options, seed_value=master_seed)
    return ReplicateRecord(
        scenario=scenario.name, shift=scenario.covariate_shift, variant=variant.label(),
        rep=rep, estimate=report.estimate, se=report.se,
        ci_lo=report.ci_lo, ci_hi=report.ci_hi, beta=report.beta,
        flags=list(report.flags),
    )


def run_monte_carlo(grid, reps: int, master_seed: int,
                    options: NuisanceOptions | None = None,
                    threads: int = 1,
                    keep_replicates: bool = False):
    """Run the study grid; returns SummaryRow list, plus the per-replication
    records when `keep_replicates`. Replication failures are excluded from the
    aggregates with a flag; a cell aborts if more than 5% of its reps fail."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    rows: list[SummaryRow] = []
    records: list[ReplicateRecord] = []
    for scenario in grid:
        for vlabel in scenario.variants:
            variant = EstimatorVariant.parse(vlabel)
            cell: list[ReplicateRecord] = []
            failures: list[str] = []
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futs = [pool.submit(_run_one, scenario, variant, r, master_seed, options)
                        for r in range(reps)]
                for r, f in enumerate(futs):
                    try:
                        cell.append(f.result())
                    except Exception as exc:
                        failures.append(f"rep{r}:{type(exc).__name__}")
            if len(failures) > 0.05 * reps:
                raise RuntimeError(
                    f"{len(failures)}/{reps} replications failed for "
                    f"{scenario.name}/{variant.label()}: {failures[:3]}")
            est = np.array([rec.estimate for rec in cell])
            cover = np.array([rec.ci_lo <= PSI_TRUE <= rec.ci_hi for rec in cell])
            flags = sorted(set(fl for rec in cell for fl in rec.flags))
            if failures:
                flags.append(f"failed:{len(failures)}")
            if est.size > 1:
                var = float(est.var(ddof=1))
            else:
                var = float("nan")
                flags.append("var_undefined")
            bias2 = float((est.mean() - PSI_TRUE) ** 2)
            betas = np.array([rec.beta for rec in cell], dtype=float)
            mean_beta = [float(v) for v in betas.mean(axis=0)] if betas.size else []
            if betas.size and est.size > 1:
                sd_beta = [float(v) for v in betas.std(axis=0, ddof=1)]
            else:
                sd_beta = []
            rows.append(SummaryRow(
                scenario=scenario.name, shift=scenario.covariate_shift,
                variant=variant.label(), reps=int(est.size),
                bias2_e5=bias2 * 1e5,
                var_e5=var * 1e5,
                coverage=float(cover.mean()),
                mean_beta=mean_beta, sd_beta=sd_beta, flags=flags,
            ))
            if keep_replicates:
                records.extend(cell)
    if keep_replicates:
        return rows, records
    return rows
