"""The three workloads: how their inputs are generated from the seed, what one
call of the closed loop does, and how each output is checked.

A workload object is built twice: in the driver, where `prepare` writes the
inputs, and in the worker process, where `warmup`, `call` and `collect` run.
Nothing here imports weakfuse at module level; the worker times that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

DEFAULT_SEED = 1
DEFAULT_ROWS = 2000          # rows per source; 4 sources
N_INPUTS = 16                # CSVs per CLI workload, cycled; coprime with 3
MC_CELLS = 8                 # distinct Monte Carlo cells, cycled
MC_REPS = 6                  # per variant: three tasks per thread at threads=2
MC_WARMUP_REPS = 2           # one task per thread, every variant
MC_VARIANTS = ("target_only", "naive_fusion", "efficient_fusion")
FLAG_CELLS = 2               # cells re-run at threads=1 for the flags check
DELTA_GRID = "0:0.05:0.0001"  # 501 rows
WARMUP_SEED = 999_999        # the warm-up input does not depend on --seed
TOL = 1e-12                  # |a - b| <= TOL * max(1, |ref|), natural units


class CheckFailure(Exception):
    pass


# ----------------------------------------------------------------- checks ---

def close(a, b, path="") -> None:
    """Raise CheckFailure unless a matches reference b within TOL."""
    if isinstance(b, dict):
        if not isinstance(a, dict) or set(a) != set(b):
            raise CheckFailure(f"{path}: keys differ")
        for k in b:
            close(a[k], b[k], f"{path}.{k}")
    elif isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            raise CheckFailure(f"{path}: length differs")
        for i, (x, y) in enumerate(zip(a, b)):
            close(x, y, f"{path}[{i}]")
    elif isinstance(b, str):
        if a != b:
            raise CheckFailure(f"{path}: {a!r} != {b!r}")
    elif isinstance(b, int) and not isinstance(b, bool):
        if a != b:
            raise CheckFailure(f"{path}: {a} != {b}")
    else:
        if math.isnan(b) and math.isnan(a):
            return
        if not abs(a - b) <= TOL * max(1.0, abs(b)):
            raise CheckFailure(f"{path}: {a!r} != {b!r}")


def check_interval(d: dict, what: str) -> None:
    est, se, lo, hi = d["estimate"], d["se"], d["ci_lo"], d["ci_hi"]
    if not math.isfinite(est):
        raise CheckFailure(f"{what}: estimate not finite")
    if not se > 0:
        raise CheckFailure(f"{what}: se {se} not positive")
    if not lo <= est <= hi:
        raise CheckFailure(f"{what}: estimate outside [ci_lo, ci_hi]")


class Checker:
    """Checks each output against the stored reference (default seed and size)
    or, for other seeds, against the invariants and against the first output
    of the same input in this run."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, object] = {}

    def expect(self, key: str, digest) -> None:
        if self.reference is not None:
            if key not in self.reference:
                raise CheckFailure(f"{key}: no reference")
            close(digest, self.reference[key], key)
        elif key in self.first:
            close(digest, self.first[key], key)
        else:
            self.first[key] = digest


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_study_csv(data, path: str) -> None:
    lines = ["z1,z2,z3,source"]
    for row, s in zip(data.z.tolist(), data.source.tolist()):
        lines.append(",".join([repr(v) for v in row] + [str(s)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def report_digest(text: str) -> dict:
    rep = json.loads(text)
    d = {k: float(rep[k]) for k in ("estimate", "se", "ci_lo", "ci_hi")}
    d["beta"] = [float(v) for v in rep["beta"]]
    d["beta_se"] = [float(v) for v in rep["beta_se"]]
    check_interval(d, "report")
    return d


def sensitivity_digest(text: str) -> dict:
    """Check every row against the delta = 0 row; digest that row."""
    lines = text.strip().split("\n")
    if lines[0] != "delta,estimate,se,ci_lo,ci_hi,width,target_only_width":
        raise CheckFailure("sensitivity: unexpected header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or rows[0][0] != 0.0:
        raise CheckFailure("sensitivity: grid does not start at 0")
    _, est, se, lo0, hi0, _, tw = rows[0]
    prev = -1.0
    for i, (dlt, e, s, lo, hi, width, t) in enumerate(rows):
        if not dlt > prev or (e, s, t) != (est, se, tw):
            raise CheckFailure(f"sensitivity row {i}: inconsistent")
        for got, want in ((lo + dlt, lo0), (hi - dlt, hi0), (width, hi - lo)):
            if not abs(got - want) <= TOL * max(1.0, abs(want)):
                raise CheckFailure(f"sensitivity row {i}: interval not widened by delta")
        prev = dlt
    d = {"estimate": est, "se": se, "ci_lo": lo0, "ci_hi": hi0,
         "target_only_width": tw, "rows": len(rows), "last_delta": rows[-1][0]}
    check_interval(d, "sensitivity")
    if not tw > 0:
        raise CheckFailure("sensitivity: target-only width not positive")
    return d


# -------------------------------------------------------------- workloads ---

class _CliWorkload:
    """One client calling weakfuse.cli.main in-process on study CSVs."""

    ops_per_call = 1

    def __init__(self, spec: dict):
        self.spec = spec
        self.workdir = spec["workdir"]

    def prepare(self, wf, seed: int, rows: int) -> dict:
        """Write configs and CSVs; return what the worker needs."""
        cfg_path = os.path.join(self.workdir, "config_efficient_fusion.json")
        with contextlib.redirect_stderr(io.StringIO()):
            if wf.cli.main(["config-dump", "--out", cfg_path]) != 0:
                raise RuntimeError("config-dump failed")
        with open(cfg_path, encoding="utf-8") as fh:
            base = json.load(fh)
        configs = {"efficient_fusion": cfg_path}
        for kind in ("target_only", "naive_fusion"):
            cfg = dict(base, variant={"kind": kind, "extra_terms": 0})
            configs[kind] = os.path.join(self.workdir, f"config_{kind}.json")
            with open(configs[kind], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
        scenario = wf.simulation.named_scenario("moderately_aligned", n_per_source=rows)
        inputs = []
        for i in range(N_INPUTS):
            path = os.path.join(self.workdir, f"input_{i:02d}.csv")
            write_study_csv(wf.simulation.generate_dataset(scenario, seed, i), path)
            inputs.append(path)
        warm = os.path.join(self.workdir, "warmup.csv")
        write_study_csv(wf.simulation.generate_dataset(scenario, WARMUP_SEED, 0), warm)
        return {"configs": configs, "inputs": inputs, "warmup_input": warm,
                "input_sha256": [sha256_file(p) for p in inputs]}

    def start(self, wf):
        self.main = wf.cli.main

    def _argv(self, command: str, data: str) -> tuple[list[str], str]:
        cfgs = self.spec["configs"]
        if command == "sensitivity":
            out = os.path.join(self.workdir, "out.csv")
            return (["sensitivity", "--config", cfgs["naive_fusion"], "--data", data,
                     "--delta-grid", DELTA_GRID, "--out", out], out)
        out = os.path.join(self.workdir, "out.json")
        return ["estimate", "--config", cfgs[command], "--data", data, "--out", out], out

    def _run(self, argv, tracer):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if tracer is None:
                code = self.main(argv)
            else:
                code = tracer.call("cli.main", self.main, (argv,), opens_op=True)
        return code, err.getvalue()

    def warmup(self):
        argv, _ = self._argv(self.commands[-1], self.spec["warmup_input"])
        code, err = self._run(argv, None)
        if code != 0:
            raise RuntimeError(f"warm-up op exited {code}: {err.strip()}")

    def call(self, i: int, tracer=None):
        command = self.commands[i % len(self.commands)]
        data_idx = i % N_INPUTS
        argv, out = self._argv(command, self.spec["inputs"][data_idx])
        code, err = self._run(argv, tracer)
        return command, data_idx, out, code, err

    def collect(self, handle) -> dict:
        """Read one call's output: {key, code, err, text}."""
        command, data_idx, out, code, err = handle
        text = None
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        return {"key": f"{command}:{data_idx}", "code": code, "err": err.strip(),
                "text": text}

    def check(self, out: dict, checker: Checker) -> tuple[int, list[str]]:
        """Number of failed ops in one call, and why."""
        if out["code"] != 0:
            return 1, [f"{out['key']}: exit {out['code']}: {out['err']}"]
        digest = sensitivity_digest if out["key"].startswith("sensitivity") \
            else report_digest
        try:
            checker.expect(out["key"], digest(out["text"]))
        except (CheckFailure, ValueError, KeyError, json.JSONDecodeError) as exc:
            return 1, [f"{out['key']}: {exc}"]
        return 0, []

    def flag_divergence(self, outs, reference_flags) -> int:
        return 0                 # one thread: nothing to diverge from


class CliEstimateEfficient(_CliWorkload):
    commands = ("efficient_fusion",)


class CliAlignedSweep(_CliWorkload):
    commands = ("target_only", "naive_fusion", "sensitivity")


class McStudySlice:
    """run_monte_carlo on one 3-variant cell of MC_REPS reps per call, with
    threads = nproc, cycling through MC_CELLS cells over the four alignment
    levels. One op is one replicate-variant estimate."""

    ops_per_call = MC_REPS * len(MC_VARIANTS)

    def __init__(self, spec: dict):
        self.spec = spec

    @staticmethod
    def cells(seed: int) -> list[tuple[str, int]]:
        levels = ("fully_aligned", "strongly_aligned", "moderately_aligned",
                  "poorly_aligned")
        return [(levels[c % len(levels)], seed * MC_CELLS + c) for c in range(MC_CELLS)]

    def prepare(self, wf, seed: int, rows: int) -> dict:
        """The replicates are generated inside run_monte_carlo; record their
        hashes so a change to generate_dataset shows as changed input."""
        shas = []
        for level, master in self.cells(seed):
            scenario = wf.simulation.named_scenario(level, n_per_source=rows)
            for rep in range(MC_REPS):
                data = wf.simulation.generate_dataset(scenario, master, rep)
                shas.append(hashlib.sha256(data.z.tobytes() + data.source.tobytes()).hexdigest())
        return {"cells": self.cells(seed), "warmup_cell": ("fully_aligned", WARMUP_SEED),
                "input_sha256": shas}

    def start(self, wf):
        self.wf = wf

    def _scenario(self, level: str):
        return self.wf.simulation.named_scenario(
            level, n_per_source=self.spec["rows"], variants=list(MC_VARIANTS))

    def run_cell(self, cell, threads: int, tracer=None, reps: int = MC_REPS):
        level, master = cell
        args = ([self._scenario(level)],)
        kwargs = {"reps": reps, "master_seed": master, "threads": threads,
                  "keep_replicates": True}
        run = self.wf.simulation.run_monte_carlo
        if tracer is None:
            return run(*args, **kwargs)
        return tracer.call("simulation.run_monte_carlo", run, args, kwargs)

    def warmup(self):
        self.run_cell(self.spec["warmup_cell"], self.spec["threads"], reps=MC_WARMUP_REPS)

    def call(self, i: int, tracer=None):
        cell_idx = i % MC_CELLS
        try:
            result = self.run_cell(self.spec["cells"][cell_idx], self.spec["threads"], tracer)
        except RuntimeError as exc:      # raised when a cell loses too many reps
            result = exc
        return cell_idx, result

    @staticmethod
    def records_digest(rows, records) -> dict:
        out = {}
        for r in rows:
            out[f"summary:{r.variant}"] = {
                "reps": r.reps, "bias2": r.bias2_e5 * 1e-5, "var": r.var_e5 * 1e-5,
                "coverage": r.coverage, "mean_beta": r.mean_beta, "sd_beta": r.sd_beta}
        for rec in records:
            out[f"{rec.variant}:{rec.rep}"] = {
                "estimate": rec.estimate, "se": rec.se, "ci_lo": rec.ci_lo,
                "ci_hi": rec.ci_hi, "beta": list(rec.beta)}
        return out

    @staticmethod
    def flags_of(records) -> dict:
        return {f"{rec.variant}:{rec.rep}": sorted(rec.flags) for rec in records}

    def collect(self, handle) -> dict:
        cell_idx, result = handle
        if isinstance(result, Exception):
            return {"key": f"cell:{cell_idx}", "error": str(result)}
        rows, records = result
        return {"key": f"cell:{cell_idx}", "digest": self.records_digest(rows, records),
                "flags": self.flags_of(records)}

    def check(self, out: dict, checker: Checker) -> tuple[int, list[str]]:
        if "error" in out:
            return self.ops_per_call, [f"{out['key']}: {out['error']}"]
        digest = out["digest"]
        failed, why = 0, []
        for variant in MC_VARIANTS:
            for rep in range(MC_REPS):
                name = f"{variant}:{rep}"
                try:
                    if name not in digest:
                        raise CheckFailure("replicate missing")
                    check_interval(digest[name], name)
                except CheckFailure as exc:
                    failed += 1
                    why.append(f"{out['key']} {name}: {exc}")
        if failed == 0:
            try:
                checker.expect(out["key"], digest)
            except CheckFailure as exc:
                return self.ops_per_call, [str(exc)]
        return failed, why

    def flag_divergence(self, outs, reference_flags) -> int:
        """Replicates whose threaded flags differ from a threads=1 run. The
        stored reference covers every cell of the default seed; for other
        seeds the first FLAG_CELLS cells are re-run at threads=1 here,
        untimed, to bound the cost of the traced run."""
        if reference_flags is None:
            reference_flags = {}
            for idx in range(min(FLAG_CELLS, MC_CELLS)):
                _, records = self.run_cell(self.spec["cells"][idx], threads=1)
                reference_flags[f"cell:{idx}"] = self.flags_of(records)
        diverged = 0
        for out in outs:
            ref = reference_flags.get(out["key"])
            if ref is not None and "flags" in out:
                diverged += sum(1 for k, v in out["flags"].items() if ref.get(k) != v)
        return diverged


WORKLOADS = {
    "cli_estimate_efficient": CliEstimateEfficient,
    "mc_study_slice": McStudySlice,
    "cli_aligned_sweep": CliAlignedSweep,
}
