"""Benchmark driver for weakfuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver pins the BLAS thread count to 1,
writes the workload's inputs (generated from --seed) under .perfbench_work/,
and starts each workload process fresh. With --trace 0 it prints every
end-to-end metric; with --trace 1 it runs a separate traced pass and prints
every per-layer metric. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give every
metric with its unit and sample count, the machine, and the input hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0
SETUPS = 3                   # per untraced run; setup_s is their median


def load_benchmark() -> dict:
    """BENCHMARK.json: workload reasons and metric names, units, directions."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--rows", type=int, default=workloads.DEFAULT_ROWS,
                   help="rows per source (the self-test uses a tiny size)")
    return p.parse_args(argv)


def load_weakfuse(src: Path):
    sys.path.insert(0, str(src))
    import weakfuse
    import weakfuse.cli  # noqa: F401
    import weakfuse.simulation  # noqa: F401
    return weakfuse


def run_worker(spec_path: Path, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(time.time())]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("time limit reached before the workload process started")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "weakfuse" / "__init__.py").is_file():
        print(f"error: no weakfuse sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_PINS:
        os.environ[var] = "1"
    wf = load_weakfuse(src)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wf, src, workdir, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wf, src: Path, workdir: Path, deadline: float) -> int:
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rows": args.rows, "src": str(src),
            "workdir": str(workdir),
            "threads": len(os.sched_getaffinity(0)) if args.workload == "mc_study_slice" else 1,
            "spans_out": str(ROOT / ".perfbench_work" /
                             f"spans-{args.workload}-seed{args.seed}.json")}
    cls = workloads.WORKLOADS[args.workload]
    spec.update(cls(spec).prepare(wf, args.seed, args.rows))

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    notes = []
    if args.seed == reference["seed"] and args.rows == reference["rows"]:
        spec["reference"] = reference["workloads"][args.workload]
        check = f"outputs compared with stored reference, tolerance {workloads.TOL:g}"
        if spec["input_sha256"] != spec["reference"]["input_sha256"]:
            notes.append("generated inputs differ from the reference inputs: "
                         "generate_dataset changed, so outputs will not match")
    else:
        check = ("invariants (finite estimate, se > 0, ci_lo <= estimate <= ci_hi) "
                 "and repeat runs of one input agree within tolerance")
    spec_path = workdir / "spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(run_worker(spec_path, deadline, setup_only=True)["setup_s"])
    res = run_worker(spec_path, deadline, setup_only=False)
    setups.append(res["setup_s"])

    bench = load_benchmark()
    names = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    missing = [n for n in names if n not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    report(args, spec, res, values, names, why, len(setups), check, notes)
    attempted, failed = res["attempted"], res["failed"]
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": values[n], "unit": m["unit"]} for n, m in names.items()}}
    print(json.dumps(out))
    return 0


def report(args, spec, res, values, names, why, n_setups, check, notes):
    env = res["environment"]
    pins = " ".join(f"{k}={v}" for k, v in env["threads_env"].items())
    print(f"workload {args.workload}: {why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{args.rows} rows per source, threads {spec['threads']}")
    print(f"machine: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']} {env['blas_version']}, {pins}")
    for i, sha in enumerate(spec["input_sha256"]):
        print(f"input {i:02d} sha256 {sha}")
    print(f"output check: {check}")
    for note in notes:
        print(f"note: {note}")
    s = res["samples"]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        print(f"traced run: {s['ops']} ops; untraced {s['untraced_s']:.4f} s, "
              f"traced {s['traced_s']:.4f} s for the same calls")
        for site in res["not_traced"]:
            print(f"not traced: {site}")
        for site in res["count_errors"]:
            print(f"counts not read: {site}")
        for name, shape in sorted(s["per_op_counts"].items()):
            print(f"per-op {name}: {shape} (value: ops)")
        for name, m in names.items():
            print(f"  {name:38s} {values[name]:>14.6g} {m['unit']:7s} "
                  f"moves {metrics.MOVES[name]}")
    else:
        n = s["latency_samples"]
        per = "per call / ops per call" if spec["workload"] == "mc_study_slice" else "per op"
        detail = {
            "setup_s": f"median of {n_setups} set-ups",
            "op_p50_s": f"median of {n} latencies ({per})",
            "op_p90_s": f"of {n} latencies, {s['beyond_p90']} beyond",
            "ops_per_s": f"{s['ops']} ops in {s['timed_s']:.3f} s",
            "cpu_s_per_op": f"{s['ops']} ops",
            "peak_rss_mb": "workload process and its children",
        }
        for name, m in names.items():
            print(f"  {name:14s} {values[name]:>12.6g} {m['unit']:5s} ({detail[name]})")
        print(f"  {'failed_frac':14s} {failed / attempted:>12.6g} ratio ({failed}/{attempted})")
    for reason in res["failures"]:
        print(f"failed: {reason}")


if __name__ == "__main__":
    sys.exit(main())
