"""Self-test of the benchmark. Runs every workload at a tiny size, traced and
untraced, and checks that:

- every metric of BENCHMARK.json is emitted with its unit, and every
  per-layer metric has an entry in metrics.MOVES;
- in the traced run, the self times of each op's spans sum to no more than
  the op's wall time;
- every op of cli_aligned_sweep makes no compute_pass call, and every op of
  cli_estimate_efficient makes exactly 4 with 3 cache misses, at the tiny
  size and at the default size;
- a wrap-table site that does not exist is reported, not raised;
- the driver fails without a result where the weakfuse sources are missing.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict

import metrics
import run
import tracer
import workloads

SEED = 2
ROWS = 100
BENCH = run.load_benchmark()


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def result_of(workload: str, trace: int, rows: int = ROWS) -> dict:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--rows", str(rows))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["attempted"] >= 1 and res["failed"] == 0, proc.stdout
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(res["metrics"]) == set(units), sorted(set(res["metrics"]) ^ set(units))
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name], (name, m)
    return res


def check_spans(workload: str):
    """Self times within op wall time; per-op compute_pass calls and misses."""
    path = run.ROOT / ".perfbench_work" / f"spans-{workload}-seed{SEED}.json"
    with open(path, encoding="utf-8") as fh:
        spans = [tracer.Span(**s) for s in json.load(fh)["spans"]]
    own = tracer.self_times(spans)
    per_op, wall = defaultdict(float), {}
    passes = defaultdict(lambda: [0, 0])
    for s in spans:
        if s.op is None:
            continue
        per_op[s.op] += own[s.id]
        passes[s.op][0] += s.counts.get("compute_pass_calls", 0)
        passes[s.op][1] += s.counts.get("compute_pass_misses", 0)
        if s.name in ("cli.main", "simulation.replicate"):
            wall[s.op] = s.end - s.start
    assert per_op and set(per_op) == set(wall), "every op needs one root span"
    for op, total in per_op.items():
        assert total <= wall[op] + 1e-9, (workload, op, total, wall[op])
    shape = {op: tuple(passes[op]) for op in wall}
    if workload == "cli_aligned_sweep":
        assert set(shape.values()) == {(0, 0)}, shape
    if workload == "cli_estimate_efficient":
        assert set(shape.values()) == {(4, 3)}, shape


def check_tolerant_wrap_table():
    tr = tracer.Tracer()
    tr.resolve((tracer.Site("json", "no_such_function", "x"),
                tracer.Site("no_such_module", "f", "y")))
    with tr.installed():
        pass
    assert tr.not_traced == ["json.no_such_function", "no_such_module.f"], tr.not_traced


def check_fails_without_sources():
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("--workload", "cli_aligned_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    assert {m["name"] for m in BENCH["per_layer"]} == set(metrics.MOVES)
    check_tolerant_wrap_table()
    check_fails_without_sources()
    for workload in (w["name"] for w in BENCH["workloads"]):
        result_of(workload, 0)
        result_of(workload, 1)
        check_spans(workload)
        print(f"{workload}: ok", flush=True)
    for workload in ("cli_estimate_efficient", "cli_aligned_sweep"):
        result_of(workload, 1, rows=workloads.DEFAULT_ROWS)
        check_spans(workload)
        print(f"{workload} at {workloads.DEFAULT_ROWS} rows per source: ok", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
