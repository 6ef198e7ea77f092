"""One workload process: import weakfuse, run one untimed warm-up op, then the
closed loop. Started by run.py, which has already written the inputs and a
spec file; prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py SPEC_JSON T_SPAWN [--setup-only]

T_SPAWN is the driver's time.time() just before it started this process, so
set-up time counts interpreter start-up too.
"""

import dataclasses
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

import tracer as tracing
import workloads


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (s.ru_maxrss + c.ru_maxrss) / 1024.0


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def timed_call(wl, i: int, tracer=None):
    """Run call i; return its wall and CPU time and its collected output.
    Reading the output stays outside the timed region."""
    c0 = _cpu()
    t0 = time.perf_counter()
    handle = wl.call(i, tracer)
    t1 = time.perf_counter()
    cpu = _cpu() - c0
    return t1 - t0, cpu, wl.collect(handle)


def closed_loop(wl, seconds: float):
    """Run calls 0, 1, ... until `seconds` have passed."""
    walls, cpus, outs = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        wall, cpu, out = timed_call(wl, i)
        walls.append(wall)
        cpus.append(cpu)
        outs.append(out)
        i += 1
        if time.perf_counter() >= deadline:
            return walls, cpus, outs


def traced_loop(wl, seconds: float, tr):
    """Run each call untraced and then traced, back to back, until `seconds`
    have passed; pairing the two keeps slow drifts of machine speed out of
    the tracing overhead."""
    walls_u, walls_t, outs = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        wall, _, out = timed_call(wl, i)
        walls_u.append(wall)
        outs.append(out)
        with tr.installed():
            wall, _, out = timed_call(wl, i, tr)
        walls_t.append(wall)
        outs.append(out)
        i += 1
        if time.perf_counter() >= deadline:
            return walls_u, walls_t, outs


def check_all(wl, outs, checker):
    failed, why = 0, []
    for out in outs:
        f, w = wl.check(out, checker)
        failed += f
        why.extend(w)
    return failed, why


def _quantile(xs, q):
    """Linear-interpolation quantile of a sample (numpy's default rule)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(wl, walls, cpus):
    ops = len(walls) * wl.ops_per_call
    lat = [w / wl.ops_per_call for w in walls]
    p90 = _quantile(lat, 0.9)
    return {
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "ops_per_s": ops / sum(walls),
        "cpu_s_per_op": sum(cpus) / ops,
        "peak_rss_mb": _peak_rss_mb(),
    }, {"latency_samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
        "ops": ops, "timed_s": sum(walls)}


def per_layer(spans, ops: int, threads: int) -> tuple[dict, dict]:
    selfs = tracing.self_times(spans)
    total, own, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    per_op = defaultdict(Counter)
    for s in spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        for k, v in s.counts.items():
            counts[k] += v
            if s.op is not None:
                per_op[k][s.op] += v

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.ingest_csv_s": total["cli.ingest_csv"] / ops,
        "cli.ingest_rows_per_s": ratio(counts["rows"], total["cli.ingest_csv"]),
        "cli.parse_config_s": total["cli.parse_config"] / ops,
        "cli.main_self_s": own["cli.main"] / ops,
        "model.validate_design_s": total["model.validate_design"] / ops,
        "estimator.one_step_estimate_self_s":
            (own["estimator.one_step_estimate"] + own["simulation.replicate"]) / ops,
        "nuisance.fit_s": total["nuisance.fit"] / ops,
        "nuisance.panel_bytes": counts["panel_bytes"] / ops,
        "gradients.seed_s": total["gradients.seed"] / ops,
        "gradients.aligned_only_s": total["gradients.aligned_only"] / ops,
        "gradients.compute_pass_calls": counts["compute_pass_calls"] / ops,
        "gradients.compute_pass_misses": counts["compute_pass_misses"] / ops,
        "gradients.compute_pass_self_s": own["gradients.compute_pass"] / ops,
        "gradients.efficient_gradient_self_s": own["gradients.efficient_gradient"] / ops,
        "betafit.moment_match_s": total["betafit.moment_match"] / ops,
        "betafit.mm_iterations": counts["mm_iterations"] / ops,
        "betafit.mm_s_per_iter": ratio(total["betafit.moment_match"], counts["mm_iterations"]),
        "betafit.one_step_beta_self_s": own["betafit.one_step_beta"] / ops,
        "betafit.information_matrix_self_s": own["betafit.information_matrix"] / ops,
        "simulation.generate_dataset_s": total["simulation.generate_dataset"] / ops,
        "simulation.replicate_s": total["simulation.replicate"] / ops,
        "simulation.parallel_eff": ratio(total["simulation.replicate"],
                                         total["simulation.run_monte_carlo"] * threads),
    }
    # how many ops showed each per-op count, e.g. {"compute_pass_calls": {"4": 9}}
    shape = {k: dict(Counter(str(v) for v in ops_.values())) for k, ops_ in per_op.items()}
    return m, shape


def main(argv) -> int:
    t_spawn = float(argv[1])
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    weakfuse = importlib.import_module("weakfuse")
    for name in ("cli", "simulation"):
        importlib.import_module(f"weakfuse.{name}")
    wl = workloads.WORKLOADS[spec["workload"]](spec)
    wl.start(weakfuse)
    wl.warmup()
    setup_s = time.time() - t_spawn
    if "--setup-only" in argv[2:]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = spec.get("reference")
    checker = workloads.Checker(ref["outputs"] if ref else None)
    result = {"setup_s": setup_s, "environment": _environment()}
    if not spec["trace"]:
        walls, cpus, outs = closed_loop(wl, spec["seconds"])
        result["metrics"], result["samples"] = end_to_end(wl, walls, cpus)
        failed, why = check_all(wl, outs, checker)
        result["attempted"] = len(outs) * wl.ops_per_call
    else:
        tr = tracing.Tracer()
        tr.resolve()
        walls_u, walls_t, outs = traced_loop(wl, spec["seconds"], tr)
        ops = len(walls_t) * wl.ops_per_call
        metrics, shape = per_layer(tr.spans, ops, spec.get("threads", 1))
        metrics["trace.overhead_s_per_op"] = statistics.median(
            [t - u for t, u in zip(walls_t, walls_u)]) / wl.ops_per_call
        metrics["trace.sites_missing"] = len(tr.not_traced)
        metrics["simulation.flag_divergent_reps"] = wl.flag_divergence(
            outs[1::2], ref.get("flags") if ref else None)
        result["metrics"] = metrics
        result["samples"] = {"ops": ops, "untraced_s": sum(walls_u), "traced_s": sum(walls_t),
                             "per_op_counts": shape}
        result["not_traced"] = tr.not_traced
        result["count_errors"] = sorted(tr.count_errors)
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"workload": spec["workload"], "seed": spec["seed"], "ops": ops,
                       "not_traced": tr.not_traced,
                       "spans": [dataclasses.asdict(s) for s in tr.spans]}, fh)
        failed, why = check_all(wl, outs, checker)
        result["attempted"] = len(outs) * wl.ops_per_call
    result["failed"] = failed
    result["failures"] = why[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
