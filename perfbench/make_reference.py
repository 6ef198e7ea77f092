"""Rebuild perfbench/reference.json: the outputs of every input of every
workload at the default seed and size, run serially (threads=1), plus the
per-replicate flags the threaded Monte Carlo is compared with.

    python3 perfbench/make_reference.py

Run it only when the estimates are meant to change; the benchmark compares
its outputs with this file within workloads.TOL.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    for var in run.BLAS_PINS:
        os.environ[var] = "1"
    wf = run.load_weakfuse(run.ROOT / "src")
    seed, rows = workloads.DEFAULT_SEED, workloads.DEFAULT_ROWS
    out = {"seed": seed, "rows": rows, "tolerance": workloads.TOL, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.ROOT / ".perfbench_work" / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            spec = {"workdir": str(workdir), "rows": rows, "threads": 1}
            wl = cls(spec)
            spec.update(wl.prepare(wf, seed, rows))
            wl.start(wf)
            checker = workloads.Checker(None)
            entry = {"input_sha256": spec["input_sha256"], "outputs": {}, "flags": {}}
            n_calls = workloads.MC_CELLS if name == "mc_study_slice" else \
                len(wl.commands) * workloads.N_INPUTS
            for i in range(n_calls):
                res = wl.collect(wl.call(i))
                failed, why = wl.check(res, checker)
                if failed:
                    raise RuntimeError(f"{name}: {why}")
                entry["outputs"][res["key"]] = checker.first[res["key"]]
                if "flags" in res:
                    entry["flags"][res["key"]] = res["flags"]
            out["workloads"][name] = entry
            print(f"{name}: {len(entry['outputs'])} reference outputs", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
