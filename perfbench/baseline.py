#!/usr/bin/env python3
"""Run every workload at seed 0, untraced and traced, and record the results.

    python3 perfbench/baseline.py

Run it from the root of a checkout.  It runs ``perfbench/run.py`` once per
workload and trace mode for ``run_seconds`` from BENCHMARK.json, prints each
run's metric table, and writes ``perfbench/baseline.json`` with the machine,
each workload's reason and input shape, and the metrics of both runs.  It
exits 1 if any run fails or reports an incorrect output.
"""

import json
import os
import platform
import subprocess
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def factorisation(n: int, spf) -> str:
    return "*".join(f"{q}^{alpha}" if alpha > 1 else str(q)
                    for q, alpha in run.factor_pairs(n, spf))


def shape(inputs: run.Inputs, workload: run.Workload, traced: dict, spf) -> dict:
    primes = inputs.primes
    argv = ["<fresh file>" if a == str(inputs.out_path) else a for a in inputs.argv]
    out = {"argv": argv, "threads": workload.threads,
           "primes": len(primes), "p_min": min(primes), "p_max": max(primes)}
    if len(primes) == 1:
        out["n"] = factorisation(primes[0] - 1, spf)
        out["tau_n"] = traced["census.divisors"]["value"]
    for key in ("census.buckets", "census.bucket_max", "census.inbucket_pairs"):
        out[key.split(".", 1)[1]] = traced[key]["value"]
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spf = run._smallest_prime_factors(run.SIEVE_LIMIT)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
              "python": platform.python_version(), "seed": 0,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name, workload in run.WORKLOADS.items():
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            results["traced" if trace else "untraced"] = json.loads(lines[-1])
        entry = {"why": why[name]}
        if "traced" in results:
            inputs = run.make_inputs(workload, 0, spf)
            entry["shape"] = shape(inputs, workload, results["traced"]["metrics"], spf)
        entry.update(results)
        record["workloads"][name] = entry
        ok = ok and all(r["correct"] for r in results.values())
    (run.BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
