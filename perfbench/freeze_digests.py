#!/usr/bin/env python3
"""Write perfbench/digests.json: the stdout sha256 of every input the seeds map to.

    python3 perfbench/freeze_digests.py

Run it from the root of a checkout of the commit whose output is the
reference.  Each input runs once through ``dlcensus.cli.dispatch``; an input
whose run exits non-zero or fails the index-free cross-checks is not frozen
and the script exits 1.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    spf = run._smallest_prime_factors(run.SIEVE_LIMIT)
    run.WORK_DIR.mkdir(exist_ok=True)
    digests, bad = {}, []
    for workload in run.WORKLOADS.values():
        seeds = {"prime_1e6": len(run.prime_pool(spf)),
                 "smooth_1e6": len(run.smooth_pool(spf)),
                 "sweep_small": len(run.SWEEP_STARTS)}[workload.name]
        for seed in range(seeds):
            inputs = run.make_inputs(workload, seed, spf)
            result = run.run_pass(inputs)
            problems = run.cross_check(result, inputs)
            if result.exit_code != 0 or problems:
                bad.append(f"{inputs.key}: exit {result.exit_code} {problems}")
                continue
            digests[inputs.key] = hashlib.sha256(result.stdout).hexdigest()
            print(f"{inputs.key} {digests[inputs.key]} {result.seconds:.2f}s", flush=True)
            if inputs.out_path is not None:
                inputs.out_path.unlink()
    (run.BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(f"not frozen: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
