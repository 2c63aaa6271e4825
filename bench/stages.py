#!/usr/bin/env python3
"""Time and memory of each census stage, written to ``BENCH_<tag>.json``.

    PYTHONPATH=src python3 bench/stages.py --tag NAME [--repeat K]
        [--primes P ...] [--workers W ...] [--out-dir DIR]

``DIR`` (default ``.``) must exist; that is checked before any stage runs.

For every prime and worker count it runs the library stages in pipeline
order: ``build_tables``, ``build_ha_buckets``, ``count_fp``, ``count_ha`` and
``count_tc``.  Every stage but ``build_ha_buckets``, which runs on one thread,
takes the worker count.

* ``seconds``: ``perf_counter`` time of the stage, the minimum over ``K``
  untraced runs of the whole pipeline.
* ``peak_bytes_per_residue``: the ``tracemalloc`` peak while the stage runs,
  above what was traced when it started (so what earlier stages retain is
  not counted), over p; from one extra traced run.
* ``retained_bytes_per_residue``: what the stage's result keeps, over p.

``total_s`` is the sum of the stage minima.  ``tc_pairs`` (the in-bucket
pairs h < a that ``count_tc`` solves, sum of s(s-1)/2 over bucket sizes s)
gives the work behind the ``count_tc`` time, and ``unpaired_residues`` (n
less the bucket members: residues whose key no other residue has, which
the buckets leave out) the work the buckets spare it.
``child_peak_rss_mib`` is the peak resident set (``ru_maxrss``) of a child
process running ``dlcensus.cli compare --prime P --threads W`` on the same
``dlcensus`` package, interpreter and numpy included; it is what the CLI's
memory preflight must cover.  The children run before any stage, while this process
is still smaller than each of them.  The file also records the
interpreter, numpy version and usable CPU count, since the numbers only compare
between runs on one machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import dlcensus
from dlcensus.census import HaBuckets, build_ha_buckets, count_fp, count_ha, count_tc
from dlcensus.parallel import usable_cpus
from dlcensus.residue_tables import build_tables

PRIMES = (1000003, 1108801, 10000019, 30000001)
WORKERS = (1, 2)
STAGES = ("build_tables", "build_ha_buckets", "count_fp", "count_ha", "count_tc")


def pipeline(p: int, workers: int, state: dict):
    """Yield (stage name, thunk) in order; each thunk runs one stage and
    keeps its result in state."""
    yield "build_tables", lambda: state.setdefault("t", build_tables(p, workers))
    yield "build_ha_buckets", lambda: state.setdefault("b", build_ha_buckets(state["t"]))
    yield "count_fp", lambda: state.setdefault("fp", count_fp(state["t"], workers))
    yield "count_ha", lambda: count_ha(state["b"], state["t"], workers)
    yield "count_tc", lambda: count_tc(state["b"], state["t"], state["fp"], workers)


def tc_work(b: HaBuckets) -> dict[str, int]:
    """count_tc's pairs h < a, and the residues the buckets leave out."""
    sizes = b.sizes.astype(np.int64)
    return {"tc_pairs": int((sizes * (sizes - 1) // 2).sum()),
            "unpaired_residues": b.n - len(b.members)}


def timed_run(p: int, workers: int) -> tuple[dict[str, float], dict[str, int]]:
    """Seconds of each stage, and count_tc's work."""
    seconds, state = {}, {}
    for name, stage in pipeline(p, workers, state):
        start = time.perf_counter()
        stage()
        seconds[name] = time.perf_counter() - start
    return seconds, tc_work(state["b"])


def traced_run(p: int, workers: int) -> dict[str, tuple[float, float]]:
    """(peak, retained) bytes per residue of each stage."""
    memory = {}
    tracemalloc.start()
    try:
        for name, stage in pipeline(p, workers, {}):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = stage()
            current, peak = tracemalloc.get_traced_memory()
            memory[name] = ((peak - before) / p, (current - before) / p)
            del result
    finally:
        tracemalloc.stop()
    return memory


def child_peak_rss_mib(p: int, workers: int) -> float:
    """ru_maxrss of a child `compare --prime p --threads workers`, in MiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(dlcensus.__file__).resolve().parent.parent))
    command = [sys.executable, "-m", "dlcensus.cli", "compare", "--prime", str(p),
               "--threads", str(workers)]
    with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL) as child:
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {child.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def measure(p: int, workers: int, repeat: int, child_rss_mib: float) -> dict:
    runs = []
    for _ in range(repeat):
        seconds, work = timed_run(p, workers)
        runs.append(seconds)
        gc.collect()
    memory = traced_run(p, workers)
    gc.collect()
    stages = {name: {"seconds": round(min(run[name] for run in runs), 4),
                     "peak_bytes_per_residue": round(memory[name][0], 2),
                     "retained_bytes_per_residue": round(memory[name][1], 2)}
              for name in STAGES}
    return {"p": p, "workers": workers, "repeat": repeat,
            "total_s": round(sum(s["seconds"] for s in stages.values()), 4),
            "child_peak_rss_mib": round(child_rss_mib, 1),
            **work, "stages": stages}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--primes", type=int, nargs="+", default=list(PRIMES))
    parser.add_argument("--workers", type=int, nargs="+", default=list(WORKERS))
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.workers) < 1:
        parser.error("--repeat and --workers must be >= 1")
    if not args.out_dir.is_dir():
        parser.error(f"--out-dir {args.out_dir} is not a directory")

    # The children run first: a child's ru_maxrss starts from the resident size
    # of this process when it spawns, which the in-process stages raise.
    rss = {(p, workers): child_peak_rss_mib(p, workers)
           for p in args.primes for workers in args.workers}
    results = []
    for p in args.primes:
        for workers in args.workers:
            row = measure(p, workers, args.repeat, rss[p, workers])
            print(f"p={p} workers={workers} total={row['total_s']:.3f}s "
                  f"rss={row['child_peak_rss_mib']:.0f}MiB "
                  + " ".join(f"{name}={s['seconds']:.3f}s/{s['peak_bytes_per_residue']:.1f}B"
                             for name, s in row["stages"].items()), file=sys.stderr)
            results.append(row)
    document = {"tag": args.tag, "python": platform.python_version(),
                "numpy": np.__version__, "cpus": usable_cpus(), "results": results}
    path = args.out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
