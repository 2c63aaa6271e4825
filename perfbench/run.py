#!/usr/bin/env python3
"""Benchmark of the dlcensus command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``dlcensus`` from
``src/`` there.  Each pass calls the user's entry point,
``dlcensus.cli.dispatch(argv)``, in process with the arguments the workload
generates from ``--seed``, and captures its stdout.  ``sweep_small`` also reads
its records file back with ``dlcensus.report.read_records`` inside the pass.

``--trace 0`` reports the end-to-end metrics from untraced passes:

* ``wall_s``: median seconds of one pass, over passes that add up to at
  least ``--seconds``;
* ``residues_per_s``: sum of (p - 1) over the primes of a pass / ``wall_s``;
* ``peak_bytes_per_residue``: ``tracemalloc`` peak of one extra, untimed pass
  / (largest p - 1);
* ``setup_s``: median seconds for a fresh interpreter to import numpy and
  dlcensus, which every CLI call pays; three interpreters start after each
  timed pass.

``--trace 1`` runs a warm-up pass, then pairs of one untraced and one traced
pass, in alternating order, until they add up to ``--seconds``, and reports
per-layer metrics, each the median over traced passes.  A traced pass
replaces the public functions of each layer, at the name the CLI looks them up
by, with a wrapper that records a span and counts taken from the arguments and
result.  A layer's ``*_s`` metric is its self time: span time minus the time
its child spans (and their bookkeeping) cover.  ``trace.overhead_s`` is the
median traced pass minus the median untraced pass.  Layers a workload never
calls report 0; a layer it is expected to call that records no span fails the
run.  The spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

Every pass is checked outside its timed region: exit code 0, stdout sha256
equal to the digest frozen in ``perfbench/digests.json`` for that input, and
for sweep_small 124 read-back records for each swept prime and no other.  The
single-prime workloads are also checked once per run against two index-free
counts: ha total(ANY, ANY) = sum over v of c_v^2 where c_v = #{x : x^x = v},
and fp total(ANY, ANY) = sum of gcd(h, n) over h with h^(n / gcd(h, n)) = 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list each metric with its unit
and sample count.  The exit code is 1, after the result line, if any check
failed, and 1 without a result if dlcensus cannot be imported from ``src/`` or
an expected span never fired.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
WORK_DIR = ROOT / ".perfbench"

SIEVE_LIMIT = 1_200_001
SETUP_PER_PASS = 3
SWEEP_COUNT = 300
RECORDS_PER_PRIME = 124

sys.path.insert(0, str(SRC))
try:
    from dlcensus import census, cli, predictor, report
    from dlcensus.census import Equation
    from dlcensus.residue_tables import ConditionClass
except ImportError as exc:
    sys.exit(f"perfbench: cannot import dlcensus from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent != SRC / "dlcensus":
    sys.exit(f"perfbench: imported dlcensus from {cli.__file__}, not from {SRC}")
MODULES = {"cli": cli, "census": census, "predictor": predictor, "report": report}


# --- workload inputs ----------------------------------------------------------

def _smallest_prime_factors(limit: int) -> np.ndarray:
    spf = np.arange(limit, dtype=np.int64)
    for q in range(2, math.isqrt(limit - 1) + 1):
        if spf[q] == q:
            block = spf[q * q::q]
            np.minimum(block, q, out=block)
    return spf


def factor_pairs(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    """(q, alpha) for each prime power q^alpha exactly dividing n."""
    pairs = []
    while n > 1:
        q, alpha = int(spf[n]), 0
        while n % q == 0:
            n //= q
            alpha += 1
        pairs.append((q, alpha))
    return pairs


def _tau(pairs) -> int:
    """Number of divisors, from (q, alpha) pairs or a dlcensus Factored."""
    return math.prod(alpha + 1 for _, alpha in pairs)


def prime_pool(spf: np.ndarray) -> list[int]:
    """The 16 smallest primes p >= 10^6 with (p - 1)/6 prime: n = 2*3*q, tau(n) = 8."""
    pool = []
    p = 10**6
    while len(pool) < 16:
        if spf[p] == p and (p - 1) % 6 == 0 and spf[(p - 1) // 6] == (p - 1) // 6:
            pool.append(p)
        p += 1
    return pool


def smooth_pool(spf: np.ndarray) -> list[int]:
    """Primes p in [1.1e6, 1.19e6] with tau(p - 1) >= 200, by tau then p, descending.

    The band is narrow so that every seed does about the same work as seed 0
    (p = 1108801, tau = 252): wall time grows with p, and at 1.05e6 or 1.2e6
    it already differs from seed 0's by about 7%.
    """
    found = [(_tau(factor_pairs(p - 1, spf)), p) for p in range(1_100_000, 1_190_001)
             if spf[p] == p]
    return [p for tau, p in sorted(found, reverse=True) if tau >= 200]


# Sweep start offsets: seed k starts 8*k above 1000, for 16 seeds.
SWEEP_STARTS = tuple(1000 + 8 * k for k in range(16))


def _primes_from(start: int, count: int, spf: np.ndarray) -> list[int]:
    out = []
    x = start
    while len(out) < count:
        if spf[x] == x:
            out.append(x)
        x += 1
    return out


COMMON_SPANS = frozenset({
    "cli.dispatch", "numtheory.prime_context", "residue_tables.build_tables",
    "residue_tables.class_counts", "census.build_ha_buckets", "census.count_fp",
    "census.count_ha", "census.count_tc", "predictor.predict_matrix",
    "report.compare", "report.cross_equation_checks",
})
COMPARE_SPANS = COMMON_SPANS | {"report.render"}
SWEEP_SPANS = COMMON_SPANS | {"numtheory.next_primes", "report.records_from_report",
                              "report.append_records", "report.read_records"}


@dataclass(frozen=True)
class Workload:
    """A workload's fixed settings; BENCHMARK.json records why it was chosen."""

    name: str
    threads: int
    expected_spans: frozenset[str]


def _threads(wanted: int) -> int:
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


WORKLOADS = {
    w.name: w for w in (
        Workload("prime_1e6", _threads(1), COMPARE_SPANS),
        Workload("smooth_1e6", _threads(2), COMPARE_SPANS),
        Workload("sweep_small", _threads(1), SWEEP_SPANS),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated arguments of one workload and seed, and what they imply."""

    key: str            # names the input in digests.json
    argv: tuple[str, ...]
    primes: tuple[int, ...]
    out_path: Path | None


def make_inputs(workload: Workload, seed: int, spf: np.ndarray) -> Inputs:
    threads = str(workload.threads)
    if workload.name == "sweep_small":
        start = SWEEP_STARTS[seed % len(SWEEP_STARTS)]
        out = WORK_DIR / f"sweep-{os.getpid()}.jsonl"
        argv = ("sweep", "--start", str(start), "--count", str(SWEEP_COUNT),
                "--threads", threads, "--out", str(out))
        return Inputs(f"sweep_small:start={start}", argv,
                      tuple(_primes_from(start, SWEEP_COUNT, spf)), out)
    pool = prime_pool(spf) if workload.name == "prime_1e6" else smooth_pool(spf)
    p = pool[seed % len(pool)]
    argv = ("compare", "--prime", str(p), "--equation", "all",
            "--threads", threads, "--format", "json")
    return Inputs(f"compare:p={p}", argv, (p,), None)


# --- one pass ------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: str
    records: list | None


def run_pass(inputs: Inputs) -> PassResult:
    """One call of the CLI, plus the read-back for sweeps; only that is timed."""
    if inputs.out_path is not None and inputs.out_path.exists():
        inputs.out_path.unlink()
    captured = io.BytesIO()
    text = io.TextIOWrapper(captured, encoding="utf-8", write_through=True)
    errors = io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = text, errors
    records = None
    try:
        start = time.perf_counter()
        code = cli.dispatch(list(inputs.argv))
        if inputs.out_path is not None and code == 0:
            records = report.read_records(inputs.out_path)
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = real_out, real_err
        text.flush()
        text.detach()
    return PassResult(seconds, code, captured.getvalue(), errors.getvalue(), records)


def check_pass(result: PassResult, inputs: Inputs, digest: str | None) -> list[str]:
    """Problems with one pass's outputs; empty when it is correct."""
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}: {result.stderr.strip()}")
    actual = hashlib.sha256(result.stdout).hexdigest()
    if digest is None:
        problems.append(f"no frozen stdout digest for {inputs.key}")
    elif actual != digest:
        problems.append(f"stdout sha256 {actual} != frozen {digest}")
    if inputs.out_path is not None:
        per_prime = Counter(r.p for r in result.records or ())
        if per_prime != Counter({p: RECORDS_PER_PRIME for p in inputs.primes}):
            problems.append("read-back records are not 124 per swept prime")
    return problems


# --- index-free cross-checks ---------------------------------------------------

def _modpow_vec(base: np.ndarray, exponent: np.ndarray, p: int) -> np.ndarray:
    """base^exponent mod p elementwise, for p < 2^31."""
    result = np.ones_like(base)
    base = base % p
    exponent = exponent.copy()
    while exponent.any():
        odd = (exponent & 1) == 1
        result[odd] = result[odd] * base[odd] % p
        base = base * base % p
        exponent >>= 1
    return result


def ha_any_any(p: int) -> int:
    x = np.arange(1, p, dtype=np.int64)
    c = np.bincount(_modpow_vec(x, x, p))
    return int(np.dot(c, c))


def fp_any_any(p: int) -> int:
    n = p - 1
    h = np.arange(1, p, dtype=np.int64)
    d = np.gcd(h, n)
    solvable = _modpow_vec(h, n // d, p) == 1
    return int(d[solvable].sum())


def _observed_any_any(stdout: bytes) -> dict[str, int]:
    text = stdout.decode("utf-8")
    decoder = json.JSONDecoder()
    found, pos = {}, 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        found[doc["equation"]] = doc["parts"]["total"]["ANY"]["ANY"]["observed"]
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return found


def cross_check(result: PassResult, inputs: Inputs) -> list[str]:
    if inputs.out_path is not None or result.exit_code != 0:
        return []
    (p,) = inputs.primes
    observed = _observed_any_any(result.stdout)
    expected = {"ha": ha_any_any(p), "fp": fp_any_any(p)}
    return [f"{eq} total(ANY, ANY) {observed.get(eq)} != index-free {want}"
            for eq, want in expected.items() if observed.get(eq) != want]


# --- tracing -------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    covered_end: float  # end of the wrapper's own bookkeeping
    parent: int         # index into the span list, -1 at the top
    thread: int


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _count_tables(c: Counter, t, *args) -> None:
    c["tables_bytes"] += _array_bytes(t)
    c["tables_residues"] += t.n


def _count_buckets(c: Counter, b, *args) -> None:
    sizes = np.diff(b.offsets)
    c["buckets"] += len(sizes)
    c["bucket_max"] = max(c["bucket_max"], int(sizes.max()))
    c["inbucket_pairs"] += int(np.dot(sizes, sizes))
    c["buckets_bytes"] += _array_bytes(b)
    c["buckets_residues"] += b.n


def _count_fp(c: Counter, m, t, *args, **kwargs) -> None:
    c["fp_solutions"] += m.entry("total", ConditionClass.ANY, ConditionClass.ANY)
    c["divisors"] += _tau(t.factors)


def _count_tc(c: Counter, m, *args, **kwargs) -> None:
    c["tc_solutions"] += m.entry("total", ConditionClass.ANY, ConditionClass.ANY)


def _count_predictions(c: Counter, pm, equation, ctx) -> None:
    if equation is Equation.HA:
        c["divisor_pairs"] += len(ctx.divisors) ** 2


def _count_records(c: Counter, result, path, records) -> None:
    c["records"] += len(records)


# (module name, attribute, span name, counter).  Functions the CLI imports by
# name are wrapped in dlcensus.cli; the rest are module attributes it calls.
LAYERS = (
    ("cli", "dispatch", "cli.dispatch", None),
    ("cli", "prime_context", "numtheory.prime_context", None),
    ("cli", "next_primes", "numtheory.next_primes", None),
    ("cli", "build_tables", "residue_tables.build_tables", _count_tables),
    ("cli", "class_counts", "residue_tables.class_counts", None),
    ("census", "build_ha_buckets", "census.build_ha_buckets", _count_buckets),
    ("census", "count_fp", "census.count_fp", _count_fp),
    ("census", "count_ha", "census.count_ha", None),
    ("census", "count_tc", "census.count_tc", _count_tc),
    ("predictor", "predict_matrix", "predictor.predict_matrix", _count_predictions),
    ("report", "compare", "report.compare", None),
    ("report", "cross_equation_checks", "report.cross_equation_checks", None),
    ("report", "render", "report.render", None),
    ("report", "records_from_report", "report.records_from_report", None),
    ("report", "append_records", "report.append_records", _count_records),
    ("report", "read_records", "report.read_records", None),
)


class Tracer:
    """Wraps the LAYERS functions while active; spans and counts stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._saved = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, end, parent, threading.get_ident())
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
                self.spans[index].covered_end = time.perf_counter()
            return result
        return traced

    def __enter__(self):
        for module_name, attr, span_name, counter in LAYERS:
            module = MODULES[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def self_seconds(self) -> Counter:
        """Per span name, the sum of span time minus the time child spans cover."""
        own = Counter()
        for span in self.spans:
            own[span.name] += span.end - span.start
        for span in self.spans:
            if span.parent >= 0:
                own[self.spans[span.parent].name] -= span.covered_end - span.start
        return own


def layer_metrics(tracer: Tracer, out_path: Path | None) -> dict[str, float]:
    own = tracer.self_seconds()
    c = tracer.counts
    m = {f"{name}_s": own.get(name, 0.0) for _, _, name, _ in LAYERS if name != "cli.dispatch"}
    m["cli.self_s"] = own["cli.dispatch"]

    def ratio(num, den):
        return num / den if den else 0.0

    m["census.inbucket_pairs"] = c["inbucket_pairs"]
    m["census.tc_solutions"] = c["tc_solutions"]
    m["census.tc_pairs_per_s"] = ratio(c["inbucket_pairs"], m["census.count_tc_s"])
    m["census.tc_yield"] = ratio(c["tc_solutions"], c["inbucket_pairs"])
    m["census.fp_solutions"] = c["fp_solutions"]
    m["census.fp_solutions_per_s"] = ratio(c["fp_solutions"], m["census.count_fp_s"])
    m["census.divisors"] = c["divisors"]
    m["census.buckets"] = c["buckets"]
    m["census.bucket_max"] = c["bucket_max"]
    m["census.buckets_retained_bytes_per_residue"] = ratio(c["buckets_bytes"],
                                                           c["buckets_residues"])
    m["residue_tables.retained_bytes_per_residue"] = ratio(c["tables_bytes"],
                                                           c["tables_residues"])
    m["predictor.divisor_pairs"] = c["divisor_pairs"]
    m["report.records"] = c["records"]
    m["report.bytes_written"] = out_path.stat().st_size if out_path is not None else 0
    return m


# --- metric catalogue ----------------------------------------------------------

def _load_catalogue() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- runs ----------------------------------------------------------------------

def measure_setup(times: list[float]) -> None:
    """Append the seconds fresh interpreters take to import numpy and dlcensus."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_PER_PASS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, dlcensus"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)


class Run:
    """Passes of one workload and seed, with their checks tallied."""

    def __init__(self, workload: Workload, inputs: Inputs, digest: str | None):
        self.workload = workload
        self.inputs = inputs
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.cross_checked = False

    def one_pass(self) -> PassResult:
        result = run_pass(self.inputs)
        self.attempted += 1
        problems = check_pass(result, self.inputs, self.digest)
        if not self.cross_checked:
            self.cross_checked = True
            problems += cross_check(result, self.inputs)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)
        return result


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    walls, setup = [], []
    while sum(walls) < seconds:
        walls.append(run.one_pass().seconds)
        measure_setup(setup)  # between passes, so set-up samples spread over the run
    gc.collect()
    tracemalloc.start()
    try:
        run.one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wall = statistics.median(walls)
    primes = run.inputs.primes
    passes = f"median of {len(walls)} passes, {min(walls):.4f}..{max(walls):.4f} s"
    return {
        "wall_s": (wall, passes),
        "residues_per_s": (sum(p - 1 for p in primes) / wall, passes),
        "peak_bytes_per_residue": (peak / (max(primes) - 1), "1 tracemalloc pass"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} interpreters"),
    }


def traced_pass(run: Run) -> tuple[float, dict[str, float], list[dict]]:
    with Tracer() as tracer:
        seconds = run.one_pass().seconds
    missing = sorted(run.workload.expected_spans - {span.name for span in tracer.spans})
    if missing:
        raise RuntimeError(f"expected spans never fired: {', '.join(missing)}")
    return (seconds, layer_metrics(tracer, run.inputs.out_path),
            [vars(span) for span in tracer.spans])


def per_layer(run: Run, seconds: float, trace_file: Path) -> dict[str, tuple[float, str]]:
    untraced, traced = [], []
    run.one_pass()  # warm-up, so neither side of the overhead pays first-call costs
    while sum(untraced) + sum(t[0] for t in traced) < seconds:
        traced_first = len(traced) % 2 == 1  # alternate which side of a pair runs first
        if traced_first:
            traced.append(traced_pass(run))
        untraced.append(run.one_pass().seconds)
        if not traced_first:
            traced.append(traced_pass(run))
    walls, samples, spans = zip(*traced)
    trace_file.write_text(json.dumps({"workload": run.workload.name,
                                      "argv": list(run.inputs.argv),
                                      "passes": spans}))
    note = f"median of {len(walls)} traced passes"
    out = {name: (statistics.median(s[name] for s in samples), note) for name in samples[0]}
    out["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced),
                               f"{len(walls)} traced - {len(untraced)} untraced passes")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed, _smallest_prime_factors(SIEVE_LIMIT))
    digest = json.loads(DIGESTS.read_text()).get(inputs.key)
    end_units, layer_units = _load_catalogue()
    WORK_DIR.mkdir(exist_ok=True)
    run = Run(workload, inputs, digest)
    try:
        if args.trace:
            trace_file = WORK_DIR / f"trace-{workload.name}-{args.seed}.json"
            measured = per_layer(run, args.seconds, trace_file)
            units = layer_units
        else:
            measured = end_to_end(run, args.seconds)
            units = end_units
    finally:
        if inputs.out_path is not None and inputs.out_path.exists():
            inputs.out_path.unlink()

    print(f"workload {workload.name} seed {args.seed}: {' '.join(inputs.argv)}")
    for name, unit in units.items():
        value, samples = measured[name]
        print(f"  {name:<44} {value:>16.6g} {unit:<12} {samples}")
    failed_ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':<44} {failed_ratio:>16.6g} {'ratio':<12} "
          f"{run.failed} of {run.attempted} passes")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
