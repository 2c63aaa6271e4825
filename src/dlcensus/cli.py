"""Command-line entry point.

Subcommands: count, predict, compare, sweep, oracle-check, identities.
Exit codes: 0 success, 1 usage error, 2 invalid input (non-prime, out of
range, too large for the available memory, unwritable --out file), 3 internal
invariant or exact-claim violation.  All comparison output is deterministic;
timestamps appear only in persisted records.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import census, oracle, predictor, report
from .census import Equation
from .errors import InvalidInputError, InvariantViolation, MalformedRecordError
from .numtheory import factorize, is_prime, next_primes, prime_context
from .parallel import usable_cpus
from .predictor import ha_geneq_form, ha_squarefree_form, ha_sum_form
from .residue_tables import build_tables, class_counts

CLI_PRIME_LIMIT = 1 << 40
THREADS_ENV_VAR = "DLCENSUS_THREADS"

# Peak memory of a census, for the preflight check.  Child processes running
# `compare --prime P --threads W` (ru_maxrss; Linux, numpy 2.4.6) peaked at
# 50.9 MiB at p = 1000003, 53.5 MiB at 1108801, 223.3 MiB at 10000019 and
# 603.4 MiB at 30000001 with one worker; a second worker added about 7 MiB.
# Less the worker allowance, the largest row is 20.33 B per residue, at
# p = 1108801 (19.82 at p = 1000003, 20.06 at 10000019, 19.97 at 30000001),
# here rounded up, so the estimate covers every measured run.
BYTES_PER_RESIDUE = 21
WORKER_ALLOWANCE = 32 << 20

#: Largest --digits.  It lies below 640, the least limit that
#: sys.set_int_max_str_digits accepts, so no setting makes rendering fail.
MAX_DIGITS = 500

#: Largest identities --max-n.  Every n up to it is factored, about 0.11 ms
#: each, so the bound runs in about 11 s.
MAX_IDENTITY_N = 100_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digits(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be in [0, {MAX_DIGITS}], got {value}")
    return value


def _threads(requested: int | None) -> int:
    """Worker count: --threads, else DLCENSUS_THREADS, else every CPU this
    process may run on; never more than those CPUs."""
    usable = usable_cpus()
    env = os.environ.get(THREADS_ENV_VAR)
    if requested is None and env is not None:
        try:
            requested = _positive_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"dlcensus: error: {THREADS_ENV_VAR} must be a positive integer, "
                  f"got {env!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return usable if requested is None else min(requested, usable)


def _require_prime(p: int) -> None:
    if p < 2 or p >= CLI_PRIME_LIMIT:
        raise InvalidInputError(f"prime must be in [2, 2^40), got {p}")
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")


def _available_memory() -> int | None:
    """Bytes this process may still allocate: MemAvailable from /proc/meminfo,
    capped by the cgroup v2 memory.max where that is readable; None when
    neither is."""
    limits = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            limits += [int(line.split()[1]) * 1024 for line in fh
                       if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            group = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(f"/sys/fs/cgroup{group}/memory.max", encoding="ascii") as fh:
            limit = fh.read().strip()
        if limit != "max":
            limits.append(int(limit))
    except (OSError, StopIteration, ValueError):
        pass
    return min(limits, default=None)


def _require_memory(p: int, threads: int) -> None:
    """Refuse, before allocating, a census at p that would not fit in memory."""
    needed = BYTES_PER_RESIDUE * p + WORKER_ALLOWANCE * threads
    available = _available_memory()
    if available is not None and needed > available:
        raise InvalidInputError(
            f"a census at p={p} needs about {needed >> 20} MiB, "
            f"more than the {available >> 20} MiB available")


def _require_writable(path: str) -> None:
    """Fail on an unusable records file before any census work."""
    with open(path, "a", encoding="utf-8"):
        pass


def _equations(name: str) -> list[Equation]:
    return list(Equation) if name == "all" else [Equation(name)]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dlcensus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_kwargs = dict(choices=("text", "csv", "json"), default="text")
    eq_choices = ("fp", "ha", "tc", "all")

    p_count = sub.add_parser("count", help="run the census and print observed counts")
    p_count.add_argument("--prime", type=int, required=True)
    p_count.add_argument("--equation", choices=eq_choices, required=True)
    p_count.add_argument("--threads", type=_positive_int, default=None)
    p_count.add_argument("--format", **fmt_kwargs)

    p_predict = sub.add_parser("predict", help="print exact predicted values")
    p_predict.add_argument("--prime", type=int, required=True)
    p_predict.add_argument("--equation", choices=eq_choices, default="all")
    p_predict.add_argument("--format", **fmt_kwargs)
    p_predict.add_argument("--digits", type=_digits, default=3, metavar=f"0..{MAX_DIGITS}")

    p_compare = sub.add_parser("compare", help="census vs predictions with exact claims")
    p_compare.add_argument("--prime", type=int, required=True)
    p_compare.add_argument("--equation", choices=eq_choices, default="all")
    p_compare.add_argument("--threads", type=_positive_int, default=None)
    p_compare.add_argument("--format", **fmt_kwargs)
    p_compare.add_argument("--digits", type=_digits, default=3, metavar=f"0..{MAX_DIGITS}")
    p_compare.add_argument("--out", default=None,
                           help="append result records to this JSONL file")

    p_sweep = sub.add_parser("sweep", help="compare consecutive primes, persisting records")
    p_sweep.add_argument("--start", type=int, default=100000)
    p_sweep.add_argument("--count", type=_positive_int, default=5)
    p_sweep.add_argument("--threads", type=_positive_int, default=None)
    p_sweep.add_argument("--out", required=True)

    p_oracle = sub.add_parser("oracle-check", help="census vs brute force on small primes")
    p_oracle.add_argument("--max-prime", type=int, default=311)
    p_oracle.add_argument("--threads", type=_positive_int, default=None)

    p_ident = sub.add_parser("identities", help="exact identities of the prediction formulas")
    p_ident.add_argument("--max-n", type=int, default=2000, metavar=f"1..{MAX_IDENTITY_N}")

    return parser


def _cmd_count(args) -> int:
    _require_prime(args.prime)
    _require_memory(args.prime, args.threads)
    matrices = census.census_all(build_tables(args.prime, args.threads),
                                 _equations(args.equation), args.threads)
    for m in matrices.values():
        sys.stdout.buffer.write(report.render_counts(m, args.format))
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_predict(args) -> int:
    _require_prime(args.prime)
    ctx = prime_context(args.prime)
    for eq in _equations(args.equation):
        pm = predictor.predict_matrix(eq, ctx)
        sys.stdout.buffer.write(report.render_predictions(pm, args.format, args.digits))
    sys.stdout.buffer.flush()
    return EXIT_OK


def _compare_prime(p: int, equations: list[Equation], threads: int):
    """Reports for one prime, the cross-equation claims when applicable, and
    the names of all failed claims; only the reported censuses run."""
    ctx = prime_context(p)
    tables = build_tables(p, threads)
    observed = census.census_all(tables, equations, threads)
    counts = class_counts(tables)
    reports = [report.compare(observed[eq], predictor.predict_matrix(eq, ctx), counts)
               for eq in equations]
    cross = (report.cross_equation_checks(observed[Equation.HA], observed[Equation.TC])
             if Equation.HA in equations and Equation.TC in equations else ())
    claims = [c for rep in reports for c in rep.claims] + list(cross)
    return reports, cross, [c.name for c in claims if not c.passed]


def _persist(path: str, reports) -> int:
    """Append every report's records to path in one call; returns how many."""
    stamp = datetime.now(timezone.utc).isoformat()
    records = [record for rep in reports
               for record in report.records_from_report(rep, stamp)]
    report.append_records(path, records)
    return len(records)


def _cmd_compare(args) -> int:
    _require_prime(args.prime)
    _require_memory(args.prime, args.threads)
    if args.out:
        _require_writable(args.out)
    reports, cross, failed = _compare_prime(args.prime, _equations(args.equation),
                                            args.threads)
    for rep in reports:
        sys.stdout.buffer.write(report.render(rep, args.format, args.digits))
    if cross and args.format == "text":
        sys.stdout.buffer.write(report.claim_lines("cross-equation claims:", cross).encode())
    sys.stdout.buffer.flush()
    if args.out:
        _persist(args.out, reports)
    if failed:
        print(f"exact-claim violation: {' '.join(failed)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.start < 2 or args.start >= CLI_PRIME_LIMIT:
        raise InvalidInputError(f"start must be in [2, 2^40), got {args.start}")
    primes = next_primes(args.start, args.count)
    _require_memory(primes[-1], args.threads)
    _require_writable(args.out)
    failures: list[str] = []
    for p in primes:
        reports, _, failed = _compare_prime(p, list(Equation), args.threads)
        written = _persist(args.out, reports)
        failures += [f"p={p}:{name}" for name in failed]
        status = "ok" if not failed else "CLAIMS-FAILED"
        print(f"p={p} records={written} claims={status}")
    if failures:
        print(f"exact-claim violation: {' '.join(failures)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.max_prime < 2 or args.max_prime > oracle.ORACLE_PRIME_LIMIT:
        raise InvalidInputError(
            f"--max-prime must be in [2, {oracle.ORACLE_PRIME_LIMIT}], got {args.max_prime}")
    primes = [q for q in range(2, args.max_prime + 1) if is_prime(q)]
    _require_memory(primes[-1], args.threads)
    for p in primes:
        brute_force = oracle.oracle_census(p)
        for eq, fast in census.census_all(build_tables(p, args.threads),
                                          workers=args.threads).items():
            if fast != brute_force[eq]:
                print(f"oracle mismatch: p={p} equation={eq.value}", file=sys.stderr)
                return EXIT_INVARIANT
    print(f"oracle-check: census equals brute force for all {len(primes)} primes "
          f"<= {args.max_prime}")
    return EXIT_OK


def _cmd_identities(args) -> int:
    if not 1 <= args.max_n <= MAX_IDENTITY_N:
        raise InvalidInputError(f"--max-n must be in [1, {MAX_IDENTITY_N}], got {args.max_n}")
    for n in range(1, args.max_n + 1):
        f = factorize(n)
        if ha_sum_form(f) != ha_geneq_form(f):
            print(f"identity violation: sum form != product form at n={n}", file=sys.stderr)
            return EXIT_INVARIANT
        if f.is_squarefree and ha_sum_form(f) != ha_squarefree_form(f):
            print(f"identity violation: squarefree product differs at n={n}", file=sys.stderr)
            return EXIT_INVARIANT
    print(f"identities: sum form == product form for n <= {args.max_n}; "
          "squarefree product agrees")
    for q in range(2, 10001):
        if not is_prime(q):
            continue
        lhs = Fraction((q - 1) ** 3, q**2) + (1 + Fraction(q - 1, q)) ** 2
        if lhs != q + 1 - Fraction(1, q):
            print(f"identity violation: per-prime identity fails at q={q}", file=sys.stderr)
            return EXIT_INVARIANT
    print("identities: phi(q)^3/q^2 + (1+phi(q)/q)^2 == q+1-1/q for all primes q <= 10^4")
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
    "identities": _cmd_identities,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "threads" in vars(args):
            args.threads = _threads(args.threads)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MalformedRecordError as exc:
        print(f"error: malformed record: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
