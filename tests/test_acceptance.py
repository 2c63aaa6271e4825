"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The reference matrices are the frozen observed counts for
p = 100057; every entry is checked exactly.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from dlcensus.census import (
    Equation,
    build_ha_buckets,
    census_all,
    count_fp,
    count_ha,
    count_tc,
)
from dlcensus.cli import dispatch
from dlcensus.numtheory import factorize, is_prime, prime_context
from dlcensus.oracle import oracle_census
from dlcensus.predictor import (
    FormulaId,
    formula_value,
    ha_geneq_form,
    ha_squarefree_form,
    ha_sum_form,
    predict_matrix,
)
from dlcensus.report import (
    compare,
    cross_equation_checks,
    format_fraction,
    read_records,
    render_counts,
)
from dlcensus.residue_tables import CLASSES, build_tables, class_counts
from scalar_reference import bucket_pairs, scalar_tc

REFERENCE_PRIME = 100057

FP_REFERENCE = np.array([
    [98506, 9192, 30240, 9192],
    [29630, 9192, 9192, 9192],
    [29774, 2784, 9037, 2784],
    [9085, 2784, 2784, 2784],
])
HA_NONTRIVIAL_REFERENCE = np.array([
    [190526, 30226, 30291, 2820],
    [30226, 9250, 9231, 2820],
    [30291, 9231, 9086, 2820],
    [2820, 2820, 2820, 2820],
])
TC_NONTRIVIAL_REFERENCE = np.array([
    [100860, 9231, 30291, 2820],
    [30850, 9231, 9231, 2820],
    [30368, 2882, 9240, 916],
    [9376, 2882, 2882, 916],
])

SMALL_PRIMES = [p for p in range(2, 312) if is_prime(p)]


def note(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    runs = {}
    timings = {}
    for workers in (1, 2, 8):
        start = time.perf_counter()
        runs[workers] = tuple(census_all(build_tables(REFERENCE_PRIME),
                                         workers=workers).values())
        timings[workers] = time.perf_counter() - start
    return {"runs": runs, "timings": timings}


def test_criterion_1_fp_reference_counts(reference_runs, capsys):
    code = dispatch(["count", "--prime", str(REFERENCE_PRIME),
                     "--equation", "fp", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    observed = np.array([[payload["parts"]["total"][r.value][c.value]
                          for c in CLASSES] for r in CLASSES])
    t1 = reference_runs["timings"][1]
    t8 = reference_runs["timings"][8]
    with capsys.disabled():
        note(1, code == 0 and np.array_equal(observed, FP_REFERENCE)
             and t1 <= 60.0 and t8 <= 10.0,
             f"fp census matches all 16 reference entries at p={REFERENCE_PRIME} "
             f"(1 worker {t1:.2f}s, 8 workers {t8:.2f}s)")


def test_criterion_2_ha_reference_counts(reference_runs, capsys):
    _, ha, _ = reference_runs["runs"][1]
    with capsys.disabled():
        note(2, np.array_equal(ha.part("nontrivial"), HA_NONTRIVIAL_REFERENCE),
             f"ha nontrivial census matches all 16 reference entries at p={REFERENCE_PRIME}")


def test_ha_reference_counts_from_buckets():
    t = build_tables(REFERENCE_PRIME)
    b = build_ha_buckets(t)
    assert np.array_equal(count_ha(b, t).part("nontrivial"), HA_NONTRIVIAL_REFERENCE)


def test_criterion_3_tc_reference_counts(reference_runs, capsys):
    _, _, tc = reference_runs["runs"][1]
    with capsys.disabled():
        note(3, np.array_equal(tc.part("nontrivial")[:4], TC_NONTRIVIAL_REFERENCE),
             f"tc nontrivial census matches all 16 reference entries at p={REFERENCE_PRIME}")


def test_criterion_4_predicted_values_at_printed_precision(capsys):
    ctx = prime_context(REFERENCE_PRIME)
    checks = [
        (format_fraction(ha_sum_form(ctx.factors), 1), "190822.0"),
        (format_fraction(formula_value(FormulaId.PHI2_N, ctx), 3), "9139.458"),
        (format_fraction(formula_value(FormulaId.PHI2_N, ctx), 2), "9139.46"),
        (format_fraction(formula_value(FormulaId.PHI2_N, ctx), 1), "9139.5"),
        (format_fraction(formula_value(FormulaId.PHI3_N2, ctx), 3), "2762.225"),
        (format_fraction(formula_value(FormulaId.PHI3_N2, ctx), 2), "2762.23"),
        (format_fraction(formula_value(FormulaId.PHI3_N2, ctx), 1), "2762.2"),
        (format_fraction(formula_value(FormulaId.PHI4_N3, ctx), 1), "834.8"),
        (format_fraction(formula_value(FormulaId.PHI, ctx), 0), "30240"),
        (format_fraction(formula_value(FormulaId.N, ctx), 0), "100056"),
    ]
    bad = [(got, want) for got, want in checks if got != want]
    with capsys.disabled():
        note(4, not bad,
             f"all {len(checks)} predicted values match their printed precision"
             + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_5_oracle_equivalence(capsys):
    start = time.perf_counter()
    mismatches = []
    for p in SMALL_PRIMES:
        brute_force = oracle_census(p)
        for eq, fast in census_all(build_tables(p), workers=1).items():
            if fast != brute_force[eq]:
                mismatches.append((p, eq.value))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        note(5, not mismatches and elapsed <= 120.0,
             f"census equals brute-force oracle for all {len(SMALL_PRIMES)} primes "
             f"<= 311, every part and ord row ({elapsed:.1f}s)"
             + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_6_exact_identities(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 2001):
        f = factorize(n)
        if ha_sum_form(f) != ha_geneq_form(f):
            failures.append(("sum-vs-product", n))
        if f.is_squarefree and ha_sum_form(f) != ha_squarefree_form(f):
            failures.append(("squarefree", n))
    for q in range(2, 10001):
        if is_prime(q):
            lhs = Fraction((q - 1) ** 3, q**2) + (1 + Fraction(q - 1, q)) ** 2
            if lhs != q + 1 - Fraction(1, q):
                failures.append(("per-prime", q))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        note(6, not failures and elapsed <= 60.0,
             f"divisor-sum identities exact for n <= 2000 and primes q <= 10^4 "
             f"({elapsed:.1f}s)" + (f"; failures: {failures[:5]}" if failures else ""))


def _structural_failures(p, fp, ha, tc, tables, buckets) -> list[str]:
    counts = class_counts(tables)
    ctx = prime_context(p)
    bad = []
    for eq, observed in ((Equation.FP, fp), (Equation.HA, ha), (Equation.TC, tc)):
        rep = compare(observed, predict_matrix(eq, ctx), counts)
        bad += [f"p={p}:{c.name}" for c in rep.claims if not c.passed]
    bad += [f"p={p}:{c.name}" for c in cross_equation_checks(ha, tc) if not c.passed]
    counts, not_single = scalar_tc(tables, bucket_pairs(buckets))
    if not np.array_equal(counts[1], tc.part("nontrivial")):  # (ANY, ANY): the completion sum
        bad.append(f"p={p}:scalar_completions {counts[1, 0, 0]}")
    if not_single:
        bad.append(f"p={p}:gcd1_multiplicity")
    return bad


def test_criterion_7_exact_structural_claims(reference_runs, capsys):
    failures = []
    for p in SMALL_PRIMES:
        tables = build_tables(p)
        buckets = build_ha_buckets(tables)
        fp = count_fp(tables)
        ha = count_ha(buckets, tables)
        tc = count_tc(buckets, tables, fp)
        failures += _structural_failures(p, fp, ha, tc, tables, buckets)
    tables = build_tables(REFERENCE_PRIME)
    buckets = build_ha_buckets(tables)
    fp, ha, tc = reference_runs["runs"][1]
    failures += _structural_failures(REFERENCE_PRIME, fp, ha, tc, tables, buckets)
    with capsys.disabled():
        note(7, not failures,
             f"all exact structural claims hold on {len(SMALL_PRIMES)} primes <= 311 "
             f"and p={REFERENCE_PRIME}"
             + (f"; failures: {failures[:5]}" if failures else ""))


def test_criterion_8_worker_determinism(reference_runs, capsys):
    serialized = {
        workers: tuple(render_counts(m, "json") for m in matrices)
        for workers, matrices in reference_runs["runs"].items()
    }
    ok = serialized[1] == serialized[2] == serialized[8]
    with capsys.disabled():
        note(8, ok, f"byte-identical serialized matrices at p={REFERENCE_PRIME} "
             "with 1, 2, and 8 workers")


def test_criterion_9_sweep_performance(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    start = time.perf_counter()
    code = dispatch(["sweep", "--out", str(out_file)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    records = read_records(out_file)
    primes = sorted({r.p for r in records})
    with capsys.disabled():
        note(9, code == 0 and elapsed < 900.0
             and primes == [100003, 100019, 100043, 100049, 100057],
             f"default five-prime sweep finished in {elapsed:.1f}s "
             f"(budget 900s) over primes {primes}")
