"""Differential checks of the fast census at p ~ 10^6 against index-free
counts that use no discrete logarithm, only modular powers, computed
vectorized over all residues.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from dlcensus.census import build_ha_buckets, census_all, count_fp, count_ha, count_tc
from dlcensus.numtheory import factorize
from dlcensus.residue_tables import build_tables, class_matrix, class_vector

# n = 2*3*166667 (few divisors) and n = 2^6*3^2*5^2*7*11 (252 divisors).
SCALE_PRIMES = (1000003, 1108801)
# n = 2^16: lambda(n) = 2^14 < phi(n), so the unit group mod n is not cyclic.
TABLE_PRIMES = (65537, *SCALE_PRIMES)


def power_mod(base, exponent, p):
    """base^exponent mod p elementwise; p < 2^31 keeps products in int64."""
    base = np.asarray(base, dtype=np.int64) % p
    exponent = np.asarray(exponent, dtype=np.int64)
    result = np.ones_like(base)
    for bit in range(int(exponent.max()).bit_length()):
        result = np.where(exponent >> bit & 1, result * base % p, result)
        base = base * base % p
    return result


@functools.lru_cache(maxsize=len(SCALE_PRIMES))
def residue_combos(p):
    """Residues 1..p-1 and their combos (1 if PR) + (2 if RP): x is PR when
    x^(n/q) != 1 for every prime q | n, and RP when gcd(x, n) = 1."""
    n = p - 1
    x = np.arange(1, p, dtype=np.int64)
    pr = np.ones(n, dtype=bool)
    for q in factorize(n).primes:
        pr &= power_mod(x, n // q, p) != 1
    return x, pr + 2 * (np.gcd(x, n) == 1)


@pytest.mark.parametrize("p", SCALE_PRIMES)
def test_fp_total_matches_power_residue_count(p):
    """h with d = gcd(h, n) has d fixed-point partners g iff h is a d-th power
    residue, i.e. h^(n/d) = 1 (mod p); the (ANY, col) row sums d over h."""
    n = p - 1
    h, combo = residue_combos(p)
    d = np.gcd(h, n)
    partners = np.where(power_mod(h, n // d, p) == 1, d, 0)
    expected = class_vector(np.bincount(combo, weights=partners, minlength=4).astype(np.int64))
    assert np.array_equal(count_fp(build_tables(p)).part("total")[0], expected)


@pytest.mark.parametrize("p", SCALE_PRIMES)
def test_ha_total_matches_self_power_bincount(p):
    """Ordered pairs with h^h = a^a, by combo of h and a, are C^T C where
    C[v, c] counts the residues x of combo c with x^x = v (mod p)."""
    x, combo = residue_combos(p)
    per_value = np.bincount(power_mod(x, x, p) * 4 + combo, minlength=4 * p).reshape(p, 4)
    t = build_tables(p)
    ha = count_ha(build_ha_buckets(t), t)
    assert np.array_equal(ha.part("total"), class_matrix(per_value.T @ per_value))


@pytest.mark.parametrize("p", TABLE_PRIMES)
def test_divisor_and_inverse_tables(p):
    """div_index names d = gcd(x, n) and inv[x] inverts x/d mod n/d, for every x."""
    t = build_tables(p)
    n = t.n
    x = np.arange(p, dtype=np.int64)
    d = np.gcd(x, n)  # gcd(0, n) = n
    assert np.array_equal(t.divisors[t.div_index], d)
    modulus = n // d
    assert np.all(t.inv < np.maximum(modulus, 1))
    assert np.array_equal((x // d) * t.inv.astype(np.int64) % modulus, 1 % modulus)


def test_build_tables_peak_memory():
    """Building the tables, which retain 12 B/residue, peaks at no more than
    15 B/residue under tracemalloc on 1 or 2 workers (12.6 and 13.2 measured)."""
    p = SCALE_PRIMES[0]
    for workers in (1, 2):
        tracemalloc.start()
        try:
            build_tables(p, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / p <= 15, workers


def traced_peak(stage):
    """stage()'s result and its tracemalloc peak above what was traced when it
    started; tracing must be on."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = stage()
    return result, tracemalloc.get_traced_memory()[1] - before


def test_census_peak_memory():
    """At p = 1000003 the bucket build peaks at no more than 10 B/residue above
    the tables it starts from (9.3 measured) and its arrays retain at most 4
    (3.8), a 1-worker count_tc peaks at 6 above the tables and buckets (5.1),
    and a whole census, tables included, at 23 (21.3)."""
    p = SCALE_PRIMES[0]
    tracemalloc.start()
    try:
        _, census_peak = traced_peak(lambda: census_all(build_tables(p), workers=1))
        t = build_tables(p)
        b, buckets_peak = traced_peak(lambda: build_ha_buckets(t))
        fp = count_fp(t)
        _, tc_peak = traced_peak(lambda: count_tc(b, t, fp, workers=1))
    finally:
        tracemalloc.stop()
    assert buckets_peak / p <= 10
    assert sum(v.nbytes for v in vars(b).values() if isinstance(v, np.ndarray)) / p <= 4
    assert tc_peak / p <= 6
    assert census_peak / p <= 23
