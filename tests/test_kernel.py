"""Property tests for the per-prime inverse and divisor tables, the ha
buckets, the tc divisor-pair tables and solvability test, and the table-driven
fp/tc kernels, against the scalar completion path."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlcensus import census
from dlcensus.census import (
    build_ha_buckets,
    completion_sum,
    completions,
    count_fp,
    count_ha,
    count_tc,
    divisor_pair_tables,
)
from dlcensus.numtheory import next_primes
from dlcensus.residue_tables import CLASSES, build_tables, class_matrix, class_vector

ANY = CLASSES[0]

# Edge shapes of n = p - 1: n = 1 and 2, n a power of 2 (17, 257), safe
# primes (n = 2q with q prime: 1019, 2039), and highly composite n (2520
# with 48 divisors, 7560 with 64), whose buckets of up to 22 and 25 members
# make the off-diagonal pairs h != a most of the tc work.
EDGE_PRIMES = (2, 3, 17, 257, 1019, 2039, 2521, 7561)

small_primes = st.integers(10**3, 2 * 10**4).map(lambda k: next_primes(k, 1)[0])
bounded = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def with_edge_examples(test):
    for p in EDGE_PRIMES:
        test = example(p)(test)
    return test


@bounded
@given(small_primes)
@with_edge_examples
def test_inverse_table_inverts(p):
    t = build_tables(p)
    n = t.n
    x = np.arange(p, dtype=np.int64)
    d = np.gcd(x, n)  # gcd(0, n) = n
    assert np.array_equal(t.divisors, sorted(t.divisors))
    assert np.array_equal(t.divisors[t.div_index], d)
    modulus = n // d
    assert np.all(t.inv < np.maximum(modulus, 1))
    assert np.array_equal((x // d) * t.inv.astype(np.int64) % modulus, 1 % modulus)


@bounded
@given(small_primes)
@with_edge_examples
def test_divisor_pair_tables(p):
    t = build_tables(p)
    n = t.n
    divs = [int(d) for d in t.divisors]
    e, lift_mod, shared, lift = divisor_pair_tables(t)
    assert lift.shape == (len(divs), len(divs))
    for i, d1 in enumerate(divs):
        for j, d2 in enumerate(divs):
            g = math.gcd(d1, d2)
            modulus = d1 // g
            assert (e[i, j], lift_mod[i, j]) == (g, modulus)
            assert shared[i, j] == n // (d1 * d2 // g)
            assert int(lift[i, j]) < max(modulus, 1)
            assert (d2 // g) * int(lift[i, j]) % modulus == 1 % modulus


def scalar_census(b, t):
    """Combo-level fp and tc tallies from the scalar completions(), which
    solves each congruence without the tables: fp (combo g, combo h), and tc
    indexed (h = a, a RP, combo g, combo h), over the diagonal h = a in
    1..n and the in-bucket pairs h != a."""
    fp = np.zeros((4, 4), dtype=np.int64)
    tc = np.zeros((2, 2, 4, 4), dtype=np.int64)
    pairs = [(h, h) for h in range(1, t.n + 1)]
    for i in range(b.num_buckets):
        group = [int(x) for x in b.bucket_members(i)]
        pairs += [(h, a) for h in group for a in group if h != a]
    combo = t.combo_by_index[t.ind]  # entry 0 is padding
    for h, a in pairs:
        for g in completions(h, a, t):
            tc[int(h == a), combo[a] >> 1, combo[g], combo[h]] += 1
            if h == a:
                fp[combo[g], combo[h]] += 1
    return fp, tc


@bounded
@given(small_primes)
@with_edge_examples
def test_kernels_match_scalar_completions(p):
    t = build_tables(p)
    b = build_ha_buckets(t)
    fp = count_fp(t)
    tc = count_tc(b, t, fp)
    total, _ = completion_sum(b, t)
    assert tc.entry("nontrivial", ANY, ANY) == total
    scalar_fp, scalar_tc = scalar_census(b, t)
    assert np.array_equal(fp.part("total"), class_matrix(scalar_fp))
    trivial, nontrivial = tc.part("trivial"), tc.part("nontrivial")
    assert np.array_equal(trivial[:4], class_matrix(scalar_tc[1].sum(axis=0)))
    assert np.array_equal(nontrivial[:4], class_matrix(scalar_tc[0].sum(axis=0)))
    assert np.array_equal(trivial[4], class_vector(scalar_tc[1, 1].sum(axis=0)))
    assert np.array_equal(nontrivial[4], class_vector(scalar_tc[0, 1].sum(axis=0)))


def in_bucket_pairs(b):
    """Every in-bucket pair (h, a) with h < a."""
    for i in range(b.num_buckets):
        group = [int(x) for x in b.bucket_members(i)]
        for k, h in enumerate(group):
            for a in group[k + 1:]:
                yield h, a


@bounded
@given(small_primes)
@with_edge_examples
def test_completions_symmetric_in_bucket(p):
    t = build_tables(p)
    for h, a in in_bucket_pairs(build_ha_buckets(t)):
        assert completions(h, a, t) == completions(a, h, t), (h, a)


@bounded
@given(small_primes)
@with_edge_examples
def test_buckets_match_stable_argsort(p):
    t = build_tables(p)
    b = build_ha_buckets(t)
    key = np.arange(1, p, dtype=np.int64) * t.ind[1:] % t.n
    shared = np.bincount(key, minlength=t.n)[key] > 1  # only shared keys form buckets
    order = np.flatnonzero(shared)[np.argsort(key[shared], kind="stable")]
    starts = np.unique(key[order], return_index=True)[1]  # none when no key is shared
    offsets = np.append(starts, len(order))
    expected = {"members": (order + 1).astype(np.uint32),
                "offsets": offsets.astype(np.uint32)}
    for name, want in expected.items():
        got = getattr(b, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@bounded
@given(small_primes)
@with_edge_examples
def test_prefilter_drops_only_unsolvable_pairs(p):
    """count_tc drops an in-bucket pair (h, a) unless gcd(h, n) divides ind(a)
    and gcd(a, n) divides ind(h); no dropped pair, and no diagonal pair the
    same test fails, has a completion, and from p = 1000 on some are dropped."""
    t = build_tables(p)
    b = build_ha_buckets(t)
    d = t.divisors[t.div_index]  # d[x] = gcd(x, n), checked in test_inverse_table_inverts
    dropped = 0
    for h, a in in_bucket_pairs(b):
        if not (t.ind[a] % d[h] == 0 and t.ind[h] % d[a] == 0):
            dropped += 1
            assert completions(h, a, t) == [], (h, a)
    for h in range(1, p):
        if t.ind[h] % d[h] != 0:
            assert completions(h, h, t) == [], h
    assert p < 1000 or dropped > 0


@bounded
@given(st.integers(10**2, 5 * 10**3).map(lambda k: next_primes(k, 1)[0]))
@with_edge_examples
def test_chunking_keeps_counts(p):
    """At the default chunk size every counter below p ~ 1.3e5 runs as one
    chunk; chunks of 1 and 7 exercise the chunk bounds, and tc's fallback to
    one bucket per chunk when a bucket holds more pairs than a chunk."""
    t = build_tables(p)
    b = build_ha_buckets(t)
    fp = count_fp(t)
    want = (fp, count_ha(b, t), count_tc(b, t, fp))
    default = census._CHUNK
    try:  # a function-scoped monkeypatch would trip hypothesis' health check
        for chunk in (1, 7):
            census._CHUNK = chunk
            for workers in (1, 2):
                got_fp = count_fp(t, workers=workers)
                got = (got_fp, count_ha(b, t, workers=workers),
                       count_tc(b, t, got_fp, workers=workers))
                assert got == want, (chunk, workers)
    finally:
        census._CHUNK = default
