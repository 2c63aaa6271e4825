"""Property tests for the per-prime inverse and divisor tables, the ha
buckets, the tc divisor-pair tables and solvability test, and the table-driven
fp/tc kernels, against the scalar completion path."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlcensus import census
from dlcensus.census import (
    HaBuckets,
    build_ha_buckets,
    completions,
    count_fp,
    count_ha,
    count_tc,
    divisor_pair_tables,
)
from dlcensus.numtheory import next_primes
from dlcensus.residue_tables import build_tables
from scalar_reference import bucket_pairs, scalar_tc

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


@bounded
@given(small_primes)
@with_edge_examples
def test_kernels_match_scalar_completions(p):
    t = build_tables(p)
    b = build_ha_buckets(t)
    fp = count_fp(t)
    tc = count_tc(b, t, fp)
    pairs = [(h, h) for h in range(1, p)] + list(bucket_pairs(b))
    counts, not_single = scalar_tc(t, pairs)
    assert np.array_equal(fp.part("total"), counts[0, :4])
    assert np.array_equal(tc.counts, counts)
    assert not_single == []


@bounded
@given(small_primes)
@with_edge_examples
def test_completions_symmetric_in_bucket(p):
    t = build_tables(p)
    for h, a in bucket_pairs(build_ha_buckets(t)):
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
    for h, a in bucket_pairs(b):
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


def test_tc_pairs_sharing_factors_with_n_at_1e6():
    """The in-bucket pairs whose members both share a factor with n at
    p = 1000003, against the scalar completions.  No runtime claim ties these
    pairs to ha, as neither member is RP, so their ORD row is zero."""
    t = build_tables(1000003)
    b = build_ha_buckets(t)
    bucket = np.repeat(np.arange(b.num_buckets), b.sizes)
    shares = np.gcd(b.members.astype(np.int64), t.n) > 1
    sizes = np.bincount(bucket[shares], minlength=b.num_buckets)
    keep = shares & (sizes[bucket] >= 2)
    offsets = np.concatenate([[0], np.cumsum(sizes[sizes >= 2])]).astype(np.uint32)
    sub = HaBuckets(p=t.p, n=t.n, members=b.members[keep], offsets=offsets)
    pairs = list(bucket_pairs(sub))
    assert len(pairs) == 486_436
    counts, not_single = scalar_tc(t, pairs)
    tc = count_tc(sub, t, count_fp(t))
    assert np.array_equal(tc.part("nontrivial"), counts[1])
    assert not tc.part("nontrivial")[4].any()
    assert not_single == []
