import hashlib
import math
import sys

import numpy as np
import pytest

from dlcensus import residue_tables
from dlcensus.errors import InvalidInputError
from dlcensus.numtheory import euler_phi, is_prime, next_primes
from dlcensus.residue_tables import (
    CLASS_COMBOS,
    CLASSES,
    ConditionClass,
    build_tables,
    class_counts,
    class_matrix,
    class_vector,
)

SMALL_PRIMES = [p for p in range(2, 312) if is_prime(p)]


class TestBuildTables:
    def test_p7_layout(self):
        t = build_tables(7)
        assert t.root == 3
        assert [pow(t.root, k, 7) for k in range(t.n)] == [1, 3, 2, 6, 4, 5]
        assert t.ind[6] == 3
        assert 6 // math.gcd(int(t.ind[6]), 6) == 2  # order of 6

    def test_p2_trivial_group(self):
        t = build_tables(2)
        assert t.n == 1 and t.root == 1
        assert [pow(t.root, k, 2) for k in range(t.n)] == [1]
        assert t.is_pr(1) and t.is_rp(1)

    def test_reference_prime_flag_counts(self):
        t = build_tables(100057)
        pr = sum(1 for x in range(1, t.p) if t.is_pr(x))
        rp = sum(1 for x in range(1, t.p) if t.is_rp(x))
        assert pr == 30240 == rp

    def test_rejects_composite_and_oversized(self):
        with pytest.raises(InvalidInputError):
            build_tables(100056)
        with pytest.raises(InvalidInputError):
            build_tables(2147483659)  # the first prime above 2^31

    def test_arrays_immutable(self):
        t = build_tables(13)
        with pytest.raises(ValueError):
            t.combo_by_index[0] = 5

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_invariants(self, p):
        t = build_tables(p)
        n = p - 1
        # ind inverts the powers of the root and is a bijection onto [0, n-1]
        assert all(pow(t.root, int(t.ind[x]), p) == x for x in range(1, p))
        assert np.array_equal(np.sort(t.ind[1:]), np.arange(n))
        # every residue's flags, read by its index, are PR and RP by gcd
        expected = [(math.gcd(int(t.ind[x]), n) == 1) + 2 * (math.gcd(x, n) == 1)
                    for x in range(1, p)]
        assert t.combo_by_index[t.ind[1:]].tolist() == expected
        # order-from-index law: brute-force order equals n / gcd(ind[x], n)
        for x in range(1, p):
            value, order = x, 1
            while value != 1:
                value = value * x % p
                order += 1
            assert order == n // math.gcd(int(t.ind[x]), n)
        # class count law
        phi = euler_phi(t.factors)
        counts = class_counts(t)
        assert counts.count(ConditionClass.PR) == phi
        assert counts.count(ConditionClass.RP) == phi
        assert counts.count(ConditionClass.ANY) == n


TABLE_FIELDS = ("ind", "combo_by_index", "divisors", "div_index", "inv")

# sha256 of every table array (name, dtype, shape, bytes); each array holds
# the bytes of the build that tabulated the whole power table at once, before
# the build ran in slices.
TABLE_DIGESTS = {
    2: "9587cf24c4ed6b13c3bcc4ba526001da2d07e4a56f32480fdd648335fae39e47",
    3: "2deafeb80e64de8d4c5f535e4e54251309f111f8325d7be4f18d545a23d7356a",
    2521: "ee91355b65bdda0a5e4a3aacbf8d92f8c842e16b5b3ff4190c0cead4169b713e",
    7561: "3515c98fb847796a0ad4ee050525d1e96023e70fca4553843cd23d09f12179fa",
    100057: "106fa20b99094f636dedda20078f3c63b661fb4416be6f51654f9ebb6190de3a",
    1000003: "fea1073b0f79b2e7e44cc4d378582a8e3b97248abb9dff0dd7cfa4a493a9a2fa",
    1108801: "6c92234aad84f1a6cd56f7eff7dbb99f6c5925ceb8a91eac24e675581e93765b",
}


def tables_digest(t) -> str:
    h = hashlib.sha256()
    for name in TABLE_FIELDS:
        a = getattr(t, name)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def reference_tables(p: int, root: int) -> dict[str, list[int]]:
    """Every table by its definition, from Python's pow and math.gcd."""
    n = p - 1
    power = [pow(root, w, p) for w in range(n)]
    ind = [0] * p
    for w, x in enumerate(power):
        ind[x] = w
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    rank = {d: i for i, d in enumerate(divisors)}
    gcds = [math.gcd(x, n) for x in range(p)]  # gcd(0, n) = n
    combo_by_index = [(math.gcd(w, n) == 1) + 2 * (gcds[x] == 1) for w, x in enumerate(power)]
    return {"ind": ind, "combo_by_index": combo_by_index,
            "divisors": divisors, "div_index": [rank[d] for d in gcds],
            "inv": [pow(x // d, -1, n // d) if d < n else 0 for x, d in enumerate(gcds)]}


class TestSlicedBuild:
    """The table build runs in fixed slices on up to `workers` threads; its
    arrays match the definitions and the whole-table build bit for bit."""

    @pytest.mark.parametrize("p", sorted(TABLE_DIGESTS))
    def test_tables_identical_for_any_workers(self, p, monkeypatch):
        """A lost or misplaced write by a concurrent slice would change a
        digest; a short switch interval makes the threads interleave often."""
        reference = reference_tables(p, build_tables(p).root) if p < 10**6 else None
        # Small slices split even the small primes, so their slices run on threads.
        slice_sizes = (residue_tables._SLICE, 999) if p < 10**6 else (residue_tables._SLICE,)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for slice_size in slice_sizes:
                monkeypatch.setattr(residue_tables, "_SLICE", slice_size)
                for workers in (1, 2, 3):
                    t = build_tables(p, workers)
                    assert tables_digest(t) == TABLE_DIGESTS[p], (slice_size, workers)
                    if reference is not None:
                        for name in TABLE_FIELDS:
                            assert getattr(t, name).tolist() == reference[name], (name, workers)
        finally:
            sys.setswitchinterval(interval)

    def test_rejects_no_workers(self):
        with pytest.raises(InvalidInputError):
            build_tables(7, workers=0)


class TestClassify:
    def test_p5_examples(self):
        t = build_tables(5)
        assert (t.is_pr(3), t.is_rp(3)) == (True, True)  # RPPR
        assert (t.is_pr(1), t.is_rp(1)) == (False, True)
        assert (t.is_pr(2), t.is_rp(2)) == (True, False)

    def test_rejects_out_of_range(self):
        t = build_tables(5)
        assert (t.is_pr(0), t.is_rp(0)) == (False, False)  # padding, in no class
        with pytest.raises(IndexError):
            t.is_pr(5)
        with pytest.raises(IndexError):
            t.is_rp(5)


class TestClassCounts:
    def test_small_prime_examples(self):
        by_class = {p: [class_counts(build_tables(p)).count(c) for c in CLASSES]
                    for p in (2, 5, 7)}
        assert by_class[7] == [6, 2, 2, 1]
        assert by_class[5] == [4, 2, 2, 1]
        assert by_class[2] == [1, 1, 1, 1]

    def test_intersections(self):
        counts = class_counts(build_tables(7))
        assert counts.intersection(ConditionClass.PR, ConditionClass.RP) == \
            counts.count(ConditionClass.RPPR) == 1
        assert counts.intersection(ConditionClass.ANY, ConditionClass.PR) == 2
        for a in CLASSES:
            for b in CLASSES:
                shared = set(CLASS_COMBOS[a]) & set(CLASS_COMBOS[b])
                assert counts.intersection(a, b) == sum(counts.combo_counts[c] for c in shared)

    @pytest.mark.parametrize("p", next_primes(2, 20))
    def test_monotone_memberships(self, p):
        counts = class_counts(build_tables(p))
        assert counts.count(ConditionClass.RPPR) <= counts.count(ConditionClass.PR)
        assert counts.count(ConditionClass.RPPR) <= counts.count(ConditionClass.RP)
        assert counts.count(ConditionClass.PR) <= counts.count(ConditionClass.ANY)


class TestComboAggregation:
    def test_matrix_aggregation_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        combo = rng.integers(0, 50, size=(4, 4))
        grid = class_matrix(combo)
        sets = {0: (0, 1, 2, 3), 1: (1, 3), 2: (2, 3), 3: (3,)}
        for i in range(4):
            for j in range(4):
                expected = sum(int(combo[a, b]) for a in sets[i] for b in sets[j])
                assert grid[i, j] == expected

    def test_vector_aggregation(self):
        vec = np.array([1, 10, 100, 1000])
        assert list(class_vector(vec)) == [1111, 1010, 1100, 1000]
