import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dlcensus import census, parallel, residue_tables
from dlcensus.census import (
    CountMatrix,
    Equation,
    build_ha_buckets,
    census_all,
    completions,
    count_fp,
    count_ha,
    count_tc,
)
from dlcensus.errors import InvalidInputError
from dlcensus.numtheory import is_prime
from dlcensus.oracle import oracle_census
from dlcensus.report import render_counts
from dlcensus.residue_tables import (
    CLASSES,
    ROWS,
    ConditionClass,
    build_tables,
    class_counts,
    class_matrix,
)
from scalar_reference import bucket_pairs, scalar_tc

ANY, PR, RP, RPPR = CLASSES
ORD = ConditionClass.ORD

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def census_for(p, workers=1):
    t = build_tables(p)
    b = build_ha_buckets(t)
    fp = count_fp(t, workers=workers)
    ha = count_ha(b, t, workers=workers)
    tc = count_tc(b, t, fp, workers=workers)
    return t, b, fp, ha, tc


class TestCountFp:
    def test_p5(self):
        fp = count_fp(build_tables(5))
        assert fp.entry("total", ANY, ANY) == 2  # (1,1) and (2,3)
        assert fp.entry("total", ANY, RP) == 2

    def test_p7(self):
        fp = count_fp(build_tables(7))
        assert fp.entry("total", ANY, ANY) == 6
        assert fp.entry("total", ANY, PR) == 1 == fp.entry("total", PR, PR)

    def test_p3(self):
        fp = count_fp(build_tables(3))
        assert fp.entry("total", ANY, ANY) == 1  # only (1,1)

    def test_no_split(self):
        fp = count_fp(build_tables(13))
        assert not fp.part("trivial").any()
        assert np.array_equal(fp.part("nontrivial"), fp.part("total"))


def bucket_groups(b):
    return sorted(sorted(int(x) for x in b.bucket_members(i)) for i in range(b.num_buckets))


def unpaired(b):
    """Residues in no bucket: their key is theirs alone."""
    return sorted(set(range(1, b.p)) - {int(x) for x in b.members})


class TestHaBuckets:
    def test_p7_groups(self):
        b = build_ha_buckets(build_tables(7))
        assert bucket_groups(b) == [[1, 6], [2, 4]]
        assert unpaired(b) == [3, 5]

    def test_p5_groups(self):
        b = build_ha_buckets(build_tables(5))
        assert bucket_groups(b) == [[1, 4]]
        assert unpaired(b) == [2, 3]

    def test_p2_no_bucket(self):
        # the one residue has a key of its own
        b = build_ha_buckets(build_tables(2))
        assert b.num_buckets == 0
        assert b.members.tolist() == [] and b.offsets.tolist() == [0]
        assert (b.members.dtype, b.offsets.dtype) == (np.uint32, np.uint32)

    @pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
    def test_key_characterizes_solutions(self, p):
        t = build_tables(p)
        b = build_ha_buckets(t)
        key = [x * int(t.ind[x]) % t.n for x in range(p)]
        bucket = {int(x): i for i in range(b.num_buckets) for x in b.bucket_members(i)}
        assert len(bucket) == len(b.members)  # no residue in two buckets
        powers = [pow(x, x, p) for x in range(p)]
        for h in range(1, p):
            # a residue is left out iff no other residue has its power
            assert (h not in bucket) == (powers[1:].count(powers[h]) == 1), h
            for a in range(1, p):
                same_power = powers[h] == powers[a]
                assert (key[h] == key[a]) == same_power, (h, a)
                if h != a:
                    assert (h in bucket and bucket.get(h) == bucket.get(a)) == same_power, (h, a)
        assert int(b.sizes.sum()) == p - 1 - len(unpaired(b))

    def test_per_bucket_class_counts(self):
        t = build_tables(7)
        b = build_ha_buckets(t)
        flags = {x: [True, t.is_pr(x), t.is_rp(x), t.is_pr(x) and t.is_rp(x)] for x in range(1, 7)}
        expected = {"trivial": [[0] * 4 for _ in range(4)],
                    "nontrivial": [[0] * 4 for _ in range(4)]}
        pairs = [(x, x) for x in range(1, 7)]  # the diagonal runs over every residue
        for i in range(b.num_buckets):
            members = [int(x) for x in b.bucket_members(i)]
            pairs += [(h, a) for h in members for a in members if h != a]
        for h, a in pairs:
            grid = expected["trivial" if h == a else "nontrivial"]
            for r in range(4):
                for c in range(4):
                    grid[r][c] += flags[a][r] and flags[h][c]
        ha = count_ha(b, t)
        for part, grid in expected.items():
            assert ha.part(part).tolist() == grid, part

    @pytest.mark.parametrize("p", [2, 3, 13, 1009])
    def test_slices_keep_buckets(self, monkeypatch, p):
        # slices of 1-7 residues end inside buckets and inside runs of
        # unshared keys, and write members over values a slice before
        t = build_tables(p)
        want = build_ha_buckets(t)
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(census, "_SLICE", size)
            got = build_ha_buckets(t)
            assert np.array_equal(got.members, want.members), size
            assert np.array_equal(got.offsets, want.offsets), size

    @pytest.mark.parametrize("hook", ["setprofile", "settrace"])
    def test_builds_under_profiler_or_tracer(self, hook):
        # a profiler or tracer holds its own reference to the sort buffer (a
        # bound method, or the frame's locals) while the buffer is shrunk
        t = build_tables(10007)
        want = build_ha_buckets(t)

        def tracer(frame, event, arg):
            return tracer

        previous = getattr(sys, "get" + hook[3:])()
        getattr(sys, hook)(tracer)
        try:
            got = build_ha_buckets(t)
        finally:
            getattr(sys, hook)(previous)
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.offsets, want.offsets)

    def test_counts_bucket_beyond_uint16(self):
        # every key x * 0 is 0, so all 70000 residues share one bucket
        p = 70001
        tables = SimpleNamespace(p=p, n=p - 1, ind=np.zeros(p, dtype=np.uint32),
                                 combo_by_index=np.zeros(p - 1, dtype=np.uint8))
        b = build_ha_buckets(tables)
        assert b.offsets.tolist() == [0, 70000]
        ha = count_ha(b, tables)
        assert ha.entry("total", ANY, ANY) == 4_900_000_000
        assert ha.entry("trivial", ANY, ANY) == 70000

    @pytest.mark.parametrize("fill", [0, 1, 2, 3, "mixed"])
    def test_full_bucket_combo_counts(self, fill):
        # n = 2^17: odd x has index 3 * x^-1 mod n, hence key 3, so the 2^16
        # odd residues fill one bucket; even x has index x mod n and an even
        # key, outside it.  ind maps the residues onto the indices, so the
        # trivial part, counted by index, covers every residue once.
        n = 1 << 17
        ind = np.zeros(n + 1, dtype=np.uint32)
        ind[1::2] = [3 * pow(x, -1, n) % n for x in range(1, n, 2)]
        ind[2::2] = np.arange(2, n + 1, 2) % n
        w = np.arange(n)
        combo_by_index = ((w >> 1) % 4 if fill == "mixed"
                          else np.where(w % 2 == 1, fill, 3 - fill)).astype(np.uint8)
        tables = SimpleNamespace(p=n + 1, n=n, ind=ind, combo_by_index=combo_by_index)
        b = build_ha_buckets(tables)
        full = np.flatnonzero(b.sizes >= 65535)
        assert len(full) == 1 and b.bucket_members(full[0]).tolist() == list(range(1, n, 2))
        x = np.arange(1, n + 1)
        flags = combo_by_index[ind[x]]
        if fill == "mixed":
            assert np.all(np.bincount(flags[::2], minlength=4) > 0)  # every combo in the bucket
        _, key = np.unique(x * ind[x].astype(np.int64) % n, return_inverse=True)
        c = np.zeros((key.max() + 1, 4), dtype=np.int64)  # per-key combo counts
        np.add.at(c, (key, flags), 1)
        ha = count_ha(b, tables)
        assert np.array_equal(ha.part("trivial"), class_matrix(np.diag(c.sum(axis=0))))
        assert np.array_equal(ha.part("total"), class_matrix(c.T @ c))


class TestCountHa:
    def test_p7(self):
        _, _, _, ha, _ = census_for(7)
        assert ha.entry("nontrivial", ANY, ANY) == 4  # (1,6),(6,1),(2,4),(4,2)
        assert ha.entry("trivial", ANY, ANY) == 6

    def test_p2(self):
        _, _, _, ha, _ = census_for(2)
        assert ha.entry("trivial", ANY, ANY) == 1
        assert ha.entry("nontrivial", ANY, ANY) == 0

    def test_trivial_part_is_class_intersections(self):
        for p in (5, 13, 31):
            t, _, _, ha, _ = census_for(p)
            counts = class_counts(t)
            for i, r in enumerate(CLASSES):
                for j, c in enumerate(CLASSES):
                    assert ha.part("trivial")[i, j] == counts.intersection(r, c)

    @pytest.mark.parametrize("chunk", [100, 22000])
    def test_wide_chunks_keep_counts(self, monkeypatch, chunk):
        # combo * chunk length reaches 3 * chunk length: past 255 for chunks
        # of 86-255 buckets and past 65535 for chunks of 21846-65535, so the
        # product must not stay in a small integer dtype.
        t = build_tables(100057)
        b = build_ha_buckets(t)
        assert b.num_buckets > chunk  # a full chunk and a partial one
        c = np.zeros((b.num_buckets, 4), dtype=np.int64)  # per-bucket combo counts
        combo = t.combo_by_index[t.ind[b.members]]
        np.add.at(c, (np.repeat(np.arange(b.num_buckets), b.sizes), combo), 1)
        monkeypatch.setattr(census, "_CHUNK", chunk)
        ha = count_ha(b, t)
        in_buckets = np.diag(c.sum(axis=0))
        assert np.array_equal(ha.part("nontrivial"), class_matrix(c.T @ c - in_buckets))
        # the diagonal holds every residue
        every = np.bincount(t.combo_by_index[t.ind[1:]], minlength=4)
        assert np.array_equal(ha.part("trivial"), class_matrix(np.diag(every)))

    def test_rejects_mismatched_tables(self):
        b = build_ha_buckets(build_tables(7))
        with pytest.raises(InvalidInputError):
            count_ha(b, build_tables(11))


class TestCompletions:
    def test_p7_examples(self):
        t = build_tables(7)
        assert completions(2, 4, t) == [2, 5]  # gcd(2,4,6)=2, two completions
        assert completions(1, 6, t) == [6]
        assert completions(3, 5, t) == []  # 3^3=6, 5^5=3: different keys

    @pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
    def test_matches_brute_force(self, p):
        t = build_tables(p)
        for h in range(1, p):
            for a in range(1, p):
                expected = [g for g in range(1, p)
                            if pow(g, h, p) == a and pow(g, a, p) == h]
                assert completions(h, a, t) == expected, (p, h, a)

    def test_count_is_gcd_when_solvable(self):
        t = build_tables(31)
        n = 30
        for h in range(1, 31):
            for a in range(1, 31):
                found = completions(h, a, t)
                if found:
                    assert len(found) == math.gcd(math.gcd(h, a), n)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            completions(0, 3, build_tables(7))


class TestCountTc:
    def test_p7(self):
        _, _, fp, _, tc = census_for(7)
        assert tc.entry("nontrivial", ANY, ANY) == 6
        assert np.array_equal(tc.part("trivial")[:4], fp.part("total"))

    def test_p5(self):
        _, _, _, _, tc = census_for(5)
        assert tc.entry("nontrivial", ANY, ANY) == 2  # (4,1) and (4,4)
        assert tc.entry("trivial", ANY, ANY) == 2

    def test_p3(self):
        # nontrivial solutions: (2,1) with a=2 and (2,2) with a=1
        _, _, _, _, tc = census_for(3)
        assert tc.entry("trivial", ANY, ANY) == 1
        assert tc.entry("nontrivial", ANY, ANY) == 2

    def test_rejects_foreign_fp(self):
        t = build_tables(7)
        b = build_ha_buckets(t)
        with pytest.raises(InvalidInputError):
            count_tc(b, t, count_fp(build_tables(11)))

    def test_ord_row_present_only_for_tc(self):
        _, _, fp, ha, tc = census_for(13)
        assert tc.rows == (*CLASSES, ORD)
        assert fp.rows == CLASSES == ha.rows
        for m in (fp, ha):
            with pytest.raises(InvalidInputError):
                m.entry("total", ORD, ANY)

    @pytest.mark.parametrize("chunk, slice_size",
                             [(1, 1), (7, 2), (20, 3), (100, 5), (1000, 1 << 14)])
    def test_chunk_bounds_are_greedy_runs_of_whole_buckets(self, monkeypatch, chunk, slice_size):
        """The slice-by-slice bounds are the greedy runs of whole buckets whose
        s(s+1)/2 weights fit the budget, or one bucket that alone exceeds it."""
        monkeypatch.setattr(census, "_CHUNK", chunk)
        monkeypatch.setattr(census, "_SLICE", slice_size)
        rng = np.random.default_rng(chunk)
        for _ in range(40):
            sizes = [int(s) for s in rng.integers(2, rng.choice([3, 8, 40]), rng.integers(0, 50))]
            want, used = [0], 0
            for i, s in enumerate(sizes):
                if i > want[-1] and used + s * (s + 1) // 2 > chunk:
                    want.append(i)
                    used = 0
                used += s * (s + 1) // 2
            if want[-1] < len(sizes):
                want.append(len(sizes))
            offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]).astype(np.uint32)
            assert census._tc_bounds(offsets) == want, sizes


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_all_equations(self, p):
        _, _, fp, ha, tc = census_for(p)
        assert {Equation.FP: fp, Equation.HA: ha, Equation.TC: tc} == oracle_census(p)


class TestStructuralInvariants:
    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_counts_are_consistent(self, p):
        t, b, fp, ha, tc = census_for(p)
        phi = class_counts(t).count(PR)
        # exact equality of the census with phi(p-1) for unconstrained g, h RP
        assert fp.entry("total", ANY, RP) == phi
        for m in (fp, ha, tc):
            assert np.array_equal(m.part("total"), m.part("trivial") + m.part("nontrivial"))
            # monotonicity: adding a constraint never increases a count
            for part in ("trivial", "nontrivial", "total"):
                grid = m.part(part)
                for i, j in ((1, 0), (2, 0), (3, 1), (3, 2)):
                    assert (grid[i, :] <= grid[j, :]).all()
                    assert (grid[:, i] <= grid[:, j]).all()
        for part in ("trivial", "nontrivial", "total"):
            assert np.array_equal(ha.part(part), ha.part(part).T)

    @pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)])
    def test_completion_sum_law(self, p):
        t, b, fp, ha, tc = census_for(p)
        counts, not_single = scalar_tc(t, bucket_pairs(b))
        assert counts[1, 0, 0] == tc.entry("nontrivial", ANY, ANY)
        assert not_single == []  # gcd(h, a, n) = 1 gives exactly one completion

    @pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)])
    def test_tc_ha_correspondences(self, p):
        _, _, _, ha, tc = census_for(p)
        assert tc.entry("nontrivial", ANY, RP) == ha.entry("nontrivial", ANY, RP)
        assert tc.entry("nontrivial", PR, RP) == ha.entry("nontrivial", PR, RP)
        assert tc.entry("nontrivial", PR, PR) == ha.entry("nontrivial", RP, PR)
        for col in CLASSES:
            assert tc.entry("nontrivial", ORD, col) == ha.entry("nontrivial", RP, col)
        rppr = tc.entry("nontrivial", PR, RPPR)
        for row in (ANY, PR, RP):
            assert ha.entry("nontrivial", row, RPPR) == rppr
        for col in CLASSES:
            assert ha.entry("nontrivial", RPPR, col) == rppr


class TestCensusAll:
    def test_worker_counts_agree(self, monkeypatch):
        monkeypatch.setattr(census, "_CHUNK", 4)  # several chunks, so threads start
        t = build_tables(101)
        runs = {w: census_all(t, workers=w) for w in (1, 2, 5)}
        for eq in Equation:
            assert runs[1][eq] == runs[2][eq] == runs[5][eq]

    def test_workers_clamped_to_usable_cpus(self, monkeypatch):
        """Requested workers beyond the usable CPUs start no extra threads, in
        the census and in the table build; a serial stand-in pool records
        max_workers and starts no thread at all."""
        monkeypatch.setattr(census, "_CHUNK", 4)  # at p=101 one chunk would start no pool
        monkeypatch.setattr(residue_tables, "_SLICE", 4)  # and one table slice
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert parallel.usable_cpus() == 3
        t = build_tables(101, workers=10**6)
        assert requested and max(requested) == 3
        requested.clear()
        clamped = census_all(t, workers=10**6)
        assert requested and max(requested) == 3
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
        requested.clear()
        serial = build_tables(101, workers=10**6)
        assert all(np.array_equal(getattr(serial, name), getattr(t, name))
                   for name in ("ind", "combo_by_index", "div_index", "inv"))
        assert census_all(t, workers=10**6) == census_all(t, workers=1) == clamped
        assert requested == []

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            census_all(build_tables(10))
        with pytest.raises(InvalidInputError):
            census_all(build_tables(7), workers=0)

    @pytest.mark.parametrize("wanted, counters", [
        ((Equation.FP,), {"count_fp"}),
        ((Equation.HA,), {"build_ha_buckets", "count_ha"}),
        ((Equation.TC,), {"count_fp", "build_ha_buckets", "count_tc"}),
        ((Equation.TC, Equation.FP), {"count_fp", "build_ha_buckets", "count_tc"}),
    ])
    def test_runs_only_needed_counters(self, monkeypatch, wanted, counters):
        t = build_tables(13)
        full = census_all(t)
        ran = set()
        for name in ("count_fp", "build_ha_buckets", "count_ha", "count_tc"):
            def traced(*args, _name=name, _fn=getattr(census, name), **kwargs):
                ran.add(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(census, name, traced)
        matrices = census_all(t, wanted)
        assert ran == counters
        assert list(matrices) == list(wanted)
        assert all(matrices[eq] == full[eq] for eq in wanted)

    def test_equations_labelled(self):
        fp, ha, tc = census_all(build_tables(5)).values()
        assert (fp.equation, ha.equation, tc.equation) == (Equation.FP, Equation.HA, Equation.TC)
        assert (fp.row_var, ha.row_var, tc.row_var) == ("g", "a", "g")


class TestCountMatrixPayload:
    def test_payload_round_structure(self):
        _, _, fp, _, tc = census_for(7)
        payload = json.loads(render_counts(tc, "json"))
        assert payload["parts"]["nontrivial"]["ANY"]["ANY"] == 6
        assert payload["ord_row"]["trivial"]["ANY"] == 2
        assert json.loads(render_counts(fp, "json"))["ord_row"] is None

    def test_entry_rejects_unknown_part(self):
        _, _, fp, _, _ = census_for(5)
        with pytest.raises(InvalidInputError):
            fp.entry("bogus", ANY, ANY)

    @pytest.mark.parametrize("p", (2, 13))
    def test_one_read_only_grid(self, p):
        brute = oracle_census(p)
        for eq, fast in census_all(build_tables(p)).items():
            for m in (fast, brute[eq]):
                assert not m.counts.flags.writeable
                with pytest.raises(ValueError):
                    m.counts[0, 0, 0] = 1
                assert m.counts.dtype == np.int64
                assert m.counts.shape == (2, 5 if eq is Equation.TC else 4, 4)
                assert m.rows == ROWS[:m.counts.shape[1]]
                with pytest.raises(InvalidInputError):
                    m.part("bogus")
