"""Exact solution counts for the three equations over residues mod a prime p:

    fp:  g^h = h (mod p)
    ha:  h^h = a^a (mod p)
    tc:  g^h = a and g^a = h (mod p), counted over (g, h) with a = g^h

Counting works in the index (discrete log) domain instead of brute force.
With w = ind(g), fp becomes the linear congruence h*w = ind(h) (mod n), so
each h contributes gcd(h, n) candidate g values when solvable.  For ha,
h^h = a^a iff key(h) = key(a) where key(x) = x*ind(x) mod n, so solutions are
ordered pairs drawn from equal-key buckets.  A tc solution is a completion g
of a bucket pair (h, a); the trivial part (a = h) is exactly the fp solution
set.

All counters return a CountMatrix: rows are the condition classes of the row
variable (g for fp/tc, a for ha), plus the ORD row for tc, and columns the
classes of h; entry(part, row, col) reads any cell, and the total part is
derived as trivial + nontrivial.  Work may be partitioned over
worker threads; partial tallies are plain integer matrices merged by
addition, so results are identical for every worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolation
from .numtheory import divisors_with_phi, solve_linear_congruence
from .residue_tables import (
    CLASSES,
    ResidueTables,
    build_tables,
    class_matrix,
    class_vector,
    ConditionClass,
)

# Pair-expansion budget per chunk; keeps transient arrays below ~200 MB even
# for table-limit primes.
_PAIR_CHUNK = 1 << 21


class Equation(enum.Enum):
    FP = "fp"
    HA = "ha"
    TC = "tc"

    @property
    def row_var(self) -> str:
        """The variable indexing matrix rows: a for ha, g otherwise."""
        return "a" if self is Equation.HA else "g"


_PART_NAMES = ("trivial", "nontrivial", "total")


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Observed solution counts for one equation at one prime.

    trivial and nontrivial are 4x4 int64 matrices indexed by CLASSES (rows:
    g for fp/tc, a for ha; columns: h), and total is their sum.  fp has no
    split: its trivial matrix is zero.  For tc only, ord_trivial and
    ord_nontrivial hold the ORD row: per h-class, the solutions whose
    companion a = g^h is coprime to n; those are exactly the solutions in
    one-to-one correspondence with ha solutions having a RP, and every one of
    them has ord(g) = ord(h).
    """

    p: int
    equation: Equation
    trivial: np.ndarray
    nontrivial: np.ndarray
    ord_trivial: np.ndarray | None = None
    ord_nontrivial: np.ndarray | None = None

    @property
    def row_var(self) -> str:
        return self.equation.row_var

    @property
    def rows(self) -> tuple[ConditionClass, ...]:
        """Row classes: CLASSES, then ORD for tc."""
        return CLASSES if self.ord_trivial is None else (*CLASSES, ConditionClass.ORD)

    @property
    def total(self) -> np.ndarray:
        return self.trivial + self.nontrivial

    def part(self, name: str) -> np.ndarray:
        if name not in _PART_NAMES:
            raise InvalidInputError(f"unknown part {name!r}")
        return getattr(self, name)

    def entry(self, part: str, row: ConditionClass, col: ConditionClass) -> int:
        """One count; row ORD exists for tc only."""
        if row is not ConditionClass.ORD:
            trivial, nontrivial = self.trivial, self.nontrivial
            at = (CLASSES.index(row), CLASSES.index(col))
        elif self.ord_trivial is not None:
            trivial, nontrivial = self.ord_trivial, self.ord_nontrivial
            at = CLASSES.index(col)
        else:
            raise InvalidInputError(f"{self.equation.value} census has no ORD row")
        if part == "trivial":
            return int(trivial[at])
        if part == "nontrivial":
            return int(nontrivial[at])
        if part == "total":
            return int(trivial[at]) + int(nontrivial[at])
        raise InvalidInputError(f"unknown part {part!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMatrix):
            return NotImplemented
        return (self.p == other.p and self.equation is other.equation
                and self.rows == other.rows
                and all(self.entry(part, row, col) == other.entry(part, row, col)
                        for part in ("trivial", "nontrivial")
                        for row in self.rows for col in CLASSES))


def _freeze(m: CountMatrix) -> CountMatrix:
    for arr in (m.trivial, m.nontrivial, m.ord_trivial, m.ord_nontrivial):
        if arr is not None:
            arr.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class HaBuckets:
    """Residues grouped by key(x) = x*ind(x) mod n.

    (h, a) solves h^h = a^a (mod p) iff key(h) = key(a).  members lists the
    residues ordered by key; bucket i occupies members[offsets[i]:offsets[i+1]]
    and combo_counts[i] tallies its residues per PR/RP combo.
    """

    p: int
    n: int
    members: np.ndarray  # uint32, length n
    offsets: np.ndarray  # int64, length num_buckets + 1
    bucket_keys: np.ndarray  # uint32, one per bucket
    combo_counts: np.ndarray  # int64, num_buckets x 4

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_keys)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def bucket_members(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]


def _split_ranges(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, hi - lo)) if hi > lo else 1
    width = (hi - lo + parts - 1) // parts
    return [(s, min(s + width, hi)) for s in range(lo, hi, width)] if hi > lo else []


def _merge_partials(worker, ranges: list[tuple[int, int]], workers: int):
    """Run worker over ranges and sum the tuple-of-array results elementwise."""
    if workers <= 1 or len(ranges) <= 1:
        parts = [worker(lo, hi) for lo, hi in ranges]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda r: worker(*r), ranges))
    merged = [sum(group) for group in zip(*parts)]
    return merged


def _modpow_vec(base: np.ndarray, exponent: int, modulus: int) -> np.ndarray:
    """base^exponent mod modulus, elementwise; modulus is a scalar < 2^31."""
    result = np.ones_like(base)
    base = base % modulus
    while exponent > 0:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result % modulus


def _inverse_vec(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise inverse of a mod m (gcd(a, m) = 1, m >= 1) by extended
    Euclid; all intermediates stay below 2^62 for m < 2^31."""
    a = a % m
    r0 = m.astype(np.int64, copy=True)
    r1 = a.astype(np.int64, copy=True)
    s0 = np.zeros_like(r0)
    s1 = np.ones_like(r0)
    while True:
        active = r1 > 0
        if not active.any():
            break
        q = r0[active] // r1[active]
        r0[active], r1[active] = r1[active], r0[active] - q * r1[active]
        s0[active], s1[active] = s1[active], s0[active] - q * s1[active]
    return s0 % m


def count_fp(t: ResidueTables, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (g, h) with g^h = h (mod p).

    For each h the congruence h*w = ind(h) (mod n) in w = ind(g) has
    gcd(h, n) solutions when gcd(h, n) divides ind(h); enumeration therefore
    costs sum_h gcd(h, n).  Residues are processed per divisor class of
    gcd(h, n) in vectorized batches, partitioned over disjoint h-ranges.
    """
    n = t.n
    ind = t.ind.astype(np.int64)
    pow_table = t.pow.astype(np.int64)
    combo = t.combo.astype(np.int64)
    phi_by_divisor = dict(divisors_with_phi(t.factors))

    def worker(lo: int, hi: int):
        hs = np.arange(lo, hi, dtype=np.int64)
        ih = ind[lo:hi]
        g_of_h = np.gcd(hs, n)
        tally = np.zeros(16, dtype=np.int64)
        for d in phi_by_divisor:
            mask = (g_of_h == d) & (ih % d == 0)
            if not mask.any():
                continue
            hd = hs[mask]
            step = n // d
            inv = _modpow_vec((hd // d) % step, phi_by_divisor[step] - 1, step) \
                if step > 1 else np.zeros(int(mask.sum()), dtype=np.int64)
            w0 = (ih[mask] // d) * inv % step
            ws = w0[:, None] + step * np.arange(d, dtype=np.int64)[None, :]
            cg = combo[pow_table[ws]]
            ch = np.broadcast_to(combo[hd][:, None], ws.shape)
            tally += np.bincount((cg * 4 + ch).ravel(), minlength=16)
        return (tally,)

    (tally,) = _merge_partials(worker, _split_ranges(1, t.p, workers), workers)
    return _freeze(CountMatrix(p=t.p, equation=Equation.FP,
                               trivial=np.zeros((4, 4), dtype=np.int64),
                               nontrivial=class_matrix(tally.reshape(4, 4))))


def build_ha_buckets(t: ResidueTables) -> HaBuckets:
    """Group residues by key(x) = x*ind(x) mod n in O(n log n)."""
    n = t.n
    key = ((np.arange(1, t.p, dtype=np.int64) * t.ind[1:]) % n).astype(np.uint32)
    order = np.argsort(key, kind="stable")
    members = (order + 1).astype(np.uint32)
    sorted_keys = key[order]
    cuts = np.flatnonzero(np.diff(sorted_keys)) + 1
    offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    bucket_keys = sorted_keys[offsets[:-1]]
    bucket_id = np.repeat(np.arange(len(bucket_keys)), np.diff(offsets))
    combo_counts = np.bincount(
        bucket_id * 4 + t.combo[members], minlength=4 * len(bucket_keys)
    ).reshape(-1, 4).astype(np.int64)
    for arr in (members, offsets, bucket_keys, combo_counts):
        arr.setflags(write=False)
    return HaBuckets(p=t.p, n=n, members=members, offsets=offsets,
                     bucket_keys=bucket_keys, combo_counts=combo_counts)


def count_ha(b: HaBuckets, t: ResidueTables, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (h, a) with h^h = a^a (mod p); rows index a.

    Within one bucket every ordered pair is a solution, so the combo-level
    total is the sum of outer products of the per-bucket combo counts.  The
    trivial part is the diagonal h = a, i.e. global class intersections.
    """
    if b.p != t.p:
        raise InvalidInputError(f"buckets are for p={b.p}, tables for p={t.p}")

    def worker(lo: int, hi: int):
        bc = b.combo_counts[lo:hi]
        return (bc.T @ bc,)

    ranges = _split_ranges(0, b.num_buckets, workers)
    (total_combo,) = _merge_partials(worker, ranges, workers)
    trivial_combo = np.diag(b.combo_counts.sum(axis=0))
    trivial = class_matrix(trivial_combo)
    return _freeze(CountMatrix(p=t.p, equation=Equation.HA, trivial=trivial,
                               nontrivial=class_matrix(total_combo) - trivial))


def completions(h: int, a: int, t: ResidueTables) -> list[int]:
    """All g with g^h = a and g^a = h (mod p), ascending.

    In the index domain g = pow[w] must satisfy h*w = ind(a) and
    a*w = ind(h) (mod n); the two arithmetic progressions are intersected by
    CRT.  When solvable the intersection has gcd(h, a, n) elements, hence
    exactly one when gcd(h, a, n) = 1.
    """
    n = t.n
    if not (1 <= h <= n and 1 <= a <= n):
        raise InvalidInputError(f"residues ({h}, {a}) outside [1, {n}]")
    first = solve_linear_congruence(h % n, int(t.ind[a]), n)
    if first.count == 0:
        return []
    second = solve_linear_congruence(a % n, int(t.ind[h]), n)
    if second.count == 0:
        return []
    shared = math.gcd(first.step, second.step)
    if (second.base - first.base) % shared != 0:
        return []
    m2 = second.step // shared
    lift = ((second.base - first.base) // shared) % m2
    if m2 > 1:
        lift = lift * pow((first.step // shared) % m2, -1, m2) % m2
    lcm_step = first.step * m2
    base = (first.base + first.step * lift) % lcm_step
    return sorted(int(t.pow[w]) for w in range(base, n, lcm_step))


def count_tc(b: HaBuckets, t: ResidueTables, fp: CountMatrix, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (g, h) with a = g^h mod p satisfying g^a = h.

    Every solution's (h, a) pair shares a bucket key, so all solutions are
    found by completing the ordered pairs of each bucket; diagonal pairs
    (a = h) yield the trivial part, which must coincide with the fp census.
    The ord row tallies solutions with gcd(a, n) = 1 per h-class.
    """
    if b.p != t.p:
        raise InvalidInputError(f"buckets are for p={b.p}, tables for p={t.p}")
    if fp.p != t.p or fp.equation is not Equation.FP:
        raise InvalidInputError("count_tc needs the fp census for the same prime")
    n = t.n
    ind = t.ind.astype(np.int64)
    pow_table = t.pow.astype(np.int64)
    combo = t.combo.astype(np.int64)
    members = b.members.astype(np.int64)
    offsets = b.offsets
    sizes = np.diff(offsets)
    pair_counts = sizes * sizes
    pair_cum = np.concatenate([[0], np.cumsum(pair_counts)])

    def expand_pairs(lo: int, hi: int):
        """(h, a) arrays for all ordered in-bucket pairs of buckets [lo, hi)."""
        sz = sizes[lo:hi]
        pc = pair_counts[lo:hi]
        total_pairs = int(pc.sum())
        if total_pairs == 0:
            return None
        t_idx = np.arange(total_pairs, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(pc)])[:-1], pc)
        s_per = np.repeat(sz, pc)
        o_per = np.repeat(offsets[lo:hi], pc)
        return members[o_per + t_idx // s_per], members[o_per + t_idx % s_per]

    def tally_chunk(hh: np.ndarray, aa: np.ndarray, sums):
        triv, nont, ord_triv, ord_nont = sums
        d1 = np.gcd(hh, n)
        d2 = np.gcd(aa, n)
        ok = (ind[aa] % d1 == 0) & (ind[hh] % d2 == 0)
        hh, aa, d1, d2 = hh[ok], aa[ok], d1[ok], d2[ok]
        if hh.size == 0:
            return
        s1 = n // d1
        s2 = n // d2
        u1 = (ind[aa] // d1) * _inverse_vec(hh // d1, s1) % s1
        u2 = (ind[hh] // d2) * _inverse_vec(aa // d2, s2) % s2
        shared = np.gcd(s1, s2)
        diff = u2 - u1
        ok = diff % shared == 0
        hh, aa, u1, s1 = hh[ok], aa[ok], u1[ok], s1[ok]
        s2, shared, diff = s2[ok], shared[ok], diff[ok]
        if hh.size == 0:
            return
        m2 = s2 // shared
        lift = (diff // shared) % m2 * _inverse_vec(s1 // shared, m2) % m2
        lcm_step = s1 * m2
        base = (u1 + s1 * lift) % lcm_step
        count = n // lcm_step  # == gcd(h, a, n)
        diagonal = hh == aa
        a_rp = (combo[aa] & 2) == 2
        for c in np.unique(count):
            sel = count == c
            ws = base[sel][:, None] + lcm_step[sel][:, None] * np.arange(c, dtype=np.int64)
            cg = combo[pow_table[ws]]
            ch = np.broadcast_to(combo[hh[sel]][:, None], ws.shape)
            diag = np.broadcast_to(diagonal[sel][:, None], ws.shape)
            keys16 = cg * 4 + ch
            triv += np.bincount(keys16[diag], minlength=16)
            nont += np.bincount(keys16[~diag], minlength=16)
            # each of the c completions of an a-RP pair is one ord-row solution
            ch_flat = combo[hh[sel]][diagonal[sel] & a_rp[sel]]
            ord_triv += np.bincount(ch_flat, minlength=4) * c
            ch_flat = combo[hh[sel]][~diagonal[sel] & a_rp[sel]]
            ord_nont += np.bincount(ch_flat, minlength=4) * c

    def worker(lo: int, hi: int):
        sums = (np.zeros(16, dtype=np.int64), np.zeros(16, dtype=np.int64),
                np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        start = lo
        while start < hi:
            stop = int(np.searchsorted(pair_cum, pair_cum[start] + _PAIR_CHUNK, "right")) - 1
            stop = min(max(stop, start + 1), hi)
            pairs = expand_pairs(start, stop)
            if pairs is not None:
                tally_chunk(pairs[0], pairs[1], sums)
            start = stop
        return sums

    ranges = _split_ranges(0, b.num_buckets, workers)
    triv, nont, ord_triv, ord_nont = _merge_partials(worker, ranges, workers)
    trivial = class_matrix(triv.reshape(4, 4))
    nontrivial = class_matrix(nont.reshape(4, 4))
    if not np.array_equal(trivial, fp.total):
        raise InvariantViolation(
            f"tc trivial part disagrees with the fp census at p={t.p}")
    return _freeze(CountMatrix(p=t.p, equation=Equation.TC,
                               trivial=trivial, nontrivial=nontrivial,
                               ord_trivial=class_vector(ord_triv),
                               ord_nontrivial=class_vector(ord_nont)))


def census_all(p: int, workers: int = 1) -> tuple[CountMatrix, CountMatrix, CountMatrix]:
    """Run the full census for one prime; output is identical for any workers."""
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    t = build_tables(p)
    b = build_ha_buckets(t)
    fp = count_fp(t, workers=workers)
    ha = count_ha(b, t, workers=workers)
    tc = count_tc(b, t, fp, workers=workers)
    return fp, ha, tc


def completion_sum(b: HaBuckets, t: ResidueTables) -> tuple[int, bool]:
    """Sum of |completions(h, a)| over nontrivial in-bucket ordered pairs.

    Returns the sum, which must equal the tc nontrivial (ANY, ANY) count,
    and whether every pair with gcd(h, a, n) = 1 had exactly one completion.
    Scalar enumeration; intended for verification, not production counting.
    """
    n = t.n
    total = 0
    gcd1_single = True
    for i in range(b.num_buckets):
        group = [int(x) for x in b.bucket_members(i)]
        for h in group:
            for a in group:
                if h == a:
                    continue
                found = len(completions(h, a, t))
                total += found
                if math.gcd(math.gcd(h, a), n) == 1 and found != 1:
                    gcd1_single = False
    return total, gcd1_single
