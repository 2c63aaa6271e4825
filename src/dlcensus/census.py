"""Exact solution counts for the three equations over residues mod a prime p:

    fp:  g^h = h (mod p)
    ha:  h^h = a^a (mod p)
    tc:  g^h = a and g^a = h (mod p), counted over (g, h) with a = g^h

Counting works in the index (discrete log) domain instead of brute force.
With w = ind(g), fp becomes the linear congruence h*w = ind(h) (mod n), so
each h contributes gcd(h, n) candidate g values when solvable.  For ha,
h^h = a^a iff key(h) = key(a) where key(x) = x*ind(x) mod n, so solutions are
the diagonal h = a and the ordered pairs h != a drawn from equal-key
buckets; one sort of packed (key << 32) | x values groups them, and only the
residues whose key is shared (about 70% at p ~ 10^6) are kept.  A tc
solution is a completion g of such a pair (h, a), i.e. a common solution of
h*w = ind(a) and a*w = ind(h) (mod n); for a = h that is fp's congruence, so
count_tc takes the trivial part from the fp census, and as the system is
symmetric in (h, a) it solves each in-bucket pair h < a once and tallies its
completions for both orders.

The fp and tc kernels take every modular inverse from the per-prime tables
(ResidueTables.inv and div_index, about 6 B per residue retained) and, for
the CRT lift of tc, from a tau(n) x tau(n) table over divisor pairs gathered
from inv; solving a congruence or joining two costs gathers and integer
arithmetic, with no inversion per residue or per pair.  Before that
arithmetic, count_tc drops the pairs whose congruences have no solution, by
testing divisibility with % on the values it gathers anyway.  The scalar
completions() solves the same congruences without the tables and serves as
their reference.

All counters return a CountMatrix: one read-only (part, row, col) grid of
trivial and nontrivial counts whose rows are ROWS over the row variable (g
for fp/tc, a for ha; the ORD row for tc only) and whose columns are CLASSES
over h; part(name) reads one part's grid and entry(part, row, col) one cell,
with total derived as trivial + nontrivial.  Each counter splits its work
into chunks (residues for fp, buckets for ha and tc) whose tallies are plain
integer arrays, summed on up to `workers` threads by parallel.map_chunks, the
driver the table build also runs on, so results are identical for every
worker count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numtheory import solve_linear_congruence
from .parallel import map_chunks
from .residue_tables import (
    CLASSES,
    ROWS,
    ResidueTables,
    class_matrix,
    class_vector,
    combo_counts,
    ConditionClass,
)

# In-bucket pairs h < a and their members (tc), residues (fp) or buckets (ha)
# per vectorized chunk.  At 2^16 a chunk's transient arrays peak at about
# 6 MB per worker in tc (up to 94 B per pair or member), 5 MB in fp (75 B
# per residue) and 3.8 MB in ha (58 B per bucket, at about 3 members per
# bucket), by tracemalloc at p = 1000003, 1108801 and 10000019; a tc chunk
# that is one bucket of more pairs, or an ha chunk of larger buckets, takes
# more.  2^16-2^18 ran equally fast at p ~ 10^6; larger chunks raise the peak.
_CHUNK = 1 << 16
# Residues per slice of the bucket build's fill and compaction passes.  A
# slice's transients (about 25 B per residue of the slice) sit on top of the
# 8 B/residue sort buffer; at 2^14 that is 0.4 MB, and the build peaks at
# 9.3 B/residue at p = 1000003 against 10.0 with 2^16 slices, in the same
# time.
_SLICE = 1 << 14


class Equation(enum.Enum):
    FP = "fp"
    HA = "ha"
    TC = "tc"

    @property
    def row_var(self) -> str:
        """The variable indexing matrix rows: a for ha, g otherwise."""
        return "a" if self is Equation.HA else "g"


#: Census parts: trivial and nontrivial index the first axis of
#: CountMatrix.counts, and total is their sum.
PARTS = ("trivial", "nontrivial", "total")


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Observed solution counts for one equation at one prime.

    counts is one read-only int64 grid of shape (2, rows, 4), indexed
    (part, row class, column class): part 0 is trivial and 1 nontrivial;
    rows are the first 4 (5 for tc) classes of ROWS over the row variable
    (g for fp/tc, a for ha) and columns CLASSES over h.  fp has no split:
    its trivial part is zero.  Only tc has the fifth row, ORD: per h-class,
    the solutions whose companion a = g^h is coprime to n; those are exactly
    the solutions in one-to-one correspondence with ha solutions having a
    RP, and every one of them has ord(g) = ord(h).
    """

    p: int
    equation: Equation
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts.setflags(write=False)

    @property
    def row_var(self) -> str:
        return self.equation.row_var

    @property
    def rows(self) -> tuple[ConditionClass, ...]:
        """Row classes: CLASSES, then ORD for tc."""
        return ROWS[:self.counts.shape[1]]

    def part(self, name: str) -> np.ndarray:
        """The rows x 4 grid of one part."""
        if name == "total":
            return self.counts.sum(axis=0)
        return self.counts[_part_axis(name)]

    def entry(self, part: str, row: ConditionClass, col: ConditionClass) -> int:
        """One count; row ORD exists for tc only."""
        i, j = ROWS.index(row), CLASSES.index(col)
        if i >= self.counts.shape[1]:
            raise InvalidInputError(f"{self.equation.value} census has no {row.value} row")
        if part == "total":
            return self.counts.item(0, i, j) + self.counts.item(1, i, j)
        return self.counts.item(_part_axis(part), i, j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMatrix):
            return NotImplemented
        return (self.p == other.p and self.equation is other.equation
                and np.array_equal(self.counts, other.counts))


def _part_axis(name: str) -> int:
    if name == "trivial":
        return 0
    if name == "nontrivial":
        return 1
    raise InvalidInputError(f"unknown part {name!r}")


@dataclass(frozen=True, eq=False)
class HaBuckets:
    """The residues that share key(x) = x*ind(x) mod n, grouped by key.

    (h, a) solves h^h = a^a (mod p) iff key(h) = key(a).  members lists the
    m <= n residues whose key at least one other residue has, ordered by key;
    bucket i occupies members[offsets[i]:offsets[i+1]] and has two or more
    members.  A residue in no bucket pairs only with itself.  offsets fit
    uint32 because p < 2^32.
    """

    p: int
    n: int
    members: np.ndarray  # uint32, length m <= n
    offsets: np.ndarray  # uint32, length num_buckets + 1

    @property
    def num_buckets(self) -> int:
        return len(self.offsets) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def bucket_members(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]


def _sum_chunks(tally_chunk, bounds: list[int], workers: int,
                shape: int | tuple[int, ...]) -> np.ndarray:
    """Sum tally_chunk(lo, hi), an int64 array of the given shape, over the
    chunks [bounds[i], bounds[i + 1]) (zeros when there are none), on up to
    `workers` threads."""
    return sum(map_chunks(tally_chunk, bounds, workers), np.zeros(shape, dtype=np.int64))


def _progressions(base: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation, over i, of base[i] + k * step[i] for 0 <= k < count[i]."""
    first = np.cumsum(count) - count
    k = np.arange(count.sum()) - np.repeat(first, count)
    return np.repeat(base, count) + k * np.repeat(step, count)


def count_fp(t: ResidueTables, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (g, h) with g^h = h (mod p).

    For each h the congruence h*w = ind(h) (mod n) in w = ind(g) has
    d = gcd(h, n) solutions when d divides ind(h), namely
    w = (ind(h)/d) * inv[h] (mod n/d); enumeration therefore costs
    sum_h gcd(h, n).  Residues are processed in chunks of _CHUNK h values.
    """
    n = t.n

    def tally_chunk(lo: int, hi: int) -> np.ndarray:
        ih = t.ind[lo:hi].astype(np.int64)
        d = t.divisors[t.div_index[lo:hi]]
        step = n // d
        w0 = ih // d * t.inv[lo:hi] % step
        count = np.where(ih % d == 0, d, 0)
        ws = _progressions(w0, step, count)
        keys = 4 * t.combo_by_index[ws] + np.repeat(t.combo_by_index[ih], count)
        return np.bincount(keys, minlength=16)

    tally = _sum_chunks(tally_chunk, [*range(1, t.p, _CHUNK), t.p], workers, 16)
    counts = np.zeros((2, 4, 4), dtype=np.int64)
    counts[1] = class_matrix(tally.reshape(4, 4))
    return CountMatrix(p=t.p, equation=Equation.FP, counts=counts)


def build_ha_buckets(t: ResidueTables) -> HaBuckets:
    """Group the residues that share key(x) = x*ind(x) mod n in O(n log n).

    One in-place sort of the packed values (key << 32) | x orders residues by
    key and, within a bucket, ascending.  Key and x each need 32 bits, so
    this requires p < 2^32, which the table limit of 2^31 ensures.  A pass
    over slices then drops the residues whose key no other residue has, and
    writes the low words of the rest forward into the front of the sort
    buffer and the bucket offsets right after them; the buffer is then shrunk
    to both, so no second full-length array is ever held.
    """
    n = t.n
    packed = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        x = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        values = packed[lo:hi]
        np.multiply(x, t.ind[lo + 1:hi + 1], out=values)
        values -= values // n * n  # mod n: numpy's scalar floor-divide beats %
        values <<= 32
        values |= x
    packed.sort()
    words = packed.view(np.uint32)
    starts = []  # per slice: the kept members that open a bucket, by position in members
    m = 0  # members written so far; they end at word m <= lo, below every unread value
    previous = n  # the key before the slice; keys are below n
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        # new[i]: residue lo + i opens a key (new[hi - lo] closes the last one);
        # two packed values share a key iff their xor is below 2^32.
        new = np.ones(hi - lo + 1, dtype=bool)
        new[0] = int(packed[lo]) >> 32 != previous
        following = packed[lo + 1:hi + 1]
        np.greater_equal(following ^ packed[lo:lo + len(following)], 1 << 32,
                         out=new[1:len(following) + 1])
        previous = int(packed[hi - 1]) >> 32
        kept = np.flatnonzero(~(new[:-1] & new[1:]))  # keys shared with a neighbour
        starts.append(np.flatnonzero(new[kept]).astype(np.uint32) + np.uint32(m))
        words[m:m + len(kept)] = packed[lo:hi][kept]  # the low words
        m += len(kept)
    buckets = sum(map(len, starts))
    np.concatenate([*starts, np.array([m], dtype=np.uint32)], out=words[m:m + buckets + 1])
    del values, following, words, starts
    # No view of the buffer survives the del, so skipping numpy's reference
    # check is safe; a profiler or tracer holds references to packed itself
    # (a bound method, the frame's locals), which the check would refuse.
    packed.resize((m + buckets + 2) // 2, refcheck=False)
    words = packed.view(np.uint32)
    members, offsets = words[:m], words[m:m + buckets + 1]
    members.setflags(write=False)
    offsets.setflags(write=False)
    return HaBuckets(p=t.p, n=n, members=members, offsets=offsets)


def count_ha(b: HaBuckets, t: ResidueTables, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (h, a) with h^h = a^a (mod p); rows index a.

    Within one bucket every ordered pair is a solution.  The trivial part
    (the diagonal h = a) holds every residue once, so at combo level it is
    the diagonal of the residues' per-combo counts, i.e. global class
    intersections.  The nontrivial pairs lie in the buckets, which hold only
    residues whose key is shared: with c a bucket's residue count per PR/RP
    combo, they are the sum of the outer products c c^T less its diagonal
    h = a, the sum of c.  Each chunk of buckets counts its own c with one
    bincount of combo * chunk length + local bucket id over its members.
    """
    if b.p != t.p:
        raise InvalidInputError(f"buckets are for p={b.p}, tables for p={t.p}")

    def tally_chunk(lo: int, hi: int) -> np.ndarray:
        """Rows 0-3: the sum of c c^T over buckets [lo, hi); row 4: the sum of c."""
        bounds = b.offsets[lo:hi + 1]
        key = np.repeat(np.arange(hi - lo), np.diff(bounds))
        combo = t.combo_by_index[t.ind[b.members[bounds[0]:bounds[-1]]]]
        key += np.multiply(combo, hi - lo, dtype=np.intp)
        c = np.bincount(key, minlength=4 * (hi - lo)).reshape(4, -1)  # c of bucket i is c[:, i]
        return np.vstack([c @ c.T, c.sum(axis=1)])

    tally = _sum_chunks(tally_chunk, [*range(0, b.num_buckets, _CHUNK), b.num_buckets],
                        workers, (5, 4))
    nontrivial = tally[:4] - np.diag(tally[4])
    return CountMatrix(p=t.p, equation=Equation.HA,
                       counts=class_matrix(np.stack([np.diag(combo_counts(t)), nontrivial])))


def completions(h: int, a: int, t: ResidueTables) -> list[int]:
    """All g with g^h = a and g^a = h (mod p), ascending.

    In the index domain g = root^w must satisfy h*w = ind(a) and
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
    return sorted(pow(t.root, w, t.p) for w in range(base, n, lcm_step))


def divisor_pair_tables(t: ResidueTables):
    """tau(n) x tau(n) tables over divisor pairs (d1, d2) = (divisors[i],
    divisors[j]), with e = gcd(d1, d2): e itself (the completions of a
    solvable tc pair), the lift modulus d1/e, the shared modulus
    n/lcm(d1, d2), and lift = (d2/e)^-1 mod d1/e (0 when d1/e = 1).
    """
    divs = t.divisors
    e = np.gcd.outer(divs, divs)
    lift_mod = divs[:, None] // e
    shared = (t.n // divs)[None, :] // lift_mod
    # (n/m)*x with x a unit mod m = d1/e has gcd n/m with n, so inv inverts x mod m.
    lift = t.inv[(t.n // lift_mod) * (divs[None, :] // e % lift_mod)]
    return e, lift_mod, shared, lift


def count_tc(b: HaBuckets, t: ResidueTables, fp: CountMatrix, workers: int = 1) -> CountMatrix:
    """Count ordered pairs (g, h) with a = g^h mod p satisfying g^a = h.

    Every solution's pair (h, a) with h != a shares a bucket, so the
    nontrivial solutions are found by completing the pairs of each bucket.
    A diagonal pair (a = h) solves h*w = ind(h) (mod n) in w = ind(g), which
    is fp's congruence, so the trivial part is fp's total grid, and its ORD
    row fp's (ANY, h RP) cells.  The system h*w = ind(a), a*w = ind(h) (mod n) is symmetric in
    (h, a), so only the pairs h < a are solved: a completion g is tallied for
    (h, a) in column combo(h), and in the ORD row when a is RP, and again for
    (a, h) in column combo(a), and in the ORD row when h is RP.

    With d1 = gcd(h, n), d2 = gcd(a, n) and e = gcd(d1, d2), w solves
    h*w = ind(a) (mod n) iff d1 | ind(a) and w = u1 (mod s1), with
    u1 = (ind(a)/d1) * inv[h] and s1 = n/d1; likewise a*w = ind(h) gives u2
    mod s2 = n/d2.  Pairs failing either divisibility are dropped first, by
    testing ind(a) % d1 and ind(h) % d2 on the members' gathered ind and d,
    which the CRT step reads anyway.  On the rest the progressions meet iff
    u1 = u2 mod n/lcm(d1, d2), and then in e indices w = u1 + s1*k (mod n/e),
    k = (u2 - u1)/(n/lcm) * lift[d1, d2] mod d1/e: gathers and integer
    arithmetic, no inversions.
    """
    if b.p != t.p:
        raise InvalidInputError(f"buckets are for p={b.p}, tables for p={t.p}")
    if fp.p != t.p or fp.equation is not Equation.FP:
        raise InvalidInputError("count_tc needs the fp census for the same prime")
    n = t.n
    divs = t.divisors
    tau = len(divs)
    e, lift_mod, shared, lift = (arr.ravel() for arr in divisor_pair_tables(t))
    e_step = n // e
    offsets = b.offsets

    def tally_chunk(lo: int, hi: int) -> np.ndarray:
        """64 bins over buckets [lo, hi)'s pairs h < a: combo(a)*16 + combo(h)*4 + combo(g)."""
        # Pairs are positions hp < ap in mem, so each gather is per member, not pair.
        sizes = np.diff(offsets[lo:hi + 1])
        ends = np.repeat(offsets[lo + 1:hi + 1] - offsets[lo], sizes)
        partners = ends - np.arange(len(ends)) - 1
        mem = b.members[offsets[lo]:offsets[hi]].astype(np.intp)
        pos = np.arange(len(mem))
        hp = np.repeat(pos, partners)
        ap = np.arange(len(hp)) - np.repeat(np.cumsum(partners) - partners - pos - 1, partners)
        m_div = t.div_index[mem].astype(np.intp)
        m_d = divs[m_div]
        m_ind = t.ind[mem].astype(np.int64)
        keep = (m_ind[ap] % m_d[hp] == 0) & (m_ind[hp] % m_d[ap] == 0)
        hp, ap = hp[keep], ap[keep]

        m_cofactor = n // m_d
        m_inv = t.inv[mem].astype(np.int64)
        pair = m_div[hp] * tau + m_div[ap]
        s1 = m_cofactor[hp]
        u1 = m_ind[ap] // m_d[hp] * m_inv[hp] % s1
        diff = m_ind[hp] // m_d[ap] * m_inv[ap] % m_cofactor[ap] - u1
        step = shared[pair]
        k = diff // step
        count = np.where(k * step == diff, e[pair], 0)
        base = u1 + s1 * (k * lift[pair] % lift_mod[pair])
        m_combo = t.combo_by_index[m_ind]
        pair_key = m_combo[ap] * np.uint8(16) + m_combo[hp] * np.uint8(4)
        ws = _progressions(base, e_step[pair], count)
        return np.bincount(np.repeat(pair_key, count) + t.combo_by_index[ws], minlength=64)

    by_pair = _sum_chunks(tally_chunk, _tc_bounds(offsets), workers, 64)
    by_pair = by_pair.reshape(4, 4, 4)  # (a, h, g) combos
    rp = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])  # [RP flag, combo]
    # Fold to [a RP, combo(g), combo(h)]; each pair counts again as (a, h).
    by_rp = np.einsum("rx,xhg->rgh", rp, by_pair) + np.einsum("rx,hxg->rgh", rp, by_pair)
    f = fp.part("total")  # the trivial ORD row is fp's (ANY, c and RP) per h class c
    rp_cols = [CLASSES.index(c) for c in (ConditionClass.RP, ConditionClass.RPPR)] * 2
    trivial = np.vstack([f, f[0, rp_cols]])
    nontrivial = np.vstack([class_matrix(by_rp.sum(axis=0)), class_vector(by_rp[1].sum(axis=0))])
    return CountMatrix(p=t.p, equation=Equation.TC, counts=np.stack([trivial, nontrivial]))


def _tc_bounds(offsets: np.ndarray) -> list[int]:
    """count_tc's chunks: runs of whole buckets whose pairs h < a and members
    (s(s+1)/2 for s members) add up to at most _CHUNK, or one bucket that
    alone holds more.  Each chunk ends at the last bucket that still fits,
    found slice by slice over the offsets, so no array over all buckets is
    held; weights are int64, as s >= 2^16 overflows int32."""
    buckets = len(offsets) - 1
    bounds = [0]
    carried = 0  # weight of the open chunk's buckets before the slice
    for lo in range(0, buckets, _SLICE):
        hi = min(lo + _SLICE, buckets)
        sizes = np.diff(offsets[lo:hi + 1]).astype(np.int64)
        cum = np.zeros(hi - lo + 1, dtype=np.int64)  # weight of buckets [lo, lo + j)
        np.cumsum(sizes * (sizes + 1) >> 1, out=cum[1:])
        while True:
            start = bounds[-1]
            base = cum[start - lo] if start >= lo else -carried
            stop = lo + int(np.searchsorted(cum, base + _CHUNK, "right")) - 1
            stop = max(stop, start + 1)
            if stop >= hi:  # the chunk may take buckets of the next slice
                carried = int(cum[-1] - base)
                break
            bounds.append(stop)
    if bounds[-1] < buckets:
        bounds.append(buckets)
    return bounds


def census_all(t: ResidueTables, equations=tuple(Equation),
               workers: int = 1) -> dict[Equation, CountMatrix]:
    """Census matrices of the wanted equations at the tables' prime, running
    only the counters those need (tc needs fp and the ha buckets); output is
    identical for any workers."""
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    matrices = {}
    if Equation.FP in equations or Equation.TC in equations:
        matrices[Equation.FP] = count_fp(t, workers=workers)
    if Equation.HA in equations or Equation.TC in equations:
        b = build_ha_buckets(t)
        if Equation.HA in equations:
            matrices[Equation.HA] = count_ha(b, t, workers=workers)
        if Equation.TC in equations:
            matrices[Equation.TC] = count_tc(b, t, matrices[Equation.FP], workers=workers)
    return {eq: matrices[eq] for eq in equations}

