"""Per-prime lookup tables: the index (discrete log) table of a primitive
root, the condition flags by index, and the divisor and inverse tables the
census kernels complete congruences with.

Conventions used everywhere downstream: residues live in [1, p-1], indices in
[0, n-1] with n = p - 1.  A residue x is PR when its order is n (equivalently
gcd(ind[x], n) = 1) and RP when gcd(x, n) = 1.  The census reads g only by its
flags, so powers are not kept: combo_by_index[w] holds the flags of root^w,
and a residue x's flags are combo_by_index[ind[x]].  Tables are immutable
after construction and safe to share between readers.

build_tables works in fixed slices of residues or indices, on up to
`workers` threads through the shared driver parallel.map_chunks, so the
tables do not depend on the worker count.  Powers of the root come slice by
slice from baby-step/giant-step rows and are scattered into ind at once; no
power table over all indices is ever held.

Every modulus the census meets is a divisor of n, so its modular inverses are
tabulated once per prime: inv[x] inverts x/d modulo n/d where d = gcd(x, n),
and div_index[x] names d.  Together they retain about 6 B per residue (uint32
inv, uint16 div_index).  div_index comes from sieving the prime powers of n
into a mixed-radix code of d, and one pass over slices of residues then
ranks the codes and computes inv as (x/d)^(lambda(n)-1) mod n, powered with
the scalar modulus n and reduced mod n/d at the end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolation
from .numtheory import (
    Factored,
    carmichael,
    euler_phi,
    factorize,
    is_prime,
    smallest_primitive_root,
)
from .parallel import map_chunks

DEFAULT_PRIME_LIMIT = 1 << 31
#: Residues, or indices in whole BSGS rows (the index pass), per slice of the
#: table build and of combo_counts; a slice's buffers stay in cache.
_SLICE = 1 << 16


class ConditionClass(enum.Enum):
    ANY = "ANY"
    PR = "PR"
    RP = "RP"
    RPPR = "RPPR"
    ORD = "ORD"  # fifth row of the two-cycle census, not a column class


#: The four classes indexing every 4x4 census matrix, in axis order.
CLASSES = (ConditionClass.ANY, ConditionClass.PR, ConditionClass.RP, ConditionClass.RPPR)
#: Row classes of every census and prediction grid, in axis order: CLASSES,
#: then ORD, which only the tc grids carry.
ROWS = (*CLASSES, ConditionClass.ORD)

# Internal residue encoding: combo = (1 if PR) + (2 if RP).  Each class is a
# union of combos; RPPR = PR and RP holds combo 3 only.
CLASS_COMBOS = {
    ConditionClass.ANY: (0, 1, 2, 3),
    ConditionClass.PR: (1, 3),
    ConditionClass.RP: (2, 3),
    ConditionClass.RPPR: (3,),
}

# Aggregation matrix (class x combo): entry 1 when the combo belongs to the class.
_AGG = np.zeros((4, 4), dtype=np.int64)
for _i, _cls in enumerate(CLASSES):
    for _c in CLASS_COMBOS[_cls]:
        _AGG[_i, _c] = 1


def class_matrix(combo_matrix: np.ndarray) -> np.ndarray:
    """Aggregate 4x4 combo-indexed count matrices (the last two axes) into
    class-indexed ones."""
    return _AGG @ np.asarray(combo_matrix, dtype=np.int64) @ _AGG.T


def class_vector(combo_vector: np.ndarray) -> np.ndarray:
    """Aggregate length-4 combo-indexed tallies (the last axis) into
    class-indexed ones."""
    return np.asarray(combo_vector, dtype=np.int64) @ _AGG.T


@dataclass(frozen=True)
class ResidueTables:
    """Immutable lookup tables for one prime.

    ind[x] is the index of x, root^ind[x] = x (so x has multiplicative order
    n / gcd(ind[x], n)), entry 0 being padding; combo_by_index[w] encodes the
    PR/RP flags of root^w, so x's flags are combo_by_index[ind[x]].

    divisors lists the divisors of n ascending.  For x in [0, n], with
    d = gcd(x, n) (so d = n at x = 0), div_index[x] is the position of d in
    divisors and inv[x] = (x/d)^-1 mod n/d (0 when n/d = 1), computed as
    (x/d)^(lambda(n)-1) mod n reduced mod n/d, since lambda(n/d) | lambda(n).
    """

    p: int
    n: int
    factors: Factored
    root: int
    ind: np.ndarray  # uint32, length p, residue -> index
    combo_by_index: np.ndarray  # uint8, length n, index -> combo code
    divisors: np.ndarray  # int64, length tau(n), ascending
    div_index: np.ndarray  # uint16 (tau(n) <= 1600 for n < 2^31), length p
    inv: np.ndarray  # uint32, length p

    def is_pr(self, x: int) -> bool:
        return bool(self.div_index[self.ind[x]] == 0)

    def is_rp(self, x: int) -> bool:
        return bool(self.div_index[x] == 0)


@dataclass(frozen=True)
class ClassCounts:
    """Residue counts per condition class and per pairwise intersection:
    intersections[i, j] counts the residues in both CLASSES[i] and CLASSES[j]."""

    p: int
    combo_counts: np.ndarray  # int64, length 4
    intersections: np.ndarray  # int64, 4x4, class x class

    def count(self, cls: ConditionClass) -> int:
        return self.intersection(cls, cls)

    def intersection(self, a: ConditionClass, b: ConditionClass) -> int:
        return int(self.intersections[CLASSES.index(a), CLASSES.index(b)])


def build_tables(p: int, workers: int = 1) -> ResidueTables:
    """Build all tables for prime p in O(p) time and O(p) 32-bit memory.

    Two passes over fixed slices, each run on up to `workers` threads, so
    the tables are identical for every worker count; no power table is kept.
    The divisor pass fills div_index and inv (see _divisor_tables).  The
    index pass takes runs of whole baby-step/giant-step rows: row i, column j
    holds x = root^w for w = i*m + j, and the slice scatters ind[x] = w and
    sets combo_by_index[w] from the flags PR, div_index[w] = 0 (gcd(w, n) = 1),
    and RP, div_index[x] = 0.  As w -> x is a permutation, slices write
    disjoint entries and need no lock.
    """
    if p > DEFAULT_PRIME_LIMIT:
        raise InvalidInputError(f"prime {p} above the table limit {DEFAULT_PRIME_LIMIT}")
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    n = p - 1
    factors = factorize(n)
    root = smallest_primitive_root(p, factors)
    divs, div_index, inv = _divisor_tables(factors, p, workers)

    m = math.isqrt(n) + 1
    baby = _powers(root, m, p)
    giants = (n + m - 1) // m
    giant = _powers(pow(root, m, p), giants, p)
    ind = np.zeros(p, dtype=np.uint32)
    combo_by_index = np.empty(n, dtype=np.uint8)

    def index_slice(r0: int, r1: int) -> None:
        """Giant rows [r0, r1): ind and combo_by_index at indices [r0*m, min(r1*m, n))."""
        lo, hi = r0 * m, min(r1 * m, n)
        x = np.multiply.outer(giant[r0:r1], baby).ravel()[:hi - lo]  # below p^2 < 2^62
        x %= p
        ind[x] = np.arange(lo, hi, dtype=np.uint32)
        c = (div_index[x] == 0).view(np.uint8)
        c <<= 1
        c += div_index[lo:hi] == 0
        combo_by_index[lo:hi] = c

    rows = max(1, _SLICE // m)
    map_chunks(index_slice, [*range(0, giants, rows), giants], workers)
    for arr in (ind, combo_by_index, divs, div_index, inv):
        arr.setflags(write=False)
    return ResidueTables(p=p, n=n, factors=factors, root=root, ind=ind,
                         combo_by_index=combo_by_index, divisors=divs,
                         div_index=div_index, inv=inv)


def _powers(base: int, count: int, p: int) -> np.ndarray:
    """base^j mod p for j in [0, count), int64."""
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for j in range(count):
        out[j] = acc
        acc = acc * base % p
    return out


def _divisor_tables(factors: Factored, p: int,
                    workers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """divisors, div_index and inv for x in [0, p-1], over fixed slices of x
    run on up to `workers` threads.

    div_index: each prime power of n is sieved into a mixed-radix code of
    d = gcd(x, n) (first prime least significant; by_code lists the divisors
    in code order) in one serial strided pass, and each slice then replaces
    its codes by the ranks of their divisors.
    inv: y = x/d is a unit mod n/d, and n/d divides n, so lambda(n/d) divides
    lam = carmichael(n) and y^(lam-1) mod n, reduced mod n/d, inverts y.  The
    power runs with the scalar modulus n, where numpy's floor-divide is several
    times cheaper than %; products stay below n^2 < 2^62.
    """
    n = p - 1
    by_code = np.ones(1, dtype=np.uint64)
    div_index = np.zeros(p, dtype=np.uint16)
    for q, alpha in factors:
        for beta in range(1, alpha + 1):
            div_index[::q**beta] += len(by_code)
        by_code = np.outer(q ** np.arange(alpha + 1, dtype=np.uint64), by_code).ravel()
    divs = np.sort(by_code)
    rank = np.searchsorted(divs, by_code).astype(np.uint16)

    # result starts at y, so only the bits of lambda(n) - 1 after its leading 1
    # remain; for n <= 2, lambda(n) - 1 = 0 and y is its own inverse mod n/d.
    bits = bin(carmichael(factors) - 1)[3:]
    cofactors = n // by_code
    inv = np.empty(p, dtype=np.uint32)

    def divisor_slice(start: int, stop: int) -> None:
        code = div_index[start:stop].astype(np.intp)  # numpy gathers fastest by intp
        div_index[start:stop] = rank[code]
        base = np.arange(start, stop, dtype=np.uint64) // by_code[code]
        result, scratch = base.copy(), np.empty_like(base)
        for bit in bits:
            _mul_mod(result, result, n, scratch)
            if bit == "1":
                _mul_mod(result, base, n, scratch)
        inv[start:stop] = result % cofactors[code]

    map_chunks(divisor_slice, [*range(0, p, _SLICE), p], workers)
    return divs.astype(np.int64), div_index, inv


def _mul_mod(a: np.ndarray, b: np.ndarray, n: int, scratch: np.ndarray) -> None:
    """a = a * b mod n in place, for a, b < n < 2^31 (uint64)."""
    a *= b
    a -= np.multiply(np.floor_divide(a, n, out=scratch), n, out=scratch)


def combo_counts(t: ResidueTables) -> np.ndarray:
    """Residues 1..n per combo, int64 of length 4."""
    # w -> root^w maps the indices onto the residues, so count by index.  One
    # combo at a time (bincount would cast to intp), by slices, so each
    # comparison holds a slice-sized bool array, not an n-byte one.
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(0, t.n, _SLICE):
        part = t.combo_by_index[lo:lo + _SLICE]
        counts += [np.count_nonzero(part == c) for c in range(4)]
    return counts


def class_counts(t: ResidueTables) -> ClassCounts:
    """Global class and intersection counts; |PR| = |RP| = phi(n) by construction."""
    counts = combo_counts(t)
    cc = ClassCounts(p=t.p, combo_counts=counts, intersections=class_matrix(np.diag(counts)))
    phi = euler_phi(t.factors)
    if cc.count(ConditionClass.PR) != phi or cc.count(ConditionClass.RP) != phi:
        raise InvariantViolation(f"PR/RP counts disagree with phi({t.n})")
    return cc
