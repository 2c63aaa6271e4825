"""Per-prime lookup tables: powers of a primitive root, the inverse index
(discrete log) table, per-residue condition flags, and the divisor and
inverse tables the census kernels complete congruences with.

Conventions used everywhere downstream: residues live in [1, p-1], indices in
[0, n-1] with n = p - 1, and pow[0] = 1.  A residue x is PR when its
multiplicative order is n (equivalently gcd(ind[x], n) = 1) and RP when
gcd(x, n) = 1.  Tables are immutable after construction and safe to share
between any number of readers.

Every modulus the census meets is a divisor of n, so its modular inverses are
tabulated once per prime: inv[x] inverts x/d modulo n/d where d = gcd(x, n),
and div_index[x] names d.  Together they retain about 6 B per residue (uint32
inv, uint16 div_index).
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
    divisors,
    euler_phi,
    factorize,
    is_prime,
    smallest_primitive_root,
)

DEFAULT_PRIME_LIMIT = 1 << 31


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

    pow[k] = root^k mod p for k in [0, n-1]; ind is its inverse on [1, p-1]
    (so x has multiplicative order n / gcd(ind[x], n)); combo[x] is the
    PR/RP flag encoding.  Entry 0 of ind and combo is padding.

    divisors lists the divisors of n ascending.  For x in [0, n], with
    d = gcd(x, n) (so d = n at x = 0), div_index[x] is the position of d in
    divisors and inv[x] = (x/d)^-1 mod n/d (0 when n/d = 1).
    """

    p: int
    n: int
    factors: Factored
    root: int
    pow: np.ndarray  # uint32, length n, index -> residue
    ind: np.ndarray  # uint32, length p, residue -> index
    combo: np.ndarray  # uint8, length p, residue -> combo code
    divisors: np.ndarray  # int64, length tau(n), ascending
    div_index: np.ndarray  # uint16 (tau(n) <= 1600 for n < 2^31), length p
    inv: np.ndarray  # uint32, length p

    def is_pr(self, x: int) -> bool:
        return bool(self.combo[x] & 1)

    def is_rp(self, x: int) -> bool:
        return bool(self.combo[x] & 2)


@dataclass(frozen=True)
class ClassCounts:
    """Residue counts per condition class and per pairwise intersection."""

    p: int
    combo_counts: np.ndarray  # int64, length 4

    def count(self, cls: ConditionClass) -> int:
        return int(sum(self.combo_counts[c] for c in CLASS_COMBOS[cls]))

    def intersection(self, a: ConditionClass, b: ConditionClass) -> int:
        shared = set(CLASS_COMBOS[a]) & set(CLASS_COMBOS[b])
        return int(sum(self.combo_counts[c] for c in shared))


def build_tables(p: int) -> ResidueTables:
    """Build all tables for prime p in O(p) time and O(p) 32-bit memory."""
    if p > DEFAULT_PRIME_LIMIT:
        raise InvalidInputError(f"prime {p} above the table limit {DEFAULT_PRIME_LIMIT}")
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")
    n = p - 1
    factors = factorize(n) if n > 1 else Factored(1, ())
    root = smallest_primitive_root(p, factors)

    # pow via baby-step/giant-step outer product; entries stay below p^2 < 2^62.
    m = math.isqrt(n) + 1
    baby = np.empty(m, dtype=np.uint64)
    acc = 1
    for j in range(m):
        baby[j] = acc
        acc = acc * root % p
    stride = pow(root, m, p)
    giants = (n + m - 1) // m
    giant = np.empty(giants, dtype=np.uint64)
    acc = 1
    for i in range(giants):
        giant[i] = acc
        acc = acc * stride % p
    pow_table = ((giant[:, None] * baby[None, :]) % p).ravel()[:n].astype(np.uint32)

    ind = np.zeros(p, dtype=np.uint32)
    ind[pow_table] = np.arange(n, dtype=np.uint32)

    # gcd(x, n) for x in [0, n] by sieving each prime power of n.
    divs = np.array(divisors(factors), dtype=np.int64)
    gcd_n = np.ones(p, dtype=np.int64)
    for q, alpha in factors:
        for beta in range(1, alpha + 1):
            gcd_n[::q**beta] *= q
    div_index = np.searchsorted(divs, gcd_n).astype(np.uint16)
    inv = _inverse_table(gcd_n, carmichael(factors), n)

    pr = div_index[ind] == 0
    rp = div_index == 0
    combo = (pr.astype(np.uint8) + 2 * rp.astype(np.uint8))
    combo[0] = 0

    for arr in (pow_table, ind, combo, divs, div_index, inv):
        arr.setflags(write=False)
    return ResidueTables(p=p, n=n, factors=factors, root=root,
                         pow=pow_table, ind=ind, combo=combo, divisors=divs,
                         div_index=div_index, inv=inv)


def _inverse_table(gcd_n: np.ndarray, lam: int, n: int) -> np.ndarray:
    """(x/d)^-1 mod n/d for every x, where d = gcd_n[x] = gcd(x, n).

    x/d is a unit mod n/d, and n/d divides n, so x/d raised to lam - 1 with
    lam = carmichael(n) is its inverse; products stay below n^2 < 2^62.
    """
    modulus = n // gcd_n
    base = np.arange(len(gcd_n), dtype=np.int64) // gcd_n % modulus
    result = np.ones_like(base)
    exponent = lam - 1
    while exponent:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return (result % modulus).astype(np.uint32)


def class_counts(t: ResidueTables) -> ClassCounts:
    """Global class and intersection counts; |PR| = |RP| = phi(n) by construction."""
    counts = np.bincount(t.combo[1:], minlength=4).astype(np.int64)
    cc = ClassCounts(p=t.p, combo_counts=counts)
    phi = euler_phi(t.factors)
    if cc.count(ConditionClass.PR) != phi or cc.count(ConditionClass.RP) != phi:
        raise InvariantViolation(f"PR/RP counts disagree with phi({t.n})")
    return cc
