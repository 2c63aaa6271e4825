"""Per-prime lookup tables: powers of a primitive root, the inverse index
(discrete log) table, and per-residue condition flags.

Conventions used everywhere downstream: residues live in [1, p-1], indices in
[0, n-1] with n = p - 1, and pow[0] = 1.  A residue x is PR when its
multiplicative order is n (equivalently gcd(ind[x], n) = 1) and RP when
gcd(x, n) = 1.  Tables are immutable after construction and safe to share
between any number of readers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolation
from .numtheory import Factored, euler_phi, factorize, is_prime, smallest_primitive_root

DEFAULT_PRIME_LIMIT = 1 << 31


class ConditionClass(enum.Enum):
    ANY = "ANY"
    PR = "PR"
    RP = "RP"
    RPPR = "RPPR"
    ORD = "ORD"  # fifth row of the two-cycle census, not a column class


#: The four classes indexing every 4x4 census matrix, in axis order.
CLASSES = (ConditionClass.ANY, ConditionClass.PR, ConditionClass.RP, ConditionClass.RPPR)

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
    """Aggregate a 4x4 combo-indexed count matrix into the class-indexed one."""
    return _AGG @ np.asarray(combo_matrix, dtype=np.int64) @ _AGG.T


def class_vector(combo_vector: np.ndarray) -> np.ndarray:
    """Aggregate a length-4 combo-indexed tally into the class-indexed one."""
    return _AGG @ np.asarray(combo_vector, dtype=np.int64)


@dataclass(frozen=True)
class ResidueTables:
    """Immutable lookup tables for one prime.

    pow[k] = root^k mod p for k in [0, n-1]; ind is its inverse on [1, p-1]
    (so x has multiplicative order n / gcd(ind[x], n)); combo[x] is the
    PR/RP flag encoding.
    Entry 0 of the residue-indexed arrays is padding.
    """

    p: int
    n: int
    factors: Factored
    root: int
    pow: np.ndarray  # uint32, length n, index -> residue
    ind: np.ndarray  # uint32, length p, residue -> index
    combo: np.ndarray  # uint8, length p, residue -> combo code

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


def build_tables(p: int, max_prime: int = DEFAULT_PRIME_LIMIT) -> ResidueTables:
    """Build all tables for prime p in O(p) time and O(p) 32-bit memory."""
    if p > max_prime:
        raise InvalidInputError(f"prime {p} above the table limit {max_prime}")
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

    pr = np.gcd(ind.astype(np.int64), n) == 1
    rp = np.gcd(np.arange(p, dtype=np.int64), n) == 1
    combo = (pr.astype(np.uint8) + 2 * rp.astype(np.uint8))
    combo[0] = 0

    for arr in (pow_table, ind, combo):
        arr.setflags(write=False)
    return ResidueTables(p=p, n=n, factors=factors, root=root,
                         pow=pow_table, ind=ind, combo=combo)


def classify(x: int, t: ResidueTables) -> set[ConditionClass]:
    """Condition-class memberships of residue x (always includes ANY)."""
    if not 1 <= x <= t.n:
        raise InvalidInputError(f"residue {x} outside [1, {t.n}]")
    out = {ConditionClass.ANY}
    if t.is_pr(x):
        out.add(ConditionClass.PR)
    if t.is_rp(x):
        out.add(ConditionClass.RP)
    if t.is_pr(x) and t.is_rp(x):
        out.add(ConditionClass.RPPR)
    return out


def class_counts(t: ResidueTables) -> ClassCounts:
    """Global class and intersection counts; |PR| = |RP| = phi(n) by construction."""
    counts = np.bincount(t.combo[1:], minlength=4).astype(np.int64)
    cc = ClassCounts(p=t.p, combo_counts=counts)
    phi = euler_phi(t.factors)
    if cc.count(ConditionClass.PR) != phi or cc.count(ConditionClass.RP) != phi:
        raise InvariantViolation(f"PR/RP counts disagree with phi({t.n})")
    return cc
