"""Naive brute-force counters used to validate the census on small primes.

These deliberately share nothing with the index-table algorithms beyond
the condition-class definitions: orders come from repeated
multiplication, solutions from double loops over all pairs.  Quadratic in p,
hence the hard prime limit.
"""

from __future__ import annotations

import math

import numpy as np

from .census import CountMatrix, Equation
from .errors import InvalidInputError
from .numtheory import is_prime
from .residue_tables import class_matrix, class_vector

ORACLE_PRIME_LIMIT = 2000


def _check(p: int) -> None:
    if p > ORACLE_PRIME_LIMIT:
        raise InvalidInputError(f"oracle limit is p <= {ORACLE_PRIME_LIMIT}, got {p}")
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")


def _combos(p: int) -> list[int]:
    """Per-residue PR/RP combo codes from naive order computation."""
    n = p - 1
    codes = [0] * p
    for x in range(1, p):
        order = 1
        value = x
        while value != 1:
            value = value * x % p
            order += 1
        codes[x] = (1 if order == n else 0) + (2 if math.gcd(x, n) == 1 else 0)
    return codes


def oracle_fp(p: int) -> CountMatrix:
    """Count g^h = h (mod p) by checking all (g, h) pairs; all nontrivial."""
    _check(p)
    combo = _combos(p)
    tally = np.zeros((2, 4, 4), dtype=np.int64)
    for g in range(1, p):
        for h in range(1, p):
            if pow(g, h, p) == h:
                tally[1, combo[g], combo[h]] += 1
    return CountMatrix(p=p, equation=Equation.FP, counts=class_matrix(tally))


def oracle_ha(p: int) -> CountMatrix:
    """Count h^h = a^a (mod p) by comparing all (h, a) pairs; rows index a."""
    _check(p)
    combo = _combos(p)
    self_power = [0] + [pow(x, x, p) for x in range(1, p)]
    tally = np.zeros((2, 4, 4), dtype=np.int64)
    for h in range(1, p):
        for a in range(1, p):
            if self_power[h] == self_power[a]:
                tally[int(h != a), combo[a], combo[h]] += 1
    return CountMatrix(p=p, equation=Equation.HA, counts=class_matrix(tally))


def oracle_tc(p: int) -> CountMatrix:
    """Count pairs (g, h) whose companion a = g^h satisfies g^a = h (mod p),
    split on a = h, with the ord row tallying solutions where gcd(a, n) = 1."""
    _check(p)
    n = p - 1
    combo = _combos(p)
    tally = np.zeros((2, 4, 4), dtype=np.int64)
    ord_tally = np.zeros((2, 4), dtype=np.int64)
    for g in range(1, p):
        for h in range(1, p):
            a = pow(g, h, p)
            if pow(g, a, p) != h:
                continue
            tally[int(h != a), combo[g], combo[h]] += 1
            if math.gcd(a, n) == 1:
                ord_tally[int(h != a), combo[h]] += 1
    counts = np.concatenate([class_matrix(tally), class_vector(ord_tally)[:, None]], axis=1)
    return CountMatrix(p=p, equation=Equation.TC, counts=counts)
