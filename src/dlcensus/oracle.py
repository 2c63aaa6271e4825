"""Naive brute-force census used to validate the index-table census on
small primes.

oracle_census shares nothing with the index-table algorithms beyond the
condition-class definitions: orders come from repeated multiplication,
solutions from double loops over all pairs, one over (g, h) for fp and tc
and one over (h, a) for ha.  Quadratic in p, hence the hard prime limit.
"""

from __future__ import annotations

import math

import numpy as np

from .census import CountMatrix, Equation
from .errors import InvalidInputError
from .numtheory import is_prime
from .residue_tables import class_matrix, class_vector

ORACLE_PRIME_LIMIT = 2000


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


def oracle_census(p: int) -> dict[Equation, CountMatrix]:
    """fp, ha and tc count matrices at p, keyed like census.census_all.

    One pass over all (g, h), with a = g^h (mod p), counts fp when a = h (all
    nontrivial) and tc when g^a = h: trivial when a = h, and in the ORD row
    too when gcd(a, n) = 1.  ha compares x^x over all (h, a); its rows index a.
    """
    if p > ORACLE_PRIME_LIMIT:
        raise InvalidInputError(f"oracle limit is p <= {ORACLE_PRIME_LIMIT}, got {p}")
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")
    n = p - 1
    combo = _combos(p)
    fp, ha, tc = (np.zeros((2, 4, 4), dtype=np.int64) for _ in Equation)
    tc_ord = np.zeros((2, 4), dtype=np.int64)
    for g in range(1, p):
        for h in range(1, p):
            a = pow(g, h, p)
            if a == h:
                fp[1, combo[g], combo[h]] += 1
            if pow(g, a, p) == h:
                tc[int(a != h), combo[g], combo[h]] += 1
                if math.gcd(a, n) == 1:
                    tc_ord[int(a != h), combo[h]] += 1
    self_power = [0] + [pow(x, x, p) for x in range(1, p)]
    for h in range(1, p):
        for a in range(1, p):
            if self_power[h] == self_power[a]:
                ha[int(h != a), combo[a], combo[h]] += 1
    tc_counts = np.concatenate([class_matrix(tc), class_vector(tc_ord)[:, None]], axis=1)
    return {Equation.FP: CountMatrix(p=p, equation=Equation.FP, counts=class_matrix(fp)),
            Equation.HA: CountMatrix(p=p, equation=Equation.HA, counts=class_matrix(ha)),
            Equation.TC: CountMatrix(p=p, equation=Equation.TC, counts=tc_counts)}
