"""Differential checks of the fast census at p ~ 10^6 against index-free
counts that use no discrete logarithm, only Python's built-in pow.
"""

import math

import numpy as np
import pytest

from dlcensus.census import build_ha_buckets, count_fp, count_ha
from dlcensus.residue_tables import CLASSES, build_tables

ANY = CLASSES[0]

# n = 2*3*166667 (few divisors) and n = 2^6*3^2*5^2*7*11 (252 divisors).
SCALE_PRIMES = (1000003, 1108801)


@pytest.mark.parametrize("p", SCALE_PRIMES)
def test_fp_total_matches_power_residue_count(p):
    """h with d = gcd(h, n) has d fixed-point partners g iff h is a d-th power
    residue, i.e. h^(n/d) = 1 (mod p)."""
    n = p - 1
    expected = 0
    for h in range(1, p):
        d = math.gcd(h, n)
        if pow(h, n // d, p) == 1:
            expected += d
    assert count_fp(build_tables(p)).entry("total", ANY, ANY) == expected


@pytest.mark.parametrize("p", SCALE_PRIMES)
def test_ha_total_matches_self_power_bincount(p):
    """Ordered pairs with h^h = a^a are the sum of squared multiplicities of
    the values x^x mod p."""
    values = np.fromiter((pow(x, x, p) for x in range(1, p)), dtype=np.int64, count=p - 1)
    multiplicity = np.bincount(values)
    t = build_tables(p)
    ha = count_ha(build_ha_buckets(t), t)
    assert ha.entry("total", ANY, ANY) == int(np.dot(multiplicity, multiplicity))
