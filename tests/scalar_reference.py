"""The tests' one scalar tc census, from census.completions, which solves each
pair's two congruences with no inv, div_index or divisor-pair table; it is
the reference the table-driven fp and tc kernels are checked against."""

import math

import numpy as np

from dlcensus.census import completions
from dlcensus.residue_tables import class_matrix, class_vector


def bucket_pairs(b):
    """Every in-bucket pair (h, a) with h < a (members ascend in a bucket)."""
    members, offsets = b.members.tolist(), b.offsets.tolist()
    for lo, hi in zip(offsets, offsets[1:]):
        group = members[lo:hi]
        for k, h in enumerate(group):
            for a in group[k + 1:]:
                yield h, a


def scalar_tc(t, pairs):
    """tc counts of the pairs (h, a), h <= a, as a CountMatrix grid.

    Returns the (part, row, col) grid of shape (2, 5, 4), rows CLASSES over g
    then ORD (a RP), and the pairs with gcd(h, a, n) = 1 that do not have
    exactly one completion.  A pair h < a is solved once and tallied for both
    orders, as its system is symmetric in (h, a); a diagonal pair h = a is
    trivial, and its completions are fp's partners g of h.
    """
    tally = np.zeros((2, 2, 4, 4), dtype=np.int64)  # (h != a, a RP, combo g, combo h)
    combo = t.combo_by_index[t.ind]  # entry 0 is padding
    not_single = []
    for h, a in pairs:
        found = completions(h, a, t)
        if math.gcd(h, a, t.n) == 1 and len(found) != 1:
            not_single.append((h, a))
        orders = [(h, a)] if h == a else [(h, a), (a, h)]
        for g in found:
            for x, y in orders:
                tally[int(x != y), combo[y] >> 1, combo[g], combo[x]] += 1
    counts = np.concatenate([class_matrix(tally.sum(axis=1)),
                             class_vector(tally[:, 1].sum(axis=1))[:, None]], axis=1)
    return counts, not_single
