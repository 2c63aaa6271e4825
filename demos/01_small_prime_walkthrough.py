"""Walk through the census machinery on a prime small enough to inspect by hand.

For p = 7 the discrete exponentiation map x -> g^x mod 7 can be tabulated in
full, so every count below can be confirmed by staring at the tables.
"""

import math

from dlcensus import (
    build_ha_buckets,
    build_tables,
    census_all,
    completions,
    oracle_census,
)

p = 7
tables = build_tables(p)

print(f"p = {p}, primitive root = {tables.root}")
print(f"powers of {tables.root}: {[pow(tables.root, k, p) for k in range(tables.n)]}")
print(f"index (discrete log) of each residue 1..6: {[int(x) for x in tables.ind[1:]]}")
# The order of x is n / gcd(ind(x), n), read straight off the index table.
orders = [tables.n // math.gcd(int(i), tables.n) for i in tables.ind[1:]]
print(f"multiplicative orders: {orders}")
print()

# Residue classes: PR = primitive root, RP = coprime to p-1, RPPR = both.
for x in range(1, p):
    print(f"residue {x}: PR={tables.is_pr(x)} RP={tables.is_rp(x)}")
print()

# The eliminated-form buckets group residues with equal x^x mod p; a residue
# whose x^x no other residue shares is in none, and solves only h = a = x.
buckets = build_ha_buckets(tables)
print("buckets of equal x^x mod p:",
      [sorted(int(m) for m in buckets.bucket_members(i))
       for i in range(buckets.num_buckets)])
unpaired = sorted(set(range(1, p)) - {int(m) for m in buckets.members})
print("residues with an x^x of their own:", unpaired)
print("so h^h = a^a has", sum(int(s) * int(s) for s in buckets.sizes) + len(unpaired),
      "ordered solutions including the diagonal")
print()

# A bucket pair (h, a) becomes a two-cycle for each completion g.
for h, a in [(2, 4), (1, 6), (3, 5)]:
    print(f"completions of (h={h}, a={a}):", completions(h, a, tables))
print()

observed = census_all(tables)
fp, ha, tc = observed.values()
print("fixed-point counts (rows g, columns h, classes ANY/PR/RP/RPPR):")
print(fp.part("total"))
print("eliminated-form nontrivial counts (rows a):")
print(ha.part("nontrivial"))
print("two-cycle nontrivial counts (rows g, then ORD: companion a coprime to p-1):")
print(tc.part("nontrivial"))
print()

# The independent brute-force oracle, one pass over all pairs, agrees cell
# for cell.
assert observed == oracle_census(p)
print("brute-force oracle agrees with the index-table census on every cell")
