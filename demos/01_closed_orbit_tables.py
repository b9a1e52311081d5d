# Closed-field nilpotent orbit tables for the two label families.
#
# Over an algebraically closed field of characteristic two, nilpotent
# coadjoint orbits of Sp(2n) and of O(2n+1) are both indexed by pairs of
# partitions (nu, mu) with nu_i <= mu_i + 1 (symplectic) or nu_i <= mu_i
# (odd orthogonal).  Counting either family gives p2(n) - p2(n-2), where
# p2 counts partition pairs of total size n.

from char2orbits import centralizers as cz
from char2orbits import combinatorics as cb

for n in range(1, 6):
    pairs = cb.symp_pairs(n)
    print(f"Sp({2 * n}): {len(pairs)} closed orbits "
          f"(p2({n}) - p2({n - 2}) = {cb.p2(n) - cb.p2(n - 2)})")

print()

# The same rows, with geometry attached: orbit dimension (from the
# centralizer dimension formula) and the component group of the
# stabilizer, always an elementary abelian 2-group.

n = 3
print(f"closed orbits of Sp({2 * n}):")
print(f"{'label':24} {'pair':22} {'dim':>4} {'comp group':>10}")
sp, so = cb.FAMILIES["sp"], cb.FAMILIES["so-odd"]
for pair in sp.pairs(n):
    blocks = sp.closed(pair)
    rep = cz.report(sp, blocks)
    print(f"{cb.format_symp_symbol(blocks):24} {cb.format_pair(pair):22} "
          f"{cz.algebra_dim(n) - rep.dim_z:>4} {rep.component_group():>10}")

print()
print(f"odd orthogonal orbits of O({2 * n + 1}):")
print(f"{'pair':22} {'dim':>4} {'comp group':>10}")
for pair in so.pairs(n):
    rep = cz.report(so, so.closed(pair))
    print(f"{cb.format_pair(pair, odd=True):22} "
          f"{cz.algebra_dim(n) - rep.dim_z:>4} {rep.component_group():>10}")

# Summing 2^(component rank) over the closed orbits recovers p2(n): each
# closed class will split into exactly that many orbits over GF(q).  The
# two families land on the same total, one face of the duality between
# them.

print()
for n in range(1, 11):
    symp = sum(2 ** cz.report(sp, sp.closed(p)).comp_rank for p in sp.pairs(n))
    oodd = sum(2 ** cz.report(so, so.closed(p)).comp_rank for p in so.pairs(n))
    assert symp == oodd == cb.p2(n)
    print(f"n={n:2}: sum of 2^k over both families = p2(n) = {symp}")
