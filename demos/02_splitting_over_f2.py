# How one geometric orbit splits into several over a finite field.
#
# Over GF(2) a closed orbit with component group (Z/2)^k breaks into 2^k
# rational orbits, told apart by a decoration on some of the label's
# blocks: "0" for the split quadratic value pattern, "d" for the one
# twisted by a nonzero Artin-Schreier class.  Here we watch it happen on
# sp(4) by brute force.

from collections import Counter

from char2orbits import centralizers as cz
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import oracle as orc
from char2orbits.classical import space_for

space = space_for("sp", 2, 1)
reports = orc.all_nilpotent_orbits(space)

print("exhaustive nilpotent coadjoint orbits of Sp(4, F_2):")
for r in reports:
    print(f"  {cb.format_blocks(r.label):22} size {r.orbit_size:>4}  "
          f"stabilizer {r.stabilizer_order}")

# Group the rational orbits by their underlying closed class (the pair of
# the label, which forgets the decorations) and compare against the
# predicted 2^k.

by_closed = Counter(cb.symp_pair_to_blocks(cb.symp_blocks_to_pair(r.label))
                    for r in reports)
print()
print("splitting per closed class:")
for closed, got in sorted(by_closed.items()):
    rep = cz.report(cb.FAMILIES["sp"], closed)
    want = 2 ** rep.comp_rank
    tag = "ok" if got == want else "MISMATCH"
    print(f"  {cb.format_symp_symbol(closed):14} component group "
          f"{rep.component_group():>8} -> {got} orbit(s) over F_2, "
          f"predicted {want}  [{tag}]")
    assert got == want

# The one class that splits is the subregular (2)^2_1.  Its two rational
# forms differ in the quadratic value pattern of their normal forms, and
# even their point counts split unevenly over F_2 (15 against 45); only
# the leading term of the stabilizer order, 2 * q^4, is shared.

twins = [r for r in reports if cb.format_symp_symbol(r.label) == "(2)^2_1"]
print()
for r in twins:
    mod, _ = fm.build_normal_form(r.label, space.field)
    print(f"  {cb.format_blocks(r.label)}: orbit size {r.orbit_size}, "
          f"quadratic values on the standard basis {mod.quad}")
