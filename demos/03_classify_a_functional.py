# Classifying a coadjoint functional, and why the answer is stable.
#
# A functional on the symplectic Lie algebra is presented as a matrix X
# through the trace pairing A |-> tr(XA).  That presentation is far from
# unique: shifting X by anything in the pairing's radical gives the same
# functional.  The classifier must (and does) see through both the
# presentation and the group action.

import numpy as np

from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.classical import random_group_element, space_for
from char2orbits.finite_field import field_for

rng = np.random.default_rng(3)
F = field_for(1)
space = space_for("sp", 3, 1)

label = (cb.BlockLabel(2, 1, "d"), cb.BlockLabel(1, 0, "0"))
_, X = fm.build_normal_form(label, F)
print("start from the normal form of", cb.format_blocks(label))

# Conjugate by random group elements and shift by random radical
# matrices; the label never moves.

rad = space.trace_radical_basis()
for trial in range(5):
    g = random_group_element(space, rng)
    gi = la.inverse(F, g)
    Y = la.mat_mul(F, la.mat_mul(F, g, X), gi)
    for idx in rng.integers(0, len(rad), size=3):
        if rng.integers(0, 2):
            Y = la.add(Y, rad[idx])
    got = fm.classify_fq(fm.build_module(space, Y))
    print(f"  trial {trial}: classified as {cb.format_blocks(got)}")
    assert got == label

# Decorations are only meaningful where the label theory says they are.
# Writing a "d" next to an interfering neighbor block still builds a
# module, but the twist is absorbable there and the classifier returns
# the canonical spelling.

fused = (cb.BlockLabel(2, 1, "d"), cb.BlockLabel(1, 1, "0"))
_, Xf = fm.build_normal_form(fused, F)
got = fm.classify_fq(fm.build_module(space, Xf))
print()
print(f"requested {cb.format_blocks(fused)}, "
      f"canonical form is {cb.format_blocks(got)}")
assert got == (cb.BlockLabel(2, 1, "0"), cb.BlockLabel(1, 1, "0"))

# The odd orthogonal side works the same way but the first move is a
# splitting: peel off the defective chain the radical of the bilinear
# form generates, leaving a nondegenerate complement to classify.

space = space_for("so-odd", 2, 1)
odd = cb.OddLabel(1, (cb.BlockLabel(1, 1, "0"),))
_, X = od.odd_witness(odd, F)
print()
print("odd orthogonal witness for", cb.format_label(odd))
for trial in range(5):
    g = random_group_element(space, rng)
    gi = la.inverse(F, g)
    Y = la.mat_mul(F, la.mat_mul(F, g, X), gi)
    split = od.split_odd_functional(space, Y)
    got = od.rational_odd_label(split)
    print(f"  trial {trial}: chain length {split.m}, "
          f"label {cb.format_label(got)}")
    assert got == odd
