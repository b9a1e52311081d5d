# The even orthogonal group, handled by transport rather than labels.
#
# For O(2n) the machinery runs through a duality: the map sending a
# matrix X to X + S X^t S (S the Gram matrix of the split form) turns
# coadjoint data into adjoint data, compatibly with the group action.
# Nilpotence, orbits, and counts can all be read off on whichever side
# is more convenient.

import numpy as np

from char2orbits import classical as cl
from char2orbits import linalg as la
from char2orbits import oracle as orc
from char2orbits.classical import random_group_element, space_for

space = space_for("so-even", 2, 1)
F = space.field
group = orc.enumerate_group(space)
print(f"O(4, F_2) has {group.order} elements; {len(group.generators)} "
      f"generators: a root element for each simple root and its negative, "
      f"and one reflection")

reports = orc.all_nilpotent_orbits(space, group, classify=False)
sizes = sorted(r.orbit_size for r in reports)
print(f"nilpotent coadjoint orbits: sizes {sizes}")

adjoint = orc.adjoint_nilpotent_orbit_count(space)
print(f"nilpotent adjoint orbit count via transport: {adjoint}")
assert adjoint == len(reports)

# Equivariance, checked directly: transporting g.X lands on g acting on
# the transport of X.

rng = np.random.default_rng(11)
for _ in range(50):
    X = rng.integers(0, 2, size=(space.d, space.d), dtype=np.uint8).tolist()
    g = random_group_element(space, rng)
    gi = la.inverse(F, g)
    left = cl.module_endomorphism(space, la.mat_mul(F, la.mat_mul(F, g, X), gi))
    right = la.mat_mul(F, la.mat_mul(F, g, cl.module_endomorphism(space, X)), gi)
    assert left == right
print("transport commutes with the group action (50 random checks)")

# The transport also explains where the orthogonal Lie algebra lives:
# inside endomorphisms of the exterior square.  The induced bilinear
# form on the algebra is nondegenerate and invariant, which is what
# makes dual and algebra interchangeable in the first place.

G = cl.wedge_invariant_form(space)
print(f"invariant form on the algebra: {len(G)} x {len(G[0])}, "
      f"rank {la.rank(F, G)}")
