"""Brute-force ground truth: groups, orbit partitions, stabilizers.

Functionals are handled through their value vectors on the algebra basis,
packed into one integer key with e bits per value; matrices only serve as
action representatives.  A group is a list of generators and its order
from the product formula.  The symplectic generators are the
transvections along e_i and e_i + e_j, one per vector and element of an
F_2-basis of F_q; they yield every root subgroup, so they generate.  The
odd orthogonal generators are their lifts along the radical, and the
split even orthogonal ones are the reflections plus one swap of two
hyperbolic pairs.  Every generator is an involution.

There is one orbit engine.  Every generator g acts F_2-linearly on keys,
so its permutation of all q^N keys is spread out from the images of the
e*N single-bit keys, and those come from one matrix: the adjoint matrix
of g, whose column j holds the lie_basis coordinates of g b_j g.  Two
products on stacked operands give all N images, and each coordinate is
read in its free slot.  Under conjugation the single-bit images are the
matrix's columns; under the coadjoint action they are its rows, because
tr(g M_i g^-1 b_j) = coord_i(g^-1 b_j g).  Min-label propagation over
the permutations then names every orbit by its least key.  Permutations
and labels are int32 arrays over at most POINT_LIMIT keys.  Each
nilpotent orbit is reported with its size, stabilizer order, and the
label odd_split's rational_label gives its representative; the adjoint
census reports the sizes of its nilpotent orbits.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import centralizers as cz
from . import classical as cl
from . import combinatorics as cb
from . import linalg as la
from . import odd_split as od
from .classical import POINT_LIMIT


class FiniteGroup(cb._Record):
    """Generators and formula order; _labels memoizes _orbits per action."""

    __slots__ = ("generators", "order", "_labels")

    def __init__(self, generators: list, order: int,
                 _labels: dict | None = None):
        self.generators = generators
        self.order = order
        self._labels = {} if _labels is None else _labels


class OrbitReport(cb._Record):
    __slots__ = ("representative", "orbit_size", "stabilizer_order", "label")

    def __init__(self, representative: list, orbit_size: int,
                 stabilizer_order: int, label: object = None):
        self.representative = representative
        self.orbit_size = orbit_size
        self.stabilizer_order = stabilizer_order
        self.label = label


# ----------------------------------------------------------------------
# value-vector keys


def _pack(values, e: int) -> int:
    key = 0
    for i, v in enumerate(values):
        key |= v << (e * i)
    return key


def functional_key(space: cl.Space, X) -> int:
    "The functional as one integer: packed values on the algebra basis."
    return _pack(space.pairing_vector(X), space.field.e)


def key_values(space: cl.Space, key: int) -> list[int]:
    e = space.field.e
    mask = (1 << e) - 1
    return [(key >> (e * i)) & mask for i in range(space.dim_algebra)]


# ----------------------------------------------------------------------
# groups


_group_memo: dict = {}


def _generators(space: cl.Space) -> list:
    """Transvections along e_i and e_i + e_j with c in the F_2-basis of F_q
    (sp), their orthogonal lifts (so-odd), or every reflection and the
    pair swap (so-even); all of them are involutions."""
    F, n = space.field, space.n
    if space.kind == "so-even":
        # alpha(c v) = c^2 alpha(v), so alpha(v) = 1 picks one vector per line
        gens = [cl.orthogonal_transvection(space, v)
                for v in product(range(F.q), repeat=space.d)
                if space.alpha(v) == 1]
        return gens + [cl.pair_swap(space)] if n >= 2 else gens
    unit = la.identity(2 * n)
    vectors = unit + [[a ^ b for a, b in zip(u, w)]
                      for i, u in enumerate(unit) for w in unit[i + 1:]]
    gens = []
    for v in vectors:
        for c in (1 << k for k in range(F.e)):
            if space.kind == "sp":
                gens.append(cl.symplectic_transvection(space, v, c))
            else:
                # v + a e_rad with alpha = 1/c acts on V/rad as t_{v,c}
                a = F.sqrt(F.inv(c) ^ space.alpha(v + [0]))
                gens.append(cl.orthogonal_transvection(space, v + [a]))
    return gens


def enumerate_group(space: cl.Space) -> FiniteGroup:
    """Generators of the space's finite group, and its order.

    For sp, t_{a+b,c} t_{a,c} t_{b,c} with beta(a, b) = 0 is the root
    element x -> x + c a beta(x, b) + c b beta(x, a), so the transvections
    along e_i and e_i + e_j, c running over an F_2-basis of F_q, give every
    root subgroup, and root subgroups generate Sp(2n, q) (Steinberg,
    Lectures on Chevalley groups).  Restriction to V/rad is an isomorphism
    O(2n+1, q) -> Sp(2n, q) in characteristic 2, so the orthogonal lifts
    of those transvections generate the odd orthogonal group.  The
    reflections of the split even orthogonal group can fall short: in
    O+(4, F_2) they generate a subgroup of index 2, so the swap of two
    hyperbolic pairs joins them.  The order is the product formula; the
    tests close the generators under multiplication and compare.
    """
    memo_key = (space.kind, space.n, space.field.e)
    if memo_key not in _group_memo:
        q = space.field.q
        order = (cz.even_group_order(space.n, q) if space.kind == "so-even"
                 else cz.group_order(space.n, q))
        _group_memo[memo_key] = FiniteGroup(_generators(space), order)
    return _group_memo[memo_key]


# ----------------------------------------------------------------------
# the orbit engine


def _functional(space: cl.Space, key: int) -> list:
    return space.dual_from_values(key_values(space, key))


def _algebra_element(space: cl.Space, key: int) -> list:
    F = space.field
    T = la.zeros(space.d, space.d)
    for c, b in zip(key_values(space, key), space.lie_basis()):
        T = la.add(T, la.scale(F, c, b))
    return T


def _free_slots(space: cl.Space) -> list[int]:
    """Flat positions that read an algebra element's lie_basis coordinates.

    Coordinate k is read in a slot where basis matrix k is 1 and every
    other basis matrix 0; the lie basis comes from kernel_basis, which
    gives each basis matrix such a slot, its free column.
    """
    flats = [la.flatten(b) for b in space.lie_basis()]
    N = len(flats)
    columns = list(zip(*flats))
    return [columns.index(tuple(int(j == k) for j in range(N)))
            for k in range(N)]


def _spread(images) -> np.ndarray:
    "The F_2-linear map on all keys with the given single-bit images."
    out = np.zeros(1 << len(images), dtype=np.int32)
    for i, img in enumerate(images):
        out[1 << i:2 << i] = out[:1 << i] ^ img
    return out


def _key_bits(space: cl.Space) -> int:
    "Bits in a key; spaces of more than POINT_LIMIT keys are refused."
    bits = space.field.e * space.dim_algebra
    if 1 << bits > POINT_LIMIT:
        raise ValueError(
            f"{space} has 2^{bits} points; the orbit engine stops at "
            f"2^{POINT_LIMIT.bit_length() - 1}, and a generator's permutation "
            f"of them would take {4 << bits >> 20} MB")
    return bits


def _adjoint_matrix(space: cl.Space, g, slots) -> list[list[int]]:
    """Entry (i, j) is coordinate i of g b_j g, b_j the lie_basis and g an
    involution: g [b_1 | ... | b_N], then its N blocks stacked times g."""
    F, d = space.field, space.d
    basis = space.lie_basis()
    left = la.mat_mul(F, g, [[x for b in basis for x in b[r]]
                             for r in range(d)])
    images = la.mat_mul(F, [r[c:c + d] for c in range(0, len(basis) * d, d)
                            for r in left], g)
    return [[images[j * d + s // d][s % d] for j in range(len(basis))]
            for s in slots]


def _image_keys(space: cl.Space, g, action: str, slots) -> list[int]:
    """The images under g of the e*N single-bit keys, in bit order.  The
    adjoint images are the columns of g's adjoint matrix A; since
    tr(g M_i g^-1 b_j) is coord_i(g^-1 b_j g), the coadjoint ones are its
    rows."""
    F = space.field
    A = _adjoint_matrix(space, g, slots)
    rows = A if action == "coadjoint" else la.transpose(A)
    return [_pack(la.scale(F, 1 << t, r), F.e) for r in rows
            for t in range(F.e)]


def _orbits(space: cl.Space, group: FiniteGroup | None,
            action: str) -> tuple[FiniteGroup, np.ndarray]:
    """The group, and the least key of every key's orbit under `action`,
    "coadjoint" on functionals or "adjoint" on algebra elements.

    Each pass pulls every label down to the least label among its
    generator images, then jumps labels to their own labels; the labels
    stop moving exactly when each is its orbit's minimum.
    """
    bits = _key_bits(space)
    if group is None:
        group = enumerate_group(space)
    if action not in group._labels:
        slots = _free_slots(space)
        perms = [_spread(_image_keys(space, g, action, slots))
                 for g in group.generators]
        labels = np.arange(1 << bits, dtype=np.int32)
        while True:
            before = labels
            for p in perms:
                labels = np.minimum(labels, labels[p])
            labels = labels[labels]
            if np.array_equal(labels, before):
                break
        group._labels[action] = labels
    return group, group._labels[action]


def coadjoint_orbit(space: cl.Space, X,
                    group: FiniteGroup) -> dict[int, list]:
    "Orbit of the functional: key -> canonical representative matrix."
    _, labels = _orbits(space, group, "coadjoint")
    members = np.flatnonzero(labels == labels[functional_key(space, X)])
    return {int(k): space.canonical_rep(_functional(space, int(k)))
            for k in members}


def all_nilpotent_orbits(space: cl.Space,
                         group: FiniteGroup | None = None,
                         classify: bool = True) -> list[OrbitReport]:
    """Every nilpotent coadjoint orbit over the space's own field.

    Nilpotence uses the definition: the orbit must contain a functional
    vanishing on the fixed Borel, and those functionals form a linear
    subspace of keys.  The whole dual is partitioned, so the run is
    exhaustive; reports are sorted by size and label text, ties in order
    of the orbits' least keys.
    """
    group, labels = _orbits(space, group, "coadjoint")
    e = space.field.e
    # the functional's values on the Borel basis: each Borel element's
    # lie coordinates, read from the free slots, weigh the key's values
    flats = [la.flatten(c) for c in space.borel_basis()]
    borel = _spread([_pack([f[s] for f in flats], e) << t
                     for s in _free_slots(space) for t in range(e)])
    sizes = np.bincount(labels)
    reports = []
    for least in np.flatnonzero(np.bincount(labels[borel == 0])):
        rep = space.canonical_rep(_functional(space, int(least)))
        size = int(sizes[least])
        reports.append(OrbitReport(
            representative=rep,
            orbit_size=size,
            stabilizer_order=group.order // size,
            label=od.rational_label(space, rep) if classify else None))
    reports.sort(key=lambda r: (r.orbit_size, str(r.label)))
    return reports


def adjoint_nilpotent_orbit_sizes(space: cl.Space,
                                  group: FiniteGroup | None = None) -> list[int]:
    """Sizes of the orbits of nilpotent algebra elements under conjugation,
    in order of the orbits' least keys."""
    _, labels = _orbits(space, group, "adjoint")
    least = np.flatnonzero(labels == np.arange(len(labels)))
    nilpotent = [int(k) for k in least if la.power_ladder(
        space.field, _algebra_element(space, int(k))) is not None]
    return np.bincount(labels)[nilpotent].tolist()


def adjoint_nilpotent_orbit_count(space: cl.Space,
                                  group: FiniteGroup | None = None) -> int:
    "Orbit count of nilpotent algebra elements under conjugation."
    return len(adjoint_nilpotent_orbit_sizes(space, group))
