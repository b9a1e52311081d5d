"""Brute-force ground truth: groups, orbit partitions, stabilizers.

Functionals are handled through their value vectors on the algebra basis,
packed into one integer key with e bits per value; matrices only serve as
action representatives.  A group is a list of generators and its order
from the product formula: transvections for the symplectic and odd
orthogonal groups, reflections plus one swap of two hyperbolic pairs for
the split even orthogonal group.

There is one orbit engine.  Every generator acts F_2-linearly on keys, so
its permutation of all q^N keys is spread out from the images of the e*N
single-bit keys.  Those images come from three products on stacked
operands: g times the unit matrices side by side, the blocks stacked and
times g^-1, and the flattened images times a readout matrix that turns a
matrix into its key's values.  Min-label propagation over the
permutations then names every orbit by its least key.  The same engine
partitions the algebra under conjugation, with keys read as coefficient
vectors: the coadjoint readout is the trace pairing with the algebra
basis, the adjoint one reads each basis coordinate in its free slot.
Permutations are built over at most POINT_LIMIT keys.  Each nilpotent
orbit is reported with its size, stabilizer order, and the label
odd_split's rational_label gives its representative; the adjoint census
reports the sizes of its nilpotent orbits.
"""

from __future__ import annotations

import numpy as np

from . import centralizers as cz
from . import classical as cl
from . import combinatorics as cb
from . import linalg as la
from . import odd_split as od
from .finite_field import Field

POINT_LIMIT = 1 << 10


class FiniteGroup(cb._Record):
    """Generators and formula order; _labels memoizes _orbits per action."""

    __slots__ = ("kind", "n", "field", "generators", "order", "_labels")

    def __init__(self, kind: str, n: int, field: Field, generators: list,
                 order: int, _labels: dict | None = None):
        self.kind = kind
        self.n = n
        self.field = field
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


def _transvections(space: cl.Space) -> list:
    "The distinct transvections of the space, in vector order."
    F = space.field
    unique: dict[tuple, list] = {}
    for v in _vectors(F.q, space.d):
        if not any(v):
            continue
        if space.kind == "sp":
            ts = [cl.symplectic_transvection(space, v, c) for c in range(1, F.q)]
        else:
            ts = [cl.orthogonal_transvection(space, v)] if space.alpha(v) else []
        for t in ts:
            unique.setdefault(tuple(map(tuple, t)), t)
    return list(unique.values())


def _vectors(q: int, d: int):
    for idx in range(q ** d):
        vec = []
        for _ in range(d):
            idx, digit = divmod(idx, q)
            vec.append(digit)
        yield vec


def enumerate_group(space: cl.Space) -> FiniteGroup:
    """Generators of the space's finite group, and its order.

    Transvections generate the symplectic and odd orthogonal groups.  The
    reflections of the split even orthogonal group can fall short: in
    O+(4, F_2) they generate a subgroup of index 2, so the swap of two
    hyperbolic pairs joins them.  The order is the product formula; the
    tests close the generators under multiplication and compare.
    """
    memo_key = (space.kind, space.n, space.field.e)
    if memo_key not in _group_memo:
        q = space.field.q
        gens = _transvections(space)
        if space.kind == "so-even":
            if space.n >= 2:
                gens.append(cl.pair_swap(space))
            order = cz.even_group_order(space.n, q)
        else:
            order = cz.group_order(space.n, q)
        _group_memo[memo_key] = FiniteGroup(space.kind, space.n, space.field,
                                            gens, order)
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


def _coadjoint_readout(space: cl.Space) -> list[list[int]]:
    "Columns b^t of the algebra basis, flattened: tr(Y b) for each b."
    return la.transpose(space._pairing_matrix())


def _adjoint_readout(space: cl.Space) -> list[list[int]]:
    """Reads a flattened algebra element's coordinates in the lie_basis.

    Coordinate k is read in a slot where basis matrix k is 1 and every
    other basis matrix 0; the lie basis comes from kernel_basis, which
    gives each basis matrix such a slot, its free column.
    """
    flats = [la.flatten(b) for b in space.lie_basis()]
    N = len(flats)
    columns = list(zip(*flats))
    R = la.zeros(len(columns), N)
    for k in range(N):
        unit = tuple(int(j == k) for j in range(N))
        R[columns.index(unit)][k] = 1
    return R


# action name -> (key to matrix, readout of an image's values); g acts by
# M -> g M g^-1, and the flattened image times the readout is the image's
# key as values
_ACTIONS = {"coadjoint": (_functional, _coadjoint_readout),
            "adjoint": (_algebra_element, _adjoint_readout)}


def _spread(images) -> np.ndarray:
    "The F_2-linear map on all keys with the given single-bit images."
    out = np.zeros(1 << len(images), dtype=np.int64)
    for i, img in enumerate(images):
        out[1 << i:2 << i] = out[:1 << i] ^ img
    return out


def _key_bits(space: cl.Space) -> int:
    "Bits in a key; spaces of more than POINT_LIMIT keys are refused."
    bits = space.field.e * space.dim_algebra
    if 1 << bits > POINT_LIMIT:
        raise ValueError(f"{space} has 2^{bits} points; the orbit engine "
                         f"stops at {POINT_LIMIT}")
    return bits


def _unit_matrices(space: cl.Space, action: str) -> list:
    "The matrices of the single-bit keys."
    to_matrix = _ACTIONS[action][0]
    return [to_matrix(space, 1 << i) for i in range(_key_bits(space))]


def _image_keys(space: cl.Space, g, units, readout) -> list[int]:
    """Keys of g M g^-1 for the k unit matrices M, by three products:
    g [M_1 | ... | M_k], its k blocks stacked times g^-1, and the k
    flattened images times the readout."""
    F, d = space.field, space.d
    left = la.mat_mul(F, g, [[x for r in rows for x in r]
                             for rows in zip(*units)])
    stacked = [r[c:c + d] for c in range(0, len(units) * d, d) for r in left]
    images = la.mat_mul(F, stacked, la.inverse(F, g))
    flat = [[x for r in images[i:i + d] for x in r]
            for i in range(0, len(images), d)]
    return [_pack(v, F.e) for v in la.mat_mul(F, flat, readout)]


def _orbits(space: cl.Space, group: FiniteGroup | None, action: str,
            units: list | None = None) -> tuple[FiniteGroup, np.ndarray]:
    """The group, and the least key of every key's orbit under `action`.

    `units` are the action's single-bit matrices, if the caller has them.
    Each pass pulls every label down to the least label among its
    generator images, then jumps labels to their own labels; the labels
    stop moving exactly when each is its orbit's minimum.
    """
    bits = _key_bits(space)
    if group is None:
        group = enumerate_group(space)
    if action not in group._labels:
        if units is None:
            units = _unit_matrices(space, action)
        readout = _ACTIONS[action][1](space)
        perms = [_spread(_image_keys(space, g, units, readout))
                 for g in group.generators]
        labels = np.arange(1 << bits)
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
    units = _unit_matrices(space, "coadjoint")
    group, labels = _orbits(space, group, "coadjoint", units)
    e = space.field.e
    borel = _spread([_pack(cl.borel_pairing(space, X), e) for X in units])
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
