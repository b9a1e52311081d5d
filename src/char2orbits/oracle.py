"""Brute-force ground truth: groups, orbit partitions, stabilizers.

Functionals are handled through their value vectors on the algebra basis,
packed into one integer key with e bits per value; matrices only serve as
action representatives.  A group is a list of generators and its order
from the product formula: transvections for the symplectic and odd
orthogonal groups, reflections plus one swap of two hyperbolic pairs for
the split even orthogonal group.

There is one orbit engine.  Every generator acts F_2-linearly on keys, so
its permutation of all q^N keys is spread out from the images of the e*N
single-bit keys; min-label propagation over the permutations then names
every orbit by its least key.  The same engine partitions the algebra
under conjugation, with keys read as coefficient vectors.  Permutations
are built over at most POINT_LIMIT keys.  Each nilpotent orbit is
reported with its size, stabilizer order, and the label odd_split's
rational_label gives its representative.
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


def _algebra_key(space: cl.Space, T) -> int:
    return _pack(cl.algebra_coords(space, T), space.field.e)


# action name -> (key to matrix, matrix to key); g acts by M -> g M g^-1
_ACTIONS = {"coadjoint": (_functional, functional_key),
            "adjoint": (_algebra_element, _algebra_key)}


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


def _orbits(space: cl.Space, group: FiniteGroup | None,
            action: str) -> tuple[FiniteGroup, np.ndarray]:
    """The group, and the least key of every key's orbit under `action`.

    Each pass pulls every label down to the least label among its
    generator images, then jumps labels to their own labels; the labels
    stop moving exactly when each is its orbit's minimum.
    """
    bits = _key_bits(space)
    if group is None:
        group = enumerate_group(space)
    if action not in group._labels:
        F = space.field
        units = _unit_matrices(space, action)
        to_key = _ACTIONS[action][1]
        perms = []
        for g in group.generators:
            g_inv = la.inverse(F, g)
            perms.append(_spread([
                to_key(space, la.mat_mul(F, la.mat_mul(F, g, M), g_inv))
                for M in units]))
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
    group, labels = _orbits(space, group, "coadjoint")
    e = space.field.e
    borel = _spread([_pack(cl.borel_pairing(space, X), e)
                     for X in _unit_matrices(space, "coadjoint")])
    sizes = np.bincount(labels)
    reports = []
    for least in np.unique(labels[borel == 0]):
        rep = space.canonical_rep(_functional(space, int(least)))
        size = int(sizes[least])
        reports.append(OrbitReport(
            representative=rep,
            orbit_size=size,
            stabilizer_order=group.order // size,
            label=od.rational_label(space, rep) if classify else None))
    reports.sort(key=lambda r: (r.orbit_size, str(r.label)))
    return reports


def adjoint_nilpotent_orbit_count(space: cl.Space,
                                  group: FiniteGroup | None = None) -> int:
    "Orbit count of nilpotent algebra elements under conjugation."
    _, labels = _orbits(space, group, "adjoint")
    return sum(la.power_ladder(space.field, _algebra_element(space, int(k)))
               is not None for k in np.unique(labels))
