"""Brute-force ground truth: groups, orbit partitions, stabilizers.

Functionals are handled through their value vectors on the algebra basis,
packed into one integer key with e bits per value; matrices only serve as
action representatives.  A group is a list of generators and its order
from the product formula.  The generators are written down, with no
scan: the root elements x_{+-a}(c) of the simple roots a, c running over
an F_2-basis of F_q, each the identity plus c at one or two entries.  By
Steinberg they generate Sp(2n, q); their lifts along the radical
generate O(2n+1, q), and for O+(2n, q) they generate Omega+, so one
reflection is added, e_1 <-> f_1; O+(2), with no roots, takes all q - 1
of e_1 -> f_1 / b, f_1 -> b e_1.  Each generator is the identity plus
a matrix of square zero, so it is an involution in characteristic 2.

There is one orbit engine and one census rule.  Every generator g acts
F_2-linearly on keys, so all it takes is the images of the e*N
single-bit keys, and those come from one matrix: the adjoint matrix of
g, whose column j holds the lie_basis coordinates of g b_j g.  Each b_j
is 1 at the one or two slots of its entry in classical's slot table, so
each coordinate, read in its free slot, sums at most two products of
entries of g.  Under conjugation the single-bit images are the matrix's
columns; under the coadjoint action they are its rows, because
tr(g M_i g^-1 b_j) = coord_i(g^-1 b_j g).  The generators are stacked
into one array, so a whole group's images come out of a few numpy
calls, the field's multiplication table indexed by arrays of entries.
The engine, _orbit_labels, is a pure function of that (k, bits) stack:
it spreads each row into a permutation of all keys and names every
orbit by its least key by min-label propagation in place.  Permutations
and labels are int32 arrays over at most POINT_LIMIT keys.
coadjoint_orbits hands a space's one labelling to its caller; a census
drops its own on return.

A census then keeps the orbits that meet a coordinate subspace, whose
keys are spread from its coordinates' single-bit keys.  A functional is
nilpotent when its orbit meets b^perp, the keys 0 at the space's
borel_coordinates; an algebra element is nilpotent when its orbit meets
the nilradical n, the keys 0 outside the coordinates strictly upper
triangular in flag order, as every nilpotent element lies in the
nilradical of some Borel (Jantzen, Nilpotent orbits in representation
theory); the tests hold this rule against linalg.power_ladder on every
space of at most 2^16 keys.  A key's matrix is dual_from_values of its
values, already the canonical representative.  Each nilpotent coadjoint orbit is reported with that
representative of its least key, its size, stabilizer order, and the
label odd_split's rational_label gives it; the adjoint census reports
the sizes of its nilpotent orbits.
"""

from __future__ import annotations

import numpy as np

from . import centralizers as cz
from . import classical as cl
from . import combinatorics as cb
from . import linalg as la
from . import odd_split as od
from .classical import POINT_LIMIT


class FiniteGroup(cb._Record):
    "Generators and the order from the product formula."

    __slots__ = ("generators", "order")


class OrbitReport(cb._Record):
    __slots__ = ("representative", "orbit_size", "stabilizer_order", "label")


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
    """x_{+-a}(c) for the simple roots a, c in the F_2-basis of F_q: the
    identity plus c at the root's one or two entries, or at their
    transposes.  so-odd adds sqrt(c) in the radical row under a long root,
    and so-even adds the reflections along a e_1 + a^-1 f_1: the one with
    a = 1 when n >= 2, and all q - 1 when n = 1, with no roots.  All of
    them are involutions."""
    F, n, d = space.field, space.n, space.d
    # e_i - e_(i+1), then 2e_n (sp, so-odd) or e_(n-1) + e_n (so-even)
    roots = [[(i, i + 1), (n + i + 1, n + i)] for i in range(n - 1)]
    if space.kind != "so-even":
        roots.append([(n - 1, 2 * n - 1)])
    elif n >= 2:
        roots.append([(n - 2, 2 * n - 1), (n - 1, 2 * n - 2)])
    gens = []
    for entries in roots:
        # +a, then -a at the transposed entries
        for root in (entries, [(b, a) for a, b in entries]):
            for c in (1 << k for k in range(F.e)):
                g = la.identity(d)
                for a, b in root:
                    g[a][b] = c
                if space.kind == "so-odd" and len(root) == 1:
                    # alpha on V/rad gains c x_b^2; the radical takes it back
                    g[2 * n][root[0][1]] = F.sqrt(c)
                gens.append(g)
    if space.kind == "so-even":
        # Omega+ has index 2 in O+; the reflection along a e_1 + a^-1 f_1
        # sends e_1 to f_1 / b and f_1 to b e_1, b = a^2 running over F_q*
        for b in range(1, F.q) if n == 1 else (1,):
            g = la.identity(d)
            g[0][0], g[0][n], g[n][0], g[n][n] = 0, b, F.inv(b), 0
            gens.append(g)
    return gens


def enumerate_group(space: cl.Space) -> FiniteGroup:
    """Generators of the space's finite group, and its order.

    The root subgroups X_{+-a} of the simple roots a generate the Chevalley
    group in every characteristic (Steinberg, Lectures on Chevalley
    groups): <X_a, X_-a> holds a lift of the reflection w_a, the w_a
    generate the Weyl group, every root is w(a) for a simple a, and the
    lift of w conjugates X_a onto X_w(a).  X_a(F_q) is additive, so c may
    run over an F_2-basis of F_q.  For sp that group is Sp(2n, q).
    Restriction to V/rad is an isomorphism O(2n+1, q) -> Sp(2n, q) in
    characteristic 2, so the unique lifts of the sp generators generate
    the odd orthogonal group; only a long root element moves a form
    value, alpha(x) gaining c x_b^2, which the radical coordinate's
    sqrt(c) x_b cancels.  For so-even the root elements generate
    Omega+(2n, q), the kernel of the Dickson invariant, so one reflection
    reaches O+(2n, q); O+(2, q) is generated by its q - 1 reflections,
    written down as antidiagonal matrices.  Each generator is 1 + N with
    N^2 = 0, so it squares to 1 + 2N = 1 in characteristic 2.  The order
    is the product formula; the tests close the generators under
    multiplication and compare.
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


def _spread(images) -> np.ndarray:
    """The F_2-linear maps on all keys with the given single-bit images:
    row g of the (k, bits) images gives row g of the (k, 2^bits) result.
    Each step XORs the filled prefix into the next block in place."""
    images = np.asarray(images, dtype=np.int32)
    out = np.zeros((len(images), 1 << images.shape[1]), dtype=np.int32)
    for i in range(images.shape[1]):
        np.bitwise_xor(out[:, :1 << i], images[:, i, None],
                       out=out[:, 1 << i:2 << i])
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


def _images(space: cl.Space, generators, action: str) -> np.ndarray:
    """Row g holds generator g's images of the single-bit keys under
    `action`, in bit order.

    Entry (i, j) of g's adjoint matrix is coordinate i of g b_j g, b_j the
    lie_basis and g an involution.  b_j is 1 only at its slot-table slots
    (a, b) and (a2, b2), so (g b_j g)[r][c], read at the free slot (r, c)
    of coordinate i, is g[r][a] g[b][c] + g[r][a2] g[b2][c].  The
    generators are stacked with a zero row and column d, at which a lone
    slot's missing pivot (d, d) reads 0.  The adjoint images of the
    single-bit keys are the matrix's columns; since tr(g M_i g^-1 b_j) is
    coord_i(g^-1 b_j g), the coadjoint ones are its rows.
    """
    F, d = space.field, space.d
    MUL = np.array(F.mul_table, dtype=np.intp)
    G = np.zeros((len(generators), d + 1, d + 1), dtype=np.intp)
    G[:, :d, :d] = generators
    table = space._slot_table()
    r, c = np.divmod([f for f, *_ in table], d)
    r2, c2 = np.array([divmod(p[0], d) if p else (d, d)
                       for _, *p in table]).T
    rows, cols = r[:, None], c[:, None]
    A = (MUL[G[:, rows, r], G[:, c, cols]]
         ^ MUL[G[:, rows, r2], G[:, c2, cols]])
    if action == "adjoint":
        A = A.transpose(0, 2, 1)
    # bit t of coordinate i has image sum_j (2^t A[g, i, j]) << e*j
    scaled = MUL[1 << np.arange(F.e)][:, A] << F.e * np.arange(len(table))
    return scaled.sum(axis=-1).transpose(1, 2, 0).reshape(len(generators), -1)


def _orbit_labels(images) -> np.ndarray:
    """The least key of every key's orbit under the F_2-linear maps whose
    single-bit images are the rows of the (k, bits) stack.

    Each pass pulls every label down to the least label among its
    generator images, then jumps labels to their own labels; the labels
    stop moving exactly when each is its orbit's minimum.  Labels only
    fall, so a pass that leaves their sum alone left every label alone.
    The pass gathers into one scratch array and takes minimums in place.
    """
    perms = _spread(images)
    labels = np.arange(perms.shape[1], dtype=np.int32)
    scratch = np.empty_like(labels)
    total = None
    while True:
        for p in perms:
            # mode "raise" would buffer the output; every index is valid
            np.take(labels, p, out=scratch, mode="clip")
            np.minimum(labels, scratch, out=labels)
        np.take(labels, labels, out=scratch, mode="clip")
        labels, scratch = scratch, labels
        before, total = total, int(labels.sum(dtype=np.int64))
        if total == before:
            return labels


def _span_keys(space: cl.Space, coordinates) -> np.ndarray:
    """The keys that are 0 outside the given coordinates, ascending: the
    span of those coordinates' single-bit keys."""
    e = space.field.e
    return _spread([[1 << e * k + t for k in coordinates
                     for t in range(e)]])[0]


def _orbits(space: cl.Space, action: str, group: FiniteGroup | None = None
            ) -> tuple[FiniteGroup, np.ndarray]:
    """The group, and the least key of every key's orbit under `action`,
    "coadjoint" on functionals or "adjoint" on algebra elements.  A space
    past POINT_LIMIT is refused before any generator is built."""
    _key_bits(space)
    if group is None:
        group = enumerate_group(space)
    return group, _orbit_labels(_images(space, group.generators, action))


def _census(space: cl.Space, action: str, coordinates,
            group: FiniteGroup | None = None) -> tuple:
    """The census rule: the group, the least keys of the `action` orbits
    that meet the span of the coordinates, ascending, and their sizes."""
    group, labels = _orbits(space, action, group)
    least = np.flatnonzero(np.bincount(labels[_span_keys(space, coordinates)]))
    return group, least, np.bincount(labels)[least]


def coadjoint_orbits(space: cl.Space) -> np.ndarray:
    "The least key of every functional's orbit, indexed by key."
    return _orbits(space, "coadjoint")[1]


def all_nilpotent_orbits(space: cl.Space,
                         group: FiniteGroup | None = None,
                         classify: bool = True) -> list[OrbitReport]:
    """Every nilpotent coadjoint orbit over the space's own field.

    Nilpotence uses the definition: the orbit must meet b^perp, the
    functionals vanishing on the fixed Borel, which are the keys 0 at the
    Borel coordinates.  The whole dual is partitioned, so the run is
    exhaustive; reports are sorted by size and label text, ties in order
    of the orbits' least keys.
    """
    borel = set(space.borel_coordinates())
    group, least, sizes = _census(space, "coadjoint", [
        k for k in range(space.dim_algebra) if k not in borel], group)
    reports = []
    for key, size in zip(least.tolist(), sizes.tolist()):
        rep = space.dual_from_values(key_values(space, key))
        label = od.rational_label(space, rep) if classify else None
        reports.append(OrbitReport(rep, size, group.order // size, label))
    reports.sort(key=lambda r: (r.orbit_size, str(r.label)))
    return reports


def adjoint_nilpotent_orbit_sizes(space: cl.Space) -> list[int]:
    """Sizes of the orbits of nilpotent algebra elements under conjugation,
    in order of the orbits' least keys: the orbits that meet the
    nilradical n, the keys 0 outside the strictly upper Borel
    coordinates."""
    return _census(space, "adjoint",
                   space.borel_coordinates(strict=True))[2].tolist()


def adjoint_nilpotent_orbit_count(space: cl.Space) -> int:
    "Orbit count of nilpotent algebra elements under conjugation."
    return len(adjoint_nilpotent_orbit_sizes(space))
