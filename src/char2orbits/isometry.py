"""Exhaustive isometry search between small spaces over GF(2^e).

A space map places one basis image per level: each image is constrained
linearly by the pairings against the images already placed, then filtered
by its quadratic value.  The rows of those constraints, each pairing's
Gram applied to an image, are computed once, when the image is placed.
A basis vector in the radical of a source Gram must map into the radical
of the destination Gram, which prunes the levels of degenerate pairings
and loses no invertible map.  The search is exact: every affine solution
set is enumerated in full, so space_maps yields every map and
count_space_maps counts them; a level larger than LEVEL_CAP raises
SearchTooLarge instead.

Only verify and the tests import this module: the rational classifiers
compare Arf invariants and the odd witness is built by rule, so the space
search serves as their reference oracle.  Grams, vectors and
maps are linalg's int lists, and each affine level is enumerated as a
list of vectors.
"""

from __future__ import annotations

from . import linalg as la
from .finite_field import Field

LEVEL_CAP = 1 << 19


class SearchTooLarge(RuntimeError):
    """An affine level would enumerate more candidates than the cap allows."""


def _affine_candidates(F: Field, rows, rhs, d: int, cap: int) -> list[list[int]]:
    """All solutions of rows @ x = rhs, as a list of vectors (maybe none).

    The order is that of the coefficient tuples on the kernel basis, the
    last coefficient running fastest.
    """
    if len(rows):
        part = la.solve(F, rows, rhs)
        if part is None:
            return []
        K = la.kernel_basis(F, rows)
    else:
        part = [0] * d
        K = la.identity(d)
    k = len(K)
    if F.q ** k > cap:
        raise SearchTooLarge(f"affine level of size {F.q}^{k} exceeds cap {cap}")
    out = [part]
    for k in K:
        multiples = [la.scale(F, c, k) for c in range(F.q)]
        out = [[a ^ b for a, b in zip(x, m)] for x in out for m in multiples]
    return out


# ----------------------------------------------------------------------
# space maps: one basis image per level, several pairings at once


def space_maps(F, pairings, src_quad, dst_quad):
    """Yield every basis-image map matching each pairing in `pairings` plus
    the quadratic values.

    Each entry of `pairings` is (source Gram, destination Gram); the
    quadratic form polarizes to the first pairing.
    """
    d = len(pairings[0][0])
    for Gs, Gd in pairings:
        for G in (Gs, Gd):
            if len(G) != d or any(len(r) != d for r in G):
                raise ValueError("pairing Grams must all have equal dimension")
    U_dst = la.quad_matrix(F, dst_quad, pairings[0][1])
    # an invertible map carries each source Gram's radical into the
    # destination's, so a zero column i of Gs asks Gd y_i = 0
    radical = [[r for Gs, Gd in pairings if not any(row[i] for row in Gs)
                for r in Gd] for i in range(d)]

    images: list[list[int]] = []
    # placed[p][j] is the destination Gram of pairing p applied to images[j]
    placed: list[list[list[int]]] = [[] for _ in pairings]

    def admissible(i: int) -> list[list[int]]:
        rows = [r for rows_p in placed for r in rows_p] + radical[i]
        rhs = [Gs[j][i] for Gs, _ in pairings for j in range(i)]
        rhs += [0] * len(radical[i])
        cand = _affine_candidates(F, rows, rhs, d, LEVEL_CAP)
        return [y for y, a in zip(cand, la.quad_values(F, U_dst, cand))
                if a == src_quad[i]]

    def descend(i: int):
        if i == d:
            M = la.transpose(images)
            try:
                la.inverse(F, M)
            except ValueError:
                return
            for Gs, Gd in pairings:
                assert la.mat_mul(F, la.mat_mul(F, images, Gd), M) == Gs
            yield M
            return
        for y in admissible(i):
            images.append(y)
            for rows_p, (_, Gd) in zip(placed, pairings):
                rows_p.append(la.mat_vec(F, Gd, y))
            yield from descend(i + 1)
            images.pop()
            for rows_p in placed:
                rows_p.pop()

    yield from descend(0)


def count_space_maps(F, pairings, src_quad, dst_quad) -> int:
    return sum(1 for _ in space_maps(F, pairings, src_quad, dst_quad))
