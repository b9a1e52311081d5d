"""Exhaustive isometry search between small spaces over GF(2^e).

A space map places one basis image per level: each image is constrained
linearly by the pairings against the images already placed, then filtered
by its quadratic value.  The search is exact: every affine solution set is
enumerated in full, so a ``None`` answer means no map exists, and
count_space_maps visits every leaf; a level larger than LEVEL_CAP raises
SearchTooLarge instead.  Nothing on the classification path searches (the
rational classifiers compare Arf invariants); the space search is the
reference oracle of the tests and of verify.  The quadratic-form helpers
quad_matrix and quad_values also serve the form modules and the odd split.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .finite_field import Field

LEVEL_CAP = 1 << 19


class SearchTooLarge(RuntimeError):
    """An affine level would enumerate more candidates than the cap allows."""


def quad_matrix(F: Field, quad, polar) -> np.ndarray:
    """Upper-triangular matrix U with v^t U v the quadratic form."""
    d = len(quad)
    U = np.triu(np.asarray(polar, dtype=np.uint8), k=1)
    U[np.arange(d), np.arange(d)] = np.asarray(quad, dtype=np.uint8)
    return U


def quad_values(F: Field, U: np.ndarray, rows: np.ndarray) -> np.ndarray:
    "Quadratic form of each row of `rows`."
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.uint8)
    t = la.mat_mul(F, rows, U)
    prod = F.mul_table[t, rows]
    return np.bitwise_xor.reduce(prod, axis=1)


def _affine_candidates(F: Field, rows, rhs, d: int, cap: int) -> np.ndarray:
    """All solutions of rows @ x = rhs, as an (N, d) array (N may be 0)."""
    if len(rows):
        A = np.stack(rows).astype(np.uint8)
        b = np.asarray(rhs, dtype=np.uint8)
        part = la.solve(F, A, b)
        if part is None:
            return np.zeros((0, d), dtype=np.uint8)
        K = la.kernel_basis(F, A)
    else:
        part = np.zeros(d, dtype=np.uint8)
        K = la.identity(d)
    k = len(K)
    if F.q ** k > cap:
        raise SearchTooLarge(f"affine level of size {F.q}^{k} exceeds cap {cap}")
    out = np.tile(part, (F.q ** k, 1))
    if k:
        coeffs = np.indices((F.q,) * k, dtype=np.uint8).reshape(k, -1).T
        for i in range(k):
            out ^= F.mul_table[coeffs[:, i][:, None], K[i][None, :]]
    return out


# ----------------------------------------------------------------------
# space maps: one basis image per level, several pairings at once


def _space_search(F, pairings, src_quad, dst_quad, cap, want_count):
    pairings = [(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))
                for a, b in pairings]
    d = pairings[0][0].shape[0]
    for Gs, Gd in pairings:
        if Gs.shape != (d, d) or Gd.shape != (d, d):
            raise ValueError("pairing Grams must all have equal dimension")
    src_quad = np.asarray(src_quad, dtype=np.uint8)
    U_dst = quad_matrix(F, dst_quad, pairings[0][1])

    images: list[np.ndarray] = []
    state = {"count": 0, "found": None}

    def admissible(i: int) -> np.ndarray:
        rows, rhs = [], []
        for Gs, Gd in pairings:
            for j in range(i):
                rows.append(la.mat_vec(F, Gd, images[j]))
                rhs.append(int(Gs[j, i]))
        cand = _affine_candidates(F, rows, rhs, d, cap)
        keep = quad_values(F, U_dst, cand) == src_quad[i]
        return cand[keep]

    def descend(i: int) -> bool:
        if i == d:
            M = np.stack(images, axis=1)
            try:
                la.inverse(F, M)
            except ValueError:
                return False
            for Gs, Gd in pairings:
                assert np.array_equal(la.mat_mul(F, la.mat_mul(F, M.T, Gd), M), Gs)
            if want_count:
                state["count"] += 1
                return False
            state["found"] = M
            return True
        for y in admissible(i):
            images.append(y)
            if descend(i + 1):
                return True
            images.pop()
        return False

    descend(0)
    return state["count"] if want_count else state["found"]


def find_space_map(F, pairings, src_quad, dst_quad, cap=LEVEL_CAP):
    """A basis-image map matching every pairing in `pairings` plus the
    quadratic values, or None.

    Each entry of `pairings` is (source Gram, destination Gram); the
    quadratic form polarizes to the first pairing.
    """
    return _space_search(F, pairings, src_quad, dst_quad, cap,
                         want_count=False)


def count_space_maps(F, pairings, src_quad, dst_quad, cap=LEVEL_CAP) -> int:
    return _space_search(F, pairings, src_quad, dst_quad, cap,
                         want_count=True)
