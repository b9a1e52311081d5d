"""Exhaustive isometry search between small modules over GF(2^e).

Two search shapes cover every equivalence question in this package.  A
module map is pinned down by the images of a few generating vectors: each
image is constrained linearly by pairing series against the images already
placed, then filtered by the quadratic values along its operator chain.  A
space map (no operator) places one basis image per level under the same
regime.  Both searches are exact: every affine solution set is enumerated
in full, so a ``None`` answer means no map exists, and count_space_maps
visits every leaf.  The production path searches only for module maps,
in the rational classifiers; space maps are the reference oracle of the
tests and of verify.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg as la
from .finite_field import Field

LEVEL_CAP = 1 << 19


class SearchTooLarge(RuntimeError):
    """An affine level would enumerate more candidates than the cap allows."""


class ModuleForms(NamedTuple):
    """The data of a module carried by a nilpotent self-adjoint operator.

    gram   Gram matrix of the alternating pairing on the basis
    op     the operator (acts as the series variable)
    quad   values of the quadratic form on the basis vectors
    polar  Gram matrix of the quadratic form's polarization
    """

    gram: np.ndarray
    op: np.ndarray
    quad: np.ndarray
    polar: np.ndarray


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
# module maps: images of a generating set, propagated along the operator


def _module_search(F, src: ModuleForms, gens, dst: ModuleForms, cap):
    d = src.gram.shape[0]
    if dst.gram.shape[0] != d:
        raise ValueError("modules must have equal dimension")
    for forms in (src, dst):
        if not np.array_equal(la.mat_mul(F, forms.op.T, forms.gram),
                              la.mat_mul(F, forms.gram, forms.op)):
            raise ValueError("operator must be self-adjoint for the pairing")
    try:
        la.inverse(F, src.gram)
    except ValueError:
        raise ValueError("module pairing must be nondegenerate") from None
    heights = [h for _, h in gens]
    maxh = max(heights, default=0)
    P = [la.identity(d)]
    for _ in range(maxh):
        P.append(la.mat_mul(F, dst.op, P[-1]))
    U_src = quad_matrix(F, src.quad, src.polar)
    U_dst = quad_matrix(F, dst.quad, dst.polar)

    chains = []
    for v, h in gens:
        v = np.asarray(v, dtype=np.uint8)
        chain = [v]
        for _ in range(h - 1):
            chain.append(la.mat_vec(F, src.op, chain[-1]))
        if la.mat_vec(F, src.op, chain[-1]).any():
            raise ValueError("generator height does not match the operator")
        chains.append(chain)
    basis_src = np.stack([w for c in chains for w in c], axis=1)
    inv_src = la.inverse(F, basis_src)  # raises if the set does not generate

    def pair(v, w):
        return la.dot(F, v, la.mat_vec(F, src.gram, w))

    series = [[[pair(chains[b][k], gens[j][0]) for k in range(heights[b])]
               for j in range(b)] for b in range(len(gens))]
    for b, chain in enumerate(chains):
        for k in range(heights[b]):
            if pair(chain[k], chain[0]):
                raise ValueError("pairing does not vanish along a generator chain")
    alpha = [quad_values(F, U_src, np.stack(c)) for c in chains]

    M_rows = [la.mat_mul(F, P[k].T, dst.gram) for k in range(maxh)]
    images: list[np.ndarray] = []
    found = []

    def descend(b: int) -> bool:
        if b == len(gens):
            cols = []
            for y, h in zip(images, heights):
                w = y
                for _ in range(h):
                    cols.append(w)
                    w = la.mat_vec(F, dst.op, w)
            M = la.mat_mul(F, np.stack(cols, axis=1), inv_src)
            assert np.array_equal(
                la.mat_mul(F, la.mat_mul(F, M.T, dst.gram), M), src.gram)
            assert np.array_equal(
                la.mat_mul(F, dst.op, M), la.mat_mul(F, M, src.op))
            assert np.array_equal(
                la.mat_mul(F, la.mat_mul(F, M.T, dst.polar), M), src.polar)
            assert np.array_equal(quad_values(F, U_dst, M.T),
                                  np.asarray(src.quad, dtype=np.uint8))
            found.append(M)
            return True
        h = heights[b]
        rows, rhs = list(P[h]), [0] * d
        for j in range(b):
            for k in range(h):
                rows.append(la.mat_vec(F, M_rows[k], images[j]))
                rhs.append(series[b][j][k])
        cand = _affine_candidates(F, rows, rhs, d, cap)
        keep = np.ones(len(cand), dtype=bool)
        for k in range(h):
            vals = quad_values(F, U_dst, la.mat_mul(F, cand, P[k].T))
            keep &= vals == alpha[b][k]
        for y in cand[keep]:
            images.append(y)
            if descend(b + 1):
                return True
            images.pop()
        return False

    descend(0)
    return found[0] if found else None


def find_module_map(F, src, gens, dst, cap=LEVEL_CAP):
    """A map carrying src onto dst (pairing, operator, quadratic), or None.

    `gens` lists (vector, height) pairs whose operator chains form a basis
    of the source module.
    """
    return _module_search(F, src, gens, dst, cap)


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
