"""Exhaustive isometry searches: the tests' reference for the rational
classifiers, which decide decorations by Arf invariants instead.

A module map is pinned down by the images of the generators of the normal
form's operator chains; the search places one image per generator.  An odd
orthogonal functional is labelled by searching the whole space for a map
onto the witness of each canonical label with its shape.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import isometry as iso
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.classical import alternating_gram


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


def forms(mod: fm.FormModule) -> ModuleForms:
    return ModuleForms(mod.gram, mod.op, mod.quad, mod.polar_gram)


def normal_form_generators(blocks):
    "Generator (vector index, height) list matching fm.build_normal_form."
    blocks = tuple(blocks)
    K = sum(b.m for b in blocks)
    gens, o = [], 0
    for lab in blocks:
        for idx in (o, K + o + lab.m - 1):
            v = np.zeros(2 * K, dtype=np.uint8)
            v[idx] = 1
            gens.append((v, lab.m))
        o += lab.m
    return gens


def matches_normal_form(mod: fm.FormModule, blocks) -> bool:
    "Whether a module map carries the normal form of `blocks` onto `mod`."
    nf, _ = fm.build_normal_form(blocks, mod.field, kind=mod.kind)
    if nf.dim != mod.dim:
        return False
    gens = normal_form_generators(blocks)
    return find_module_map(mod.field, forms(nf), gens, forms(mod)) is not None


def find_module_map(F, src: ModuleForms, gens, dst: ModuleForms,
                    cap=iso.LEVEL_CAP):
    """A map carrying src onto dst (pairing, operator, quadratic), or None.

    `gens` lists (vector, height) pairs whose operator chains form a basis
    of the source module.  Each generator image is constrained linearly by
    pairing series against the images already placed, then filtered by the
    quadratic values along its operator chain; every affine level is
    enumerated in full, so None means no map exists.
    """
    d = src.gram.shape[0]
    if dst.gram.shape[0] != d:
        raise ValueError("modules must have equal dimension")
    for mf in (src, dst):
        if not np.array_equal(la.mat_mul(F, mf.op.T, mf.gram),
                              la.mat_mul(F, mf.gram, mf.op)):
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
    U_src = iso.quad_matrix(F, src.quad, src.polar)
    U_dst = iso.quad_matrix(F, dst.quad, dst.polar)

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
    alpha = [iso.quad_values(F, U_src, np.stack(c)) for c in chains]

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
            assert np.array_equal(iso.quad_values(F, U_dst, M.T),
                                  np.asarray(src.quad, dtype=np.uint8))
            found.append(M)
            return True
        h = heights[b]
        rows, rhs = list(P[h]), [0] * d
        for j in range(b):
            for k in range(h):
                rows.append(la.mat_vec(F, M_rows[k], images[j]))
                rhs.append(series[b][j][k])
        cand = iso._affine_candidates(F, rows, rhs, d, cap)
        keep = np.ones(len(cand), dtype=bool)
        for k in range(h):
            vals = iso.quad_values(F, U_dst, la.mat_mul(F, cand, P[k].T))
            keep &= vals == alpha[b][k]
        for y in cand[keep]:
            images.append(y)
            if descend(b + 1):
                return True
            images.pop()
        return False

    descend(0)
    return found[0] if found else None


# ----------------------------------------------------------------------
# odd orthogonal labels by whole-space search


def _canonical_candidates(m: int, sizes) -> list[cb.OddLabel]:
    "Every canonical label with the given chain length and block sizes."
    out = []
    ranges = [range((k + 1) // 2, k + 1) for k in sizes]
    for levels in product(*ranges):
        base = tuple(cb.BlockLabel(k, l) for k, l in zip(sizes, levels))
        if not cb.validate_blocks(base, kind="orth"):
            continue
        if not cb.oodd_pair_valid(
                cb.strip_zeros((m,) + tuple(k - l for k, l in zip(sizes, levels))),
                cb.strip_zeros(levels)):
            continue
        out += [cb.OddLabel(m, blocks) for blocks in
                cb.decorations(base, cb.odd_split_positions(m, base))]
    return out


def odd_label_by_search(split: od.OddSplit) -> cb.OddLabel:
    """The label found by exhaustive whole-space isometry search.

    The chain length and the complement's block sizes are invariants;
    every canonical label with that shape is realized by a witness
    functional and tested against the input, and exactly one must match.
    """
    sizes = tuple(b.m for b in fm.classify_closed(split.module)) \
        if split.module is not None else ()
    space, F = split.space, split.space.field
    G_in = alternating_gram(space, split.X)
    quad_std = np.diagonal(space.B).copy()
    matches = []
    for cand in _canonical_candidates(split.m, sizes):
        _, Xc = od.odd_witness(cand, F)
        Gc = alternating_gram(space, Xc)
        M = iso.find_space_map(F, [(space.S, space.S), (G_in, Gc)],
                               quad_std, quad_std)
        if M is not None:
            matches.append(cand)
    if len(matches) != 1:
        raise fm.ClassificationError(
            f"expected exactly one canonical representative, got {matches}")
    return matches[0]
