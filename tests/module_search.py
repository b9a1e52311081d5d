"""The tests' references for the rational classifiers: exhaustive isometry
searches, the walk over the odd label's decoration moves, the power forms
by the polar Gram, the odd split's chain by one block system per length,
the per-block tables from one-block normal forms, and the scans that
compare a module's Arf invariant with each candidate's whole normal form,
which the classifiers replace by one F_2 reduction over per-block tables;
and the yes/no nilpotency test the tests read off od.rational_label.

A module map is pinned down by the images of the generators of the normal
form's operator chains; the search places one image per generator.  An odd
orthogonal functional is labelled by searching the whole space for a map
onto the witness of each canonical label with its shape.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

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

    gram: list
    op: list
    quad: list
    polar: list


def forms(mod: fm.FormModule) -> ModuleForms:
    return ModuleForms(mod.gram, mod.op, mod.quad, mod.polar_gram)


def normal_form_generators(blocks):
    "Generator (vector index, height) list matching fm.build_normal_form."
    blocks = tuple(blocks)
    K = sum(b.m for b in blocks)
    gens, o = [], 0
    for lab in blocks:
        for idx in (o, K + o + lab.m - 1):
            v = [0] * (2 * K)
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
    d = len(src.gram)
    if len(dst.gram) != d:
        raise ValueError("modules must have equal dimension")
    for mf in (src, dst):
        if la.mat_mul(F, la.transpose(mf.op), mf.gram) != \
                la.mat_mul(F, mf.gram, mf.op):
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
    U_src = la.quad_matrix(F, src.quad, src.polar)
    U_dst = la.quad_matrix(F, dst.quad, dst.polar)

    chains = []
    for v, h in gens:
        chain = [list(v)]
        for _ in range(h - 1):
            chain.append(la.mat_vec(F, src.op, chain[-1]))
        if any(la.mat_vec(F, src.op, chain[-1])):
            raise ValueError("generator height does not match the operator")
        chains.append(chain)
    basis_src = la.transpose([w for c in chains for w in c])
    inv_src = la.inverse(F, basis_src)  # raises if the set does not generate

    def pair(v, w):
        return la.dot(F, v, la.mat_vec(F, src.gram, w))

    series = [[[pair(chains[b][k], gens[j][0]) for k in range(heights[b])]
               for j in range(b)] for b in range(len(gens))]
    for b, chain in enumerate(chains):
        for k in range(heights[b]):
            if pair(chain[k], chain[0]):
                raise ValueError("pairing does not vanish along a generator chain")
    alpha = [la.quad_values(F, U_src, c) for c in chains]

    M_rows = [la.mat_mul(F, la.transpose(P[k]), dst.gram) for k in range(maxh)]
    images: list[list[int]] = []
    found = []

    def descend(b: int) -> bool:
        if b == len(gens):
            cols = []
            for y, h in zip(images, heights):
                w = y
                for _ in range(h):
                    cols.append(w)
                    w = la.mat_vec(F, dst.op, w)
            M = la.mat_mul(F, la.transpose(cols), inv_src)
            M_t = la.transpose(M)
            assert la.mat_mul(F, la.mat_mul(F, M_t, dst.gram), M) == \
                la.as_matrix(src.gram)
            assert la.mat_mul(F, dst.op, M) == la.mat_mul(F, M, src.op)
            assert la.mat_mul(F, la.mat_mul(F, M_t, dst.polar), M) == \
                la.as_matrix(src.polar)
            assert la.quad_values(F, U_dst, M_t) == [int(x) for x in src.quad]
            found.append(M)
            return True
        h = heights[b]
        rows, rhs = list(P[h]), [0] * d
        for j in range(b):
            for k in range(h):
                rows.append(la.mat_vec(F, M_rows[k], images[j]))
                rhs.append(series[b][j][k])
        cand = iso._affine_candidates(F, rows, rhs, d, cap)
        for k in range(h):
            vals = la.quad_values(F, U_dst,
                                   la.mat_mul(F, cand, la.transpose(P[k])))
            cand = [y for y, a in zip(cand, vals) if a == alpha[b][k]]
        for y in cand:
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
        base = cb.OddLabel(m, tuple(cb.BlockLabel(k, l)
                                    for k, l in zip(sizes, levels)))
        pair = base.pair()
        if not (cb.validate_blocks(base.blocks, kind="orth")
                and cb.oodd_pair_valid(*pair)):
            continue
        out += [cb.OddLabel(m, blocks) for blocks in
                cb.decorations(base.blocks, cb.oodd_split_indices(pair))]
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
    quad_std = [r[i] for i, r in enumerate(space.B)]
    matches = []
    for cand in _canonical_candidates(split.m, sizes):
        _, Xc = od.odd_witness(cand, F)
        Gc = alternating_gram(space, Xc)
        M = next(iso.space_maps(F, [(space.S, space.S), (G_in, Gc)],
                                quad_std, quad_std), None)
        if M is not None:
            matches.append(cand)
    if len(matches) != 1:
        raise fm.ClassificationError(
            f"expected exactly one canonical representative, got {matches}")
    return matches[0]


def chain_by_block_system(space, G):
    """od._chain_vectors by one pencil system per trial length m: the
    ((m+2)d) x ((m+1)d) block system G v_0 = 0, G v_i = S v_(i-1),
    S v_m = 0 in the unknowns v_0..v_m, solved afresh for each m."""
    F, S, d = space.field, space.S, space.d
    for m in range(space.n + 1):
        A = la.zeros((m + 2) * d, (m + 1) * d)
        for i in range(m + 1):
            for r in range(d):
                A[i * d + r][i * d:(i + 1) * d] = G[r]
                if i:
                    A[i * d + r][(i - 1) * d:i * d] = S[r]
        for r in range(d):
            A[(m + 1) * d + r][m * d:] = S[r]
        K = la.kernel_basis(F, A)
        if len(K) == 0:
            continue
        if len(K) != 1:
            raise od.SplitError(f"chain solution space has dimension {len(K)}")
        chain = [K[0][i * d:(i + 1) * d] for i in range(m + 1)]
        a_vm = space.alpha(chain[m])
        if a_vm == 0:
            raise od.SplitError("chain end has zero quadratic value")
        scale = F.sqrt(F.inv(a_vm))
        return m, [la.scale(F, scale, v) for v in chain]
    raise od.SplitError("no pencil chain of any admissible length")


# ----------------------------------------------------------------------
# odd orthogonal labels by walking the decoration moves


def _clip(m: int, blocks):
    "Raise levels so no co-level exceeds the chain length."
    out = []
    for b in blocks:
        if b.m - b.l > m:
            out.append(cb.BlockLabel(b.m, b.m - m, "0"))
        else:
            out.append(b)
    return tuple(out)


def _is_canonical(m: int, blocks) -> bool:
    label = cb.OddLabel(m, blocks)
    if not cb.oodd_pair_valid(*label.pair()):
        return False
    free = set(cb.oodd_split_indices(label.pair()))
    return all(b.eps == "0" for i, b in enumerate(blocks) if i not in free)


def _neighbor_states(m: int, blocks):
    """Labels one decoration move away, at fixed levels.

    Two moves preserve the class once no co-level exceeds the chain
    length: a block whose level exceeds the chain length flips its
    decoration alone, and any two blocks whose levels together exceed
    the left one's size flip in tandem.  A decoration on a block whose
    level stays within the chain length cannot move by itself.
    """
    def flip(b):
        return cb.BlockLabel(b.m, b.l, "d" if b.eps == "0" else "0")

    out = []
    for i, b in enumerate(blocks):
        if b.l > m:
            out.append(blocks[:i] + (flip(b),) + blocks[i + 1:])
    for i in range(len(blocks) - 1):
        for j in range(i + 1, len(blocks)):
            if blocks[i].l + blocks[j].l > blocks[i].m:
                out.append(blocks[:i] + (flip(blocks[i]),)
                           + blocks[i + 1:j] + (flip(blocks[j]),)
                           + blocks[j + 1:])
    return [s for s in out if cb.validate_blocks(s, kind="orth")]


def odd_label_by_walk(m: int, raw) -> cb.OddLabel:
    """The canonical label reached by a breadth-first walk over the moves.

    `raw` is the complement's decorated label as classify_orth_fq gives
    it; the walk visits every label the moves reach from its clipping, and
    exactly one of them must be canonical.
    """
    start = _clip(m, tuple(raw))
    if not cb.validate_blocks(start, kind="orth"):
        raise fm.ClassificationError(f"clipped label {start} is invalid")
    seen = {start}
    frontier = [start]
    canonical = []
    while frontier:
        cur = frontier.pop()
        if _is_canonical(m, cur):
            canonical.append(cur)
        for nxt in _neighbor_states(m, cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(canonical) != 1:
        raise fm.ClassificationError(
            f"moves from {start} reach {len(canonical)} canonical labels "
            f"{canonical}, not one")
    return cb.OddLabel(m, canonical[0])


# ----------------------------------------------------------------------
# rational labels by scanning whole candidate normal forms


def power_forms_by_polar(mod: fm.FormModule, m: int, count: int):
    """fm._power_forms by the polar Gram: img P img^t and quad_values on
    the images of a basis of ker(T^m), with P, U and T^m built afresh."""
    F, op_t = mod.field, la.transpose(mod.op)
    P = la.mat_mul(F, op_t, mod.gram) if mod.kind == "sp" else mod.gram
    U = la.quad_matrix(F, mod.quad, P)
    Tm = la.identity(mod.dim)
    for _ in range(m):
        Tm = la.mat_mul(F, Tm, mod.op)
    img = la.kernel_basis(F, Tm)
    for _ in range(count):
        yield (la.mat_mul(F, la.mat_mul(F, img, P), la.transpose(img)),
               la.quad_values(F, U, img))
        img = la.mat_mul(F, img, op_t)


def power_entries_by_polar(mod: fm.FormModule, m: int, count: int):
    """fm._power_forms with no shortcut: every entry from the full polar
    Gram and fm._arf_trace."""
    return [(not any(vals) and la.is_zero(pol),
             fm._arf_trace(mod.field, pol, vals))
            for pol, vals in power_forms_by_polar(mod, m, count)]


def power_table_by_polar(mod: fm.FormModule) -> dict:
    "fm._power_table, every entry from the full polar Gram."
    return {m: tuple(power_entries_by_polar(mod, m, m + 1))
            for m in sorted(set(mod.partition))}


def power_form_invariant(mod: fm.FormModule) -> tuple:
    "fm.arf_invariant, walking the power forms afresh by the polar Gram."
    return tuple(t for row in power_table_by_polar(mod).values() for _, t in row)


def normal_form_invariant(blocks, kind: str, field) -> tuple:
    "Arf invariant of the whole normal form of `blocks`."
    return power_form_invariant(fm.build_normal_form(blocks, field, kind=kind)[0])


def block_tables_by_normal_form(kind: str, block, field, sizes) -> dict:
    """fm._block_table at each Jordan size in `sizes`, from the power forms
    of the one-block normal form of `block` over `field`."""
    mod = fm.build_normal_form((block,), field, kind=kind)[0]
    return {m: tuple(t for _, t in fm._power_forms(mod, m, m + 1))
            for m in sizes}


def closed_by_index_chi(mod: fm.FormModule) -> tuple:
    "The closed label, each level a fresh fm.index_chi walk."
    parts = mod.partition
    return tuple(cb.BlockLabel(m, fm.index_chi(mod, m)) for m in parts[0::2])


def classify_fq_by_scan(mod: fm.FormModule) -> tuple:
    "The one canonical candidate whose normal form's invariant is the module's."
    closed = closed_by_index_chi(mod)
    inv = power_form_invariant(mod)
    free = cb.symp_split_indices(cb.symp_blocks_to_pair(closed))
    matches = [cand for cand in cb.decorations(closed, free)
               if normal_form_invariant(cand, "sp", mod.field) == inv]
    if len(matches) != 1:
        raise fm.ClassificationError(f"expected one match, got {matches}")
    return matches[0]


def classify_orth_fq_by_scan(mod: fm.FormModule) -> tuple:
    "The first valid decoration whose normal form's invariant is the module's."
    closed = closed_by_index_chi(mod)
    inv = power_form_invariant(mod)
    for cand in cb.decorations(closed, range(len(closed))):
        if cb.validate_blocks(cand, kind="orth") \
                and normal_form_invariant(cand, "orth", mod.field) == inv:
            return cand
    raise fm.ClassificationError(f"no decoration of {closed} matches")


# ----------------------------------------------------------------------
# nilpotency by the criterion


def criterion_nilpotent(space, X) -> bool:
    """Whether od.rational_label accepts X, i.e. X meets the criterion form
    of nilpotency for its kind; it raises NotNilpotentError otherwise."""
    try:
        od.rational_label(space, X)
    except fm.NotNilpotentError:
        return False
    return True
