"""Splitting odd orthogonal functionals into a chain part and a complement.

A functional on the odd orthogonal algebra is carried by its alternating
Gram G.  The split finds the minimal m for which the pencil system

    G v_0 = 0,   G v_i = S v_{i-1} (1 <= i <= m),   S v_m = 0

has a solution; the solution space at that m is one-dimensional and the
chain is normalized so the ambient quadratic form takes value 1 on v_m
(which spans the radical of the pairing).  A dual family u_0..u_{m-1} is
solved next, and the complement W of the resulting (2m+1)-dimensional
chain part is cut out by 2m+1 pairing conditions.  W carries a
nondegenerate pairing, the transfer operator T with beta(Tw, w') the
functional's form, and the ambient quadratic values: an orth form module.
The functional is nilpotent exactly when the split goes through with T
nilpotent; every structural failure raises SplitError.

The rational label of a nilpotent functional is the chain length m plus
the decorated block label of W, normalized across the whole module: a
block with co-level above m is clipped up to co-level m, a block with
level above m absorbs its decoration, and adjacent blocks whose levels
together exceed the leading size swap decorations freely.  The canonical
representative has "d" only at splitting positions of the associated
partition pair.  An exhaustive whole-space isometry search provides the
same answer independently; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import combinatorics as cb
from . import isometry as iso
from . import linalg as la
from .classical import Space, alternating_gram
from .finite_field import Field
from .form_modules import (BlockLabel, ClassificationError, FormModule,
                           build_normal_form, classify_closed,
                           classify_orth_fq, decorations, validate_blocks,
                           format_blocks as fm_format_blocks,
                           parse_blocks as fm_parse_blocks)


class SplitError(ValueError):
    """The functional does not split as a nilpotent one must."""


@dataclass
class OddSplit:
    space: Space
    X: np.ndarray
    m: int
    chain: list[np.ndarray]
    dual: list[np.ndarray]
    complement: np.ndarray
    module: FormModule | None


@dataclass(frozen=True)
class OddLabel:
    """Chain length plus the complement's block label."""

    m: int
    blocks: tuple[BlockLabel, ...]

    def pair(self):
        nu = cb.strip_zeros((self.m,) + tuple(b.m - b.l for b in self.blocks))
        mu = cb.strip_zeros(tuple(b.l for b in self.blocks))
        return nu, mu

    def eps(self):
        return tuple(b.eps for b in self.blocks)

    def closed(self) -> "OddLabel":
        return OddLabel(self.m, tuple(b.closed() for b in self.blocks))


# ----------------------------------------------------------------------
# the split itself


def _chain_vectors(space: Space, G: np.ndarray):
    F, S, d = space.field, space.S, space.d
    for m in range(space.n + 1):
        A = np.zeros(((m + 2) * d, (m + 1) * d), dtype=np.uint8)
        for i in range(m + 1):
            A[i * d:(i + 1) * d, i * d:(i + 1) * d] = G
            if i:
                A[i * d:(i + 1) * d, (i - 1) * d:i * d] = S
        A[(m + 1) * d:, m * d:] = S
        K = la.kernel_basis(F, A)
        if len(K) == 0:
            continue
        if len(K) != 1:
            raise SplitError(f"chain solution space has dimension {len(K)}")
        chain = [K[0][i * d:(i + 1) * d].copy() for i in range(m + 1)]
        a_vm = space.alpha(chain[m])
        if a_vm == 0:
            raise SplitError("chain end has zero quadratic value")
        scale = F.sqrt(F.inv(a_vm))
        chain = [la.scale(F, scale, v) for v in chain]
        return m, chain
    raise SplitError("no pencil chain of any admissible length")


def _alpha_fix(space: Space, v, v_m):
    "Add the right multiple of the radical vector to zero the quadratic value."
    a = space.alpha(v)
    if a == 0:
        return v
    return v ^ la.scale(space.field, space.field.sqrt(a), v_m)


def _dual_chain(space: Space, G: np.ndarray, chain):
    F, S = space.field, space.S
    m = len(chain) - 1
    if m == 0:
        return []
    rows = np.stack([la.mat_vec(F, S, v) for v in chain[:m]])
    rhs = np.zeros(m, dtype=np.uint8)
    rhs[0] = 1
    u = la.solve(F, rows, rhs)
    if u is None:
        raise SplitError("no dual vector pairs one with the chain start")
    dual = [_alpha_fix(space, u, chain[m])]
    for _ in range(1, m):
        target = la.mat_vec(F, G, dual[-1])
        u = la.solve(F, S, target)
        if u is None:
            raise SplitError("dual recurrence leaves the pairing's image")
        dual.append(_alpha_fix(space, u, chain[m]))
    return dual


def split_odd_functional(space: Space, X: np.ndarray) -> OddSplit:
    """Chain, dual family, and complement module of an odd functional.

    Raises SplitError when any stage fails; succeeding with a nilpotent
    complement operator is the nilpotency criterion for this kind.
    """
    if space.kind != "so-odd":
        raise ValueError("the split applies to odd orthogonal functionals")
    F, S, d = space.field, space.S, space.d
    G = alternating_gram(space, X)
    m, chain = _chain_vectors(space, G)
    for i, v in enumerate(chain[:-1]):
        if space.alpha(v):
            raise SplitError(f"chain vector {i} has nonzero quadratic value")
    for v in chain:
        for w in chain:
            if space.beta(v, w):
                raise SplitError("chain is not isotropic for the pairing")
    dual = _dual_chain(space, G, chain)

    if m == 0:
        comp = la.identity(d)[:d - 1]
    else:
        span = np.stack(chain + dual)
        if la.rank(F, span) != 2 * m + 1:
            raise SplitError("chain and dual family are dependent")
        rows = [la.mat_vec(F, S, v) for v in chain[:m]]
        rows += [la.mat_vec(F, S, u) for u in dual]
        rows.append(la.mat_vec(F, G, dual[m - 1]))
        comp = la.kernel_basis(F, np.stack(rows))
        if len(comp) != d - (2 * m + 1):
            raise SplitError("complement has the wrong dimension")

    if len(comp) == 0:
        return OddSplit(space, X, m, chain, dual, comp, None)
    Gw = la.mat_mul(F, la.mat_mul(F, comp, S), comp.T)
    Gx = la.mat_mul(F, la.mat_mul(F, comp, G), comp.T)
    try:
        T = la.mat_mul(F, la.inverse(F, Gw), Gx)
    except ValueError:
        raise SplitError("complement pairing is degenerate") from None
    if not la.is_nilpotent(F, T):
        raise SplitError("complement operator is not nilpotent")
    quad = np.array([space.alpha(w) for w in comp], dtype=np.uint8)
    try:
        module = FormModule("orth", F, Gw, T, quad)
    except ValueError as exc:
        raise SplitError(f"complement is not a form module: {exc}") from None
    return OddSplit(space, X, m, chain, dual, comp, module)


# ----------------------------------------------------------------------
# labels


def _clip(m: int, blocks):
    "Raise levels so no co-level exceeds the chain length."
    out = []
    for b in blocks:
        if b.m - b.l > m:
            out.append(BlockLabel(b.m, b.m - m, "0"))
        else:
            out.append(b)
    return tuple(out)


def split_positions(m: int, blocks) -> list[int]:
    "0-based complement block positions where the decoration is free."
    nu = cb.strip_zeros((m,) + tuple(b.m - b.l for b in blocks))
    mu = cb.strip_zeros(tuple(b.l for b in blocks))
    return [i - 1 for i in cb.oodd_split_indices((nu, mu))]


def _is_canonical(m: int, blocks) -> bool:
    if not cb.oodd_pair_valid(
            cb.strip_zeros((m,) + tuple(b.m - b.l for b in blocks)),
            cb.strip_zeros(tuple(b.l for b in blocks))):
        return False
    free = set(split_positions(m, blocks))
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
        return BlockLabel(b.m, b.l, "d" if b.eps == "0" else "0")

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
    return [s for s in out if validate_blocks(s, kind="orth")]


def rational_odd_label(split: OddSplit) -> OddLabel:
    """Canonical decorated label of a nilpotent odd functional.

    The complement's decorated label is one representative of the class;
    clipping and the equivalence moves walk its orbit, and the unique
    reachable label that is an admissible pair with decorations only at
    splitting positions is canonical.  A walk that reaches none or several
    raises ClassificationError; odd_label_by_search is the independent
    check the tests hold this against.
    """
    raw = classify_orth_fq(split.module) if split.module is not None else ()
    start = _clip(split.m, raw)
    if not validate_blocks(start, kind="orth"):
        raise ClassificationError(f"clipped label {start} is invalid")
    seen = {start}
    frontier = [start]
    canonical = []
    while frontier:
        cur = frontier.pop()
        if _is_canonical(split.m, cur):
            canonical.append(cur)
        for nxt in _neighbor_states(split.m, cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(canonical) != 1:
        raise ClassificationError(
            f"moves from {start} reach {len(canonical)} canonical labels "
            f"{canonical}, not one")
    lab = OddLabel(split.m, canonical[0])
    if not cb.oodd_pair_valid(*lab.pair()):
        raise ClassificationError(f"label {lab} is not an admissible pair")
    return lab


def pair_to_label(pair) -> OddLabel:
    """Closed label, all decorations "0", with the given pair's shape.

    The first entry of nu is the chain length; the remaining entries pair
    with mu as complement block co-levels and levels.
    """
    nu, mu = pair
    if not cb.oodd_pair_valid(nu, mu):
        raise ValueError(f"not an odd orthogonal label: {pair}")
    nu, mu = cb.strip_zeros(nu), cb.strip_zeros(mu)
    m = nu[0] if nu else 0
    co = list(nu[1:]) + [0] * (len(mu) - len(nu) + 1)
    blocks = tuple(BlockLabel(k + l, l, "0") for k, l in zip(co, mu))
    return OddLabel(m, blocks)


def rational_labels(n: int) -> list[OddLabel]:
    "Canonical decorated labels of total size n, 2^k per admissible pair."
    out = []
    for pair in cb.oodd_pairs(n):
        base = pair_to_label(pair)
        free = split_positions(base.m, base.blocks)
        out += [OddLabel(base.m, blocks)
                for blocks in decorations(base.blocks, free)]
    return out


def _canonical_candidates(m: int, sizes) -> list[OddLabel]:
    "Every canonical label with the given chain length and block sizes."
    out = []
    ranges = [range((k + 1) // 2, k + 1) for k in sizes]
    for levels in product(*ranges):
        base = tuple(BlockLabel(k, l) for k, l in zip(sizes, levels))
        if not validate_blocks(base, kind="orth"):
            continue
        if not cb.oodd_pair_valid(
                cb.strip_zeros((m,) + tuple(k - l for k, l in zip(sizes, levels))),
                cb.strip_zeros(levels)):
            continue
        out += [OddLabel(m, blocks)
                for blocks in decorations(base, split_positions(m, base))]
    return out


def odd_label_by_search(split: OddSplit) -> OddLabel:
    """The label found by exhaustive whole-space isometry search.

    The chain length and the complement's block sizes are invariants;
    every canonical label with that shape is realized by a witness
    functional and tested against the input, and exactly one must match.
    """
    sizes = tuple(b.m for b in classify_closed(split.module)) \
        if split.module is not None else ()
    space, F = split.space, split.space.field
    G_in = alternating_gram(space, split.X)
    quad_std = np.diagonal(space.B).copy()
    matches = []
    for cand in _canonical_candidates(split.m, sizes):
        _, Xc = odd_witness(cand, F)
        Gc = alternating_gram(space, Xc)
        M = iso.find_space_map(F, [(space.S, space.S), (G_in, Gc)],
                               quad_std, quad_std)
        if M is not None:
            matches.append(cand)
    if len(matches) != 1:
        raise ClassificationError(
            f"expected exactly one canonical representative, got {matches}")
    return matches[0]


# ----------------------------------------------------------------------
# witnesses


def odd_witness(label: OddLabel, field: Field):
    """A space and functional splitting to the given label.

    The abstract model puts the chain pairs, the dual family, and the
    complement's normal form side by side, and a fixed rule embeds it in
    the standard space: v_i goes to e_i (i < m), v_m to the radical
    vector e_2n, u_i to e_{n+i}, and a complement slot to its hyperbolic
    coordinate plus its quadratic value times the partner coordinate.
    Both level slots of a decorated block carry a value, so the partner
    corrections would pair them to 1 + delta; the second-chain level slot
    goes instead to the partner coordinate plus sqrt(delta) times e_2n.
    The functional comes out of the transported alternating Gram by the
    triangular block solve.
    """
    m, blocks = label.m, tuple(label.blocks)
    if any(b.eps is None for b in blocks):
        raise ValueError("witnesses need decorated labels")
    if not validate_blocks(blocks, kind="orth"):
        raise ValueError(f"invalid complement label {blocks}")
    K = sum(b.m for b in blocks)
    n = m + K
    d = 2 * n + 1
    o = 2 * m + 1
    space = Space("so-odd", n, field)

    Gb = la.zeros(d, d)
    Gx = la.zeros(d, d)
    quad = np.zeros(d, dtype=np.uint8)
    # slots: v_0..v_m, u_0..u_{m-1}, then the complement normal form
    for i in range(m):
        Gb[i, m + 1 + i] = Gb[m + 1 + i, i] = 1
        Gx[i + 1, m + 1 + i] = Gx[m + 1 + i, i + 1] = 1
    quad[m] = 1
    if blocks:
        w, _ = build_normal_form(blocks, field, kind="orth")
        Gb[o:, o:] = w.gram
        Gx[o:, o:] = la.mat_mul(field, w.op.T, w.gram)
        quad[o:] = w.quad

    # column s of C is the image of slot s
    C = la.zeros(d, d)
    for i in range(m):
        C[i, i] = C[n + i, m + 1 + i] = 1
    C[2 * n, m] = 1
    second_levels, off = set(), 0
    for b in blocks:
        if b.eps == "d":
            second_levels.add(K + off + b.l - 1)
        off += b.m
    for a in range(2 * K):
        i, j = (m + a, n + m + a) if a < K else (n + m + a - K, m + a - K)
        if a in second_levels:
            C[j, o + a] = 1
            C[2 * n, o + a] = field.sqrt(quad[o + a])
        else:
            C[i, o + a] = 1
            C[j, o + a] = quad[o + a]
    assert np.array_equal(la.mat_mul(field, la.mat_mul(field, C.T, space.S), C),
                          Gb), "the embedding must carry the model's pairing"
    assert np.array_equal(iso.quad_values(field, space.B, C.T), quad), \
        "the embedding must carry the model's quadratic values"

    Ci = la.inverse(field, C)
    Y = la.mat_mul(field, la.mat_mul(field, Ci.T, Gx), Ci)
    X = _functional_from_alternating(space, Y)
    return space, X


def _functional_from_alternating(space: Space, Y: np.ndarray) -> np.ndarray:
    "Solve X^t S + S X = Y for the standard odd S by triangular blocks."
    n, F = space.n, space.field
    if not np.array_equal(Y, Y.T) or np.diagonal(Y).any():
        raise ValueError("the Gram must be alternating")
    X = la.zeros(space.d, space.d)
    X[n:2 * n, 0:n] = np.triu(Y[0:n, 0:n], k=1)          # pairs inside the top
    X[0:n, n:2 * n] = np.triu(Y[n:2 * n, n:2 * n], k=1)  # pairs inside the middle
    X[n:2 * n, n:2 * n] = Y[0:n, n:2 * n]
    X[0:n, 2 * n:] = Y[n:2 * n, 2 * n:]
    X[n:2 * n, 2 * n:] = Y[0:n, 2 * n:]
    out = alternating_gram(space, X)
    assert np.array_equal(out, Y), "block solve must reproduce the Gram"
    return X


# ----------------------------------------------------------------------
# JSON form


def format_label(label: OddLabel) -> str:
    "Text form m=<chain>; <blocks>, with - for an empty complement."
    blocks = fm_format_blocks(label.blocks) if label.blocks else "-"
    return f"m={label.m}; {blocks}"


def parse_label(text: str) -> OddLabel:
    "Inverse of format_label."
    head, _, rest = text.partition(";")
    head = head.strip()
    if not head.startswith("m="):
        raise ValueError(f"bad odd label {text!r}")
    m = int(head[2:])
    rest = rest.strip()
    blocks = () if rest in ("", "-") else fm_parse_blocks(rest)
    return OddLabel(m, blocks)


def label_to_json(label: OddLabel) -> dict:
    nu, mu = label.pair()
    return {"m": label.m,
            "pair": {"nu": list(nu), "mu": list(mu)},
            "eps": [b.eps for b in label.blocks]}


def label_from_json(obj: dict) -> OddLabel:
    m = int(obj["m"])
    mu = [int(x) for x in obj["pair"]["mu"]]
    nu = [int(x) for x in obj["pair"]["nu"]]
    if nu and nu[0] != m:
        raise ValueError("leading co-level entry must equal the chain length")
    tail = nu[1:] + [0] * (len(mu) - len(nu) + 1)
    eps = list(obj["eps"])
    if len(eps) != len(mu):
        raise ValueError("need one decoration per block")
    blocks = tuple(BlockLabel(mu[i] + tail[i], mu[i], eps[i])
                   for i in range(len(mu)))
    return OddLabel(m, blocks)
