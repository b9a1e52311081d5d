"""Splitting odd orthogonal functionals into a chain part and a complement.

A functional on the odd orthogonal algebra is carried by its alternating
Gram G.  The split finds the minimal m for which the pencil system

    G v_0 = 0,   G v_i = S v_{i-1} (1 <= i <= m),   S v_m = 0

has a solution.  S v_m = 0 puts the chain's end on the radical line of
r = e_2n, and each step back is v_(i-1) = S G v_i modulo r, so every
chain is a combination of one Krylov sequence (S G)^t r, and each trial
length is a system in the m + 1 coefficients alone.  The solution space
at that m is one-dimensional, and the chain is normalized so the ambient
quadratic form takes value 1 on v_m, which is then r.  A dual family
u_0..u_{m-1} follows: u_0 by one solve, then u_i = S G u_(i-1), as S is
its own inverse away from the radical slot.  The complement W of the
resulting (2m+1)-dimensional chain part is cut out by 2m+1 pairing
conditions.  W carries a nondegenerate pairing Gw, the transfer operator
T = Gw^-1 Gx with Gx the functional's form on W (both Grams from one
product, T from one elimination of [Gw | Gx]), and the ambient quadratic
values: an orth form module.  The functional is nilpotent exactly when
the split goes through with T nilpotent; every structural failure raises
SplitError, the so-odd case of NotNilpotentError.

The rational label of a nilpotent functional is the chain length m plus
the decorated block label of W, which classify_orth_fq reads off Arf
invariants with no search, normalized across the whole module: a
block with co-level above m is clipped up to co-level m, a block with
level above m absorbs its decoration, and two blocks whose levels
together exceed the leading size flip decorations in tandem.  These moves
are fixed vectors over F_2, so the labels they reach form a coset of
their span, and one reduction picks its canonical member, which has "d"
only at splitting positions of the associated partition pair.  The split
and the complement's classification are the matrix half, run once per
functional; the clip, moves and reduction read only the chain length and
the complement's label, and that label half (_odd_label) is memoised per
key, storing only keys that give a label.  The tests hold this against
a walk over the moves (odd_label_by_walk) and an exhaustive whole-space
isometry search (odd_label_by_search), both in tests/module_search.py.

As the lowest module that sees both classifiers, this one also holds the
entry point for every kind, rational_label, which decides nilpotency and
the label in one pass: a functional that is not nilpotent raises
NotNilpotentError (SplitError for so-odd).
"""

from __future__ import annotations

from functools import lru_cache

from . import combinatorics as cb
from . import linalg as la
from .classical import (Space, alternating_gram, functional_from_gram,
                        module_endomorphism)
from .combinatorics import BlockLabel, OddLabel, validate_blocks
# the label layer lives in combinatorics; benchmarks/workloads.py still
# reads these names through this module
from .combinatorics import format_label, parse_label, rational_labels  # noqa: F401
from .finite_field import Field, field_for
from .form_modules import (ClassificationError, FormModule, NotNilpotentError,
                           build_module, build_normal_form, classify_fq,
                           classify_orth_fq)


class SplitError(NotNilpotentError):
    """The functional does not split as a nilpotent one must."""


class OddSplit(cb._Record):
    """The functional X on space, its chain part (chain v_0..v_m and dual
    u_0..u_{m-1}), the complement basis and its orth module (None when the
    complement is zero)."""

    __slots__ = ("space", "X", "m", "chain", "dual", "complement", "module")


# ----------------------------------------------------------------------
# the split itself


def _chain_vectors(space: Space, G):
    """The least m with a pencil chain v_0..v_m, and that chain normalized.

    S v_m = 0 puts the end on the radical line of r = e_2n.  Going back,
    G v_i = S v_(i-1) has a solution exactly when (G v_i)_rad = 0, as S has
    no radical row, and then v_(i-1) = S G v_i + c r, since S is its own
    inverse away from the radical slot and kills r.  So the chains of
    length m are v_(m-j) = sum over t <= j of a_t (S G)^(j-t) r, one Krylov
    sequence of r, with (G v_i)_rad = 0 for i > 0 and G v_0 = 0: an
    (m+d) x (m+1) system in a_0..a_m, and every solution of it is a chain.
    The first m where it has a nonzero solution is therefore the first m
    where the pencil system has one, and the chain is the same.  There
    a_0 != 0, for a_0 = 0 would leave a chain of length m - 1, so the
    solution is unique up to a scalar; a_0 = 1 gives v_m = r, quadratic
    value 1, the normalization the split needs.
    """
    F, d = space.field, space.d
    krylov, images = [[0] * (d - 1) + [1]], []  # (S G)^t r and G (S G)^t r
    for m in range(space.n + 1):
        images.append(la.mat_vec(F, G, krylov[m]))
        # column t is a_t; row j < m reads (G v_(m-j))_rad, then G v_0
        A = [[images[j - t][-1] if t <= j else 0 for t in range(m + 1)]
             for j in range(m)]
        A += [[images[m - t][x] for t in range(m + 1)] for x in range(d)]
        a = la.solve(F, [row[1:] for row in A], [row[0] for row in A])
        if a is not None:
            a = [1] + a
            chain = la.mat_mul(F, [[a[j - c] if c <= j else 0
                                    for c in range(m + 1)]
                                   for j in range(m + 1)], krylov)
            return m, chain[::-1]
        krylov.append(space.apply_form(images[m]))
    raise SplitError("no pencil chain of any admissible length")


def _alpha_fix(space: Space, v, v_m):
    "Add the right multiple of the radical vector to zero the quadratic value."
    c = space.field.mul_table[space.field.sqrt(space.alpha(v))]
    return [x ^ c[y] for x, y in zip(v, v_m)]


def _dual_chain(space: Space, G, chain):
    F = space.field
    m = len(chain) - 1
    if m == 0:
        return []
    rows = [space.apply_form(v) for v in chain[:m]]
    u = la.solve(F, rows, [1] + [0] * (m - 1))
    if u is None:
        raise SplitError("no dual vector pairs one with the chain start")
    dual = [_alpha_fix(space, u, chain[m])]
    for _ in range(1, m):
        target = la.mat_vec(F, G, dual[-1])  # S u = target, so u = S target
        if target[-1]:
            raise SplitError("dual recurrence leaves the pairing's image")
        dual.append(_alpha_fix(space, space.apply_form(target), chain[m]))
    return dual


def split_odd_functional(space: Space, X) -> OddSplit:
    """Chain, dual family, and complement module of an odd functional.

    Raises SplitError when any stage fails; succeeding with a nilpotent
    complement operator is the nilpotency criterion for this kind.
    """
    if space.kind != "so-odd":
        raise ValueError("the split applies to odd orthogonal functionals")
    F, d = space.field, space.d
    G = alternating_gram(space, X)
    m, chain = _chain_vectors(space, G)
    for i, a in enumerate(la.quad_values(F, space.B, chain[:-1])):
        if a:
            raise SplitError(f"chain vector {i} has nonzero quadratic value")
    if not la.is_zero(la.mat_mul(F, chain,
                                 space.apply_form(la.transpose(chain)))):
        raise SplitError("chain is not isotropic for the pairing")
    dual = _dual_chain(space, G, chain)

    if m == 0:
        comp = la.identity(d)[:d - 1]
    else:
        if la.rank(F, chain + dual) != 2 * m + 1:
            raise SplitError("chain and dual family are dependent")
        rows = [space.apply_form(v) for v in chain[:m] + dual]
        rows.append(la.mat_vec(F, G, dual[m - 1]))
        comp = la.kernel_basis(F, rows)
        if len(comp) != d - (2 * m + 1):
            raise SplitError("complement has the wrong dimension")

    if len(comp) == 0:
        return OddSplit(space, X, m, chain, dual, comp, None)
    # [Gw | Gx] = comp [S comp^t | G comp^t]; T = Gw^-1 Gx
    comp_t, c = la.transpose(comp), len(comp)
    W = la.mat_mul(F, comp, [a + b for a, b in zip(
        space.apply_form(comp_t), la.mat_mul(F, G, comp_t))])
    Gw = [r[:c] for r in W]
    T = la.solve_matrix(F, Gw, [r[c:] for r in W])
    if T is None:
        raise SplitError("complement pairing is degenerate")
    quad = la.quad_values(F, space.B, comp)
    try:
        module = FormModule("orth", F, Gw, T, quad)
    except NotNilpotentError:
        raise SplitError("complement operator is not nilpotent") from None
    except ValueError as exc:
        raise SplitError(f"complement is not a form module: {exc}") from None
    return OddSplit(space, X, m, chain, dual, comp, module)


# ----------------------------------------------------------------------
# labels


def _clip(m: int, blocks):
    "Raise levels so no co-level exceeds the chain length."
    return tuple(BlockLabel(b.m, b.m - m, "0") if b.m - b.l > m else b
                 for b in blocks)


def rational_odd_label(split: OddSplit) -> OddLabel:
    """Canonical decorated label of a nilpotent odd functional.

    Clipping fixes the levels of the complement's label, and the class is
    the coset through it of the span of the decoration moves that touch
    only blocks that admit "d".  Its canonical member, "d" only at
    splitting positions, is the clipped label reduced by the moves' RREF
    with the other positions ordered first.  A coset with none or several
    such members, or levels that form no admissible pair, raises
    ClassificationError.
    """
    raw = classify_orth_fq(split.module) if split.module is not None else ()
    return _odd_label(split.m, raw)


@lru_cache(maxsize=None)
def _odd_label(m: int, raw) -> OddLabel:
    """rational_odd_label's label half, from the chain length and the
    complement's label; only keys that give a label are stored."""
    F2 = field_for(1)
    start = _clip(m, raw)
    if not validate_blocks(start, kind="orth"):
        raise ClassificationError(f"clipped label {start} is invalid")
    pair = OddLabel(m, start).pair()
    free = cb.oodd_split_indices(pair)
    order = [i for i in range(len(start)) if i not in free] + free
    fixed = len(order) - len(free)
    can_d = set(cb.orth_d_positions(start))
    moves = [{i} for i, b in enumerate(start) if b.l > m]
    moves += [{i, j} for i in range(len(start)) for j in range(i + 1, len(start))
              if start[i].l + start[j].l > start[i].m]
    R, pivots = la.rref(F2, [[int(i in mv) for i in order]
                             for mv in moves if mv <= can_d])
    eps = la.reduce_modulo(F2, R, pivots,
                           [int(start[i].eps == "d") for i in order])
    if any(eps[:fixed]) or not cb.oodd_pair_valid(*pair):
        count = 0
    else:
        count = 2 ** sum(p >= fixed for p in pivots)
    if count != 1:
        raise ClassificationError(
            f"moves from {start} reach {count} canonical labels, not one")
    ds = {i for i, x in zip(order, eps) if x}
    return OddLabel(m, cb.decorated(start, ds))


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
    The functional comes out of the transported alternating Gram by
    classical.functional_from_gram.
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
    quad = [0] * d
    # slots: v_0..v_m, u_0..u_{m-1}, then the complement normal form
    for i in range(m):
        Gb[i][m + 1 + i] = Gb[m + 1 + i][i] = 1
        Gx[i + 1][m + 1 + i] = Gx[m + 1 + i][i + 1] = 1
    quad[m] = 1
    if blocks:
        w, _ = build_normal_form(blocks, field, kind="orth")
        shifted = la.mat_mul(field, la.transpose(w.op), w.gram)
        for r in range(2 * K):
            Gb[o + r][o:] = w.gram[r]
            Gx[o + r][o:] = shifted[r]
        quad[o:] = w.quad

    # column s of C is the image of slot s
    C = la.zeros(d, d)
    for i in range(m):
        C[i][i] = C[n + i][m + 1 + i] = 1
    C[2 * n][m] = 1
    second_levels, off = set(), 0
    for b in blocks:
        if b.eps == "d":
            second_levels.add(K + off + b.l - 1)
        off += b.m
    for a in range(2 * K):
        i, j = (m + a, n + m + a) if a < K else (n + m + a - K, m + a - K)
        if a in second_levels:
            C[j][o + a] = 1
            C[2 * n][o + a] = field.sqrt(quad[o + a])
        else:
            C[i][o + a] = 1
            C[j][o + a] = quad[o + a]
    C_t = la.transpose(C)
    assert la.mat_mul(field, C_t, space.apply_form(C)) == Gb, \
        "the embedding must carry the model's pairing"
    assert la.quad_values(field, space.B, C_t) == quad, \
        "the embedding must carry the model's quadratic values"

    Ci = la.inverse(field, C)
    Y = la.mat_mul(field, la.mat_mul(field, la.transpose(Ci), Gx), Ci)
    return space, functional_from_gram(field, space.S, Y)


# ----------------------------------------------------------------------
# one entry point for every kind


def rational_label(space: Space, X):
    """Rational label of a nilpotent functional: a block tuple for sp, an
    OddLabel for so-odd, None for so-even, which has no label theory here.

    This is also the criterion form of nilpotency (the orbit-meets-cone
    definition is in the oracle; their agreement is an acceptance check):
    a nilpotent module endomorphism for sp and so-even, a split with a
    nilpotent complement operator for so-odd.  Any other functional
    raises NotNilpotentError, of which SplitError is one case.
    """
    if space.kind == "sp":
        return classify_fq(build_module(space, X))
    if space.kind == "so-odd":
        return rational_odd_label(split_odd_functional(space, X))
    if la.power_ladder(space.field, module_endomorphism(space, X)) is None:
        raise NotNilpotentError("functional is not nilpotent")
    return None
