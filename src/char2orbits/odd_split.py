"""Splitting odd orthogonal functionals into a chain part and a complement.

A functional on the odd orthogonal algebra is carried by its alternating
Gram G.  The split finds the minimal m for which the pencil system

    G v_0 = 0,   G v_i = S v_{i-1} (1 <= i <= m),   S v_m = 0

has a solution; it grows the space of possible chain ends one length at
a time rather than solving the system afresh for each m.  The solution
space at that m is one-dimensional, and the chain is normalized so the
ambient quadratic form takes value 1 on v_m (which spans the radical of
the pairing).  A dual family u_0..u_{m-1} follows: u_0 by one solve,
then u_i = S G u_(i-1), as S is its own inverse away from the radical
slot.  The complement W of the resulting (2m+1)-dimensional chain part is
cut out by 2m+1 pairing conditions.  W carries a nondegenerate pairing
Gw, the transfer operator T = Gw^-1 Gx with Gx the functional's form on
W (both Grams from one product, T from one elimination of [Gw | Gx]),
and the ambient quadratic values: an orth form module.  The functional
is nilpotent exactly when the split goes through with T nilpotent; every
structural failure raises SplitError, the so-odd case of
NotNilpotentError.

The rational label of a nilpotent functional is the chain length m plus
the decorated block label of W, which classify_orth_fq reads off Arf
invariants with no search, normalized across the whole module: a
block with co-level above m is clipped up to co-level m, a block with
level above m absorbs its decoration, and two blocks whose levels
together exceed the leading size flip decorations in tandem.  These moves
are fixed vectors over F_2, so the labels they reach form a coset of
their span, and one reduction picks its canonical member, which has "d"
only at splitting positions of the associated partition pair.  The tests
hold this against a walk over the moves (odd_label_by_walk) and an
exhaustive whole-space isometry search (odd_label_by_search), both in
tests/module_search.py.

As the lowest module that sees both classifiers, this one also holds the
entry point for every kind, rational_label, which decides nilpotency and
the label in one pass: a functional that is not nilpotent raises
NotNilpotentError (SplitError for so-odd).
"""

from __future__ import annotations

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

    def __init__(self, space: Space, X: list[list[int]], m: int,
                 chain: list[list[int]], dual: list[list[int]],
                 complement: list[list[int]], module: FormModule | None):
        self.space = space
        self.X = X
        self.m = m
        self.chain = chain
        self.dual = dual
        self.complement = complement
        self.module = module


# ----------------------------------------------------------------------
# the split itself


def _chain_vectors(space: Space, G):
    """The least m with a pencil chain v_0..v_m, and that chain normalized.

    The ends v_m of the chains that satisfy every equation but S v_m = 0
    form a space E_m: E_0 = ker G and E_(m+1) = {w : G w in S E_m}.  One
    kernel of [S E_m^t | G], in the unknowns (c, w), gives both: its
    vectors with w = 0 are the combinations c of E_m's basis with
    S E_m^t c = 0, and the w parts of the others are a basis of E_(m+1).
    The first m with such a c is the chain length.  There two chains with
    one end differ by a shorter chain that ends in ker S, so each chain is
    fixed by its end.  Its end lies in ker S, the radical line of the odd
    space's pairing, so c is unique up to a scalar and the end has nonzero
    quadratic value.  Each basis end carries its chain, flattened, so the
    chain needs no solve.
    """
    F, d = space.field, space.d
    ends = la.kernel_basis(F, G)
    chains = [list(e) for e in ends]
    for m in range(space.n + 1):
        k = len(ends)
        SE = space.apply_form(la.transpose(ends))
        K = la.kernel_basis(F, [b + g for b, g in zip(SE, G)])
        C = [x[:k] for x in K if not any(x[k:])]
        if C:
            chain = la.reshape(la.mat_mul(F, C, chains)[0], d)
            scale = F.sqrt(F.inv(space.alpha(chain[m])))
            return m, [la.scale(F, scale, v) for v in chain]
        chains = [c + x[k:] for c, x in
                  zip(la.mat_mul(F, [x[:k] for x in K], chains), K)]
        ends = [x[k:] for x in K]
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
    m, F2 = split.m, field_for(1)
    raw = classify_orth_fq(split.module) if split.module is not None else ()
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
