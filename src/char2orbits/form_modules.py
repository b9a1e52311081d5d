"""Form modules over GF(2^e) and their block classification.

A form module is a space with an alternating pairing, a nilpotent operator
self-adjoint for it, and a quadratic form.  Two kinds appear:

  sp    the module of a symplectic functional: pairing beta, operator T,
        quadratic values of the functional's alpha on the basis; the
        quadratic form polarizes to the shifted pairing beta(Tv, w);
  orth  the even orthogonal complement module of an odd split: pairing the
        restriction of the functional's alternating form, operator its
        transfer endomorphism, quadratic the ambient alpha; here the
        quadratic form polarizes to the pairing itself.

Such a module splits into standard blocks, each a pair of operator chains
of equal length m with the quadratic form supported at one slot per chain.
A block is labelled by the chain length m and a level l:

  sp closed      floor(m/2) <= l <= m
  sp rational    level slot on the first chain, second chain either zero
                 everywhere ("0", needs (m-1)/2 <= l <= m) or equal to a
                 fixed nonzero-trace element delta at one slot ("d", needs
                 (m-1)/2 < l < m)
  orth           floor((m+1)/2) <= l <= m, with the same "0"/"d" choice

In a multi-block label the sizes, levels, and co-levels m - l are all
weakly decreasing.  The classification index chi reads the levels off any
module without choosing a basis.  The rational decorations are Arf classes
in F_q/(x^2 + x): for each Jordan size m and power i, the form
v -> quad(T^i v) on ker(T^m) either fails to vanish on its polar radical or
descends to a nondegenerate form whose Arf invariant has an absolute trace.
All of it comes from the powers of T: each module builds its power ladder
T^0..T^k once (linalg.power_ladder, which is also its nilpotency check),
reads its Jordan type off the ladder's ranks and ker(T^m) off the ladder's
kernels, which the ladder's rank eliminations already give.  The power
forms are computed from the ladder once per module, and arf_invariant
collects them.  As T is self-adjoint, the polar form of v -> quad(T^i v)
is beta(T^(2i+s) v, w), s = 1 for sp and 0 for orth, so it vanishes on
ker(T^m) once 2i + s >= m: those forms are additive there and read off
their basis values alone, and only the lower powers pay one product
img U img^t and an Arf reduction.  A normal form is the
orthogonal sum of its blocks, so its invariant combines cached per-block
tables: None where any block gives None, else the sum of the block traces
mod 2.  A block's table is read off its shape by a closed form, with no
matrix: each power form holds at most one pair of the block's values,
and trace(delta) = 1, so the tables do not depend on the field.  A
block's None pattern does not depend on its decoration, so over one
closed label the invariant is affine over F_2 in the decoration vector,
and both rational classifiers decide every decoration by one reduction
over F_2 (_decorate).  Classification is polynomial linear algebra with
no search and no scan of decorations.

Each rational classifier splits where the matrix work ends.  The matrix
half runs once per module: the power table, classify_closed and
arf_invariant.  The label half (_sp_label, _orth_label) reads only the
key (closed label, invariant): split positions, the F_2 solve and its
count check.  It is memoised per key, like the per-block tables, so a
batch of functionals solves once per distinct key, over every field at
once.  A key that raises ClassificationError is not stored and raises
again on every call.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg as la
from .classical import (Space, functional_from_gram, is_alternating,
                        module_endomorphism)
from .combinatorics import (BlockLabel, decorated, orth_d_positions,
                            symp_blocks_to_pair, symp_split_indices,
                            validate_blocks)
# the label layer lives in combinatorics; benchmarks/workloads.py still
# reads these names through this module
from .combinatorics import format_blocks, parse_blocks, rational_symbols  # noqa: F401
from .finite_field import Field, field_for


class ClassificationError(ValueError):
    """No canonical representative matched the module."""


class NotNilpotentError(ValueError):
    """The functional, or the module's operator, is not nilpotent."""


# ----------------------------------------------------------------------
# the module container


class FormModule:
    """Pairing Gram, nilpotent self-adjoint operator, quadratic values.

    The components are read as given at construction, which also builds
    the operator's power ladder once: `kernels` holds the kernel bases of
    T^0..T^k (T^k = 0), `partition` the Jordan type read off their ranks,
    and `polar_gram` the Gram of the quadratic form's polarization.  The
    power-form data the classifiers read is computed from the ladder once,
    on first use.
    Construction checks that the Gram is nondegenerate by its rank.
    """

    def __init__(self, kind: str, field: Field, gram, op, quad):
        if kind not in ("sp", "orth"):
            raise ValueError(f"kind must be sp or orth, got {kind!r}")
        self.kind = kind
        self.field = field
        self.gram = la.as_matrix(gram)
        self.op = la.as_matrix(op)
        self.quad = list(quad)
        d = len(self.gram)
        if any(len(r) != d for r in self.gram + self.op) \
                or len(self.op) != d or len(self.quad) != d:
            raise ValueError("component shapes disagree")
        if not is_alternating(self.gram):
            raise ValueError("pairing must be alternating")
        if la.rank(field, self.gram) != d:
            raise ValueError("matrix is singular")
        ladder = la.power_ladder(field, self.op)
        if ladder is None:
            raise NotNilpotentError("operator must be nilpotent")
        ranks, self.kernels = ladder
        self.partition = la.ladder_partition(ranks)
        op_t = la.transpose(self.op)
        shifted = la.mat_mul(field, op_t, self.gram)
        if not is_alternating(shifted):
            raise ValueError("operator must be self-adjoint and isotropic-shifting")
        if kind == "sp" and not is_alternating(la.mat_mul(field, op_t, shifted)):
            raise ValueError("shifted pairing must vanish on (Tv, v)")
        self.polar_gram = shifted if kind == "sp" else self.gram
        self._U = la.quad_matrix(field, self.quad, self.polar_gram)
        self._table = None

    @property
    def dim(self) -> int:
        return len(self.gram)


def build_module(space: Space, X) -> FormModule:
    """The form module of a nilpotent symplectic functional.

    Odd orthogonal functionals go through the odd split instead, which
    yields the orth module of the complement.
    """
    if space.kind != "sp":
        raise ValueError("direct module construction needs a symplectic space")
    F = space.field
    SX = space.apply_form(X)
    try:
        return FormModule("sp", F, space.S, module_endomorphism(space, X),
                          [r[i] for i, r in enumerate(SX)])
    except NotNilpotentError:
        raise NotNilpotentError("functional is not nilpotent") from None


# ----------------------------------------------------------------------
# series and the index function


def phi_series(mod: FormModule, v, w) -> list[int]:
    "Coefficients beta(T^k v, w) for k = 0..dim."
    return _series(mod, mod.gram, v, w)


def xi_series(mod: FormModule, v, w) -> list[int]:
    "Coefficients of the shifted pairing beta(T^{k+1} v, w) for k = 0..dim."
    return _series(mod, mod.polar_gram, v, w)


def _series(mod: FormModule, gram, v, w) -> list[int]:
    "Coefficients v^t (T^t)^k gram w for k = 0..dim."
    F, Gw, out = mod.field, la.mat_vec(mod.field, gram, w), []
    for _ in range(mod.dim + 1):
        out.append(la.dot(F, v, Gw))
        v = la.mat_vec(F, mod.op, v)
    return out


def _power_forms(mod: FormModule, m: int, count: int):
    """(vanishes identically, _arf_trace) of v -> quad(T^i v) on ker(T^m),
    for i = 0..count-1.

    quad polarizes to beta(T^s v, w), s = 1 for sp and 0 for orth, and T
    is self-adjoint, so the polar form of v -> quad(T^i v) is
    beta(T^(2i+s) v, w): zero on ker(T^m) once 2i + s >= m.  There the form
    is additive, and its basis values alone decide both entries.  Below
    that, with the rows of `img` the images T^i v of a basis of ker(T^m)
    and U the upper-triangular matrix of quad, M = img U img^t gives the
    polar Gram M + M^t and the values, the diagonal of M.  From i = m on,
    T^i kills ker(T^m) and the entry is (True, 0), so img stops at T^(m-1).
    """
    F, op_t, s = mod.field, la.transpose(mod.op), int(mod.kind == "sp")
    img = mod.kernels[min(m, len(mod.kernels) - 1)]
    for i in range(count):
        if i >= m:
            yield True, 0
            continue
        if i:
            img = la.mat_mul(F, img, op_t)
        if 2 * i + s >= m:
            vals = la.quad_values(F, mod._U, img)
            yield not any(vals), None if any(vals) else 0
        else:
            M = la.mat_mul(F, la.mat_mul(F, img, mod._U), la.transpose(img))
            pol = [[a ^ b for a, b in zip(r, c)] for r, c in zip(M, zip(*M))]
            vals = [r[j] for j, r in enumerate(M)]
            yield not any(vals) and la.is_zero(pol), _arf_trace(F, pol, vals)


def index_chi(mod: FormModule, m: int) -> int:
    """Smallest i with v -> quad(T^i v) identically zero on ker(T^m).

    Identical vanishing of a quadratic form on a subspace means zero on a
    basis and a zero polarization on all basis pairs.
    """
    if not 0 <= m <= mod.dim:
        raise ValueError("power must lie between 0 and dim")
    for i, (zero, _) in enumerate(_power_forms(mod, m, mod.dim + 1)):
        if zero:
            return i
    raise AssertionError("nilpotent operator must reach a vanishing power")


def _arf_trace(F: Field, gram, vals) -> int | None:
    """Absolute trace of the Arf invariant of a quadratic form, or None
    when the form does not vanish on its polar radical.

    `gram` is the polar Gram and `vals` the values on the basis.  Each step
    takes a hyperbolic pair (e, f) with polar 1, adds quad(e) quad(f) to the
    invariant, and projects every basis vector v to
    v + polar(v, f) e + polar(v, e) f, which sends e and f themselves to 0.
    What is left spans the polar radical, on which the form is additive.
    """
    A, q = la.as_matrix(gram), list(vals)
    mul = F.mul_table
    arf = 0
    while True:
        hit = next(((i, j) for i, row in enumerate(A)
                    for j, x in enumerate(row) if x), None)
        if hit is None:
            break
        r, s = hit
        inv = F.inv_table[A[r][s]]
        c = mul[inv]
        A[s] = [c[x] for x in A[s]]
        for row in A:
            row[s] = c[row[s]]
        q[s] = mul[c[inv]][q[s]]
        arf ^= mul[q[r]][q[s]]
        a, b = [row[s] for row in A], [row[r] for row in A]
        qr, qs = mul[q[r]], mul[q[s]]
        q = [x ^ qr[mul[i][i]] ^ qs[mul[j][j]] ^ mul[i][j]
             for x, i, j in zip(q, a, b)]
        A = [[x ^ mul[i][y] ^ mul[j][z] for x, y, z in zip(row, b, a)]
             for row, i, j in zip(A, a, b)]
    return None if any(q) else F.trace(arf)


def _power_table(mod: FormModule) -> dict:
    """For each distinct Jordan size m, the pairs (vanishes identically,
    _arf_trace) of v -> quad(T^i v) on ker(T^m) for 0 <= i <= m; computed
    once per module."""
    if mod._table is None:
        mod._table = {m: tuple(_power_forms(mod, m, m + 1))
                      for m in sorted(set(mod.partition))}
    return mod._table


def arf_invariant(mod: FormModule) -> tuple:
    """Arf data of v -> quad(T^i v) on ker(T^m), for every Jordan size m
    and 0 <= i <= m: None where the form does not vanish on its polar
    radical, else the absolute trace of its Arf invariant.

    Isometric modules have equal invariants, and the rational classifiers
    rely on the converse among the decorations of one closed label.  The
    data is additive over orthogonal sums (None absorbs), which is how the
    classifiers get their candidates' invariants from per-block tables.
    """
    return tuple(t for row in _power_table(mod).values() for _, t in row)


# ----------------------------------------------------------------------
# closed-field classification


def classify_closed(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Blocks (m_i, chi(m_i)) from the doubled operator partition.

    chi(m) is the first power whose form vanishes identically on ker(T^m),
    read off the module's power table; it is at most m, since T^m kills
    ker(T^m).
    """
    parts, powers = mod.partition, _power_table(mod)
    if len(parts) % 2 or parts[0::2] != parts[1::2]:
        raise ValueError("operator partition is not doubled")
    chi = {m: next(i for i, (zero, _) in enumerate(row) if zero)
           for m, row in powers.items()}
    blocks = tuple(BlockLabel(m, chi[m]) for m in parts[0::2])
    if not validate_blocks(blocks, kind=mod.kind):
        raise ValueError(f"classification produced an invalid label {blocks}")
    return blocks


# ----------------------------------------------------------------------
# normal forms


def build_normal_form(blocks, field: Field, kind: str = "sp"):
    """The standard module of a label, and for sp a witness functional.

    Basis layout: block b occupies slots off_b..off_b+m-1 for the first
    chain (T^i v1 at off_b + i) and K+off_b..K+off_b+m-1 for the second,
    reversed (T^i v2 at K + off_b + m-1-i), so the pairing Gram is the
    standard [[0, I], [I, 0]].  The quadratic values put 1 at the first
    chain's level slot and, for "d" blocks, delta on the second chain.
    The witness X is classical.functional_from_gram of the shifted pairing
    S T with those quadratic values: its module endomorphism is T and
    diag(S X) is quad.
    """
    blocks = tuple(blocks)
    if not validate_blocks(blocks, kind=kind):
        raise ValueError(f"invalid label {blocks} for kind {kind}")
    K = sum(b.m for b in blocks)
    d = 2 * K
    T = la.zeros(d, d)
    quad = [0] * d
    delta = field.nonsplit_element()
    o = 0
    for lab in blocks:
        m = lab.m
        for i in range(m - 1):
            T[o + i + 1][o + i] = 1          # first chain shifts down
            T[K + o + i][K + o + i + 1] = 1  # second chain shifts up
        if lab.l >= 1:
            quad[o + lab.l - 1] = 1
        if lab.eps == "d":
            slot = lab.l if kind == "sp" else lab.l - 1
            quad[K + o + slot] ^= delta
        o += m
    S = la.zeros(d, d)
    for i in range(K):
        S[i][K + i] = S[K + i][i] = 1
    mod = FormModule(kind, field, S, T, quad)
    if kind != "sp":
        return mod, None
    return mod, functional_from_gram(field, S, la.mat_mul(field, S, T), quad)


# ----------------------------------------------------------------------
# rational classification


@lru_cache(maxsize=None)
def _block_table(kind: str, block: BlockLabel, m: int) -> tuple:
    """Arf data of the one-block normal form of `block` at Jordan size m,
    for i = 0..m, read off the block's shape.  The label universe
    (m <= 12) bounds the cache.

    In build_normal_form's basis, T^i maps ker(T^m) onto the first-chain
    slots a_k, max(M - m, 0) <= k <= M - 1 - i, and the second-chain
    slots b_j, i <= j < min(m, M), M the block's size.  The polar form
    beta(T^(2i+s) v, w) pairs a_k with b_(k+2i+s) and leaves the rest in
    its radical.  The form's values are 1 at a_(l-1-i) and, for "d",
    delta at b_(l-1+s+i), where those slots exist: the two ends of one
    pair.  A valid "d" block has 2l + s > M, so wherever b_(l-1+s+i)
    exists, a_(l-1-i) does too.  So the entry is None if a_(l-1-i) exists
    without its partner, the trace of delta = 1 if both values are
    there, and 0 otherwise; it is 0 from i = m on.  No entry depends on
    the field.
    """
    M, l, s, d = block.m, block.l, int(kind == "sp"), block.eps == "d"
    out = [0] * (m + 1)
    for i in range(m):
        a = l - 1 - i in range(max(M - m, 0), M - i)
        b = l - 1 + s + i in range(i, min(m, M))
        out[i] = None if a and not b else int(a and b and d)
    return tuple(out)


def _label_invariant(blocks, kind: str) -> tuple:
    """arf_invariant of the normal form of `blocks` over any field,
    combined from the per-block tables at the label's sizes; an invalid
    label raises ValueError, as build_normal_form does."""
    blocks = tuple(blocks)
    if not validate_blocks(blocks, kind=kind):
        raise ValueError(f"invalid label {blocks} for kind {kind}")
    out = []
    for m in sorted({b.m for b in blocks}):
        rows = [_block_table(kind, b, m) for b in blocks]
        out += [None if None in col else sum(col) % 2 for col in zip(*rows)]
    return tuple(out)


def _decorate(closed, free, kind: str, inv) -> tuple:
    """The decorations of `closed` ("d" or "0" at each position of `free`,
    "0" elsewhere) whose invariant is `inv`: the first in
    combinatorics.decorations order, or None, and how many there are.

    The invariant is affine in the decoration vector eps:
    inv(eps) = inv(0) + D eps off the None pattern, column p of D being
    inv(one "d" at p) - inv(0).  The matches are a solution of
    D eps = inv - inv(0) plus the kernel of D; reducing the solution by
    the kernel's RREF clears every pivot, which makes it the first.
    """
    F2 = field_for(1)
    base = _label_invariant(decorated(closed, ()), kind)
    if [x is None for x in inv] != [x is None for x in base]:
        return None, 0
    rows = [i for i, x in enumerate(base) if x is not None]
    cols = [_label_invariant(decorated(closed, (p,)), kind) for p in free]
    D = [[c[i] ^ base[i] for c in cols] for i in rows]
    eps = la.solve(F2, D, [inv[i] ^ base[i] for i in rows])
    if eps is None:
        return None, 0
    K = la.kernel_basis(F2, D)
    eps = la.reduce_modulo(F2, *la.rref(F2, K), eps)
    return decorated(closed, {p for p, x in zip(free, eps) if x}), 2 ** len(K)


def classify_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of a symplectic module over its own field.

    The closed label fixes everything except a "0"/"d" choice at each
    splitting position; exactly one of those decorations may have the
    module's Arf invariant, and one F_2 solve finds it.
    """
    if mod.kind != "sp":
        raise ValueError("rational symplectic classification needs an sp module")
    return _sp_label(classify_closed(mod), arf_invariant(mod))


@lru_cache(maxsize=None)
def _sp_label(closed, inv) -> tuple[BlockLabel, ...]:
    "classify_fq's label half; only keys that give a label are stored."
    free = symp_split_indices(symp_blocks_to_pair(closed))
    label, count = _decorate(closed, free, "sp", inv)
    if count != 1:
        raise ClassificationError(
            f"expected exactly one canonical match, got {count} "
            f"for closed label {closed}")
    return label


def classify_orth_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of an orthogonal module over its own field.

    "d" may sit on every block that admits it (2l > m).  Of the decorations
    with the module's Arf invariant, one F_2 solve finds the first in a
    fixed order ("0" before "d", rightmost position fastest), which
    collapses fused decorations deterministically.
    """
    if mod.kind != "orth":
        raise ValueError("rational orthogonal classification needs an orth module")
    return _orth_label(classify_closed(mod), arf_invariant(mod))


@lru_cache(maxsize=None)
def _orth_label(closed, inv) -> tuple[BlockLabel, ...]:
    "classify_orth_fq's label half; only keys that give a label are stored."
    label, _ = _decorate(closed, orth_d_positions(closed), "orth", inv)
    if label is None:
        raise ClassificationError(
            f"no decoration of {closed} matches the module")
    return label
