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
arf_invariant collects these, and the rational classifiers compare them
with the candidates' normal forms, so classification is polynomial linear
algebra with no search.
"""

from __future__ import annotations

import numpy as np

from . import isometry as iso
from . import linalg as la
from .classical import Space, module_endomorphism
from .combinatorics import (BlockLabel, decorations, split_positions,
                            validate_blocks)
# the label layer lives in combinatorics; benchmarks/workloads.py still
# reads these names through this module
from .combinatorics import format_blocks, parse_blocks, rational_symbols  # noqa: F401
from .finite_field import Field


class ClassificationError(ValueError):
    """No canonical representative matched the module."""


# ----------------------------------------------------------------------
# the module container


class FormModule:
    """Pairing Gram, nilpotent self-adjoint operator, quadratic values."""

    def __init__(self, kind: str, field: Field, gram, op, quad):
        if kind not in ("sp", "orth"):
            raise ValueError(f"kind must be sp or orth, got {kind!r}")
        self.kind = kind
        self.field = field
        self.gram = la.as_matrix(gram)
        self.op = la.as_matrix(op)
        self.quad = np.asarray(quad, dtype=np.uint8)
        d = self.gram.shape[0]
        if self.op.shape != (d, d) or self.quad.shape != (d,):
            raise ValueError("component shapes disagree")
        if not np.array_equal(self.gram, self.gram.T) or np.diagonal(self.gram).any():
            raise ValueError("pairing must be alternating")
        la.inverse(field, self.gram)  # nondegenerate, raises otherwise
        if not la.is_nilpotent(field, self.op):
            raise ValueError("operator must be nilpotent")
        shifted = la.mat_mul(field, self.op.T, self.gram)
        if not np.array_equal(shifted, shifted.T) or np.diagonal(shifted).any():
            raise ValueError("operator must be self-adjoint and isotropic-shifting")
        if kind == "sp":
            twice = la.mat_mul(field, self.op.T, shifted)
            if not np.array_equal(twice, twice.T) or np.diagonal(twice).any():
                raise ValueError("shifted pairing must vanish on (Tv, v)")
        self._U = iso.quad_matrix(field, self.quad, self.polar_gram)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def polar_gram(self) -> np.ndarray:
        "Gram of the quadratic form's polarization."
        if self.kind == "sp":
            return la.mat_mul(self.field, self.op.T, self.gram)
        return self.gram

    def beta(self, v, w) -> int:
        return la.dot(self.field, v, la.mat_vec(self.field, self.gram, w))


def build_module(space: Space, X: np.ndarray) -> FormModule:
    """The form module of a nilpotent symplectic functional.

    Odd orthogonal functionals go through the odd split instead, which
    yields the orth module of the complement.
    """
    if space.kind != "sp":
        raise ValueError("direct module construction needs a symplectic space")
    F = space.field
    T = module_endomorphism(space, X)
    if not la.is_nilpotent(F, T):
        raise ValueError("functional is not nilpotent")
    quad = np.diagonal(la.mat_mul(F, space.S, X)).copy()
    return FormModule("sp", F, space.S, T, quad)


# ----------------------------------------------------------------------
# series and the index function


def phi_series(mod: FormModule, v, w) -> list[int]:
    "Coefficients beta(T^k v, w) for k = 0..dim."
    out = []
    u = np.asarray(v, dtype=np.uint8)
    for _ in range(mod.dim + 1):
        out.append(mod.beta(u, w))
        u = la.mat_vec(mod.field, mod.op, u)
    return out


def xi_series(mod: FormModule, v, w) -> list[int]:
    "Coefficients of the shifted pairing beta(T^{k+1} v, w) for k = 0..dim."
    F = mod.field
    out = []
    u = np.asarray(v, dtype=np.uint8)
    P = mod.polar_gram
    for _ in range(mod.dim + 1):
        out.append(la.dot(F, u, la.mat_vec(F, P, w)))
        u = la.mat_vec(F, mod.op, u)
    return out


def _power_forms(mod: FormModule, m: int, count: int):
    """Polar Gram and basis values of v -> quad(T^i v) on ker(T^m), for
    i = 0..count-1."""
    F, P = mod.field, mod.polar_gram
    img = la.kernel_basis(F, la.mat_pow(F, mod.op, m))
    for _ in range(count):
        yield (la.mat_mul(F, la.mat_mul(F, img, P), img.T),
               iso.quad_values(F, mod._U, img))
        img = la.mat_mul(F, img, mod.op.T)


def index_chi(mod: FormModule, m: int) -> int:
    """Smallest i with v -> quad(T^i v) identically zero on ker(T^m).

    Identical vanishing of a quadratic form on a subspace means zero on a
    basis and a zero polarization on all basis pairs.
    """
    if not 0 <= m <= mod.dim:
        raise ValueError("power must lie between 0 and dim")
    for i, (pol, vals) in enumerate(_power_forms(mod, m, mod.dim + 1)):
        if not vals.any() and not pol.any():
            return i
    raise AssertionError("nilpotent operator must reach a vanishing power")


def _arf_trace(F: Field, gram: np.ndarray, vals: np.ndarray) -> int | None:
    """Absolute trace of the Arf invariant of a quadratic form, or None
    when the form does not vanish on its polar radical.

    `gram` is the polar Gram and `vals` the values on the basis.  Each step
    takes a hyperbolic pair (e, f) with polar 1, adds quad(e) quad(f) to the
    invariant, and projects every basis vector v to
    v + polar(v, f) e + polar(v, e) f, which sends e and f themselves to 0.
    What is left spans the polar radical, on which the form is additive.
    """
    A, q = gram.copy(), vals.copy()
    mul = F.mul_table
    arf = 0
    while A.any():
        r, s = (int(x) for x in np.argwhere(A)[0])
        c = int(F.inv_table[A[r, s]])
        A[s], A[:, s], q[s] = mul[c, A[s]], mul[c, A[:, s]], mul[mul[c, c], q[s]]
        arf ^= int(mul[q[r], q[s]])
        a, b = A[:, s].copy(), A[:, r].copy()
        q ^= mul[mul[a, a], q[r]] ^ mul[mul[b, b], q[s]] ^ mul[a, b]
        A ^= mul[a[:, None], b[None, :]] ^ mul[b[:, None], a[None, :]]
    return None if q.any() else F.trace(arf)


def arf_invariant(mod: FormModule) -> tuple:
    """Arf data of v -> quad(T^i v) on ker(T^m), for every Jordan size m
    and 0 <= i <= m: None where the form does not vanish on its polar
    radical, else the absolute trace of its Arf invariant.

    Isometric modules have equal invariants, and the rational classifiers
    rely on the converse among the decorations of one closed label.
    """
    sizes = sorted(set(la.jordan_partition(mod.field, mod.op)))
    return tuple(_arf_trace(mod.field, pol, vals) for m in sizes
                 for pol, vals in _power_forms(mod, m, m + 1))


# ----------------------------------------------------------------------
# closed-field classification


def classify_closed(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Blocks (m_i, chi(m_i)) from the doubled operator partition."""
    parts = la.jordan_partition(mod.field, mod.op)
    if len(parts) % 2:
        raise ValueError("operator partition is not doubled")
    for a, b in zip(parts[0::2], parts[1::2]):
        if a != b:
            raise ValueError("operator partition is not doubled")
    blocks = tuple(BlockLabel(m, index_chi(mod, m)) for m in parts[0::2])
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
    The witness X satisfies: M the unique matrix with M + M^t = S T and
    diag(M) the quadratic values, X = S M.
    """
    blocks = tuple(blocks)
    if not validate_blocks(blocks, kind=kind):
        raise ValueError(f"invalid label {blocks} for kind {kind}")
    offs = np.concatenate(([0], np.cumsum([b.m for b in blocks]))).astype(int)
    K = int(offs[-1])
    d = 2 * K
    T = la.zeros(d, d)
    quad = np.zeros(d, dtype=np.uint8)
    delta = field.nonsplit_element()
    for b, lab in enumerate(blocks):
        m, o = lab.m, int(offs[b])
        for i in range(m - 1):
            T[o + i + 1, o + i] = 1          # first chain shifts down
            T[K + o + i, K + o + i + 1] = 1  # second chain shifts up
        if lab.l >= 1:
            quad[o + lab.l - 1] = 1
        if lab.eps == "d":
            slot = lab.l if kind == "sp" else lab.l - 1
            quad[K + o + slot] ^= delta
    S = la.zeros(d, d)
    S[:K, K:] = la.identity(K)
    S[K:, :K] = la.identity(K)
    mod = FormModule(kind, field, S, T, quad)
    if kind != "sp":
        return mod, None
    M = np.triu(la.mat_mul(field, S, T), k=1)
    M[np.arange(d), np.arange(d)] = quad
    X = la.mat_mul(field, S, M)
    return mod, X


# ----------------------------------------------------------------------
# rational classification


def _normal_form_invariant(blocks, mod: FormModule) -> tuple:
    "Arf invariant of the normal form of `blocks` in the kind of `mod`."
    return arf_invariant(build_normal_form(blocks, mod.field, kind=mod.kind)[0])


def classify_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of a symplectic module over its own field.

    The closed label fixes everything except a "0"/"d" choice at each
    splitting position; the canonical representative whose Arf invariant
    equals the module's decides those, and exactly one must match.
    """
    if mod.kind != "sp":
        raise ValueError("rational symplectic classification needs an sp module")
    closed = classify_closed(mod)
    inv = arf_invariant(mod)
    matches = [cand for cand in decorations(closed, split_positions(closed))
               if _normal_form_invariant(cand, mod) == inv]
    if len(matches) != 1:
        raise ClassificationError(
            f"expected exactly one canonical match, got {len(matches)} "
            f"for closed label {closed}")
    return matches[0]


def classify_orth_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of an orthogonal module over its own field.

    All 2^s decorations of the closed label are scanned in a fixed order
    ("0" before "d", rightmost position fastest) and the first one whose
    Arf invariant equals the module's is returned, which collapses fused
    decorations deterministically.
    """
    if mod.kind != "orth":
        raise ValueError("rational orthogonal classification needs an orth module")
    closed = classify_closed(mod)
    inv = arf_invariant(mod)
    for cand in decorations(closed, range(len(closed))):
        if not validate_blocks(cand, kind="orth"):
            continue
        if _normal_form_invariant(cand, mod) == inv:
            return cand
    raise ClassificationError(
        f"no decoration of {closed} matches the module")
