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
module without choosing a basis, and exhaustive isometry search settles the
rational decorations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import combinatorics as cb
from . import isometry as iso
from . import linalg as la
from .classical import Space, functional_alpha, module_endomorphism
from .finite_field import Field


class ClassificationError(ValueError):
    """No canonical representative matched the module."""


@dataclass(frozen=True, order=True)
class BlockLabel:
    """One block: chain length m, level l, rational decoration eps.

    eps is None for closed-field labels, "0" or "d" for rational ones.
    """

    m: int
    l: int
    eps: str | None = None

    def closed(self) -> "BlockLabel":
        return BlockLabel(self.m, self.l)


def _block_range_ok(b: BlockLabel, kind: str) -> bool:
    if b.m < 1:
        return False
    if kind == "orth":
        if b.eps == "d" and 2 * b.l <= b.m:
            # At 2l = m the decorated recipe rebuilds the (m, l+1)
            # module, so the boundary level carries no "d" variant.
            return False
        return (b.m + 1) // 2 <= b.l <= b.m
    if b.eps == "d":
        return 2 * b.l >= b.m and b.l < b.m
    return b.m // 2 <= b.l <= b.m


def validate_blocks(blocks, kind: str = "sp") -> bool:
    """Ranges, decoration consistency, and the three monotonicity chains."""
    blocks = tuple(blocks)
    if kind not in ("sp", "orth"):
        raise ValueError(f"kind must be sp or orth, got {kind!r}")
    decorated = [b.eps is not None for b in blocks]
    if any(decorated) and not all(decorated):
        return False
    if not all(b.eps in (None, "0", "d") for b in blocks):
        return False
    if not all(_block_range_ok(b, kind) for b in blocks):
        return False
    return all(a.m >= b.m and a.l >= b.l and a.m - a.l >= b.m - b.l
               for a, b in zip(blocks, blocks[1:]))


def split_positions(blocks) -> list[int]:
    """0-based block positions where a rational label may carry "d": the
    splitting indices of the label's partition pair."""
    pairs = [(b.m, b.l) for b in blocks]
    return cb.symp_split_indices(cb.symp_symbol_to_pair(pairs))


def decorations(closed, free):
    """The labels that decorate `closed` with "0" or "d" at each position of
    `free` and "0" everywhere else.

    "0" comes before "d" and the rightmost free position changes fastest;
    orbit tables and the first match of classify_orth_fq follow this order.
    """
    for choice in product(("0", "d"), repeat=len(free)):
        eps = dict(zip(free, choice))
        yield tuple(BlockLabel(b.m, b.l, eps.get(i, "0"))
                    for i, b in enumerate(closed))


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

    def forms(self) -> iso.ModuleForms:
        return iso.ModuleForms(self.gram, self.op, self.quad, self.polar_gram)


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


def index_chi(mod: FormModule, m: int) -> int:
    """Smallest i with v -> quad(T^i v) identically zero on ker(T^m).

    Identical vanishing of a quadratic form on a subspace means zero on a
    basis and a zero polarization on all basis pairs.
    """
    if not 0 <= m <= mod.dim:
        raise ValueError("power must lie between 0 and dim")
    F = mod.field
    K = la.kernel_basis(F, la.mat_pow(F, mod.op, m))
    if len(K) == 0:
        return 0
    P = mod.polar_gram
    img = K
    for i in range(mod.dim + 1):
        vals = iso.quad_values(F, mod._U, img)
        pol = la.mat_mul(F, la.mat_mul(F, img, P), img.T)
        if not vals.any() and not pol.any():
            return i
        img = la.mat_mul(F, img, mod.op.T)
    raise AssertionError("nilpotent operator must reach a vanishing power")


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


def _chain_layout(blocks):
    sizes = [b.m for b in blocks]
    offs = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    return sizes, offs, int(offs[-1])


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
    sizes, offs, K = _chain_layout(blocks)
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


def normal_form_generators(blocks):
    "Generator (vector index, height) list matching build_normal_form."
    blocks = tuple(blocks)
    sizes, offs, K = _chain_layout(blocks)
    d = 2 * K
    gens = []
    for b, lab in enumerate(blocks):
        o = int(offs[b])
        for idx in (o, K + o + lab.m - 1):
            v = np.zeros(d, dtype=np.uint8)
            v[idx] = 1
            gens.append((v, lab.m))
    return gens


def _matches_normal_form(mod: FormModule, blocks) -> bool:
    nf, _ = build_normal_form(blocks, mod.field, kind=mod.kind)
    if nf.dim != mod.dim:
        return False
    gens = normal_form_generators(blocks)
    return iso.find_module_map(mod.field, nf.forms(), gens, mod.forms()) is not None


# ----------------------------------------------------------------------
# rational classification


def classify_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of a symplectic module over its own field.

    The closed label fixes everything except a "0"/"d" choice at each
    splitting position; isometry search against the canonical
    representatives decides those, and exactly one must match.
    """
    if mod.kind != "sp":
        raise ValueError("rational symplectic classification needs an sp module")
    closed = classify_closed(mod)
    matches = [cand for cand in decorations(closed, split_positions(closed))
               if _matches_normal_form(mod, cand)]
    if len(matches) != 1:
        raise ClassificationError(
            f"expected exactly one canonical match, got {len(matches)} "
            f"for closed label {closed}")
    return matches[0]


def classify_orth_fq(mod: FormModule) -> tuple[BlockLabel, ...]:
    """Decorated label of an orthogonal module over its own field.

    All 2^s decorations of the closed label are scanned in a fixed order
    ("0" before "d", rightmost position fastest) and the first matching
    one is returned, which collapses fused decorations deterministically.
    """
    if mod.kind != "orth":
        raise ValueError("rational orthogonal classification needs an orth module")
    closed = classify_closed(mod)
    for cand in decorations(closed, range(len(closed))):
        if not validate_blocks(cand, kind="orth"):
            continue
        if _matches_normal_form(mod, cand):
            return cand
    raise ClassificationError(
        f"no decoration of {closed} matches the module")


def rational_symbols(n: int) -> list[tuple[BlockLabel, ...]]:
    """Canonical decorated symbols of total size n, 2^k per closed symbol.

    These are exactly the candidate sets classify_fq scans, so their count
    over all closed symbols is p2(n).
    """
    out = []
    for pair in cb.symp_pairs(n):
        closed = tuple(BlockLabel(m, l) for m, l in cb.symp_pair_to_symbol(pair))
        out += decorations(closed, split_positions(closed))
    return out


# ----------------------------------------------------------------------
# text and JSON forms


_BLOCK_RE = re.compile(r"\((\d+)\)\^2_(\d+)(?::([0d]))?")


def format_blocks(blocks) -> str:
    out = []
    for b in blocks:
        tail = f":{b.eps}" if b.eps is not None else ""
        out.append(f"({b.m})^2_{b.l}{tail}")
    return " ".join(out)


def parse_blocks(text: str) -> tuple[BlockLabel, ...]:
    out = []
    for tok in text.split():
        m = _BLOCK_RE.fullmatch(tok)
        if not m:
            raise ValueError(f"bad block token {tok!r}")
        out.append(BlockLabel(int(m.group(1)), int(m.group(2)), m.group(3)))
    return tuple(out)


def blocks_to_json(blocks) -> dict:
    return {"blocks": [{"m": b.m, "l": b.l, "eps": b.eps} for b in blocks]}


def blocks_from_json(obj: dict) -> tuple[BlockLabel, ...]:
    return tuple(BlockLabel(int(b["m"]), int(b["l"]), b.get("eps"))
                 for b in obj["blocks"])
