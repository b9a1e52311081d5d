"""Classical groups in characteristic 2 and their coadjoint calculus.

Three kinds of space are supported, each with its standard forms:

  sp       dim 2n,   symplectic  beta(v,w) = v^t S w,  S = [[0,I],[I,0]]
  so-odd   dim 2n+1, quadratic   alpha(v) = v^t B v,   B = [[0,I,0],[0,0,0],[0,0,1]]
  so-even  dim 2n,   quadratic   alpha(v) = v^t B v,   B = [[0,I],[0,0]]

with beta the polarization B + B^t in the orthogonal kinds.  A functional on
the Lie algebra is carried as any matrix X with xi(x) = tr(X x); two
representatives are the same functional iff their pairings with a basis of
the algebra agree.  The calculus attached to a functional:

  * module_endomorphism (sp, so-even): X + S X^t S, the endomorphism that
    turns the space into a module over the functional; for so-even this map
    is a bijection from functionals onto the Lie algebra itself;
  * alternating_gram (so-odd): the alternating matrix X^t S + S X, the
    Gram of the functional's bilinear form.

All of these are representative-independent, which the tests check by
perturbing X along the trace radical.

Nilpotency of a functional is defined through a fixed Borel subalgebra: the
functionals vanishing on it form the dual nilpotent cone's seed set.  The
Borel here is the triangular intersection in flag order: reorder the basis so
the pairing becomes antidiagonal (first half, defective vector if any, second
half reversed), and keep the algebra elements that are upper triangular in
that order.  Triangularity in the rough standard order is a strictly smaller
space for n >= 2 and is not a Borel.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .finite_field import Field, field_for

KINDS = ("sp", "so-odd", "so-even")

_F2 = field_for(1)


class Space:
    """A classical space: kind, rank, field, standard forms, cached bases."""

    def __init__(self, kind: str, n: int, field: Field):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.kind = kind
        self.n = n
        self.field = field
        d = 2 * n + 1 if kind == "so-odd" else 2 * n
        self.d = d
        B = la.zeros(d, d)
        B[:n, n:2 * n] = la.identity(n)
        if kind == "so-odd":
            B[2 * n, 2 * n] = 1
        if kind == "sp":
            self.B = None
            S = la.zeros(d, d)
            S[:n, n:] = la.identity(n)
            S[n:, :n] = la.identity(n)
            self.S = S
        else:
            self.B = B
            self.S = B ^ B.T
        self._lie: np.ndarray | None = None
        self._borel: np.ndarray | None = None
        self._radical: np.ndarray | None = None
        self._radical_rref: tuple[np.ndarray, list[int]] | None = None
        self._pairing_rows: np.ndarray | None = None
        self._theta_matrix: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Space({self.kind}, n={self.n}, {self.field.header()})"

    # ------------------------------------------------------------------
    # forms

    def beta(self, v, w) -> int:
        return la.dot(self.field, v, la.mat_vec(self.field, self.S, w))

    def alpha(self, v) -> int:
        if self.B is None:
            raise ValueError("sp spaces carry no ambient quadratic form")
        return la.dot(self.field, v, la.mat_vec(self.field, self.B, v))

    # ------------------------------------------------------------------
    # algebra and Borel bases (0/1 matrices, valid over every GF(2^e))

    def _condition_rows(self, extra_zero_positions=()) -> np.ndarray:
        """Constraint matrix whose right kernel (in x-coordinates) is the
        algebra: rows for x^t S + S x = 0, plus alternating-diagonal and
        trace rows for the orthogonal kinds, plus forced-zero entries."""
        d, S = self.d, self.S
        ncond = d * d + (d if self.kind != "sp" else 0) \
            + (1 if self.kind == "so-odd" else 0) + len(extra_zero_positions)
        cols = np.zeros((ncond, d * d), dtype=np.uint8)
        for a in range(d):
            for b in range(d):
                var = a * d + b
                C = la.zeros(d, d)
                C[b, :] ^= S[a, :]
                C[:, b] ^= S[:, a]
                col = list(C.reshape(-1))
                if self.kind != "sp":
                    dg = [0] * d
                    dg[b] = int(S[a, b])
                    col += dg
                if self.kind == "so-odd":
                    col += [1 if a == b else 0]
                col += [0] * len(extra_zero_positions)
                cols[: len(col), var] = col
        for k, (i, j) in enumerate(extra_zero_positions):
            cols[ncond - len(extra_zero_positions) + k, i * self.d + j] = 1
        return cols

    def lie_basis(self) -> np.ndarray:
        "Array of shape (dim, d, d); echelonized basis of the algebra."
        if self._lie is None:
            K = la.kernel_basis(_F2, self._condition_rows())
            self._lie = K.reshape(-1, self.d, self.d)
        return self._lie

    @property
    def dim_algebra(self) -> int:
        return len(self.lie_basis())

    def flag_order(self) -> list[int]:
        "Basis order in which the pairing is antidiagonal."
        n = self.n
        if self.kind == "so-odd":
            return list(range(n)) + [2 * n] + list(range(2 * n - 1, n - 1, -1))
        return list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def borel_basis(self) -> np.ndarray:
        "Algebra elements upper triangular in flag order."
        if self._borel is None:
            sigma = self.flag_order()
            below = [(sigma[i], sigma[j])
                     for i in range(self.d) for j in range(self.d) if i > j]
            K = la.kernel_basis(_F2, self._condition_rows(tuple(below)))
            self._borel = K.reshape(-1, self.d, self.d)
        return self._borel

    # ------------------------------------------------------------------
    # functionals: tr-pairing, radical, canonical representatives

    def pairing_vector(self, X: np.ndarray) -> tuple[int, ...]:
        "Values of the functional on the algebra basis."
        return _pairings(self.lie_basis(), X)

    def dual_equal(self, X: np.ndarray, Y: np.ndarray) -> bool:
        return self.pairing_vector(X) == self.pairing_vector(Y)

    def dual_from_values(self, values) -> np.ndarray:
        "Some representative X whose pairing_vector equals `values`."
        vals = np.asarray(values, dtype=np.uint8)
        if vals.shape != (self.dim_algebra,):
            raise ValueError("need one value per algebra basis element")
        if self._pairing_rows is None:
            self._pairing_rows = np.stack(
                [b.T.reshape(-1) for b in self.lie_basis()])
        X = la.solve(self.field, self._pairing_rows, vals)
        assert X is not None, "the trace pairing must be onto"
        return X.reshape(self.d, self.d)

    def trace_radical_basis(self) -> np.ndarray:
        "Matrices pairing to zero with the whole algebra; shape (r, d, d)."
        if self._radical is None:
            rows = np.stack([b.T.reshape(-1) for b in self.lie_basis()])
            K = la.kernel_basis(_F2, rows)
            self._radical = K.reshape(-1, self.d, self.d)
        return self._radical

    def canonical_rep(self, X: np.ndarray) -> np.ndarray:
        "The unique representative with zeros in the radical's pivot slots."
        if self._radical_rref is None:
            flat = self.trace_radical_basis().reshape(-1, self.d * self.d)
            self._radical_rref = la.rref(_F2, flat)
        R, pivots = self._radical_rref
        v = np.asarray(X, dtype=np.uint8).reshape(-1).copy()
        MUL = self.field.mul_table
        for i, p in enumerate(pivots):
            if v[p]:
                v ^= MUL[v[p], R[i]]
        return v.reshape(self.d, self.d)


def _pairings(basis: np.ndarray, X: np.ndarray) -> tuple[int, ...]:
    "Values tr(X b) for the 0/1 matrices b of the basis."
    flat = np.asarray(X, dtype=np.uint8).reshape(-1)
    out = []
    for b in basis:
        sel = flat[b.T.reshape(-1) == 1]
        out.append(int(np.bitwise_xor.reduce(sel)) if sel.size else 0)
    return tuple(out)


def space_for(kind: str, n: int, e: int = 1) -> Space:
    return Space(kind, n, field_for(e))


# ----------------------------------------------------------------------
# group elements


def preserves_form(space: Space, g: np.ndarray) -> bool:
    F = space.field
    g = la.as_matrix(g)
    if g.shape != (space.d, space.d):
        return False
    if space.kind == "sp":
        return np.array_equal(la.mat_mul(F, la.mat_mul(F, g.T, space.S), g), space.S)
    M = la.mat_mul(F, la.mat_mul(F, g.T, space.B), g) ^ space.B
    return np.array_equal(M, M.T) and not np.diagonal(M).any()


def coadjoint(space: Space, g: np.ndarray, X: np.ndarray) -> np.ndarray:
    "Representative of the functional moved by g: X -> g X g^{-1}."
    if not preserves_form(space, g):
        raise ValueError("g does not preserve the form")
    F = space.field
    return la.mat_mul(F, la.mat_mul(F, g, X), la.inverse(F, g))


def symplectic_transvection(space: Space, v, c: int) -> np.ndarray:
    "x -> x + c beta(x, v) v; in the group for every v and scalar c."
    assert space.kind == "sp"
    F = space.field
    v = np.asarray(v, dtype=np.uint8)
    Sv = la.mat_vec(F, space.S, v)
    t = la.identity(space.d)
    t ^= F.mul_table[la.scale(F, c, v)[:, None], Sv[None, :]]
    return t


def orthogonal_transvection(space: Space, v) -> np.ndarray:
    "x -> x + (beta(x,v)/alpha(v)) v; needs alpha(v) != 0."
    assert space.kind != "sp"
    F = space.field
    v = np.asarray(v, dtype=np.uint8)
    a = space.alpha(v)
    if a == 0:
        raise ValueError("transvection vector must have nonzero alpha")
    Sv = la.mat_vec(F, space.S, v)
    t = la.identity(space.d)
    t ^= F.mul_table[la.scale(F, F.inv(a), v)[:, None], Sv[None, :]]
    return t


def pair_swap(space: Space) -> np.ndarray:
    "The swap (e_1, f_1) <-> (e_2, f_2) of the first two hyperbolic pairs."
    n = space.n
    perm = list(range(space.d))
    perm[0], perm[1], perm[n], perm[n + 1] = 1, 0, n + 1, n
    return la.identity(space.d)[perm]


def random_group_element(space: Space, rng: np.random.Generator, steps: int = 8) -> np.ndarray:
    """Product of random transvections (a group element, not uniformly drawn).

    In the even orthogonal kind with n >= 2 each step is the pair swap with
    probability 1/2, since reflections alone can miss a coset of the group.
    """
    F = space.field
    g = la.identity(space.d)
    done = 0
    while done < steps:
        if space.kind == "so-even" and space.n >= 2 and rng.integers(0, 2):
            g = la.mat_mul(F, g, pair_swap(space))
            done += 1
            continue
        v = rng.integers(0, F.q, size=space.d, dtype=np.uint8)
        if not v.any():
            continue
        if space.kind == "sp":
            c = int(rng.integers(1, F.q))
            t = symplectic_transvection(space, v, c)
        else:
            if space.alpha(v) == 0:
                continue
            t = orthogonal_transvection(space, v)
        g = la.mat_mul(F, g, t)
        done += 1
    return g


# ----------------------------------------------------------------------
# the calculus attached to a functional


def module_endomorphism(space: Space, X: np.ndarray) -> np.ndarray:
    "X + S X^t S.  For sp and so-even; self-adjoint for the pairing."
    if space.kind == "so-odd":
        raise ValueError("no direct module endomorphism in the odd kind")
    F = space.field
    return X ^ la.mat_mul(F, la.mat_mul(F, space.S, X.T), space.S)


def alternating_gram(space: Space, X: np.ndarray) -> np.ndarray:
    "X^t S + S X: the alternating pairing matrix of an odd functional."
    assert space.kind == "so-odd"
    F = space.field
    return la.mat_mul(F, X.T, space.S) ^ la.mat_mul(F, space.S, X)


def dual_to_algebra(space: Space, X: np.ndarray) -> np.ndarray:
    "The even-orthogonal bijection from functionals to algebra elements."
    assert space.kind == "so-even"
    return module_endomorphism(space, X)


def algebra_coords(space: Space, T: np.ndarray) -> np.ndarray:
    "Coordinates of T in the lie_basis; raises if T is outside the algebra."
    basis = space.lie_basis().reshape(-1, space.d * space.d)
    c = la.solve(space.field, basis.T, np.asarray(T, dtype=np.uint8).reshape(-1))
    if c is None:
        raise ValueError("matrix is not in the algebra")
    return c


def in_algebra(space: Space, T: np.ndarray) -> bool:
    F = space.field
    M = la.mat_mul(F, T.T, space.S) ^ la.mat_mul(F, space.S, T)
    if M.any():
        return False
    if space.kind != "sp":
        TS = la.mat_mul(F, T.T, space.S)
        if np.diagonal(TS).any():
            return False
    if space.kind == "so-odd" and la.mat_trace(F, T):
        return False
    return True


def algebra_to_dual(space: Space, T: np.ndarray) -> np.ndarray:
    "Inverse of dual_to_algebra: some X with X + S X^t S = T."
    assert space.kind == "so-even"
    if not in_algebra(space, T):
        raise ValueError("matrix is not in the algebra")
    F = space.field
    d = space.d
    if space._theta_matrix is None:
        L = np.zeros((d * d, d * d), dtype=np.uint8)
        for a in range(d):
            for b in range(d):
                E = la.zeros(d, d)
                E[a, b] = 1
                img = E ^ np.outer(space.S[:, b], space.S[a, :])
                L[:, a * d + b] = img.reshape(-1)
        space._theta_matrix = L
    x = la.solve(F, space._theta_matrix, np.asarray(T, dtype=np.uint8).reshape(-1))
    assert x is not None, "the even-kind dual map must be onto the algebra"
    return x.reshape(d, d)


# ----------------------------------------------------------------------
# nilpotency


def borel_pairing(space: Space, X: np.ndarray) -> tuple[int, ...]:
    "Values of the functional on the Borel basis."
    return _pairings(space.borel_basis(), X)


def is_nilpotent_functional(space: Space, X: np.ndarray) -> bool:
    """Criterion form of nilpotency (the orbit-meets-cone definition is in
    the oracle; their agreement is an acceptance check)."""
    if space.kind in ("sp", "so-even"):
        return la.is_nilpotent(space.field, module_endomorphism(space, X))
    from .odd_split import SplitError, split_odd_functional
    try:
        split_odd_functional(space, X)
        return True
    except SplitError:
        return False


# ----------------------------------------------------------------------
# invariant form on the even-orthogonal algebra (wedge construction)


def wedge_invariant_form(space: Space) -> np.ndarray:
    """Gram matrix, in the lie_basis coordinates, of the invariant pairing
    on the even-orthogonal algebra.

    The algebra is identified with the second wedge power of the natural
    module by a.b -> (v -> beta(a,v) b + beta(b,v) a); the pairing of two
    wedges is the determinant of their cross pairings.  The identification
    has full rank and the resulting Gram is nondegenerate, both asserted.
    """
    assert space.kind == "so-even"
    F = space.field
    d, S = space.d, space.S
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    Phi = np.zeros((d * d, len(pairs)), dtype=np.uint8)
    for k, (i, j) in enumerate(pairs):
        M = np.outer(la.identity(d)[j], S[i, :]) ^ np.outer(la.identity(d)[i], S[j, :])
        Phi[:, k] = M.reshape(-1)
    basis = space.lie_basis()
    assert la.rank(F, Phi) == len(pairs) == len(basis)
    coords = []
    for b in basis:
        w = la.solve(F, Phi, b.reshape(-1))
        assert w is not None
        coords.append(w)
    W = np.stack(coords)
    Gw = la.zeros(len(pairs), len(pairs))
    for a, (i, j) in enumerate(pairs):
        for b, (p, q) in enumerate(pairs):
            Gw[a, b] = F.mul(S[i, p], S[j, q]) ^ F.mul(S[i, q], S[j, p])
    G = la.mat_mul(F, la.mat_mul(F, W, Gw), W.T)
    assert la.rank(F, G) == len(basis)
    return G


# ----------------------------------------------------------------------
# JSON form of a functional


def dual_to_json(space: Space, X: np.ndarray) -> dict:
    toks = " ".join(space.field.format_element(int(x))
                    for x in np.asarray(X, dtype=np.uint8).reshape(-1))
    return {"kind": space.kind, "n": space.n,
            "field": space.field.header(), "X": toks}


def dual_from_json(obj: dict) -> tuple[Space, np.ndarray]:
    field = Field.from_header(obj["field"])
    space = Space(obj["kind"], int(obj["n"]), field)
    toks = obj["X"].split()
    if len(toks) != space.d * space.d:
        raise ValueError(f"X must have {space.d * space.d} entries")
    X = np.array([field.parse_element(t) for t in toks],
                 dtype=np.uint8).reshape(space.d, space.d)
    return space, X
