"""Classical groups in characteristic 2 and their coadjoint calculus.

Three kinds of space are supported, each with its standard forms:

  sp       dim 2n,   symplectic  beta(v,w) = v^t S w,  S = [[0,I],[I,0]]
  so-odd   dim 2n+1, quadratic   alpha(v) = v^t B v,   B = [[0,I,0],[0,0,0],[0,0,1]]
  so-even  dim 2n,   quadratic   alpha(v) = v^t B v,   B = [[0,I],[0,0]]

with beta the polarization B + B^t in the orthogonal kinds.  S swaps the
halves and kills the odd radical slot, so Space.apply_form applies it by
slicing.  A functional on the Lie algebra is carried as any matrix X with
xi(x) = tr(X x); two representatives are the same functional iff their
pairings with a basis of the algebra agree.  Matrices are linalg's lists
of int rows.

The bases are written down, not eliminated.  S only swaps rows, (S X)[i]
= X[sigma(i)] with sigma the swap of the halves, so x^t S + S x = 0 asks
S x to be symmetric: one free value per pair of flat slots
{sigma(i) d + j, sigma(j) d + i}, i < j < 2n, plus sigma(i) d + i for sp
(the orthogonal kinds keep S x alternating), plus the last row 2n d + j,
j < 2n, for so-odd, whose trace condition zeroes the corner.  These 0/1
supports are disjoint, so the elimination over d^2 unknowns returns
exactly them, the larger slot f of each its free column and the partner
p < f a pivot.  The private slot table lists them, (f, p) or (f,), by f
as kernel_basis does, and everything else is read off it.  The Borel b is
the entries upper triangular in flag order, named by their indices,
borel_coordinates, and its nilradical n the strictly upper ones,
borel_coordinates(strict=True).  Transposed, an entry gives its pairing
row's support, its selector; these are disjoint too, so the trace radical
is one vector per two-slot selector and a unit per slot outside them, and
dual_from_values, putting each value in its selector's last slot, writes
the canonical representative (the reduction modulo the radical's RREF)
with no solve.  algebra_coords reads the free slots, and
wedge_invariant_form pairs each entry with the entry whose slots are its
selector.  The tests hold all of it against the elimination up to rank
12.

The calculus attached to a functional:

  * module_endomorphism (sp, so-even): X + S (S X)^t, the endomorphism that
    turns the space into a module over the functional; for so-even this map
    is a bijection from functionals onto the Lie algebra itself;
  * alternating_gram (so-odd): the alternating matrix (S X)^t + S X, the
    Gram of the functional's bilinear form.

All of these are representative-independent, which the tests check by
perturbing X along the trace radical.  functional_from_gram solves
X^t S + S X = A in every kind (for sp, with the quadratic values diag(S X)
prescribed too), so one solve builds the symplectic normal forms, the odd
witnesses and algebra_to_dual, the inverse of the so-even bijection.

Nilpotency of a functional is defined through a fixed Borel subalgebra: the
functionals vanishing on it form the dual nilpotent cone's seed set.  The
Borel here is the triangular intersection in flag order: reorder the basis so
the pairing becomes antidiagonal (first half, defective vector if any, second
half reversed), and keep the algebra elements that are upper triangular in
that order.  Triangularity in the rough standard order is a strictly smaller
space for n >= 2 and is not a Borel.  Its nilradical n, the strictly upper
triangular elements, plays that part on the algebra side.  The functionals
vanishing on the Borel, b^perp, and n are both coordinate subspaces: b^perp
is the value vectors 0 at the Borel coordinates, n the elements whose
coordinates are 0 outside the strict ones, and oracle's one census rule
keeps the orbits that meet them.  The criterion form of nilpotency needs
the odd split and lives in odd_split (rational_label, which raises
NotNilpotentError on a functional that is not nilpotent).
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from . import linalg as la
from .finite_field import Field, field_for

KINDS = ("sp", "so-odd", "so-even")


def _dimension(kind: str, n: int) -> int:
    return 2 * n + 1 if kind == "so-odd" else 2 * n


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
        d = _dimension(kind, n)
        self.d = d
        B = la.zeros(d, d)
        for i in range(n):
            B[i][n + i] = 1
        if kind == "so-odd":
            B[2 * n][2 * n] = 1
        self.B = None if kind == "sp" else B
        self.S = la.add(B, la.transpose(B))
        self._table: list | None = None
        self._lie: list | None = None
        self._radical: list | None = None
        self._selectors: list | None = None

    def __repr__(self) -> str:
        return f"Space({self.kind}, n={self.n}, {self.field.header()})"

    # ------------------------------------------------------------------
    # forms

    def apply_form(self, M) -> list:
        """S M for a matrix or S v for a vector (rows copied, tuples
        accepted): the halves swapped, the odd radical row zero."""
        n, head = self.n, M[0]
        if not hasattr(head, "__len__"):
            return [*M[n:2 * n], *M[:n]] + [0] * (self.d - 2 * n)
        return [list(r) for r in M[n:2 * n]] + [list(r) for r in M[:n]] \
            + [[0] * len(head)] * (self.d - 2 * n)

    def alpha(self, v) -> int:
        if self.B is None:
            raise ValueError("sp spaces carry no ambient quadratic form")
        return la.dot(self.field, v, la.mat_vec(self.field, self.B, v))

    # ------------------------------------------------------------------
    # the slot table: algebra, Borel and radical bases written down

    def _slot_table(self) -> list[tuple[int, ...]]:
        "Entry k: the flat slots (f, p) or (f,) of lie_basis matrix k."
        if self._table is None:
            n, d = self.n, self.d
            sigma = [*range(n, 2 * n), *range(n)]
            table = [(max(s), min(s)) for s in (
                (sigma[i] * d + j, sigma[j] * d + i)
                for i in range(2 * n) for j in range(i + 1, 2 * n))]
            if self.kind == "sp":
                table += [(sigma[i] * d + i,) for i in range(2 * n)]
            elif self.kind == "so-odd":
                table += [(2 * n * d + j,) for j in range(2 * n)]
            self._table = sorted(table)
        return self._table

    def _matrices(self, entries) -> list[list[list[int]]]:
        "One 0/1 matrix per entry, 1 in the entry's flat slots."
        d, out = self.d, []
        for slots in entries:
            M = la.zeros(d, d)
            for s in slots:
                M[s // d][s % d] = 1
            out.append(M)
        return out

    def lie_basis(self) -> list[list[list[int]]]:
        "Echelonized basis of the algebra: a list of dim matrices."
        if self._lie is None:
            self._lie = self._matrices(self._slot_table())
        return self._lie

    @property
    def dim_algebra(self) -> int:
        return len(self._slot_table())

    def flag_order(self) -> list[int]:
        "Basis order in which the pairing is antidiagonal."
        n = self.n
        if self.kind == "so-odd":
            return list(range(n)) + [2 * n] + list(range(2 * n - 1, n - 1, -1))
        return list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def borel_coordinates(self, strict: bool = False) -> list[int]:
        """Indices of the table entries upper triangular in flag order, the
        Borel b, or with strict the strictly upper ones, its nilradical n."""
        d, pos = self.d, [0] * self.d
        for i, v in enumerate(self.flag_order()):
            pos[v] = i
        return [k for k, slots in enumerate(self._slot_table())
                if all(pos[s // d] + strict <= pos[s % d] for s in slots)]

    def _pairing_selectors(self) -> list[list[int]]:
        """Per basis matrix b of the algebra, the nonzero positions of its
        pairing row, so tr(X b) is the sum of X's flat entries there."""
        if self._selectors is None:
            d = self.d
            self._selectors = [sorted(s % d * d + s // d for s in slots)
                               for slots in self._slot_table()]
        return self._selectors

    # ------------------------------------------------------------------
    # functionals: tr-pairing, radical, canonical representatives

    def pairing_vector(self, X) -> tuple[int, ...]:
        "Values of the functional on the algebra basis."
        at = la.flatten(X).__getitem__
        return tuple(reduce(xor, map(at, sel), 0)
                     for sel in self._pairing_selectors())

    def dual_equal(self, X, Y) -> bool:
        return self.pairing_vector(X) == self.pairing_vector(Y)

    def dual_from_values(self, values) -> list[list[int]]:
        "The canonical representative X whose pairing_vector is `values`."
        if len(values) != self.dim_algebra:
            raise ValueError("need one value per algebra basis element")
        X = [0] * self.d ** 2
        for sel, v in zip(self._pairing_selectors(), values):
            X[sel[-1]] = v
        return la.reshape(X, self.d)

    def trace_radical_basis(self) -> list[list[list[int]]]:
        "Matrices pairing to zero with the whole algebra."
        if self._radical is None:
            sels = self._pairing_selectors()
            held = {s for sel in sels for s in sel}
            self._radical = self._matrices(sorted(
                [sel for sel in sels if len(sel) == 2]
                + [(s,) for s in range(self.d ** 2) if s not in held],
                key=max))
        return self._radical


def space_for(kind: str, n: int, e: int = 1) -> Space:
    return Space(kind, n, field_for(e))


# the most points (keys) oracle's exhaustive census enumerates in one dual
POINT_LIMIT = 1 << 21


def even_reach(e: int) -> int:
    """The largest rank whose so-even dual over GF(2^e), q^(n (2n - 1))
    points, fits POINT_LIMIT: the census's reach in that family."""
    n = 1
    while 1 << e * (n + 1) * (2 * n + 1) <= POINT_LIMIT:
        n += 1
    return n


# ----------------------------------------------------------------------
# group elements


def preserves_form(space: Space, g) -> bool:
    F = space.field
    if len(g) != space.d or any(len(r) != space.d for r in g):
        return False
    gt = la.transpose(g)
    if space.kind == "sp":
        return la.mat_mul(F, la.mat_mul(F, gt, space.S), g) == space.S
    return is_alternating(la.add(la.mat_mul(F, la.mat_mul(F, gt, space.B), g),
                                 space.B))


def coadjoint(space: Space, g, X) -> list[list[int]]:
    "Representative of the functional moved by g: X -> g X g^{-1}."
    if not preserves_form(space, g):
        raise ValueError("g does not preserve the form")
    F = space.field
    return la.mat_mul(F, la.mat_mul(F, g, X), la.inverse(F, g))


def _rank_one_update(F: Field, u, w) -> list[list[int]]:
    "The identity plus the outer product u w^t."
    MUL = F.mul_table
    t = la.identity(len(u))
    for i, a in enumerate(u):
        if a:
            t[i] = [x ^ MUL[a][y] for x, y in zip(t[i], w)]
    return t


def symplectic_transvection(space: Space, v, c: int) -> list[list[int]]:
    "x -> x + c beta(x, v) v; in the group for every v and scalar c."
    assert space.kind == "sp"
    F = space.field
    return _rank_one_update(F, la.scale(F, c, v), space.apply_form(v))


def orthogonal_transvection(space: Space, v) -> list[list[int]]:
    "x -> x + (beta(x,v)/alpha(v)) v; needs alpha(v) != 0."
    assert space.kind != "sp"
    F = space.field
    a = space.alpha(v)
    if a == 0:
        raise ValueError("transvection vector must have nonzero alpha")
    return _rank_one_update(F, la.scale(F, F.inv(a), v), space.apply_form(v))


def pair_swap(space: Space) -> list[list[int]]:
    "The swap (e_1, f_1) <-> (e_2, f_2) of the first two hyperbolic pairs."
    n = space.n
    perm = list(range(space.d))
    perm[0], perm[1], perm[n], perm[n + 1] = 1, 0, n + 1, n
    rows = la.identity(space.d)
    return [rows[i] for i in perm]


def random_group_element(space: Space, rng) -> list[list[int]]:
    """Product of 8 random transvections (a group element, not uniformly
    drawn).

    rng is a numpy Generator.  In the even orthogonal kind with n >= 2 each
    step is the pair swap with probability 1/2, since reflections alone can
    miss a coset of the group.
    """
    F = space.field
    g = la.identity(space.d)
    done = 0
    while done < 8:
        if space.kind == "so-even" and space.n >= 2 and rng.integers(0, 2):
            g = la.mat_mul(F, g, pair_swap(space))
            done += 1
            continue
        v = rng.integers(0, F.q, size=space.d, dtype="uint8").tolist()
        if not any(v):
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


def module_endomorphism(space: Space, X) -> list[list[int]]:
    "X + S X^t S = X + S (S X)^t.  For sp and so-even; self-adjoint."
    if space.kind == "so-odd":
        raise ValueError("no direct module endomorphism in the odd kind")
    return la.add(X, space.apply_form(la.transpose(space.apply_form(X))))


def alternating_gram(space: Space, X) -> list[list[int]]:
    "(S X)^t + S X: the alternating pairing matrix of an odd functional."
    assert space.kind == "so-odd"
    SX = space.apply_form(X)
    return la.add(SX, la.transpose(SX))


def is_alternating(A) -> bool:
    "Symmetric with zero diagonal."
    return A == la.transpose(A) and not any(r[i] for i, r in enumerate(A))


def functional_from_gram(F: Field, S, A, quad=None) -> list[list[int]]:
    """X = S (triu(A, 1) + diag(quad)), a solution of X^t S + S X = A.

    Valid for the S of every kind: S^2 is the identity except at the odd
    radical slot, whose row the strict upper triangle leaves empty.  For
    sp, quad prescribes diag(S X), the functional's quadratic values.
    """
    if not is_alternating(A):
        raise ValueError("the Gram must be alternating")
    M = [[x if j > i else 0 for j, x in enumerate(r)] for i, r in enumerate(A)]
    if quad is not None:
        for i, x in enumerate(quad):
            M[i][i] = x
    return la.mat_mul(F, S, M)


def algebra_coords(space: Space, T) -> list[int]:
    "Coordinates of T in the lie_basis; raises if T is outside the algebra."
    if not in_algebra(space, T):
        raise ValueError("matrix is not in the algebra")
    d = space.d
    return [T[f // d][f % d] for f, *_ in space._slot_table()]


def in_algebra(space: Space, T) -> bool:
    ST = space.apply_form(T)  # T^t S is its transpose
    if ST != la.transpose(ST) or (space.kind != "sp"
                                  and any(r[i] for i, r in enumerate(ST))):
        return False
    return not (space.kind == "so-odd" and la.mat_trace(space.field, T))


def algebra_to_dual(space: Space, T) -> list[list[int]]:
    """Inverse of module_endomorphism on so-even: some X with X + S X^t S = T.

    S X + X^t S = S T, so X is the functional with Gram S T.
    """
    assert space.kind == "so-even"
    if not in_algebra(space, T):
        raise ValueError("matrix is not in the algebra")
    return functional_from_gram(space.field, space.S, space.apply_form(T))


# ----------------------------------------------------------------------
# invariant form on the even-orthogonal algebra (wedge construction)


def wedge_invariant_form(space: Space) -> list[list[int]]:
    """Gram matrix, in the lie_basis coordinates, of the invariant pairing
    on the even-orthogonal algebra.

    The algebra is identified with the second wedge power of the natural
    module by a.b -> (v -> beta(a,v) b + beta(b,v) a), and the pairing of
    two wedges is the determinant of their cross pairings.  The wedge
    e_i.e_j is the table entry with slots j d + sigma(i) and i d + sigma(j),
    and beta pairs e_i with e_sigma(i) alone, so two entries pair to 1
    exactly when one's slots are the other's transposed: entry k pairs with
    the entry whose slots are k's selector.  The Gram is a permutation
    matrix; its nondegeneracy is asserted.
    """
    assert space.kind == "so-even"
    index = {slots: k for k, slots in enumerate(space._slot_table())}
    G = [[0] * space.dim_algebra for _ in range(space.dim_algebra)]
    for row, sel in zip(G, space._pairing_selectors()):
        row[index[tuple(reversed(sel))]] = 1
    assert la.rank(space.field, G) == space.dim_algebra
    return G


# ----------------------------------------------------------------------
# JSON form of a functional


def dual_to_json(space: Space, X) -> dict:
    toks = " ".join(space.field.format_element(x) for x in la.flatten(X))
    return {"kind": space.kind, "n": space.n,
            "field": space.field.header(), "X": toks}


def dual_parts_from_json(obj: dict) -> tuple[str, int, Field, list[list[int]]]:
    """The kind, rank, field and functional of dual_to_json's form.

    Every field is checked, and the entry count of X against the kind and
    rank, and no space is built, so a huge rank costs nothing.
    """
    field = Field.from_header(obj["field"])
    kind, n, text = obj["kind"], obj["n"], obj["X"]
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(text, str):
        raise ValueError("X must be a string of hex entries")
    toks = text.split()
    d = _dimension(kind, n)
    if len(toks) != d * d:
        raise ValueError(f"X must have {d * d} entries, got {len(toks)}")
    X = la.reshape([field.parse_element(t) for t in toks], d)
    return kind, n, field, X
