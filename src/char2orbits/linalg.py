"""Dense linear algebra over GF(2^e).

A matrix is a list of rows and a vector a list, of int field element
codes (see finite_field); every function returns fresh lists.  A row list
with no rows records no width and counts as zero columns.

Inside, a row packs into one Python int with one byte per entry (entry j in
byte j): XOR adds two rows, and bytes.translate with the field's
scale_bytes table scales one.  One Gaussian elimination on packed rows,
_eliminate, serves rref, rank, kernel_basis, solve and solve_matrix (A^-1 B
from [A | B]; inverse solves against I) over every field.  power_ladder
walks the powers A^0..A^k of a nilpotent matrix once, returns their ranks
and kernel bases, and returns None for any other matrix, so it is also the
package's one nilpotency test; the Jordan type is read off the ranks
(ladder_partition), and a form module keeps the kernels.
quad_matrix and quad_values evaluate a quadratic form given by its basis
values and polar Gram; the form modules, the odd split and the isometry
search share them.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import getitem, xor

from .finite_field import Field


def _pack(row) -> int:
    return int.from_bytes(bytes(row), "little")


def _unpack(r: int, n: int) -> list[int]:
    return list(r.to_bytes(n, "little"))


def _width(A) -> int:
    "Column count; a row list with no rows has none."
    return len(A[0]) if A else 0


def as_matrix(A) -> list[list[int]]:
    "A fresh copy of the rows of A."
    return [list(r) for r in A]


def identity(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i, r in enumerate(out):
        r[i] = 1
    return out


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def transpose(A) -> list[list[int]]:
    return [list(c) for c in zip(*A)]


def add(A, B) -> list[list[int]]:
    "A + B, entrywise XOR."
    return [[a ^ b for a, b in zip(r, s)] for r, s in zip(A, B)]


def flatten(A) -> list[int]:
    "The entries of A row by row."
    return [x for r in A for x in r]


def reshape(v, d: int) -> list[list[int]]:
    "The d-column matrix whose rows are consecutive slices of v."
    return [v[i:i + d] for i in range(0, len(v), d)]


def mat_mul(F: Field, A, B) -> list[list[int]]:
    """A B.  Row i of the product is the sum of A[i][j] B[j] over packed
    rows of B: over F_2 the rows A[i] selects, else each row scaled by
    translating its bytes."""
    k = len(B)
    if A and len(A[0]) != k:
        raise ValueError(f"inner dimensions {len(A[0])} and {k} differ")
    n = _width(B)
    if k == 0 or n == 0:
        return zeros(len(A), n)
    fb = int.from_bytes
    if F.q == 2:
        packed = [fb(bytes(r), "little") for r in B]
        return [list(reduce(xor, compress(packed, a), 0).to_bytes(n, "little"))
                for a in A]
    tables = F.scale_bytes
    packed = [bytes(r) for r in B]
    out = []
    for a in A:
        acc = 0
        for c, b in zip(a, packed):
            if c:
                acc ^= fb(b.translate(tables[c]), "little")
        out.append(_unpack(acc, n))
    return out


def mat_vec(F: Field, A, v) -> list[int]:
    MUL = F.mul_table
    cols = [MUL[x] for x in v]
    return [reduce(xor, map(getitem, cols, r), 0) for r in A]


def dot(F: Field, v, w) -> int:
    MUL = F.mul_table
    return reduce(xor, map(getitem, [MUL[x] for x in v], w), 0)


def scale(F: Field, c: int, A):
    "c A, for a vector or a matrix."
    if A and type(A[0]) is list:
        return [scale(F, c, r) for r in A]
    row = F.mul_table[c]
    return [row[x] for x in A]


def mat_trace(F: Field, A) -> int:
    return reduce(xor, (r[i] for i, r in enumerate(A)), 0)


def is_zero(A) -> bool:
    "Whether every entry of the matrix is 0."
    return not any(any(r) for r in A)


# ----------------------------------------------------------------------
# Gaussian elimination


def _eliminate(F: Field, rows: list[int], cols: int, width: int) -> list[int]:
    """Reduce packed rows in place, pivoting in the first `cols` columns of
    `width`; returns the pivot columns.

    Each pivot row is scaled to a leading 1 and cleared out of every other
    row, so the result is the reduced row echelon form.
    """
    tables, inv = F.scale_bytes, F.inv_table
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        sh = 8 * c
        for p in range(r, m):
            if rows[p] >> sh & 255:
                break
        else:
            continue
        piv = rows[p]
        a = piv >> sh & 255
        if a != 1:
            piv = int.from_bytes(
                piv.to_bytes(width, "little").translate(tables[inv[a]]), "little")
        rows[p] = rows[r]
        rows[r] = piv
        raw = None
        for i in range(m):
            a = rows[i] >> sh & 255
            if a and i != r:
                if a == 1:
                    rows[i] ^= piv
                else:
                    raw = raw or piv.to_bytes(width, "little")
                    rows[i] ^= int.from_bytes(raw.translate(tables[a]), "little")
        pivots.append(c)
        r += 1
    return pivots


def rref(F: Field, A) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    n = _width(A)
    packed = [_pack(r) for r in A]
    pivots = _eliminate(F, packed, n, n)
    return [_unpack(r, n) for r in packed], pivots


def reduce_modulo(F: Field, R, pivots, v) -> list[int]:
    """v minus its combination of the rows of an RREF R (pivot columns
    `pivots`) that clears v at every pivot: the canonical coset member."""
    n = len(v)
    tables = F.scale_bytes
    x = _pack(v)
    for r, p in zip(R, pivots):
        a = x >> 8 * p & 255
        if a:
            x ^= int.from_bytes(bytes(r).translate(tables[a]), "little")
    return _unpack(x, n)


def rank(F: Field, A) -> int:
    n = _width(A)
    return len(_eliminate(F, [_pack(r) for r in A], n, n))


def kernel_basis(F: Field, A) -> list[list[int]]:
    """Rows form a deterministic basis of the right kernel of A.

    One basis vector per free column f: put 1 in slot f and copy the pivot
    column of the RREF into the pivot slots.  The result is itself in echelon
    form with respect to the free columns, so callers get a stable answer.
    """
    n = _width(A)
    packed = [_pack(r) for r in A]
    pivots = _eliminate(F, packed, n, n)
    pivset = set(pivots)
    out = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = 1
        sh = 8 * f
        for r, p in zip(packed, pivots):
            v[p] = r >> sh & 255
        out.append(v)
    return out


def solve(F: Field, A, b) -> list[int] | None:
    """One solution of A x = b with free coordinates 0, or None."""
    n = _width(A)
    if len(b) != len(A):
        raise ValueError(f"{len(A)} equations but {len(b)} right-hand sides")
    sh = 8 * n
    packed = [_pack(r) | y << sh for r, y in zip(A, b)]
    pivots = _eliminate(F, packed, n + 1, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for r, p in zip(packed, pivots):
        x[p] = r >> sh & 255
    return x


def solve_matrix(F: Field, A, B) -> list[list[int]] | None:
    "A^-1 B by one elimination of [A | B]; None when A is singular."
    n, k, sh = len(A), _width(B), 8 * len(A)
    if any(len(r) != n for r in A) or len(B) != n:
        raise ValueError("A must be square, with one row of B per row")
    packed = [_pack(r) | _pack(b) << sh for r, b in zip(A, B)]
    if len(_eliminate(F, packed, n, n + k)) != n:
        return None
    return [_unpack(r >> sh, k) for r in packed]


def inverse(F: Field, A) -> list[list[int]]:
    X = solve_matrix(F, A, identity(len(A)))
    if X is None:
        raise ValueError("matrix is singular")
    return X


# ----------------------------------------------------------------------
# nilpotency


def power_ladder(F: Field, A):
    """The ranks and kernel bases of the powers A^0..A^k of a square matrix,
    k its nilpotency index (A^k = 0 != A^(k-1)); None if A is not nilpotent.

    Ranks of powers fall until they stay put, and once a rank repeats the
    powers keep it, so a repeat above 0 settles that A is not nilpotent.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("only square matrices have powers")
    ranks, kernels = [n], [[]]
    P = A
    while ranks[-1]:
        K = kernel_basis(F, P)
        if n - len(K) == ranks[-1]:
            return None
        ranks.append(n - len(K))
        kernels.append(K)
        if ranks[-1]:
            P = mat_mul(F, P, A)
    return ranks, kernels


def ladder_partition(ranks) -> list[int]:
    """Jordan block sizes, largest first, from the ranks of A^0..A^k.

    The number of blocks of size exactly m is
    rank(A^(m-1)) - 2 rank(A^m) + rank(A^(m+1)).
    """
    r = list(ranks) + [0]
    parts: list[int] = []
    for m in range(len(r) - 2, 0, -1):
        parts += [m] * (r[m - 1] - 2 * r[m] + r[m + 1])
    return parts


# ----------------------------------------------------------------------
# quadratic forms


def quad_matrix(F: Field, quad, polar) -> list[list[int]]:
    """Upper-triangular matrix U with v^t U v the quadratic form that takes
    the values `quad` on the basis and polarizes to `polar`."""
    U = as_matrix(polar)
    for i, r in enumerate(U):
        r[:i + 1] = [0] * i + [quad[i]]
    return U


def quad_values(F: Field, U, rows) -> list[int]:
    "Quadratic form v^t U v of each row v of `rows`."
    if not rows:
        return []
    return [dot(F, t, v) for t, v in zip(mat_mul(F, rows, U), rows)]
