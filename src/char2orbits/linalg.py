"""Dense linear algebra over GF(2^e).

A matrix is a list of rows and a vector a list, of field element codes
(see finite_field).  Every function also accepts any sequence of int rows,
numpy uint8 arrays included, and returns fresh lists.  A row list with no
rows records no width and counts as zero columns; a numpy array keeps its
shape.

Inside, a row packs into one Python int with one byte per entry (entry j in
byte j): XOR adds two rows, and bytes.translate with the field's
scale_bytes table scales one.  One Gaussian elimination on packed rows,
_eliminate, serves rref, rank, kernel_basis, solve and inverse over every
field.  quad_matrix and quad_values evaluate a quadratic form given by its
basis values and polar Gram; the form modules, the odd split and the
isometry search share them.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import getitem, xor

from .finite_field import Field


def _rows(A):
    "A as a sequence of int rows, converting numpy arrays."
    if type(A) is list and (not A or type(A[0]) is list):
        return A
    if hasattr(A, "tolist"):
        return A.tolist()
    if len(A) and hasattr(A[0], "tolist"):
        return [r.tolist() for r in A]
    return A


def _vec(v):
    return v.tolist() if hasattr(v, "tolist") else v


def _pack(row) -> int:
    return int.from_bytes(bytes(row), "little")


def _unpack(r: int, n: int) -> list[int]:
    return list(r.to_bytes(n, "little"))


def _width(A, rows) -> int:
    "Column count; a numpy array keeps it even without rows."
    if rows:
        return len(rows[0])
    return A.shape[-1] if hasattr(A, "shape") else 0


def as_matrix(A) -> list[list[int]]:
    "A fresh list of int rows from any row sequence."
    return [list(r) for r in _rows(A)]


def identity(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i, r in enumerate(out):
        r[i] = 1
    return out


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def transpose(A) -> list[list[int]]:
    return [list(c) for c in zip(*_rows(A))]


def add(A, B) -> list[list[int]]:
    "A + B, entrywise XOR."
    return [[a ^ b for a, b in zip(r, s)] for r, s in zip(_rows(A), _rows(B))]


def flatten(A) -> list[int]:
    "The entries of A row by row."
    return [x for r in _rows(A) for x in r]


def reshape(v, d: int) -> list[list[int]]:
    "The d-column matrix whose rows are consecutive slices of v."
    v = _vec(v)
    return [list(v[i:i + d]) for i in range(0, len(v), d)]


def mat_mul(F: Field, A, B) -> list[list[int]]:
    """A B.  Row i of the product is the sum of A[i][j] B[j] over packed
    rows of B: over F_2 the rows A[i] selects, else each row scaled by
    translating its bytes."""
    rows_a, rows_b = _rows(A), _rows(B)
    k = len(rows_b)
    if rows_a and len(rows_a[0]) != k:
        raise ValueError(f"inner dimensions {len(rows_a[0])} and {k} differ")
    n = _width(B, rows_b)
    if k == 0 or n == 0:
        return zeros(len(rows_a), n)
    fb = int.from_bytes
    if F.q == 2:
        packed = [fb(bytes(r), "little") for r in rows_b]
        return [list(reduce(xor, compress(packed, a), 0).to_bytes(n, "little"))
                for a in rows_a]
    tables = F.scale_bytes
    packed = [bytes(r) for r in rows_b]
    out = []
    for a in rows_a:
        acc = 0
        for c, b in zip(a, packed):
            if c:
                acc ^= fb(b.translate(tables[c]), "little")
        out.append(_unpack(acc, n))
    return out


def mat_vec(F: Field, A, v) -> list[int]:
    MUL = F.mul_table
    cols = [MUL[x] for x in _vec(v)]
    return [reduce(xor, map(getitem, cols, r), 0) for r in _rows(A)]


def dot(F: Field, v, w) -> int:
    MUL = F.mul_table
    return reduce(xor, map(getitem, [MUL[x] for x in _vec(v)], _vec(w)), 0)


def scale(F: Field, c: int, A):
    "c A, for a vector or a matrix."
    A = _rows(A)
    if len(A) and hasattr(A[0], "__len__"):
        return [scale(F, c, r) for r in A]
    row = F.mul_table[c]
    return [row[x] for x in A]


def mat_pow(F: Field, A, k: int) -> list[list[int]]:
    A = _rows(A)
    n = len(A)
    assert all(len(r) == n for r in A)
    R = identity(n)
    P = A
    while k:
        if k & 1:
            R = mat_mul(F, R, P)
        k >>= 1
        if k:
            P = mat_mul(F, P, P)
    return R


def mat_trace(F: Field, A) -> int:
    return reduce(xor, (r[i] for i, r in enumerate(_rows(A))), 0)


def is_zero(A) -> bool:
    "Whether every entry of the matrix is 0."
    return not any(any(r) for r in _rows(A))


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
    rows = _rows(A)
    n = _width(A, rows)
    packed = [_pack(r) for r in rows]
    pivots = _eliminate(F, packed, n, n)
    return [_unpack(r, n) for r in packed], pivots


def reduce_modulo(F: Field, R, pivots, v) -> list[int]:
    """v minus its combination of the rows of an RREF R (pivot columns
    `pivots`) that clears v at every pivot: the canonical coset member."""
    n = len(v)
    tables = F.scale_bytes
    x = _pack(_vec(v))
    for r, p in zip(_rows(R), pivots):
        a = x >> 8 * p & 255
        if a:
            x ^= int.from_bytes(bytes(r).translate(tables[a]), "little")
    return _unpack(x, n)


def rank(F: Field, A) -> int:
    rows = _rows(A)
    n = _width(A, rows)
    return len(_eliminate(F, [_pack(r) for r in rows], n, n))


def kernel_basis(F: Field, A) -> list[list[int]]:
    """Rows form a deterministic basis of the right kernel of A.

    One basis vector per free column f: put 1 in slot f and copy the pivot
    column of the RREF into the pivot slots.  The result is itself in echelon
    form with respect to the free columns, so callers get a stable answer.
    """
    rows = _rows(A)
    n = _width(A, rows)
    packed = [_pack(r) for r in rows]
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
    rows, b = _rows(A), _vec(b)
    n = _width(A, rows)
    if len(b) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(b)} right-hand sides")
    sh = 8 * n
    packed = [_pack(r) | y << sh for r, y in zip(rows, b)]
    pivots = _eliminate(F, packed, n + 1, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for r, p in zip(packed, pivots):
        x[p] = r >> sh & 255
    return x


def inverse(F: Field, A) -> list[list[int]]:
    rows = _rows(A)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("only square matrices have inverses")
    sh = 8 * n
    packed = [_pack(r) | 1 << (sh + 8 * i) for i, r in enumerate(rows)]
    if len(_eliminate(F, packed, n, 2 * n)) != n:
        raise ValueError("matrix is singular")
    return [_unpack(r >> sh, n) for r in packed]


# ----------------------------------------------------------------------
# nilpotency


def is_nilpotent(F: Field, A) -> bool:
    B = _rows(A)
    n = len(B)
    assert all(len(r) == n for r in B)
    e = 1
    while e < n:
        B = mat_mul(F, B, B)
        e *= 2
    return is_zero(B)


def jordan_partition(F: Field, A) -> list[int]:
    """Jordan block sizes of a nilpotent matrix, largest first.

    The number of blocks of size exactly m is
    rank(A^(m-1)) - 2 rank(A^m) + rank(A^(m+1)).
    """
    A = _rows(A)
    n = len(A)
    if not is_nilpotent(F, A):
        raise ValueError("matrix is not nilpotent")
    ranks = [n]
    P = A
    while True:
        r = rank(F, P)
        ranks.append(r)
        if r == 0:
            break
        P = mat_mul(F, P, A)
    ranks.append(0)
    parts: list[int] = []
    for m in range(1, len(ranks) - 1):
        mult = ranks[m - 1] - 2 * ranks[m] + ranks[m + 1]
        parts.extend([m] * mult)
    parts.sort(reverse=True)
    assert sum(parts) == n
    return parts


# ----------------------------------------------------------------------
# quadratic forms


def quad_matrix(F: Field, quad, polar) -> list[list[int]]:
    """Upper-triangular matrix U with v^t U v the quadratic form that takes
    the values `quad` on the basis and polarizes to `polar`."""
    U = as_matrix(polar)
    for i, r in enumerate(U):
        r[:i + 1] = [0] * i + [int(quad[i])]
    return U


def quad_values(F: Field, U, rows) -> list[int]:
    "Quadratic form v^t U v of each row v of `rows`."
    rows = as_matrix(rows)
    if not rows:
        return []
    return [dot(F, t, v) for t, v in zip(mat_mul(F, rows, U), rows)]
