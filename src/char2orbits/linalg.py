"""Dense linear algebra over GF(2^e).

A matrix is a 2-D numpy array of dtype uint8 whose entries are field element
codes (see finite_field).  Arithmetic routes through the field's cached
multiplication table with fancy indexing; addition is XOR.

Gaussian elimination has two implementations: the generic table-driven one,
and a packed fast path for GF(2) where every row lives in a single Python int
(bit j = column j).  rank / rref / kernel / solve dispatch to the packed path
automatically when the field is GF(2); the two are differentially tested.
"""

from __future__ import annotations

import numpy as np

from .finite_field import Field


def as_matrix(rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.uint8)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    assert A.ndim == 2
    return A


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.uint8)


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = as_matrix(A)
    B = as_matrix(B)
    m, k = A.shape
    k2, n = B.shape
    assert k == k2, (A.shape, B.shape)
    if k == 0 or m == 0 or n == 0:
        return zeros(m, n)
    prod = F.mul_table[A[:, :, None], B[None, :, :]]
    return np.bitwise_xor.reduce(prod, axis=1)


def mat_vec(F: Field, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.uint8).reshape(-1, 1)).reshape(-1)


def dot(F: Field, v: np.ndarray, w: np.ndarray) -> int:
    v = np.asarray(v, dtype=np.uint8)
    w = np.asarray(w, dtype=np.uint8)
    if v.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(F.mul_table[v, w]))


def scale(F: Field, c: int, A: np.ndarray) -> np.ndarray:
    return F.mul_table[c, np.asarray(A, dtype=np.uint8)]


def mat_pow(F: Field, A: np.ndarray, k: int) -> np.ndarray:
    n = A.shape[0]
    assert A.shape == (n, n)
    R = identity(n)
    P = A.copy()
    while k:
        if k & 1:
            R = mat_mul(F, R, P)
        k >>= 1
        if k:
            P = mat_mul(F, P, P)
    return R


def mat_trace(F: Field, A: np.ndarray) -> int:
    d = np.diagonal(A)
    if d.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(d))


# ----------------------------------------------------------------------
# Gaussian elimination


def _rref_generic(F: Field, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    R = as_matrix(A).copy()
    m, n = R.shape
    MUL = F.mul_table
    INV = F.inv_table
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        R[r] = MUL[INV[R[r, c]], R[r]]
        col = R[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            R[nz] ^= MUL[col[nz][:, None], R[r][None, :]]
        pivots.append(c)
        r += 1
    return R, pivots


def pack_rows(A: np.ndarray) -> list[int]:
    "GF(2) rows as ints, bit j = column j."
    A = as_matrix(A)
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in A]


def unpack_rows(rows: list[int], n: int) -> np.ndarray:
    out = zeros(len(rows), n)
    for i, r in enumerate(rows):
        for j in range(n):
            if r >> j & 1:
                out[i, j] = 1
    return out


def _rref_packed(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    rows = list(rows)
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        bit = 1 << c
        p = next((i for i in range(r, m) if rows[i] & bit), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r]
        for i in range(m):
            if i != r and rows[i] & bit:
                rows[i] ^= piv
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(F: Field, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    A = as_matrix(A)
    if F.e == 1 and A.size:
        rows, pivots = _rref_packed(pack_rows(A), A.shape[1])
        return unpack_rows(rows, A.shape[1]), pivots
    return _rref_generic(F, A)


def rank(F: Field, A: np.ndarray) -> int:
    return len(rref(F, A)[1])


def kernel_basis(F: Field, A: np.ndarray) -> np.ndarray:
    """Rows form a deterministic basis of the right kernel of A.

    One basis vector per free column f: put 1 in slot f and copy the pivot
    column of the RREF into the pivot slots.  The result is itself in echelon
    form with respect to the free columns, so callers get a stable answer.
    """
    A = as_matrix(A)
    n = A.shape[1]
    R, pivots = rref(F, A)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    out = zeros(len(free), n)
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, p in enumerate(pivots):
            out[k, p] = R[i, f]
    return out


def solve(F: Field, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of A x = b with free coordinates 0, or None."""
    A = as_matrix(A)
    b = np.asarray(b, dtype=np.uint8).reshape(-1)
    m, n = A.shape
    assert b.shape == (m,)
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(F, aug)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = R[i, n]
    return x


def inverse(F: Field, A: np.ndarray) -> np.ndarray:
    A = as_matrix(A)
    n = A.shape[0]
    assert A.shape == (n, n)
    R, pivots = rref(F, np.concatenate([A, identity(n)], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:].copy()


# ----------------------------------------------------------------------
# nilpotency


def is_nilpotent(F: Field, A: np.ndarray) -> bool:
    A = as_matrix(A)
    n = A.shape[0]
    assert A.shape == (n, n)
    if n == 0:
        return True
    B = A.copy()
    e = 1
    while e < n:
        B = mat_mul(F, B, B)
        e *= 2
    return not B.any()


def jordan_partition(F: Field, A: np.ndarray) -> list[int]:
    """Jordan block sizes of a nilpotent matrix, largest first.

    The number of blocks of size exactly m is
    rank(A^(m-1)) - 2 rank(A^m) + rank(A^(m+1)).
    """
    A = as_matrix(A)
    n = A.shape[0]
    if not is_nilpotent(F, A):
        raise ValueError("matrix is not nilpotent")
    ranks = [n]
    P = identity(n)
    while True:
        P = mat_mul(F, P, A)
        r = rank(F, P)
        ranks.append(r)
        if r == 0:
            break
    ranks.append(0)
    parts: list[int] = []
    for m in range(1, len(ranks) - 1):
        mult = ranks[m - 1] - 2 * ranks[m] + ranks[m + 1]
        parts.extend([m] * mult)
    parts.sort(reverse=True)
    assert sum(parts) == n
    return parts
