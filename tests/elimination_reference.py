"""Scalar Gaussian elimination over GF(2^e): the tests' reference for the
packed-row elimination in linalg.

Every entry goes through Field.mul and Field.inv one at a time, with no
lookup table and no packing, so the reference shares nothing with the
code it checks except the field arithmetic, which test_finite_field holds
against a frozen table.
"""

from __future__ import annotations


def _copy(A):
    return [[int(x) for x in row] for row in A]


def rref(F, A, cols=None):
    """Reduced row echelon form and pivot columns, pivoting in the first
    `cols` columns (all of them by default)."""
    R = _copy(A)
    m = len(R)
    n = len(R[0]) if R else 0
    cols = n if cols is None else cols
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, m) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                a = R[i][c]
                R[i] = [x ^ F.mul(a, y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F, A):
    return len(rref(F, A)[1])


def mat_mul(F, A, B):
    return [[_dot(F, row, col) for col in zip(*B)] for row in A]


def _dot(F, v, w):
    s = 0
    for a, b in zip(v, w):
        s ^= F.mul(a, b)
    return s


def kernel_basis(F, A, n):
    "Right kernel of the n-column matrix A, one vector per free column."
    R, pivots = rref(F, A) if A else ([], [])
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for row, p in zip(R, pivots):
            v[p] = row[f]
        out.append(v)
    return out


def solve(F, A, b, n):
    "The solution of A x = b with free coordinates 0, or None."
    R, pivots = rref(F, [list(row) + [y] for row, y in zip(A, b)])
    if n in pivots:
        return None
    x = [0] * n
    for row, p in zip(R, pivots):
        x[p] = row[n]
    return x


def inverse(F, A):
    "The inverse of a square matrix, or None when it is singular."
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    R, pivots = rref(F, aug, cols=n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in R]


def jordan_partition(F, A):
    "Jordan block sizes of a nilpotent matrix from the ranks of its powers."
    n = len(A)
    ranks = [n]
    P = _copy(A)
    while ranks[-1] and len(ranks) <= n:
        ranks.append(rank(F, P))
        P = mat_mul(F, P, A)
    ranks.append(0)
    parts = []
    for m in range(1, len(ranks) - 1):
        parts += [m] * (ranks[m - 1] - 2 * ranks[m] + ranks[m + 1])
    return sorted(parts, reverse=True)
