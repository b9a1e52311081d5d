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


# ----------------------------------------------------------------------
# a classical space's bases by elimination over d^2 unknowns: the
# reference for classical's slot table


def condition_rows(space, extra_zero_positions=()):
    """Constraint matrix whose right kernel (in x-coordinates) is the
    algebra: rows for x^t S + S x = 0, plus alternating-diagonal and
    trace rows for the orthogonal kinds, plus forced-zero entries."""
    d, S = space.d, space.S
    ncond = d * d + (d if space.kind != "sp" else 0) \
        + (1 if space.kind == "so-odd" else 0) + len(extra_zero_positions)
    rows = [[0] * (d * d) for _ in range(ncond)]
    for a in range(d):
        for b in range(d):
            var = a * d + b
            for j in range(d):
                rows[b * d + j][var] ^= S[a][j]
                rows[j * d + b][var] ^= S[j][a]
            if space.kind != "sp":
                rows[d * d + b][var] = S[a][b]
            if space.kind == "so-odd" and a == b:
                rows[d * d + d][var] = 1
    for k, (i, j) in enumerate(extra_zero_positions):
        rows[ncond - len(extra_zero_positions) + k][i * d + j] = 1
    return rows


def _matrices(vectors, d):
    return [[v[i:i + d] for i in range(0, d * d, d)] for v in vectors]


def lie_basis(F2, space):
    "Kernel basis of the algebra conditions over F_2, as matrices."
    d = space.d
    return _matrices(kernel_basis(F2, condition_rows(space), d * d), d)


def borel_basis(F2, space):
    "The algebra elements with zeros below the diagonal in flag order."
    d, sigma = space.d, space.flag_order()
    below = [(sigma[i], sigma[j]) for i in range(d) for j in range(i)]
    return _matrices(kernel_basis(F2, condition_rows(space, below), d * d), d)


def pairing_matrix(F2, space):
    "Rows b^t of the algebra basis, flattened: X -> tr(X b) row by row."
    return [[x for r in zip(*b) for x in r] for b in lie_basis(F2, space)]


def trace_radical_basis(F2, space):
    "Kernel basis of the trace pairing with the algebra, as matrices."
    d = space.d
    return _matrices(kernel_basis(F2, pairing_matrix(F2, space), d * d), d)


def wedge_invariant_form(space):
    """The so-even wedge pairing's Gram in lie_basis coordinates, by one
    solve per basis element: each basis matrix is written in the images
    Phi of the wedges e_i.e_j, v -> beta(e_i, v) e_j + beta(e_j, v) e_i,
    and two wedges pair by the determinant of their cross pairings."""
    F, d, S = space.field, space.d, space.S
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    columns = []
    for i, j in pairs:
        M = [[0] * d for _ in range(d)]
        M[j] = list(S[i])
        M[i] = [x ^ y for x, y in zip(M[i], S[j])]
        columns.append([x for row in M for x in row])
    Phi = [list(row) for row in zip(*columns)]
    basis = lie_basis(F, space)
    assert rank(F, Phi) == len(pairs) == len(basis)
    W = [solve(F, Phi, [x for row in b for x in row], len(pairs))
         for b in basis]
    assert None not in W
    Gw = [[F.mul(S[i][p], S[j][q]) ^ F.mul(S[i][q], S[j][p]) for p, q in pairs]
          for i, j in pairs]
    return mat_mul(F, mat_mul(F, W, Gw), [list(c) for c in zip(*W)])
