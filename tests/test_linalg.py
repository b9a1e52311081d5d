from functools import reduce
from operator import xor

import numpy as np
import pytest

import elimination_reference as ref
from char2orbits import linalg as la
from char2orbits.finite_field import field_for

rng = np.random.default_rng(20260814)


def random_matrix(F, m, n):
    return rng.integers(0, F.q, size=(m, n), dtype=np.uint8).tolist()


def naive_mul(F, A, B):
    return [[reduce(xor, (F.mul(a, b[j]) for a, b in zip(r, B)), 0)
             for j in range(len(B[0]))] for r in A]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_mat_mul_against_naive(e):
    F = field_for(e)
    for _ in range(25):
        m, k, n = rng.integers(1, 6, size=3).tolist()
        A = random_matrix(F, m, k)
        B = random_matrix(F, k, n)
        assert la.mat_mul(F, A, B) == naive_mul(F, A, B)


def test_mat_mul_over_the_largest_field():
    F = field_for(8)
    A, B = random_matrix(F, 3, 4), random_matrix(F, 4, 2)
    assert la.mat_mul(F, A, B) == naive_mul(F, A, B)


def test_mat_mul_empty_inner():
    # a row list with no rows records no width
    F = field_for(2)
    assert la.mat_mul(F, la.zeros(3, 0), la.zeros(0, 4)) == la.zeros(3, 0)
    with pytest.raises(ValueError):
        la.mat_mul(F, la.zeros(2, 3), la.zeros(2, 2))


def test_mat_mul_identity_and_associativity():
    F = field_for(4)
    A = random_matrix(F, 5, 5)
    B = random_matrix(F, 5, 5)
    C = random_matrix(F, 5, 5)
    assert la.mat_mul(F, A, la.identity(5)) == A
    assert la.mat_mul(F, la.mat_mul(F, A, B), C) == \
        la.mat_mul(F, A, la.mat_mul(F, B, C))


# ----------------------------------------------------------------------
# elimination


def shapes():
    "Empty, wide, tall and square shapes, with many singular squares."
    yield 0, 0
    yield 0, 3
    yield 3, 0
    for _ in range(40):
        yield int(rng.integers(1, 8)), int(rng.integers(1, 8))


def low_rank(F, m, n):
    "A random m x n matrix of rank at most min(m, n) - 1, when that is >= 0."
    r = max(min(m, n) - 1, 0)
    return ref.mat_mul(F, random_matrix(F, m, r),
                       random_matrix(F, r, n)) if r else \
        [[0] * n for _ in range(m)]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_elimination_matches_the_scalar_reference(e):
    F = field_for(e)
    for m, n in shapes():
        for A in (random_matrix(F, m, n), low_rank(F, m, n)):
            R, pivots = ref.rref(F, A)
            assert la.rref(F, A) == (R, pivots)
            assert la.rank(F, A) == len(pivots)
            if m:
                assert la.kernel_basis(F, A) == ref.kernel_basis(F, A, n)
                b = rng.integers(0, F.q, size=m).tolist()
                assert la.solve(F, A, b) == ref.solve(F, A, b, n)
            if m == n:
                want = ref.inverse(F, A)
                if want is None:
                    with pytest.raises(ValueError):
                        la.inverse(F, A)
                else:
                    assert la.inverse(F, A) == want


@pytest.mark.parametrize("e", [1, 2, 3])
def test_jordan_partition_matches_the_scalar_reference(e):
    F = field_for(e)
    for n in [0] + [int(x) for x in rng.integers(0, 8, size=30)]:
        # strictly upper triangular, conjugated: nilpotent of any type
        N = np.triu(random_matrix(F, n, n), 1)
        N[:, rng.random(n) < 0.4] = 0
        N = N.tolist()
        g = random_matrix(F, n, n)
        while la.rank(F, g) < n:
            g = random_matrix(F, n, n)
        A = la.mat_mul(F, la.mat_mul(F, g, N), la.inverse(F, g))
        # the ladder: the ranks and kernels of A^0..A^k, stopping at A^k = 0
        ranks, kernels = la.power_ladder(F, A)
        powers = [la.identity(n)]
        for _ in ranks[1:]:
            powers.append(ref.mat_mul(F, powers[-1], A))
        assert ranks == [ref.rank(F, P) for P in powers]
        assert kernels == [la.kernel_basis(F, P) for P in powers]
        assert kernels == [ref.kernel_basis(F, P, n) for P in powers]
        assert ranks[-1] == 0 and 0 not in ranks[:-1]
        assert la.ladder_partition(ranks) == ref.jordan_partition(F, A)


@pytest.mark.parametrize("e", [1, 2, 4])
def test_kernel_annihilated(e):
    F = field_for(e)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = random_matrix(F, m, n)
        K = la.kernel_basis(F, A)
        assert len(K) == n - la.rank(F, A)
        if K:
            assert la.is_zero(la.mat_mul(F, A, la.transpose(K)))
        # kernel rows are independent
        assert la.rank(F, K) == len(K)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_solve_round_trip(e):
    F = field_for(e)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = random_matrix(F, m, n)
        x0 = rng.integers(0, F.q, size=n, dtype=np.uint8).tolist()
        b = la.mat_vec(F, A, x0)
        x = la.solve(F, A, b)
        assert x is not None
        assert la.mat_vec(F, A, x) == b


def test_solve_inconsistent():
    F = field_for(2)
    assert la.solve(F, [[1, 1], [1, 1]], [1, 0]) is None


@pytest.mark.parametrize("e", [1, 2, 3])
def test_inverse(e):
    F = field_for(e)
    found = 0
    while found < 15:
        n = int(rng.integers(1, 6))
        A = random_matrix(F, n, n)
        if la.rank(F, A) < n:
            with pytest.raises(ValueError):
                la.inverse(F, A)
            continue
        B = la.inverse(F, A)
        assert la.mat_mul(F, A, B) == la.identity(n)
        assert la.mat_mul(F, B, A) == la.identity(n)
        found += 1


@pytest.mark.parametrize("e", range(1, 9))
def test_solve_matrix_is_the_inverse_times_b(e):
    F = field_for(e)
    gen = np.random.default_rng(e)
    for _ in range(20):
        n, k = (int(x) for x in gen.integers(1, 7, size=2))
        A = gen.integers(0, F.q, size=(n, n), dtype=np.uint8).tolist()
        B = gen.integers(0, F.q, size=(n, k), dtype=np.uint8).tolist()
        want = ref.inverse(F, A)
        if want is None:
            assert la.solve_matrix(F, A, B) is None
        else:
            assert la.solve_matrix(F, A, B) == ref.mat_mul(F, want, B) \
                == la.mat_mul(F, la.inverse(F, A), B)
    # a singular A, whatever B is
    singular = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert la.solve_matrix(F, singular, la.identity(3)) is None
    with pytest.raises(ValueError, match="^matrix is singular$"):
        la.inverse(F, singular)


def test_rref_is_canonical():
    # the RREF of a matrix equals the RREF of any row-scrambled version
    F = field_for(4)
    A = random_matrix(F, 5, 7)
    R1, p1 = la.rref(F, A)
    perm = rng.permutation(5)
    g = random_matrix(F, 5, 5)
    while la.rank(F, g) < 5:
        g = random_matrix(F, 5, 5)
    R2, p2 = la.rref(F, la.mat_mul(F, g, [A[i] for i in perm]))
    assert p1 == p2
    assert R1 == R2


# ----------------------------------------------------------------------
# nilpotency and Jordan type


def jordan_block(m):
    J = la.zeros(m, m)
    for i in range(m - 1):
        J[i][i + 1] = 1
    return J


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = la.zeros(n, n)
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[o + i][o:o + len(b)] = row
        o += len(b)
    return out


@pytest.mark.parametrize("parts", [[1], [2], [2, 1], [3, 3], [4, 2, 1, 1], [5, 5, 2]])
@pytest.mark.parametrize("e", [1, 2])
def test_jordan_partition(parts, e):
    F = field_for(e)
    A = direct_sum(*[jordan_block(m) for m in parts])
    n = len(A)
    assert la.ladder_partition(la.power_ladder(F, A)[0]) == parts
    # conjugation must not change the answer
    g = random_matrix(F, n, n)
    while la.rank(F, g) < n:
        g = random_matrix(F, n, n)
    B = la.mat_mul(F, la.mat_mul(F, g, A), la.inverse(F, g))
    assert la.ladder_partition(la.power_ladder(F, B)[0]) == parts


def test_not_nilpotent():
    F = field_for(2)
    g = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]  # unipotent, not the identity
    blocks = direct_sum(jordan_block(3), la.identity(1))  # ranks 4, 3, 2, 1, 1
    for A in (la.identity(3), g, blocks):
        assert la.power_ladder(F, A) is None


def test_power_ladder_and_trace():
    F = field_for(2)
    J = jordan_block(4)
    ranks, kernels = la.power_ladder(F, J)
    powers = [la.identity(4)]
    for _ in ranks[1:]:
        powers.append(la.mat_mul(F, powers[-1], J))
    assert powers[1] == J
    assert not la.is_zero(powers[3])
    assert la.is_zero(powers[4]) and len(powers) == 5
    assert ranks == [4, 3, 2, 1, 0]
    # J shifts up, so ker(J^m) is spanned by the first m basis vectors
    assert kernels == [la.identity(4)[:m] for m in range(5)]
    assert la.mat_trace(F, la.identity(3)) == 1
    assert la.mat_trace(F, la.identity(4)) == 0
