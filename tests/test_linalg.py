import numpy as np
import pytest

from char2orbits import linalg as la
from char2orbits.finite_field import field_for

rng = np.random.default_rng(20260814)


def random_matrix(F, m, n):
    return rng.integers(0, F.q, size=(m, n), dtype=np.uint8)


def naive_mul(F, A, B):
    m, k = A.shape
    _, n = B.shape
    C = la.zeros(m, n)
    for i in range(m):
        for j in range(n):
            s = 0
            for t in range(k):
                s ^= F.mul(int(A[i, t]), int(B[t, j]))
            C[i, j] = s
    return C


@pytest.mark.parametrize("e", [1, 2, 3])
def test_mat_mul_against_naive(e):
    F = field_for(e)
    for _ in range(25):
        m, k, n = rng.integers(1, 6, size=3)
        A = random_matrix(F, m, k)
        B = random_matrix(F, k, n)
        assert np.array_equal(la.mat_mul(F, A, B), naive_mul(F, A, B))


def test_mat_mul_empty_inner():
    F = field_for(2)
    A = la.zeros(3, 0)
    B = la.zeros(0, 4)
    assert np.array_equal(la.mat_mul(F, A, B), la.zeros(3, 4))


def test_mat_mul_identity_and_associativity():
    F = field_for(4)
    A = random_matrix(F, 5, 5)
    B = random_matrix(F, 5, 5)
    C = random_matrix(F, 5, 5)
    assert np.array_equal(la.mat_mul(F, A, la.identity(5)), A)
    assert np.array_equal(
        la.mat_mul(F, la.mat_mul(F, A, B), C),
        la.mat_mul(F, A, la.mat_mul(F, B, C)),
    )


# ----------------------------------------------------------------------
# elimination


def test_packed_vs_generic_rref_differential():
    F = field_for(1)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        A = random_matrix(F, m, n)
        Rp, pp = la.rref(F, A)
        Rg, pg = la._rref_generic(F, A)
        assert pp == pg
        assert np.array_equal(Rp, Rg)


@pytest.mark.parametrize("e", [1, 2, 4])
def test_kernel_annihilated(e):
    F = field_for(e)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = random_matrix(F, m, n)
        K = la.kernel_basis(F, A)
        assert K.shape[0] == n - la.rank(F, A)
        if K.size:
            assert not la.mat_mul(F, A, K.T).any()
        # kernel rows are independent
        assert la.rank(F, K) == K.shape[0]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_solve_round_trip(e):
    F = field_for(e)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = random_matrix(F, m, n)
        x0 = rng.integers(0, F.q, size=n, dtype=np.uint8)
        b = la.mat_vec(F, A, x0)
        x = la.solve(F, A, b)
        assert x is not None
        assert np.array_equal(la.mat_vec(F, A, x), b)


def test_solve_inconsistent():
    F = field_for(2)
    A = la.as_matrix([[1, 1], [1, 1]])
    assert la.solve(F, A, np.array([1, 0], dtype=np.uint8)) is None


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
        assert np.array_equal(la.mat_mul(F, A, B), la.identity(n))
        assert np.array_equal(la.mat_mul(F, B, A), la.identity(n))
        found += 1


def test_rref_is_canonical():
    # the RREF of a matrix equals the RREF of any row-scrambled version
    F = field_for(4)
    A = random_matrix(F, 5, 7)
    R1, p1 = la.rref(F, A)
    perm = rng.permutation(5)
    g = random_matrix(F, 5, 5)
    while la.rank(F, g) < 5:
        g = random_matrix(F, 5, 5)
    R2, p2 = la.rref(F, la.mat_mul(F, g, A[perm]))
    assert p1 == p2
    assert np.array_equal(R1, R2)


# ----------------------------------------------------------------------
# nilpotency and Jordan type


def jordan_block(m):
    J = la.zeros(m, m)
    for i in range(m - 1):
        J[i, i + 1] = 1
    return J


def direct_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = la.zeros(n, n)
    o = 0
    for b in blocks:
        k = b.shape[0]
        out[o:o + k, o:o + k] = b
        o += k
    return out


@pytest.mark.parametrize("parts", [[1], [2], [2, 1], [3, 3], [4, 2, 1, 1], [5, 5, 2]])
@pytest.mark.parametrize("e", [1, 2])
def test_jordan_partition(parts, e):
    F = field_for(e)
    A = direct_sum(*[jordan_block(m) for m in parts])
    n = A.shape[0]
    assert la.is_nilpotent(F, A)
    assert la.jordan_partition(F, A) == parts
    # conjugation must not change the answer
    g = random_matrix(F, n, n)
    while la.rank(F, g) < n:
        g = random_matrix(F, n, n)
    B = la.mat_mul(F, la.mat_mul(F, g, A), la.inverse(F, g))
    assert la.jordan_partition(F, B) == parts


def test_not_nilpotent():
    F = field_for(2)
    assert not la.is_nilpotent(F, la.identity(3))
    with pytest.raises(ValueError):
        la.jordan_partition(F, la.identity(3))


def test_mat_pow_and_trace():
    F = field_for(2)
    J = jordan_block(4)
    assert np.array_equal(la.mat_pow(F, J, 0), la.identity(4))
    assert la.mat_pow(F, J, 3).any()
    assert not la.mat_pow(F, J, 4).any()
    assert la.mat_trace(F, la.identity(3)) == 1
    assert la.mat_trace(F, la.identity(4)) == 0
