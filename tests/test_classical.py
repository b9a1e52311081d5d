import numpy as np
import pytest

from char2orbits import classical as cl
from char2orbits import linalg as la
from char2orbits.finite_field import field_for

rng = np.random.default_rng(41)


def all_vectors(F, d):
    out = np.zeros((F.q ** d, d), dtype=np.uint8)
    for i in range(F.q ** d):
        x = i
        for j in range(d):
            out[i, j] = x % F.q
            x //= F.q
    return out


# ----------------------------------------------------------------------
# dimensions of the algebras, Borels, radicals


@pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21)])
def test_sp_dimension(n, dim):
    sp = cl.space_for("sp", n)
    assert sp.dim_algebra == dim == 2 * n * n + n


@pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21)])
def test_so_odd_dimension(n, dim):
    so = cl.space_for("so-odd", n)
    assert so.dim_algebra == dim


@pytest.mark.parametrize("n,dim", [(1, 1), (2, 6), (3, 15)])
def test_so_even_dimension(n, dim):
    so = cl.space_for("so-even", n)
    assert so.dim_algebra == dim == 2 * n * n - n


@pytest.mark.parametrize("kind,n,bdim", [
    ("sp", 1, 2), ("sp", 2, 6), ("sp", 3, 12),
    ("so-odd", 1, 2), ("so-odd", 2, 6),
    ("so-even", 1, 1), ("so-even", 2, 4), ("so-even", 3, 9),
])
def test_borel_dimension(kind, n, bdim):
    space = cl.space_for(kind, n)
    assert len(space.borel_basis()) == bdim
    # and every Borel element is in the algebra
    for b in space.borel_basis():
        cl.algebra_coords(space, b)


def test_plain_triangular_part_of_sp4_is_not_a_borel():
    # counting upper-triangular members of sp(4) in the raw basis order gives
    # dimension 5, one short; the flag order fixes it
    sp = cl.space_for("sp", 2)
    raw = [(i, j) for i in range(4) for j in range(4) if i > j]
    K = la.kernel_basis(field_for(1), sp._condition_rows(tuple(raw)))
    assert len(K) == 5
    assert len(sp.borel_basis()) == 6


@pytest.mark.parametrize("kind,n", [("sp", 2), ("so-odd", 2), ("so-even", 2)])
def test_radical_dimension(kind, n):
    space = cl.space_for(kind, n)
    assert len(space.trace_radical_basis()) == space.d ** 2 - space.dim_algebra
    for R in space.trace_radical_basis():
        assert space.pairing_vector(R) == (0,) * space.dim_algebra


def test_o3_explicit_structure():
    # the odd algebra at n=1 is {[[a,0,0],[0,a,0],[u,v,0]]}
    so = cl.space_for("so-odd", 1)
    F = so.field
    for b in so.lie_basis():
        assert b[0, 1] == b[0, 2] == b[1, 0] == b[1, 2] == b[2, 2] == 0
        assert b[0, 0] == b[1, 1]
        assert la.mat_trace(F, b) == 0
        for v in all_vectors(F, 3):
            assert so.beta(la.mat_vec(F, b, v), v) == 0


@pytest.mark.parametrize("kind,n,e", [("sp", 2, 2), ("so-even", 2, 2)])
def test_defining_conditions_hold_over_extension(kind, n, e):
    # the 0/1 basis solves the defining conditions over GF(4) too, including
    # for arbitrary GF(4)-linear combinations
    space = cl.Space(kind, n, field_for(e))
    F = space.field
    basis = space.lie_basis()
    for _ in range(20):
        c = rng.integers(0, F.q, size=len(basis), dtype=np.uint8)
        x = la.zeros(space.d, space.d)
        for k, b in enumerate(basis):
            x ^= la.scale(F, int(c[k]), b)
        M = la.mat_mul(F, x.T, space.S) ^ la.mat_mul(F, space.S, x)
        assert not M.any()
        if kind != "sp":
            assert not np.diagonal(la.mat_mul(F, x.T, space.S)).any()


# ----------------------------------------------------------------------
# group elements


@pytest.mark.parametrize("kind,n,e", [("sp", 2, 1), ("sp", 1, 2),
                                      ("so-odd", 1, 1), ("so-odd", 2, 1),
                                      ("so-even", 2, 1), ("so-even", 2, 2)])
def test_transvections_preserve_form(kind, n, e):
    space = cl.Space(kind, n, field_for(e))
    for _ in range(20):
        g = cl.random_group_element(space, rng)
        assert cl.preserves_form(space, g)
        assert la.rank(space.field, g) == space.d


def test_preserves_form_rejects():
    sp = cl.space_for("sp", 2)
    bad = la.identity(4)
    bad[0, 0] = 0  # singular
    assert not cl.preserves_form(sp, bad)
    shear = la.identity(4)
    shear[0, 1] = 1  # GL but not symplectic for our S
    assert not cl.preserves_form(sp, shear)


def test_coadjoint_is_group_action():
    sp = cl.space_for("sp", 2)
    F = sp.field
    X = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
    assert np.array_equal(cl.coadjoint(sp, la.identity(4), X), X)
    g = cl.random_group_element(sp, rng)
    h = cl.random_group_element(sp, rng)
    lhs = cl.coadjoint(sp, g, cl.coadjoint(sp, h, X))
    rhs = cl.coadjoint(sp, la.mat_mul(F, g, h), X)
    assert sp.dual_equal(lhs, rhs)
    back = cl.coadjoint(sp, la.inverse(F, g), cl.coadjoint(sp, g, X))
    assert sp.dual_equal(back, X)
    shear = la.identity(4)
    shear[0, 1] = 1
    with pytest.raises(ValueError):
        cl.coadjoint(sp, shear, X)


def test_coadjoint_respects_dual_equality():
    sp = cl.space_for("sp", 2)
    for _ in range(20):
        X = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        R = sp.trace_radical_basis()[rng.integers(len(sp.trace_radical_basis()))]
        g = cl.random_group_element(sp, rng)
        assert sp.dual_equal(cl.coadjoint(sp, g, X), cl.coadjoint(sp, g, X ^ R))


# ----------------------------------------------------------------------
# representative independence of the functional calculus


@pytest.mark.parametrize("kind,n,e", [("sp", 1, 1), ("sp", 2, 1), ("sp", 1, 2)])
def test_sp_calculus_well_defined(kind, n, e):
    sp = cl.Space(kind, n, field_for(e))
    F = sp.field
    rad = sp.trace_radical_basis()
    vs = all_vectors(F, sp.d) if F.q ** sp.d <= 256 else None
    for _ in range(100):
        X = rng.integers(0, F.q, size=(sp.d, sp.d), dtype=np.uint8)
        R = la.scale(F, int(rng.integers(1, F.q)), rad[rng.integers(len(rad))])
        assert np.array_equal(cl.module_endomorphism(sp, X),
                              cl.module_endomorphism(sp, X ^ R))
        if vs is not None:
            for v in vs:
                assert sp.beta(v, la.mat_vec(F, X, v)) == \
                    sp.beta(v, la.mat_vec(F, X ^ R, v))


def test_sp_module_endomorphism_self_adjoint_and_alpha_compatible():
    sp = cl.space_for("sp", 2)
    F = sp.field
    for _ in range(30):
        X = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        T = cl.module_endomorphism(sp, X)
        assert np.array_equal(la.mat_mul(F, T.T, sp.S), la.mat_mul(F, sp.S, T))
        for v in all_vectors(F, 4):
            assert sp.beta(la.mat_vec(F, T, v), v) == 0


@pytest.mark.parametrize("n,e", [(1, 1), (2, 1), (1, 2)])
def test_odd_calculus_well_defined(n, e):
    so = cl.Space("so-odd", n, field_for(e))
    F = so.field
    rad = so.trace_radical_basis()
    for _ in range(100):
        X = rng.integers(0, F.q, size=(so.d, so.d), dtype=np.uint8)
        R = la.scale(F, int(rng.integers(1, F.q)), rad[rng.integers(len(rad))])
        G1 = cl.alternating_gram(so, X)
        assert np.array_equal(G1, cl.alternating_gram(so, X ^ R))
        assert np.array_equal(G1, G1.T)
        assert not np.diagonal(G1).any()


def test_even_theta_bijection_exhaustive():
    so = cl.space_for("so-even", 2)
    F = so.field
    basis = so.lie_basis()
    seen = set()
    for mask in range(2 ** len(basis)):
        T = la.zeros(so.d, so.d)
        for k in range(len(basis)):
            if mask >> k & 1:
                T ^= basis[k]
        X = cl.algebra_to_dual(so, T)
        back = cl.dual_to_algebra(so, X)
        assert np.array_equal(back, T)
        seen.add(T.tobytes())
    assert len(seen) == 2 ** len(basis)
    with pytest.raises(ValueError):
        bad = la.identity(4)
        bad[0, 1] = 1
        cl.algebra_to_dual(so, bad)


def test_even_theta_equivariance():
    so = cl.space_for("so-even", 2)
    F = so.field
    for _ in range(100):
        X = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        g = cl.random_group_element(so, rng)
        lhs = cl.dual_to_algebra(so, cl.coadjoint(so, g, X))
        rhs = la.mat_mul(F, la.mat_mul(F, g, cl.dual_to_algebra(so, X)),
                         la.inverse(F, g))
        assert np.array_equal(lhs, rhs)


def test_canonical_rep():
    sp = cl.space_for("sp", 2)
    for _ in range(30):
        X = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        R = sp.trace_radical_basis()[rng.integers(len(sp.trace_radical_basis()))]
        a = sp.canonical_rep(X)
        b = sp.canonical_rep(X ^ R)
        assert np.array_equal(a, b)
        assert sp.dual_equal(a, X)
    assert not np.array_equal(sp.canonical_rep(X), X ^ R) or not R.any()


# ----------------------------------------------------------------------
# invariant form on the even algebra


@pytest.mark.parametrize("e", [1, 2])
def test_wedge_invariant_form(e):
    so = cl.Space("so-even", 2, field_for(e))
    F = so.field
    G = cl.wedge_invariant_form(so)  # nondegeneracy asserted inside
    for _ in range(100):
        x = la.zeros(so.d, so.d)
        for k, b in enumerate(so.lie_basis()):
            x ^= la.scale(F, int(rng.integers(0, F.q)), b)
        y = la.zeros(so.d, so.d)
        for k, b in enumerate(so.lie_basis()):
            y ^= la.scale(F, int(rng.integers(0, F.q)), b)
        g = cl.random_group_element(so, rng)
        gi = la.inverse(F, g)
        gx = la.mat_mul(F, la.mat_mul(F, g, x), gi)
        gy = la.mat_mul(F, la.mat_mul(F, g, y), gi)
        cx, cy = cl.algebra_coords(so, x), cl.algebra_coords(so, y)
        cgx, cgy = cl.algebra_coords(so, gx), cl.algebra_coords(so, gy)
        v1 = la.dot(F, cx, la.mat_vec(F, G, cy))
        v2 = la.dot(F, cgx, la.mat_vec(F, G, cgy))
        assert v1 == v2


# ----------------------------------------------------------------------
# Borel vanishing and the nilpotency criterion


def test_vanishes_on_borel():
    sp = cl.space_for("sp", 2)
    assert not any(cl.borel_pairing(sp, la.zeros(4, 4)))
    # a functional seeing the torus direction cannot vanish on the Borel
    X = la.zeros(4, 4)
    X[0, 0] = 1
    assert any(cl.borel_pairing(sp, X))


def test_nilpotency_criterion_sp():
    sp = cl.space_for("sp", 2)
    assert cl.is_nilpotent_functional(sp, la.zeros(4, 4))
    # diagonal regular X has invertible module endomorphism: not nilpotent
    X = np.diag(np.array([1, 0, 0, 0], dtype=np.uint8))
    T = cl.module_endomorphism(sp, X)
    assert T.any()
    assert not cl.is_nilpotent_functional(sp, X)


def test_nilpotency_criterion_even():
    so = cl.space_for("so-even", 2)
    assert cl.is_nilpotent_functional(so, la.zeros(4, 4))
    X = np.diag(np.array([1, 0, 0, 0], dtype=np.uint8))
    assert not cl.is_nilpotent_functional(so, X)


# ----------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("kind,n,e", [("sp", 2, 1), ("so-odd", 1, 2), ("so-even", 2, 1)])
def test_dual_json_round_trip(kind, n, e):
    space = cl.Space(kind, n, field_for(e))
    X = rng.integers(0, space.field.q, size=(space.d, space.d), dtype=np.uint8)
    obj = cl.dual_to_json(space, X)
    space2, X2 = cl.dual_from_json(obj)
    assert space2.kind == space.kind and space2.n == space.n
    assert space2.field == space.field
    assert np.array_equal(X, X2)
    with pytest.raises(ValueError):
        cl.dual_from_json({"kind": kind, "n": n,
                           "field": space.field.header(), "X": "0 1"})
