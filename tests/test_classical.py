from itertools import product

import numpy as np
import pytest

import elimination_reference as ref
import module_search as ms
from char2orbits import classical as cl
from char2orbits import linalg as la
from char2orbits.finite_field import field_for

rng = np.random.default_rng(41)
F2 = field_for(1)


def random_matrix(gen, q, d):
    "A d x d matrix of random GF(q) codes, as int row lists."
    return gen.integers(0, q, size=(d, d), dtype=np.uint8).tolist()


def beta(space, v, w):
    "The space's pairing v^t S w, by the matrix S."
    return la.dot(space.field, v, la.mat_vec(space.field, space.S, w))


def all_vectors(F, d):
    out = np.zeros((F.q ** d, d), dtype=np.uint8)
    for i in range(F.q ** d):
        x = i
        for j in range(d):
            out[i, j] = x % F.q
            x //= F.q
    return out.tolist()


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
    assert len(space.borel_coordinates()) == bdim
    # the nilradical leaves out the n-dimensional torus
    strict = space.borel_coordinates(strict=True)
    assert len(strict) == bdim - n
    assert set(strict) <= set(space.borel_coordinates())
    # and every Borel element the elimination finds is in the algebra
    borel = ref.borel_basis(F2, space)
    assert len(borel) == bdim
    for b in borel:
        cl.algebra_coords(space, b)


def test_plain_triangular_part_of_sp4_is_not_a_borel():
    # counting upper-triangular members of sp(4) in the raw basis order gives
    # dimension 5, one short; the flag order fixes it
    sp = cl.space_for("sp", 2)
    raw = [(i, j) for i in range(4) for j in range(4) if i > j]
    K = ref.kernel_basis(F2, ref.condition_rows(sp, raw), 16)
    assert len(K) == 5
    assert len(sp.borel_coordinates()) == 6


@pytest.mark.parametrize("kind,n", [("sp", 2), ("so-odd", 2), ("so-even", 2)])
def test_radical_dimension(kind, n):
    space = cl.space_for(kind, n)
    assert len(space.trace_radical_basis()) == space.d ** 2 - space.dim_algebra
    for R in space.trace_radical_basis():
        assert space.pairing_vector(R) == (0,) * space.dim_algebra


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_selectors_are_the_pairing_rows_support(kind, n, e):
    space = cl.space_for(kind, n, e)
    assert space._pairing_selectors() == [
        [k for k, x in enumerate(row) if x]
        for row in ref.pairing_matrix(F2, space)]


# ----------------------------------------------------------------------
# the slot table against the elimination over d^2 unknowns


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("n", range(1, 13))
def test_slot_table_bases_equal_the_elimination(kind, n):
    space = cl.space_for(kind, n)
    lie = space.lie_basis()
    assert lie == ref.lie_basis(F2, space)
    assert [lie[k] for k in space.borel_coordinates()] == \
        ref.borel_basis(F2, space)
    assert space.trace_radical_basis() == ref.trace_radical_basis(F2, space)


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_dual_from_values_and_canonical_rep_equal_the_elimination(kind, n, e):
    # the canonical member, the reduction modulo the RREF of the radical,
    # is what the slot table writes down for the functional's values
    space = cl.space_for(kind, n, e)
    F, d = space.field, space.d
    R, pivots = la.rref(F2, [la.flatten(b) for b in
                             ref.trace_radical_basis(F2, space)])
    gen = np.random.default_rng(1000 * n + 10 * e + cl.KINDS.index(kind))
    for _ in range(10):
        X = random_matrix(gen, F.q, d)
        values = space.pairing_vector(X)
        assert space.dual_from_values(values) == la.reshape(
            la.reduce_modulo(F, R, pivots, la.flatten(X)), d)
        values = tuple(gen.integers(0, F.q, size=space.dim_algebra).tolist())
        assert space.pairing_vector(space.dual_from_values(values)) == values


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("e", [1, 2])
def test_algebra_coords_read_the_free_slots(kind, n, e):
    space = cl.space_for(kind, n, e)
    F, basis = space.field, space.lie_basis()
    gen = np.random.default_rng(7 * n + e)
    for _ in range(5):
        c = gen.integers(0, F.q, size=len(basis)).tolist()
        T = la.zeros(space.d, space.d)
        for x, b in zip(c, basis):
            T = la.add(T, la.scale(F, x, b))
        assert cl.algebra_coords(space, T) == c
    outside = la.zeros(space.d, space.d)
    outside[0][0] = 1
    assert not cl.in_algebra(space, outside)
    with pytest.raises(ValueError, match="not in the algebra"):
        cl.algebra_coords(space, outside)


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("e", [1, 3])
def test_apply_form_is_the_product_with_s(kind, n, e):
    space = cl.space_for(kind, n, e)
    F, d = space.field, space.d
    gen = np.random.default_rng(100 * n + e)
    for cols in (1, d, 2 * d + 1):
        M = gen.integers(0, F.q, size=(d, cols), dtype=np.uint8).tolist()
        want = la.mat_mul(F, space.S, M)
        assert space.apply_form(M) == want
        assert space.apply_form(tuple(tuple(r) for r in M)) == want
        got = space.apply_form(M)
        assert all(r is not s for r in got for s in M)  # rows are copies
        v = [r[0] for r in M]
        assert space.apply_form(v) == la.mat_vec(F, space.S, v)
        assert space.apply_form(tuple(v)) == la.mat_vec(F, space.S, v)


def test_o3_explicit_structure():
    # the odd algebra at n=1 is {[[a,0,0],[0,a,0],[u,v,0]]}
    so = cl.space_for("so-odd", 1)
    F = so.field
    for b in so.lie_basis():
        assert b[0][1] == b[0][2] == b[1][0] == b[1][2] == b[2][2] == 0
        assert b[0][0] == b[1][1]
        assert la.mat_trace(F, b) == 0
        for v in all_vectors(F, 3):
            assert beta(so, la.mat_vec(F, b, v), v) == 0


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
            x = la.add(x, la.scale(F, int(c[k]), b))
        xt_s = la.mat_mul(F, la.transpose(x), space.S)
        assert la.is_zero(la.add(xt_s, la.mat_mul(F, space.S, x)))
        if kind != "sp":
            assert not any(r[i] for i, r in enumerate(xt_s))


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
    bad[0][0] = 0  # singular
    assert not cl.preserves_form(sp, bad)
    shear = la.identity(4)
    shear[0][1] = 1  # GL but not symplectic for our S
    assert not cl.preserves_form(sp, shear)


def test_coadjoint_is_group_action():
    sp = cl.space_for("sp", 2)
    F = sp.field
    X = random_matrix(rng, 2, 4)
    assert cl.coadjoint(sp, la.identity(4), X) == X
    g = cl.random_group_element(sp, rng)
    h = cl.random_group_element(sp, rng)
    lhs = cl.coadjoint(sp, g, cl.coadjoint(sp, h, X))
    rhs = cl.coadjoint(sp, la.mat_mul(F, g, h), X)
    assert sp.dual_equal(lhs, rhs)
    back = cl.coadjoint(sp, la.inverse(F, g), cl.coadjoint(sp, g, X))
    assert sp.dual_equal(back, X)
    shear = la.identity(4)
    shear[0][1] = 1
    with pytest.raises(ValueError):
        cl.coadjoint(sp, shear, X)


def test_coadjoint_respects_dual_equality():
    sp = cl.space_for("sp", 2)
    for _ in range(20):
        X = random_matrix(rng, 2, 4)
        R = sp.trace_radical_basis()[rng.integers(len(sp.trace_radical_basis()))]
        g = cl.random_group_element(sp, rng)
        assert sp.dual_equal(cl.coadjoint(sp, g, X),
                             cl.coadjoint(sp, g, la.add(X, R)))


# ----------------------------------------------------------------------
# representative independence of the functional calculus


@pytest.mark.parametrize("kind,n,e", [("sp", 1, 1), ("sp", 2, 1), ("sp", 1, 2)])
def test_sp_calculus_well_defined(kind, n, e):
    sp = cl.Space(kind, n, field_for(e))
    F = sp.field
    rad = sp.trace_radical_basis()
    vs = all_vectors(F, sp.d) if F.q ** sp.d <= 256 else None
    for _ in range(100):
        X = random_matrix(rng, F.q, sp.d)
        R = la.scale(F, int(rng.integers(1, F.q)), rad[rng.integers(len(rad))])
        XR = la.add(X, R)
        assert cl.module_endomorphism(sp, X) == cl.module_endomorphism(sp, XR)
        if vs is not None:
            for v in vs:
                assert beta(sp, v, la.mat_vec(F, X, v)) == \
                    beta(sp, v, la.mat_vec(F, XR, v))


def test_sp_module_endomorphism_self_adjoint_and_alpha_compatible():
    sp = cl.space_for("sp", 2)
    F = sp.field
    for _ in range(30):
        X = random_matrix(rng, 2, 4)
        T = cl.module_endomorphism(sp, X)
        assert la.mat_mul(F, la.transpose(T), sp.S) == la.mat_mul(F, sp.S, T)
        for v in all_vectors(F, 4):
            assert beta(sp, la.mat_vec(F, T, v), v) == 0


@pytest.mark.parametrize("n,e", [(1, 1), (2, 1), (1, 2)])
def test_odd_calculus_well_defined(n, e):
    so = cl.Space("so-odd", n, field_for(e))
    F = so.field
    rad = so.trace_radical_basis()
    for _ in range(100):
        X = random_matrix(rng, F.q, so.d)
        R = la.scale(F, int(rng.integers(1, F.q)), rad[rng.integers(len(rad))])
        G1 = cl.alternating_gram(so, X)
        assert G1 == cl.alternating_gram(so, la.add(X, R))
        assert cl.is_alternating(G1)


@pytest.mark.parametrize("e", [1, 2])
def test_even_theta_bijection_exhaustive(e):
    so = cl.Space("so-even", 2, field_for(e))
    F = so.field
    basis = so.lie_basis()
    seen = set()
    for coeffs in product(range(F.q), repeat=len(basis)):
        T = la.zeros(so.d, so.d)
        for c, b in zip(coeffs, basis):
            T = la.add(T, la.scale(F, c, b))
        X = cl.algebra_to_dual(so, T)
        back = cl.module_endomorphism(so, X)
        assert back == T
        seen.add(tuple(map(tuple, T)))
    assert len(seen) == F.q ** len(basis)
    with pytest.raises(ValueError):
        bad = la.identity(4)
        bad[0][1] = 1
        cl.algebra_to_dual(so, bad)


def test_even_theta_equivariance():
    so = cl.space_for("so-even", 2)
    F = so.field
    for _ in range(100):
        X = random_matrix(rng, 2, 4)
        g = cl.random_group_element(so, rng)
        lhs = cl.module_endomorphism(so, cl.coadjoint(so, g, X))
        rhs = la.mat_mul(F, la.mat_mul(F, g, cl.module_endomorphism(so, X)),
                         la.inverse(F, g))
        assert lhs == rhs


@pytest.mark.parametrize("kind", cl.KINDS)
@pytest.mark.parametrize("e", [1, 2])
def test_functional_from_gram_inverts_the_gram_map(kind, e):
    space = cl.Space(kind, 2, field_for(e))
    F, S = space.field, space.S
    gen = np.random.default_rng(11)
    for _ in range(30):
        X = random_matrix(gen, F.q, space.d)
        A = la.add(la.mat_mul(F, la.transpose(X), S), la.mat_mul(F, S, X))
        # the sp Gram forgets the quadratic values diag(S X); the
        # orthogonal trace radical absorbs them
        SX = la.mat_mul(F, S, X)
        quad = [r[i] for i, r in enumerate(SX)] if kind == "sp" else None
        Y = cl.functional_from_gram(F, S, A, quad)
        assert space.dual_equal(Y, X)
    A = la.zeros(space.d, space.d)
    A[0][0] = 1
    with pytest.raises(ValueError):
        cl.functional_from_gram(F, S, A)


def test_canonical_rep():
    sp = cl.space_for("sp", 2)

    def canonical(X):
        return sp.dual_from_values(sp.pairing_vector(X))

    for _ in range(30):
        X = random_matrix(rng, 2, 4)
        R = sp.trace_radical_basis()[rng.integers(len(sp.trace_radical_basis()))]
        a = canonical(X)
        b = canonical(la.add(X, R))
        assert a == b
        assert sp.dual_equal(a, X)
    assert canonical(X) != la.add(X, R) or la.is_zero(R)


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
            x = la.add(x, la.scale(F, int(rng.integers(0, F.q)), b))
        y = la.zeros(so.d, so.d)
        for k, b in enumerate(so.lie_basis()):
            y = la.add(y, la.scale(F, int(rng.integers(0, F.q)), b))
        g = cl.random_group_element(so, rng)
        gi = la.inverse(F, g)
        gx = la.mat_mul(F, la.mat_mul(F, g, x), gi)
        gy = la.mat_mul(F, la.mat_mul(F, g, y), gi)
        cx, cy = cl.algebra_coords(so, x), cl.algebra_coords(so, y)
        cgx, cgy = cl.algebra_coords(so, gx), cl.algebra_coords(so, gy)
        v1 = la.dot(F, cx, la.mat_vec(F, G, cy))
        v2 = la.dot(F, cgx, la.mat_vec(F, G, cgy))
        assert v1 == v2


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_invariant_form_equals_the_elimination(n, e):
    so = cl.Space("so-even", n, field_for(e))
    assert cl.wedge_invariant_form(so) == ref.wedge_invariant_form(so)


# ----------------------------------------------------------------------
# Borel vanishing and the nilpotency criterion


def borel_values(space, X):
    "Values tr(X b) of the functional on the Borel basis."
    F = space.field
    return [la.mat_trace(F, la.mat_mul(F, X, b))
            for b in ref.borel_basis(F2, space)]


def test_vanishes_on_borel():
    sp = cl.space_for("sp", 2)
    assert not any(borel_values(sp, la.zeros(4, 4)))
    # a functional seeing the torus direction cannot vanish on the Borel
    X = la.zeros(4, 4)
    X[0][0] = 1
    assert any(borel_values(sp, X))


def test_nilpotency_criterion_sp():
    sp = cl.space_for("sp", 2)
    assert ms.criterion_nilpotent(sp, la.zeros(4, 4))
    # diagonal regular X has invertible module endomorphism: not nilpotent
    X = la.zeros(4, 4)
    X[0][0] = 1
    T = cl.module_endomorphism(sp, X)
    assert not la.is_zero(T)
    assert not ms.criterion_nilpotent(sp, X)


def test_nilpotency_criterion_even():
    so = cl.space_for("so-even", 2)
    assert ms.criterion_nilpotent(so, la.zeros(4, 4))
    X = la.zeros(4, 4)
    X[0][0] = 1
    assert not ms.criterion_nilpotent(so, X)


# ----------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("kind,n,e", [("sp", 2, 1), ("so-odd", 1, 2), ("so-even", 2, 1)])
def test_dual_json_round_trip(kind, n, e):
    space = cl.Space(kind, n, field_for(e))
    X = random_matrix(rng, space.field.q, space.d)
    obj = cl.dual_to_json(space, X)
    parts = cl.dual_parts_from_json(obj)
    space2, X2 = cl.Space(*parts[:3]), parts[3]
    assert space2.kind == space.kind and space2.n == space.n
    assert space2.field == space.field
    assert X2 == X
    with pytest.raises(ValueError):
        cl.dual_parts_from_json({"kind": kind, "n": n,
                                 "field": space.field.header(), "X": "0 1"})


@pytest.mark.parametrize("change,message", [
    ({"n": 100000, "X": "0"}, "X must have"),
    ({"n": 1.9}, "n must be an integer"),
    ({"n": True}, "n must be an integer"),
    ({"n": 0}, "n must be an integer"),
    ({"n": "2"}, "n must be an integer"),
    ({"kind": "gl"}, "kind must be one of"),
    ({"X": 7}, "X must be a string"),
    ({"X": "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0x1"}, "not a hex field element"),
])
def test_dual_from_json_checks_before_building(monkeypatch, change, message):
    # a malformed document is refused before any Space exists, so a huge
    # rank with a short X costs nothing
    obj = {"kind": "sp", "n": 2, "field": "GF(2^1)/11", "X": " ".join("0" * 16)}
    monkeypatch.setattr(cl, "Space", None)
    with pytest.raises(ValueError, match=message):
        cl.dual_parts_from_json({**obj, **change})
