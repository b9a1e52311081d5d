from itertools import product

import numpy as np
import pytest

import module_search as ms
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import isometry as iso
from char2orbits import linalg as la
from char2orbits.finite_field import field_for

F2 = field_for(1)
F4 = field_for(2)


def normal_form(m, l, eps=None, field=F2, kind="sp"):
    blocks = (cb.BlockLabel(m, l, eps),)
    mod, _ = fm.build_normal_form(blocks, field, kind=kind)
    return mod, ms.normal_form_generators(blocks)


# ----------------------------------------------------------------------
# module maps


def count_self_maps(field, mod):
    "Self-isometries of a module with T = 0: space maps keeping both forms."
    assert la.is_zero(mod.op)
    P, G = mod.polar_gram, mod.gram
    return iso.count_space_maps(field, [(P, P), (G, G)], mod.quad, mod.quad)


@pytest.mark.parametrize("field,count", [(F2, 6), (F4, 60)])
def test_count_self_maps_trivial_module_is_full_symplectic_group(field, count):
    # T = 0 and quad = 0 leaves only the pairing, so the count is |Sp(2)|
    mod, _ = normal_form(1, 0, field=field)
    assert count_self_maps(field, mod) == count


@pytest.mark.parametrize("field,count", [(F2, 2), (F4, 4)])
def test_count_self_maps_level_one_module(field, count):
    # quad(a v1 + b v2) = a^2 with zero polar; the quad-0 line is fixed and
    # the v1 image is v1 plus anything on that line
    mod, _ = normal_form(1, 1, field=field)
    assert count_self_maps(field, mod) == count


def test_find_module_map_is_verified_exactly():
    mod, gens = normal_form(2, 1, eps="d")
    M = ms.find_module_map(F2, ms.forms(mod), gens, ms.forms(mod))
    assert M is not None
    G, T = mod.gram, mod.op
    assert la.mat_mul(F2, la.mat_mul(F2, la.transpose(M), G), M) == G
    assert la.mat_mul(F2, T, M) == la.mat_mul(F2, M, T)


@pytest.mark.parametrize("field", [F2, F4])
def test_no_map_between_the_two_rational_forms_of_2_1(field):
    plain, gens = normal_form(2, 1, eps="0", field=field)
    delta, _ = normal_form(2, 1, eps="d", field=field)
    assert ms.find_module_map(field, ms.forms(plain), gens, ms.forms(delta)) is None
    assert ms.find_module_map(field, ms.forms(delta), gens, ms.forms(plain)) is None


def test_module_map_respects_quadratic_values_not_just_pairing():
    # same gram and op, different quad: no map may exist
    src, gens = normal_form(1, 1)
    dst, _ = normal_form(1, 0)
    assert ms.find_module_map(F2, ms.forms(src), gens, ms.forms(dst)) is None


def test_degenerate_pairing_is_rejected():
    d = 2
    forms = ms.ModuleForms(la.zeros(d, d), la.zeros(d, d),
                           [0] * d, la.zeros(d, d))
    gens = [([1, 0], 1)]
    with pytest.raises(ValueError):
        ms.find_module_map(F2, forms, gens, forms)


def test_non_self_adjoint_operator_is_rejected():
    mod, gens = normal_form(1, 0)
    bad = ms.ModuleForms(mod.gram, [[0, 1], [0, 0]],
                         mod.quad, mod.polar_gram)
    with pytest.raises(ValueError):
        ms.find_module_map(F2, bad, gens, bad)


# ----------------------------------------------------------------------
# space maps


def hyperbolic_plane(field):
    S = [[0, 1], [1, 0]]
    return [(S, S)]


def test_count_space_maps_split_quadratic_plane():
    # alpha(x, y) = xy over F2: identity and the swap
    pairs = hyperbolic_plane(F2)
    q = [0] * 2
    assert iso.count_space_maps(F2, pairs, q, q) == 2


def test_split_and_nonsplit_quadratic_planes_are_not_isometric():
    S = [[0, 1], [1, 0]]
    split = [0] * 2
    nonsplit = [1, 1]  # x^2 + xy + y^2 over F2
    assert next(iso.space_maps(F2, [(S, S)], split, nonsplit), None) is None
    assert next(iso.space_maps(F2, [(S, S)], nonsplit, split), None) is None
    # and each is isometric to itself
    assert next(iso.space_maps(F2, [(S, S)], nonsplit, nonsplit), None) is not None


def test_singular_maps_are_not_counted():
    # zero pairing, zero quad in dimension 1: only the identity survives the
    # invertibility check even though both vectors satisfy the constraints
    Z = la.zeros(1, 1)
    q = [0] * 1
    assert iso.count_space_maps(F2, [(Z, Z)], q, q) == 1


def test_two_pairings_constrain_jointly():
    S = [[0, 1], [1, 0]]
    A = la.zeros(2, 2)
    q = [0] * 2
    # a trivially-satisfied second pairing changes nothing
    assert iso.count_space_maps(F2, [(S, S), (A, A)], q, q) == 2
    # an unsatisfiable one kills everything
    assert iso.count_space_maps(F2, [(S, S), (S, A)], q, q) == 0


def test_degenerate_pairings_match_brute_force_over_gl3():
    # alternating Grams in dimension 3 all have a radical, so every level
    # whose source column is zero is pruned to the destination's radical
    S = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    g = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    moved = la.mat_mul(F2, la.mat_mul(F2, la.transpose(g), S), g)
    Z = la.zeros(3, 3)
    gl3 = [M for M in (la.reshape(list(bits), 3)
                       for bits in product(range(2), repeat=9))
           if la.rank(F2, M) == 3]
    assert len(gl3) == 168
    found = 0
    for pairings in ([(S, S)], [(S, moved)], [(moved, S), (Z, Z)], [(Z, Z)]):
        for src, dst in product(product(range(2), repeat=3), repeat=2):
            U = la.quad_matrix(F2, list(dst), pairings[0][1])
            want = sorted(M for M in gl3 if all(
                la.mat_mul(F2, la.mat_mul(F2, la.transpose(M), Gd), M) == Gs
                for Gs, Gd in pairings)
                and la.quad_values(F2, U, la.transpose(M)) == list(src))
            got = sorted(iso.space_maps(F2, pairings, list(src), list(dst)))
            assert got == want, (pairings, src, dst)
            found += len(got)
    assert found > 168


def test_search_cap_guard():
    d = 12
    Z = la.zeros(d, d)
    q = [0] * d
    with pytest.raises(iso.SearchTooLarge):
        iso.count_space_maps(F4, [(Z, Z)], q, q)


# ----------------------------------------------------------------------
# translates through an actual group action


def test_module_of_a_translated_functional_is_isometric():
    from char2orbits import classical as cl

    rng = np.random.default_rng(7)
    space = cl.space_for("sp", 2)
    blocks = (cb.BlockLabel(2, 1, "d"),)
    nf, X = fm.build_normal_form(blocks, F2)
    gens = ms.normal_form_generators(blocks)
    for _ in range(5):
        g = cl.random_group_element(space, rng)
        Y = cl.coadjoint(space, g, X)
        other = fm.build_module(space, Y)
        assert ms.find_module_map(F2, ms.forms(nf), gens, ms.forms(other)) is not None
