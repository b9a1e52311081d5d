import functools

import numpy as np
import pytest

from char2orbits import centralizers as cz
from char2orbits import classical as cl
from char2orbits import combinatorics as cb
from char2orbits import linalg as la
from char2orbits import oracle as orc
from char2orbits.classical import space_for
from char2orbits.finite_field import field_for

F2 = field_for(1)


def labels(*pairs, eps=None):
    if eps is None:
        return tuple(cb.BlockLabel(m, l) for m, l in pairs)
    return tuple(cb.BlockLabel(m, l, e) for (m, l), e in zip(pairs, eps))


# ----------------------------------------------------------------------
# reference oracle: the filter scan and the multiplication closure


# every space the census serves, and the order of its group
SERVED = [("sp", 1, 1, 6), ("sp", 1, 2, 60), ("sp", 2, 1, 720),
          ("so-odd", 1, 1, 6), ("so-odd", 2, 1, 720), ("so-odd", 1, 2, 60),
          ("so-even", 2, 1, 72)]


def batch_mul(F, A, B):
    "Matrix products over GF(2^e), broadcast over leading axes."
    return np.bitwise_xor.reduce(
        F.mul_table[A[..., :, :, None], B[..., None, :, :]], axis=-2)


@functools.lru_cache(maxsize=None)
def filter_scan(kind, n, e):
    "Every form-preserving matrix, found by scanning all q^(d*d) of them."
    space = space_for(kind, n, e)
    F, d = space.field, space.d
    idx = np.arange(F.q ** (d * d))
    digits = (idx[:, None] // F.q ** np.arange(d * d)) % F.q
    G = digits.astype(np.uint8).reshape(-1, d, d)
    GT = np.swapaxes(G, 1, 2)
    if kind == "sp":
        keep = (batch_mul(F, batch_mul(F, GT, space.S), G)
                == space.S).all(axis=(1, 2))
    else:
        M = batch_mul(F, batch_mul(F, GT, space.B), G) ^ space.B
        keep = ((M == np.swapaxes(M, 1, 2)).all(axis=(1, 2))
                & ~np.diagonal(M, axis1=1, axis2=2).any(axis=1))
    return G[keep]


def closure(F, gens):
    "The group the matrices generate, as a set of bytes."
    ident = la.identity(len(gens[0]))
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = la.mat_mul(F, g, h)
            if gh.tobytes() not in seen:
                seen.add(gh.tobytes())
                frontier.append(gh)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def generator_closure(kind, n, e):
    space = space_for(kind, n, e)
    return closure(space.field, orc.enumerate_group(space).generators)


def conjugate_keys(space, G, X):
    "functional_key of g X g^-1 for every g in G, in order."
    F = space.field
    G_inv = np.stack([la.inverse(F, g) for g in G])
    Y = batch_mul(F, batch_mul(F, G, X), G_inv).reshape(len(G), -1)
    keys = np.zeros(len(G), dtype=np.int64)
    for i, b in enumerate(space.lie_basis()):
        vals = np.bitwise_xor.reduce(Y[:, b.T.reshape(-1) == 1], axis=1)
        keys |= vals.astype(np.int64) << (F.e * i)
    return keys


# ----------------------------------------------------------------------
# group enumeration


def test_group_orders_filter_mode():
    for kind, n, e, want in [("sp", 1, 1, 6), ("sp", 2, 1, 720),
                             ("so-odd", 1, 1, 6), ("so-even", 2, 1, 72),
                             ("sp", 1, 2, 60)]:
        assert len(filter_scan(kind, n, e)) == want
        assert orc.enumerate_group(space_for(kind, n, e)).order == want


def test_group_orders_match_the_product_formula():
    for kind, n, e in [("sp", 1, 1), ("sp", 2, 1), ("so-odd", 1, 1),
                       ("sp", 1, 2)]:
        grp = orc.enumerate_group(space_for(kind, n, e))
        assert grp.order == cz.group_order(n, 2 ** e)
    for n, q, want in [(1, 2, 2), (1, 4, 6), (2, 2, 72), (2, 4, 7200),
                       (3, 2, 40320)]:
        assert cz.even_group_order(n, q) == want


def test_every_filter_element_preserves_the_form():
    for kind, n, e, _ in SERVED:
        space = space_for(kind, n, e)
        assert all(cl.preserves_form(space, g)
                   for g in orc.enumerate_group(space).generators)
    for kind, n, e in [("sp", 2, 1), ("so-even", 2, 1)]:
        space = space_for(kind, n, e)
        scanned = filter_scan(kind, n, e)
        assert all(cl.preserves_form(space, g) for g in scanned)
        assert generator_closure(kind, n, e) == {g.tobytes() for g in scanned}


def test_generator_closures_reach_the_formula_order():
    for kind, n, e, want in SERVED:
        grp = orc.enumerate_group(space_for(kind, n, e))
        assert len(generator_closure(kind, n, e)) == grp.order == want


def test_even_reflections_alone_stop_at_index_two():
    space = space_for("so-even", 2)
    gens = orc.enumerate_group(space).generators
    refl = [g for g in gens if la.rank(F2, g ^ la.identity(4)) == 1]
    assert len(refl) == len(gens) - 1
    assert len(closure(F2, refl)) == 36


def test_random_even_elements_reach_both_cosets():
    space = space_for("so-even", 2)
    gens = orc.enumerate_group(space).generators
    refl = [g for g in gens if la.rank(F2, g ^ la.identity(4)) == 1]
    half = closure(F2, refl)
    rng = np.random.default_rng(0)
    draws = [cl.random_group_element(space, rng) for _ in range(300)]
    assert all(g.tobytes() in generator_closure("so-even", 2, 1) for g in draws)
    inside = sum(g.tobytes() in half for g in draws)
    assert 0 < inside < len(draws)


def test_census_refuses_duals_beyond_the_point_limit():
    assert orc.POINT_LIMIT == 1 << 10
    for kind, n, e in [("so-even", 3, 1), ("so-even", 2, 2), ("sp", 2, 2)]:
        space = space_for(kind, n, e)
        with pytest.raises(ValueError):
            orc.all_nilpotent_orbits(space, classify=False)
        with pytest.raises(ValueError):
            orc.adjoint_nilpotent_orbit_count(space)


# ----------------------------------------------------------------------
# keys


def test_functional_key_round_trip():
    space = space_for("sp", 1, 2)
    for idx in range(space.field.q ** space.dim_algebra):
        X = space.dual_from_values(orc.key_values(space, idx))
        assert orc.functional_key(space, X) == idx


# ----------------------------------------------------------------------
# orbit censuses


def test_rank_one_orbit_counts():
    for kind, e in [("sp", 1), ("so-odd", 1), ("sp", 2), ("so-odd", 2)]:
        reports = orc.all_nilpotent_orbits(space_for(kind, 1, e))
        assert len(reports) == 2 == cb.p2(1)


def test_sp4_census():
    space = space_for("sp", 2)
    reports = orc.all_nilpotent_orbits(space)
    assert len(reports) == 5 == cb.p2(2)
    assert sum(r.orbit_size for r in reports) == 256
    for r in reports:
        assert 720 % r.orbit_size == 0
        assert r.orbit_size * r.stabilizer_order == 720
    assert len({str(r.label) for r in reports}) == 5
    zero = next(r for r in reports if r.orbit_size == 1)
    assert zero.label == labels((1, 0), (1, 0), eps=["0", "0"])
    assert not any(cl.borel_pairing(space, zero.representative))


def test_o5_census_matches_the_frozen_sizes():
    space = space_for("so-odd", 2)
    reports = orc.all_nilpotent_orbits(space)
    got = {r.label: r.orbit_size for r in reports}
    B = cb.BlockLabel
    want = {cb.OddLabel(0, (B(1, 1, "0"), B(1, 1, "0"))): 1,
            cb.OddLabel(0, (B(2, 2, "0"),)): 15,
            cb.OddLabel(1, (B(1, 1, "0"),)): 45,
            cb.OddLabel(1, (B(1, 1, "d"),)): 15,
            cb.OddLabel(2, ()): 180}
    assert got == want
    for r in reports:
        assert r.orbit_size * r.stabilizer_order == 720


def _assert_engine_orbits_match_the_scan(kind, n, e):
    space = space_for(kind, n, e)
    group = orc.enumerate_group(space)
    G = filter_scan(kind, n, e)
    seen = set()
    for idx in range(space.field.q ** space.dim_algebra):
        if idx in seen:
            continue
        X = space.dual_from_values(orc.key_values(space, idx))
        engine = set(orc.coadjoint_orbit(space, X, group))
        assert engine == set(conjugate_keys(space, G, X).tolist())
        seen.update(engine)
    assert len(seen) == space.field.q ** space.dim_algebra


def test_generator_and_filter_orbits_agree_on_sp4():
    _assert_engine_orbits_match_the_scan("sp", 2, 1)


def test_generator_and_filter_orbits_agree_on_o4_plus():
    _assert_engine_orbits_match_the_scan("so-even", 2, 1)


# ----------------------------------------------------------------------
# nilpotence and stabilizers


@pytest.mark.parametrize("kind,n,e", [("sp", 1, 1), ("so-odd", 1, 1),
                                      ("sp", 1, 2)])
def test_nilpotence_definition_matches_the_splitting_criterion(kind, n, e):
    space = space_for(kind, n, e)
    grp = orc.enumerate_group(space)
    nil_keys = set()
    for r in orc.all_nilpotent_orbits(space, grp, classify=False):
        nil_keys.update(orc.coadjoint_orbit(space, r.representative, grp))
    for idx in range(space.field.q ** space.dim_algebra):
        X = space.dual_from_values(orc.key_values(space, idx))
        assert cl.is_nilpotent_functional(space, X) == (idx in nil_keys)


@pytest.mark.parametrize("kind,n,e", [("sp", 1, 1), ("so-odd", 1, 1),
                                      ("sp", 1, 2), ("sp", 2, 1),
                                      ("so-even", 2, 1)])
def test_stabilizers_match_direct_enumeration(kind, n, e):
    space = space_for(kind, n, e)
    G = filter_scan(kind, n, e)
    for r in orc.all_nilpotent_orbits(space, classify=False):
        X = r.representative
        direct = np.count_nonzero(
            conjugate_keys(space, G, X) == orc.functional_key(space, X))
        assert direct == r.stabilizer_order


def test_labels_are_constant_on_small_orbits():
    for kind, n, e in [("sp", 1, 1), ("so-odd", 1, 1), ("sp", 1, 2),
                       ("so-odd", 1, 2)]:
        space = space_for(kind, n, e)
        grp = orc.enumerate_group(space)
        reports = orc.all_nilpotent_orbits(space, grp)
        assert len({str(r.label) for r in reports}) == len(reports)
        for r in reports:
            orbit = orc.coadjoint_orbit(space, r.representative, grp)
            for Y in orbit.values():
                assert orc._classify(space, Y) == r.label


# ----------------------------------------------------------------------
# even orthogonal transport


def test_even_adjoint_and_coadjoint_nilpotent_counts_agree():
    space = space_for("so-even", 2)
    grp = orc.enumerate_group(space)
    co = orc.all_nilpotent_orbits(space, grp, classify=False)
    assert orc.adjoint_nilpotent_orbit_count(space, grp) == len(co)
