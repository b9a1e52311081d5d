import numpy as np
import pytest

from char2orbits import centralizers as cz
from char2orbits import classical as cl
from char2orbits import cli
from char2orbits import combinatorics as cb
from char2orbits import isometry as iso
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.finite_field import field_for
from char2orbits.combinatorics import BlockLabel


def symbols(n):
    return [cb.symp_pair_to_symbol(p) for p in cb.symp_pairs(n)]


# ----------------------------------------------------------------------
# symplectic formulas


def test_symp_dimension_examples():
    assert cz.dim_z_symp([(1, 0)]) == 3
    assert cz.dim_z_symp([(2, 1)]) == 4
    assert cz.dim_z_symp([(1, 0), (1, 0)]) == 10


def test_symp_component_rank_examples():
    assert cz.comp_rank_symp([(1, 0)]) == 0
    assert cz.comp_rank_symp([(2, 1)]) == 1
    assert cz.comp_rank_symp([(2, 2)]) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_zero_orbit_centralizer_is_the_whole_algebra(n):
    zero = [(1, 0)] * n
    assert cz.dim_z_symp(zero) == cz.algebra_dim(n)
    assert cz.comp_rank_symp(zero) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_symp_rank_counts_split_positions(n):
    for pair in cb.symp_pairs(n):
        sym = cb.symp_pair_to_symbol(pair)
        assert cz.comp_rank_symp(sym) == cb.symp_split_k(pair)
        assert cz.comp_rank_symp(sym) <= len(sym)


@pytest.mark.parametrize("n", range(1, 9))
def test_symp_rational_class_total_is_p2(n):
    assert sum(2 ** cz.comp_rank_symp(s) for s in symbols(n)) == cb.p2(n)


def test_symp_rejects_invalid_symbols():
    with pytest.raises(ValueError):
        cz.dim_z_symp([(1, 2)])
    with pytest.raises(ValueError):
        cz.comp_rank_symp([(1, 1), (2, 1)])


# ----------------------------------------------------------------------
# odd orthogonal formulas


def test_oodd_dimension_examples():
    assert cz.dim_z_oodd(((0,), (1,))) == 3
    assert cz.dim_z_oodd(((), (1,))) == 3
    assert cz.dim_z_oodd(((1,), ())) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_oodd_zero_orbit_matches_the_algebra_dimension(n):
    assert cz.dim_z_oodd(((), (1,) * n)) == cz.algebra_dim(n)


@pytest.mark.parametrize("m", range(1, 6))
def test_pure_chain_dimension_is_m(m):
    assert cz.dim_z_oodd(((m,), ())) == m
    assert cz.comp_rank_oodd(((m,), ())) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_oodd_rank_counts_split_positions(n):
    for nu, mu in cb.oodd_pairs(n):
        got = cz.comp_rank_oodd((nu, mu))
        v = list(nu) + [0] * (len(mu) + 1 - len(nu))
        want = sum(1 for i in range(1, len(mu) + 1)
                   if v[i] < mu[i - 1] <= v[i - 1])
        assert got == want
        assert got <= len(mu)


@pytest.mark.parametrize("n", range(1, 9))
def test_oodd_rational_class_total_is_p2(n):
    pairs = cb.oodd_pairs(n)
    assert sum(2 ** cz.comp_rank_oodd(p) for p in pairs) == cb.p2(n)


def test_oodd_rejects_invalid_pairs():
    with pytest.raises(ValueError):
        cz.dim_z_oodd(((1, 2), (1,)))


# ----------------------------------------------------------------------
# reports


def test_report_fields_and_leading_count():
    rep = cz.symp_report([(2, 1)])
    assert rep.dim_z == 4 and rep.comp_rank == 1
    assert rep.point_count_leading(2) == 32
    assert rep.component_group() == "(Z/2)^1"
    assert cz.symp_report([(1, 0)]).component_group() == "1"


def test_orbit_report_rows():
    # the command line takes every orbit and centralizer row from one builder
    keys = ("dim_z", "comp_rank", "component_group", "dim_orbit")
    row = cli._label_row("sp", (BlockLabel(2, 1),))
    assert {k: row[k] for k in keys} == {"dim_z": 4, "comp_rank": 1,
                                         "component_group": "(Z/2)^1",
                                         "dim_orbit": 6}
    row = cli._label_row("so-odd", cb.pair_to_label(((), (1, 1))))
    assert row["dim_z"] == 10 and row["dim_orbit"] == 0


def test_group_orders():
    assert cz.group_order(1, 2) == 6
    assert cz.group_order(2, 2) == 720
    assert cz.group_order(1, 4) == 60
    assert cz.group_order(2, 4) == 979200


# ----------------------------------------------------------------------
# exact chain counts


def test_chain_z_order_matches_the_census_stabilizers():
    # |O|/|orbit| from the exhaustive censuses: o(3, F_2) regular orbit has
    # 3 elements, o(5, F_2) regular 180, o(3, F_4) regular 15
    assert cz.chain_z_order(1, 2) == 6 // 3
    assert cz.chain_z_order(2, 2) == 720 // 180
    assert cz.chain_z_order(1, 4) == 60 // 15


@pytest.mark.parametrize("m,e", [(1, 1), (2, 1), (1, 2)])
def test_chain_z_order_matches_the_counted_stabilizer(m, e):
    F = field_for(e)
    space, X = od.odd_witness(cb.OddLabel(m, ()), F)
    G = cl.alternating_gram(space, X)
    quad = np.diagonal(space.B).copy()
    got = iso.count_space_maps(F, [(space.S, space.S), (G, G)], quad, quad)
    assert got == cz.chain_z_order(m, 2 ** e)


@pytest.mark.parametrize("m,e", [(1, 1), (2, 1), (1, 2)])
def test_chain_isometry_order_counts_commutant_units(m, e):
    F = field_for(e)
    q = 2 ** e
    d = 2 * m + 1
    T = la.zeros(d, d)
    for i in range(d - 1):
        T[i + 1, i] = 1
    cols = []
    for k in range(d * d):
        E = la.zeros(d, d)
        E[divmod(k, d)] = 1
        cols.append((la.mat_mul(F, T, E) ^ la.mat_mul(F, E, T)).ravel())
    commutant = la.kernel_basis(F, np.stack(cols, axis=1))
    assert len(commutant) == d
    units = 0
    for coeffs in np.ndindex(*([q] * d)):
        g = la.zeros(d, d)
        for c, v in zip(coeffs, commutant):
            g ^= la.scale(F, c, v.reshape(d, d))
        if la.rank(F, g) == d:
            units += 1
    assert units == cz.chain_isometry_order(m, q) == (q - 1) * q ** (2 * m)
    assert units != q ** d
