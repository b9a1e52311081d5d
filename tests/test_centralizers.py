import copy
import pickle

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

SP, SO = cb.FAMILIES["sp"], cb.FAMILIES["so-odd"]


def symbols(n):
    return [cb.symp_pair_to_blocks(p) for p in cb.symp_pairs(n)]


def blocks(*ml):
    return tuple(BlockLabel(m, l) for m, l in ml)


# ----------------------------------------------------------------------
# symplectic formulas


def test_symp_dimension_examples():
    assert cz.report(SP, blocks((1, 0))).dim_z == 3
    assert cz.report(SP, blocks((2, 1))).dim_z == 4
    assert cz.report(SP, blocks((1, 0), (1, 0))).dim_z == 10


def test_symp_component_rank_examples():
    assert cz.report(SP, blocks((1, 0))).comp_rank == 0
    assert cz.report(SP, blocks((2, 1))).comp_rank == 1
    assert cz.report(SP, blocks((2, 2))).comp_rank == 0


def test_symp_report_ignores_decorations():
    want = cz.report(SP, blocks((2, 1), (1, 1)))
    for eps in ("0", "d"):
        label = (BlockLabel(2, 1, eps), BlockLabel(1, 1, "0"))
        assert cz.report(SP, label) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_zero_orbit_centralizer_is_the_whole_algebra(n):
    rep = cz.report(SP, blocks((1, 0)) * n)
    assert rep.dim_z == cz.algebra_dim(n)
    assert rep.comp_rank == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_symp_rank_counts_split_positions(n):
    for pair in cb.symp_pairs(n):
        sym = cb.symp_pair_to_blocks(pair)
        assert cz.report(SP, sym).comp_rank == len(SP.free(pair))
        assert cz.report(SP, sym).comp_rank <= len(sym)


@pytest.mark.parametrize("n", range(1, 9))
def test_symp_rational_class_total_is_p2(n):
    assert sum(2 ** cz.report(SP, s).comp_rank for s in symbols(n)) == cb.p2(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_symp_dimension_is_the_block_formula(n):
    # the table computes dim Z from the pair; the blocks give the same sum
    for sym in symbols(n):
        want = sum((4 * i - 1) * b.m - 2 * b.l for i, b in enumerate(sym, 1))
        assert cz.report(SP, sym).dim_z == want


def test_symp_rejects_invalid_symbols():
    with pytest.raises(ValueError):
        cz.report(SP, blocks((1, 2)))
    with pytest.raises(ValueError):
        cz.report(SP, blocks((1, 1), (2, 1)))
    with pytest.raises(ValueError):  # decorated and closed blocks mixed
        cz.report(SP, (BlockLabel(2, 1, "d"), BlockLabel(1, 1)))


# ----------------------------------------------------------------------
# odd orthogonal formulas


def test_oodd_dimension_examples():
    assert cz.report(SO, SO.closed(((0,), (1,)))).dim_z == 3
    assert cz.report(SO, SO.closed(((), (1,)))).dim_z == 3
    assert cz.report(SO, SO.closed(((1,), ()))).dim_z == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_oodd_zero_orbit_matches_the_algebra_dimension(n):
    assert cz.report(SO, SO.closed(((), (1,) * n))).dim_z == cz.algebra_dim(n)


@pytest.mark.parametrize("m", range(1, 6))
def test_pure_chain_dimension_is_m(m):
    assert cz.report(SO, SO.closed(((m,), ()))) == cz.CentralizerReport(m, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_oodd_rank_counts_split_positions(n):
    for nu, mu in cb.oodd_pairs(n):
        got = cz.report(SO, SO.closed((nu, mu))).comp_rank
        v = list(nu) + [0] * (len(mu) + 1 - len(nu))
        want = sum(1 for i in range(1, len(mu) + 1)
                   if v[i] < mu[i - 1] <= v[i - 1])
        assert got == want
        assert got <= len(mu)


@pytest.mark.parametrize("n", range(1, 9))
def test_oodd_rational_class_total_is_p2(n):
    total = sum(2 ** cz.report(SO, SO.closed(p)).comp_rank
                for p in cb.oodd_pairs(n))
    assert total == cb.p2(n)


def test_oodd_rejects_invalid_pairs():
    with pytest.raises(ValueError):
        SO.closed(((1, 2), (1,)))
    with pytest.raises(ValueError):  # a label with that pair
        cz.report(SO, cb.OddLabel(1, (BlockLabel(3, 1, "0"),)))


# ----------------------------------------------------------------------
# reports


def test_report_fields_and_leading_count():
    rep = cz.report(SP, blocks((2, 1)))
    assert rep.dim_z == 4 and rep.comp_rank == 1
    assert rep.point_count_leading(2) == 32
    assert rep.component_group() == "(Z/2)^1"
    assert cz.report(SP, blocks((1, 0))).component_group() == "1"


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
    quad = [r[i] for i, r in enumerate(space.B)]
    got = iso.count_space_maps(F, [(space.S, space.S), (G, G)], quad, quad)
    assert got == cz.chain_z_order(m, 2 ** e)


@pytest.mark.parametrize("m,e", [(1, 1), (2, 1), (1, 2)])
def test_chain_isometry_order_counts_commutant_units(m, e):
    F = field_for(e)
    q = 2 ** e
    d = 2 * m + 1
    T = la.zeros(d, d)
    for i in range(d - 1):
        T[i + 1][i] = 1
    cols = []
    for k in range(d * d):
        E = la.zeros(d, d)
        i, j = divmod(k, d)
        E[i][j] = 1
        cols.append(la.flatten(la.add(la.mat_mul(F, T, E), la.mat_mul(F, E, T))))
    commutant = la.kernel_basis(F, la.transpose(cols))
    assert len(commutant) == d
    units = 0
    for coeffs in np.ndindex(*([q] * d)):
        g = la.zeros(d, d)
        for c, v in zip(coeffs, commutant):
            g = la.add(g, la.scale(F, c, la.reshape(v, d)))
        if la.rank(F, g) == d:
            units += 1
    assert units == cz.chain_isometry_order(m, q) == (q - 1) * q ** (2 * m)
    assert units != q ** d


# ----------------------------------------------------------------------
# the report record


def test_centralizer_report_record():
    a, b = cz.CentralizerReport(4, 1), cz.report(SP, blocks((2, 1)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != cz.CentralizerReport(4, 0) and a != (4, 1)
    assert repr(a) == "CentralizerReport(dim_z=4, comp_rank=1)"
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(other) is cz.CentralizerReport and other == a
    with pytest.raises(AttributeError):
        a.dim_z = 5
    with pytest.raises(AttributeError):
        a.comp_rank = 0


@pytest.mark.parametrize("dim_z,comp_rank", [(-1, 0), (0, -1)])
def test_centralizer_report_rejects_negatives(dim_z, comp_rank):
    with pytest.raises(ValueError):
        cz.CentralizerReport(dim_z, comp_rank)
