import copy
import functools
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import module_search as ms
from char2orbits import centralizers as cz
from char2orbits import classical as cl
from char2orbits import combinatorics as cb
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits import oracle as orc
from char2orbits.classical import space_for
from char2orbits.finite_field import field_for

F2 = field_for(1)
SRC = Path(__file__).resolve().parents[1] / "src"


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

# the censuses beyond them: rank 3 over F_2 and rank 2 over F_4
REACH = [("sp", 3, 1), ("so-odd", 3, 1), ("so-even", 3, 1),
         ("sp", 2, 2), ("so-odd", 2, 2), ("so-even", 2, 2)]

# the rank-one even spaces, which have no pair swap
PLANES = [("so-even", 1, 1), ("so-even", 1, 2)]


def full_transvections(space):
    """Every distinct transvection (sp, so-odd) or reflection (so-even) of
    the space, by a scan of all q^d vectors: the reference generating set."""
    F = space.field
    unique = {}
    for v in product(range(F.q), repeat=space.d):
        if not any(v):
            continue
        if space.kind == "sp":
            ts = [cl.symplectic_transvection(space, v, c) for c in range(1, F.q)]
        else:
            ts = [cl.orthogonal_transvection(space, v)] if space.alpha(v) else []
        for t in ts:
            unique.setdefault(key(t), t)
    return list(unique.values())


def batch_mul(F, A, B):
    "Matrix products over GF(2^e), broadcast over leading axes."
    mul = np.array(F.mul_table, dtype=np.uint8)
    return np.bitwise_xor.reduce(
        mul[A[..., :, :, None], B[..., None, :, :]], axis=-2)


def key(g):
    "A matrix as hashable bytes, one per entry."
    return np.asarray(g, dtype=np.uint8).tobytes()


@functools.lru_cache(maxsize=None)
def filter_scan(kind, n, e):
    """Every form-preserving matrix, found by scanning all q^(d*d) of them,
    as int row lists."""
    space = space_for(kind, n, e)
    F, d = space.field, space.d
    idx = np.arange(F.q ** (d * d))
    digits = (idx[:, None] // F.q ** np.arange(d * d)) % F.q
    G = digits.astype(np.uint8).reshape(-1, d, d)
    GT = np.swapaxes(G, 1, 2)
    if kind == "sp":
        S = np.array(space.S, dtype=np.uint8)
        keep = (batch_mul(F, batch_mul(F, GT, S), G) == S).all(axis=(1, 2))
    else:
        B = np.array(space.B, dtype=np.uint8)
        M = batch_mul(F, batch_mul(F, GT, B), G) ^ B
        keep = ((M == np.swapaxes(M, 1, 2)).all(axis=(1, 2))
                & ~np.diagonal(M, axis1=1, axis2=2).any(axis=1))
    return G[keep].tolist()


def closure(F, gens):
    "The group the matrices generate, as a set of bytes."
    ident = la.identity(len(gens[0]))
    seen = {key(ident)}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = la.mat_mul(F, g, h)
            if key(gh) not in seen:
                seen.add(key(gh))
                frontier.append(gh)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def generator_closure(kind, n, e):
    space = space_for(kind, n, e)
    return closure(space.field, orc.enumerate_group(space).generators)


def conjugate_keys(space, G, X):
    "functional_key of g X g^-1 for every g in G, in order."
    F = space.field
    G_inv = np.array([la.inverse(F, g) for g in G], dtype=np.uint8)
    G, X = np.asarray(G, dtype=np.uint8), np.asarray(X, dtype=np.uint8)
    Y = batch_mul(F, batch_mul(F, G, X), G_inv).reshape(len(G), -1)
    keys = np.zeros(len(G), dtype=np.int64)
    for i, b in enumerate(space.lie_basis()):
        sel = np.array(b).T.reshape(-1) == 1
        vals = np.bitwise_xor.reduce(Y[:, sel], axis=1)
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


def test_groups_with_memoized_labels_compare_without_raising():
    # the label memo holds numpy arrays, which == cannot reduce to a bool;
    # groups are records that compare by identity
    space = space_for("sp", 1)
    group = orc.enumerate_group(space)
    orc.all_nilpotent_orbits(space, group)
    twin = copy.deepcopy(group)
    assert group._labels and twin._labels
    assert group == group
    assert group != twin


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
        assert generator_closure(kind, n, e) == {key(g) for g in scanned}


@pytest.mark.parametrize("kind,n,e", [s[:3] for s in SERVED] + REACH + PLANES)
def test_every_generator_is_an_involution(kind, n, e):
    space = space_for(kind, n, e)
    for g in orc.enumerate_group(space).generators:
        assert cl.preserves_form(space, g)
        assert la.mat_mul(space.field, g, g) == la.identity(space.d)


def test_lean_generator_counts():
    # e * (2n + C(2n, 2)) transvections for sp and so-odd; so-even keeps
    # every reflection and the pair swap, the one generator the full
    # transvection scan leaves out
    counts = [len(orc.enumerate_group(space_for(*s[:3])).generators)
              for s in SERVED]
    assert counts == [3, 6, 10, 3, 10, 6, 7]
    assert sum(len(full_transvections(space_for(*s[:3]))) for s in SERVED) \
        + 1 == 76


def test_generator_closures_reach_the_formula_order():
    for kind, n, e, want in SERVED:
        grp = orc.enumerate_group(space_for(kind, n, e))
        assert len(generator_closure(kind, n, e)) == grp.order == want


def test_even_reflections_alone_stop_at_index_two():
    space = space_for("so-even", 2)
    gens = orc.enumerate_group(space).generators
    refl = [g for g in gens if la.rank(F2, la.add(g, la.identity(4))) == 1]
    assert len(refl) == len(gens) - 1
    assert len(closure(F2, refl)) == 36


def test_random_even_elements_reach_both_cosets():
    space = space_for("so-even", 2)
    gens = orc.enumerate_group(space).generators
    refl = [g for g in gens if la.rank(F2, la.add(g, la.identity(4))) == 1]
    half = closure(F2, refl)
    rng = np.random.default_rng(0)
    draws = [cl.random_group_element(space, rng) for _ in range(300)]
    assert all(key(g) in generator_closure("so-even", 2, 1) for g in draws)
    inside = sum(key(g) in half for g in draws)
    assert 0 < inside < len(draws)


@pytest.mark.parametrize("e", [1, 2])
def test_even_reach_is_where_the_engine_stops(e):
    top = cl.even_reach(e)
    assert 1 << orc._key_bits(space_for("so-even", top, e)) <= orc.POINT_LIMIT
    with pytest.raises(ValueError, match=r"stops at 2\^21"):
        orc._key_bits(space_for("so-even", top + 1, e))


def test_census_refuses_duals_beyond_the_point_limit():
    assert orc.POINT_LIMIT == 1 << 21
    for kind, n, e in [("so-even", 4, 1), ("so-even", 3, 2), ("sp", 3, 2)]:
        space = space_for(kind, n, e)
        with pytest.raises(ValueError, match=r"stops at 2\^21, .* MB"):
            orc.all_nilpotent_orbits(space, classify=False)
        with pytest.raises(ValueError):
            orc.adjoint_nilpotent_orbit_count(space)
        # refused before any group is built
        assert (kind, n, e) not in orc._group_memo


# ----------------------------------------------------------------------
# keys


def test_functional_key_round_trip():
    space = space_for("sp", 1, 2)
    for idx in range(space.field.q ** space.dim_algebra):
        X = space.dual_from_values(orc.key_values(space, idx))
        assert orc.functional_key(space, X) == idx


# ----------------------------------------------------------------------
# the engine's permutations, against the per-key formula


def algebra_key(space, T):
    "An algebra element as one integer: packed lie_basis coordinates."
    return orc._pack(cl.algebra_coords(space, T), space.field.e)


def unit_matrices(space, action):
    """The matrices of the single-bit keys: one dual_from_values solve each
    for functionals, a scaled lie_basis matrix for algebra elements."""
    to_matrix = {"coadjoint": orc._functional,
                 "adjoint": orc._algebra_element}[action]
    return [to_matrix(space, 1 << i)
            for i in range(space.field.e * space.dim_algebra)]


def reference_permutation(space, g, action):
    """The permutation of all keys from to_key(g M g^-1), one product pair
    and one key read per single-bit unit M: the reference for the engine's
    one adjoint matrix per generator."""
    F = space.field
    to_key = {"coadjoint": orc.functional_key, "adjoint": algebra_key}[action]
    g_inv = la.inverse(F, g)
    return orc._spread([to_key(space, la.mat_mul(F, la.mat_mul(F, g, M), g_inv))
                        for M in unit_matrices(space, action)])


@pytest.mark.parametrize("action", ["coadjoint", "adjoint"])
@pytest.mark.parametrize("kind,n,e", [s[:3] for s in SERVED])
def test_stacked_permutations_equal_the_per_key_formula(kind, n, e, action):
    space = space_for(kind, n, e)
    slots = orc._free_slots(space)
    for g in orc.enumerate_group(space).generators:
        stacked = orc._spread(orc._image_keys(space, g, action, slots))
        assert np.array_equal(stacked, reference_permutation(space, g, action))


@pytest.mark.parametrize("action", ["coadjoint", "adjoint"])
@pytest.mark.parametrize("kind,n,e", [s[:3] for s in SERVED] + PLANES)
def test_lean_generators_give_the_labels_of_every_transvection(kind, n, e,
                                                               action):
    space = space_for(kind, n, e)
    lean = orc.enumerate_group(space)
    gens = full_transvections(space)
    if kind == "so-even" and n >= 2:
        gens.append(cl.pair_swap(space))
    full = orc.FiniteGroup(gens, lean.order)
    _, want = orc._orbits(space, full, action)
    _, got = orc._orbits(space, lean, action)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


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
    assert not any(la.mat_trace(F2, la.mat_mul(F2, zero.representative, b))
                   for b in space.borel_basis())


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


# ----------------------------------------------------------------------
# rank 3 over F_2 and rank 2 over F_4


@pytest.mark.parametrize("kind,n,e", [("sp", 3, 1), ("so-odd", 3, 1),
                                      ("sp", 2, 2), ("so-odd", 2, 2)])
def test_censuses_beyond_the_served_spaces(kind, n, e):
    space = space_for(kind, n, e)
    group = orc.enumerate_group(space)
    reports = orc.all_nilpotent_orbits(space, group)
    q = space.field.q
    assert len(reports) == cb.p2(n)
    assert group.order == cz.group_order(n, q)
    assert sum(r.orbit_size for r in reports) == q ** (space.dim_algebra - n)
    for r in reports:
        assert r.orbit_size * r.stabilizer_order == group.order
    fam = cb.FAMILIES[kind]
    texts = sorted(fam.format(r.label) for r in reports)
    assert texts == sorted(fam.format(lab) for lab in fam.rational(n))
    got: dict = {}
    for r in reports:
        pair = fam.pair(r.label)
        got[pair] = got.get(pair, 0) + 1
    assert got == {pair: 2 ** len(fam.free(pair)) for pair in fam.pairs(n)}


@pytest.mark.parametrize("n,e,count", [(3, 1, 5), (2, 2, 3)])
def test_even_censuses_beyond_the_served_spaces(n, e, count):
    space = space_for("so-even", n, e)
    group = orc.enumerate_group(space)
    reports = orc.all_nilpotent_orbits(space, group, classify=False)
    q = space.field.q
    assert len(reports) == count
    assert group.order == cz.even_group_order(n, q)
    assert sum(r.orbit_size for r in reports) == q ** (space.dim_algebra - n)
    for r in reports:
        assert r.orbit_size * r.stabilizer_order == group.order


def test_the_largest_census_stays_under_500_mb():
    script = "\n".join([
        "import resource, sys",
        "from char2orbits import oracle",
        "from char2orbits.classical import space_for",
        "space = space_for('sp', 3)",
        "assert 1 << oracle._key_bits(space) == oracle.POINT_LIMIT",
        "oracle.all_nilpotent_orbits(space, classify=False)",
        "oracle.adjoint_nilpotent_orbit_sizes(space)",
        "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "print(kb // 1024 if sys.platform != 'darwin' else kb >> 20)"])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert int(p.stdout) < 500


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
                                      ("sp", 1, 2), ("so-even", 2, 1),
                                      ("so-odd", 1, 2)])
def test_nilpotence_definition_matches_the_splitting_criterion(kind, n, e):
    space = space_for(kind, n, e)
    grp = orc.enumerate_group(space)
    nil_keys = set()
    for r in orc.all_nilpotent_orbits(space, grp, classify=False):
        nil_keys.update(orc.coadjoint_orbit(space, r.representative, grp))
    for idx in range(space.field.q ** space.dim_algebra):
        X = space.dual_from_values(orc.key_values(space, idx))
        assert ms.criterion_nilpotent(space, X) == (idx in nil_keys)


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
                assert od.rational_label(space, Y) == r.label


# ----------------------------------------------------------------------
# adjoint and coadjoint censuses


@pytest.mark.parametrize("kind,n,e", [s[:3] for s in SERVED])
def test_adjoint_and_coadjoint_nilpotent_orbit_sizes_agree(kind, n, e):
    space = space_for(kind, n, e)
    grp = orc.enumerate_group(space)
    co = [r.orbit_size
          for r in orc.all_nilpotent_orbits(space, grp, classify=False)]
    ad = orc.adjoint_nilpotent_orbit_sizes(space, grp)
    assert sorted(ad) == sorted(co)
    assert orc.adjoint_nilpotent_orbit_count(space, grp) == len(ad)
    if (kind, n, e) == ("sp", 2, 1):
        assert sorted(ad) == [1, 15, 15, 45, 180]


# The two actions part ways past the served spaces: at rank 3 over F_2
# and at rank 2 over F_4 the symplectic and odd orthogonal multisets
# differ, while the even orthogonal ones still agree.
BEYOND_SIZES = {
    ("sp", 3, 1): (
        [1, 63, 315, 945, 3780, 15120, 15120, 22680, 22680, 181440],
        [1, 63, 315, 945, 3780, 3780, 11340, 15120, 45360, 181440]),
    ("so-odd", 3, 1): (
        [1, 315, 378, 630, 3780, 3780, 11340, 15120, 45360, 181440],
        [1, 63, 315, 945, 3780, 3780, 11340, 15120, 45360, 181440]),
    ("sp", 2, 2): ([1, 255, 1530, 2550, 61200], [1, 255, 255, 3825, 61200]),
    ("so-odd", 2, 2): ([1, 255, 1530, 2550, 61200],
                       [1, 255, 255, 3825, 61200]),
    ("so-even", 3, 1): ([1, 105, 210, 1260, 2520], [1, 105, 210, 1260, 2520]),
    ("so-even", 2, 2): ([1, 30, 225], [1, 30, 225]),
}


@pytest.mark.parametrize("kind,n,e", REACH)
def test_adjoint_and_coadjoint_sizes_beyond_the_served_spaces(kind, n, e):
    space = space_for(kind, n, e)
    grp = orc.enumerate_group(space)
    co = [r.orbit_size
          for r in orc.all_nilpotent_orbits(space, grp, classify=False)]
    ad = orc.adjoint_nilpotent_orbit_sizes(space, grp)
    assert (sorted(co), sorted(ad)) == BEYOND_SIZES[kind, n, e]
    assert sum(ad) == space.field.q ** (space.dim_algebra - n)


def test_censuses_load_no_numpy_ma_beyond_numpy_itself():
    # numpy >= 2.3 imports numpy.ma lazily, on the first np.unique; a
    # census pays that import unless it avoids those calls
    script = "\n".join([
        "import sys, numpy",
        "before = {m for m in sys.modules if m.startswith('numpy.ma')}",
        "from char2orbits import oracle",
        "from char2orbits.classical import space_for",
        "oracle.all_nilpotent_orbits(space_for('sp', 2))",
        "oracle.adjoint_nilpotent_orbit_count(space_for('so-even', 2))",
        "after = {m for m in sys.modules if m.startswith('numpy.ma')}",
        "sys.exit(sorted(after - before) or None)"])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


# ----------------------------------------------------------------------
# even orthogonal transport


def test_even_adjoint_and_coadjoint_nilpotent_counts_agree():
    space = space_for("so-even", 2)
    grp = orc.enumerate_group(space)
    co = orc.all_nilpotent_orbits(space, grp, classify=False)
    assert orc.adjoint_nilpotent_orbit_count(space, grp) == len(co)
