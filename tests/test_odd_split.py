"""Chain splitting and labeling of odd orthogonal functionals."""

import hashlib
import json
from itertools import product

import numpy as np
import pytest

import module_search as ms
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.classical import (alternating_gram, coadjoint,
                                   random_group_element, space_for)
from char2orbits.combinatorics import BlockLabel
from char2orbits.finite_field import Field
from char2orbits.form_modules import classify_closed

F2 = Field(1)
F4 = Field(2)


def canonical_labels(n):
    "Every decorated label with decorations free exactly at split positions."
    out = []
    for pair in cb.oodd_pairs(n):
        nu, mu = pair
        m = nu[0] if nu else 0
        tail = list(nu[1:]) + [0] * (len(mu) - len(nu) + 1)
        base = [BlockLabel(mu[i] + tail[i], mu[i]) for i in range(len(mu))]
        free = cb.oodd_split_indices(pair)
        for choice in product("0d", repeat=len(free)):
            eps = ["0"] * len(base)
            for pos, c in zip(free, choice):
                eps[pos] = c
            out.append(cb.OddLabel(m, tuple(
                BlockLabel(b.m, b.l, e) for b, e in zip(base, eps))))
    return out


def beta(space, v, w):
    "The space's pairing v^t S w, by the matrix S."
    return la.dot(space.field, v, la.mat_vec(space.field, space.S, w))


def all_functionals(space):
    for vals in product(range(space.field.q), repeat=space.dim_algebra):
        yield space.dual_from_values(list(vals))


def census(space):
    labels = {}
    failed = 0
    for X in all_functionals(space):
        try:
            s = od.split_odd_functional(space, X)
        except od.SplitError:
            failed += 1
            continue
        lab = od.rational_odd_label(s)
        labels[lab] = labels.get(lab, 0) + 1
    return labels, failed


def test_zero_functional_has_empty_chain_and_trivial_blocks():
    sp = space_for("so-odd", 2)
    s = od.split_odd_functional(sp, la.zeros(sp.d, sp.d))
    assert s.m == 0 and s.dual == []
    assert s.module is not None and s.module.dim == 4
    lab = od.rational_odd_label(s)
    assert lab.closed().blocks == (BlockLabel(1, 1), BlockLabel(1, 1))
    assert lab.eps() == ("0", "0")
    assert lab.pair() == ((), (1, 1))


@pytest.mark.parametrize("text", ["m=0; (1)^2_1:0 (1)^2_1:d",
                                  "m=1; (1)^2_1:d", "m=1; (2)^2_2:0"])
def test_split_inverts_the_complement_gram_once(text, monkeypatch):
    # one elimination of [Gw | Gx] gives T = Gw^-1 Gx; nothing is inverted
    space, X = od.odd_witness(cb.parse_label(text), F2)
    calls, inverted = [], []
    solve_matrix = la.solve_matrix
    monkeypatch.setattr(la, "solve_matrix", lambda F, A, B: calls.append(
        (A, B)) or solve_matrix(F, A, B))
    monkeypatch.setattr(la, "inverse", lambda F, A: inverted.append(A))
    s = od.split_odd_functional(space, X)
    assert s.module is not None and not inverted
    [(Gw, Gx)] = calls
    assert Gw == s.module.gram
    assert la.mat_mul(F2, Gw, s.module.op) == Gx


def test_form_modules_still_reject_a_degenerate_gram():
    with pytest.raises(ValueError, match="^matrix is singular$"):
        fm.FormModule("orth", F2, la.zeros(2, 2), la.zeros(2, 2), [0, 0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_chain_witness_has_no_complement(n):
    lab = cb.OddLabel(n, ())
    space, X = od.odd_witness(lab, F2)
    s = od.split_odd_functional(space, X)
    assert s.m == n
    assert s.module is None and len(s.complement) == 0
    assert len(s.chain) == n + 1 and len(s.dual) == n
    assert od.rational_odd_label(s) == lab == lab.closed()


def test_split_rejects_other_kinds():
    sp = space_for("sp", 1)
    with pytest.raises(ValueError):
        od.split_odd_functional(sp, la.zeros(sp.d, sp.d))


def test_non_nilpotent_functional_fails_to_split():
    assert issubclass(od.SplitError, fm.NotNilpotentError)
    sp = space_for("so-odd", 1)
    semisimple = sp.dual_from_values([1, 0, 0])
    with pytest.raises(od.SplitError,
                       match="^complement operator is not nilpotent$"):
        od.split_odd_functional(sp, semisimple)
    mixed = sp.dual_from_values([0, 1, 1])
    with pytest.raises(od.SplitError, match="quadratic value"):
        od.split_odd_functional(sp, mixed)


@pytest.mark.parametrize("kind,n,text", [
    ("sp", 2, "functional is not nilpotent"),
    ("so-odd", 1, "complement operator is not nilpotent"),
    ("so-even", 2, "functional is not nilpotent")],
    ids=["sp", "so-odd", "so-even"])
@pytest.mark.parametrize("e", [1, 2])
def test_rational_label_rejects_a_non_nilpotent_functional(kind, n, text, e):
    space = space_for(kind, n, e)
    X = la.zeros(space.d, space.d)
    X[0][0] = 1
    with pytest.raises(fm.NotNilpotentError, match=f"^{text}$"):
        od.rational_label(space, X)


@pytest.mark.parametrize("e", [1, 2])
def test_split_success_is_the_nilpotency_criterion(e):
    sp = space_for("so-odd", 2, e=e)
    rng = np.random.default_rng(3 + e)
    for _ in range(40):
        vals = rng.integers(0, sp.field.q, size=sp.dim_algebra).tolist()
        X = sp.dual_from_values(vals)
        try:
            od.split_odd_functional(sp, X)
            split_ok = True
        except od.SplitError:
            split_ok = False
        assert split_ok == ms.criterion_nilpotent(sp, X)


def test_exhaustive_o3_census_over_f2():
    labels, failed = census(space_for("so-odd", 1))
    assert failed == 4
    chain = cb.OddLabel(1, ())
    trivial = cb.OddLabel(0, (BlockLabel(1, 1, "0"),))
    assert labels == {chain: 3, trivial: 1}


def test_exhaustive_o5_census_over_f2():
    labels, failed = census(space_for("so-odd", 2))
    assert failed == 1024 - 256
    assert set(labels) == set(canonical_labels(2))
    sizes = {lab: cnt for lab, cnt in labels.items()}
    assert sizes[cb.OddLabel(2, ())] == 180
    assert sizes[cb.OddLabel(0, (BlockLabel(1, 1, "0"), BlockLabel(1, 1, "0")))] == 1
    assert sizes[cb.OddLabel(1, (BlockLabel(1, 1, "d"),))] == 15
    assert sizes[cb.OddLabel(1, (BlockLabel(1, 1, "0"),))] == 45
    assert sizes[cb.OddLabel(0, (BlockLabel(2, 2, "0"),))] == 15


def test_exhaustive_o3_census_over_f4():
    labels, failed = census(space_for("so-odd", 1, e=2))
    assert failed == 64 - 16
    assert labels == {cb.OddLabel(1, ()): 15,
                      cb.OddLabel(0, (BlockLabel(1, 1, "0"),)): 1}


def test_every_borel_vanishing_functional_splits():
    from char2orbits.classical import algebra_coords

    for n in (1, 2):
        sp = space_for("so-odd", n)
        rows = [algebra_coords(sp, b) for b in sp.borel_basis()]
        kernel = la.kernel_basis(F2, rows)
        for coeffs in product(range(2), repeat=len(kernel)):
            vals = [0] * sp.dim_algebra
            for c, k in zip(coeffs, kernel):
                if c:
                    vals = [x ^ y for x, y in zip(vals, k)]
            X = sp.dual_from_values(vals)
            od.split_odd_functional(sp, X)


@pytest.mark.parametrize("e", [1, 2])
def test_chain_is_exactly_translated_by_the_group(e):
    F = Field(e)
    lab = cb.OddLabel(1, (BlockLabel(1, 1, "d"),))
    space, X = od.odd_witness(lab, F)
    base = od.split_odd_functional(space, X)
    rng = np.random.default_rng(11)
    for _ in range(3):
        g = random_group_element(space, rng)
        moved = od.split_odd_functional(space, coadjoint(space, g, X))
        assert moved.m == base.m
        for v, w in zip(moved.chain, base.chain):
            assert v == la.mat_vec(F, g, w)


def test_empty_chain_is_the_radical_line():
    space = space_for("so-odd", 2)
    rng = np.random.default_rng(5)
    radical = [0] * space.d
    radical[-1] = 1
    X = space.dual_from_values([0] * space.dim_algebra)
    for _ in range(3):
        g = random_group_element(space, rng)
        s = od.split_odd_functional(space, coadjoint(space, g, X))
        assert s.m == 0 and s.chain[0] == radical


def test_dual_chain_satisfies_the_pairing_relations():
    space, X = od.odd_witness(cb.OddLabel(2, (BlockLabel(1, 1, "0"),)), F2)
    s = od.split_odd_functional(space, X)
    G = alternating_gram(space, X)
    for i, v in enumerate(s.chain):
        if i < s.m:
            assert space.alpha(v) == 0
        for j, u in enumerate(s.dual):
            assert beta(space, v, u) == (1 if i == j else 0)
    for u in s.dual:
        assert space.alpha(u) == 0
    for k in range(1, s.m):
        lhs = la.mat_vec(F2, space.S, s.dual[k])
        rhs = la.mat_vec(F2, G, s.dual[k - 1])
        assert lhs == rhs


def test_dual_recurrence_rejects_a_target_off_the_pairing_image():
    # S u = G u_0 has no solution when G u_0 has a radical coordinate
    space = space_for("so-odd", 2)
    e = la.identity(space.d)
    chain = [e[0], e[1], e[4]]
    G = la.zeros(5, 5)
    G[2][4] = G[4][2] = 1
    with pytest.raises(od.SplitError,
                       match="^dual recurrence leaves the pairing's image$"):
        od._dual_chain(space, G, chain)


@pytest.mark.parametrize("e,max_n", [(1, 3), (2, 2)])
def test_witness_round_trip_for_every_small_label(e, max_n):
    F = Field(e)
    for n in range(1, max_n + 1):
        for lab in canonical_labels(n):
            space, X = od.odd_witness(lab, F)
            assert space.n == n
            got = od.rational_odd_label(od.split_odd_functional(space, X))
            assert got == lab


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_rational_label_is_constant_on_random_conjugates(e, n):
    F = Field(e)
    gen = np.random.default_rng(n)
    for lab in cb.rational_labels(n):
        space, X = od.odd_witness(lab, F)
        Y = coadjoint(space, random_group_element(space, gen), X)
        assert od.rational_odd_label(od.split_odd_functional(space, Y)) == lab


@pytest.mark.parametrize("e", [3, 4])
@pytest.mark.parametrize("kind", ["sp", "so-odd"])
def test_rational_label_round_trips_over_gf8_and_gf16(kind, e):
    # the generic-field elimination path of the split and the classifiers
    F = Field(e)
    gen = np.random.default_rng(e)
    for n in (1, 2, 3):
        labels = cb.rational_symbols(n) if kind == "sp" else \
            cb.rational_labels(n)
        for lab in labels:
            if kind == "sp":
                space = space_for("sp", n, e)
                X = fm.build_normal_form(lab, F)[1]
            else:
                space, X = od.odd_witness(lab, F)
            Y = coadjoint(space, random_group_element(space, gen), X)
            assert od.rational_label(space, Y) == lab


@pytest.mark.parametrize("F", [F2, F4])
def test_chain_search_matches_the_block_system(F):
    gen = np.random.default_rng(17)
    cases = [od.odd_witness(lab, F) for n in range(1, 7)
             for lab in cb.rational_labels(n)]
    cases.append(od.odd_witness(cb.parse_label("m=12; -"), F))
    seen = set()
    for space, X in cases:
        Y = coadjoint(space, random_group_element(space, gen), X)
        G = alternating_gram(space, Y)
        got = od._chain_vectors(space, G)
        assert got == ms.chain_by_block_system(space, G)
        seen.add(got[0])
    assert seen == set(range(7)) | {12}
    # any alternating G, of any rank: an odd pencil always has a chain
    for n in (1, 2, 3):
        space = space_for("so-odd", n, F.e)
        for _ in range(40):
            U = np.triu(gen.integers(0, F.q, size=(space.d, space.d)), 1)
            U[:, gen.random(space.d) < 0.5] = 0
            G = (U ^ U.T).tolist()
            got = od._chain_vectors(space, G)
            assert got == ms.chain_by_block_system(space, G)


def test_bigger_decorated_round_trips():
    for lab in [cb.OddLabel(1, (BlockLabel(2, 1, "0"), BlockLabel(1, 1, "d"))),
                cb.OddLabel(1, (BlockLabel(3, 2, "0"),))]:
        space, X = od.odd_witness(lab, F2)
        assert od.rational_odd_label(od.split_odd_functional(space, X)) == lab


def test_decorations_above_the_chain_length_drop():
    # a decorated block whose level exceeds the chain length flips alone
    space, X = od.odd_witness(cb.OddLabel(1, (BlockLabel(3, 2, "d"),)), F2)
    got = od.rational_odd_label(od.split_odd_functional(space, X))
    assert got == cb.OddLabel(1, (BlockLabel(3, 2, "0"),))


def test_decorations_within_the_chain_length_stay():
    lab = cb.OddLabel(1, (BlockLabel(3, 2, "d"), BlockLabel(1, 1, "d")))
    space, X = od.odd_witness(lab, F2)
    got = od.rational_odd_label(od.split_odd_functional(space, X))
    assert got == cb.OddLabel(1, (BlockLabel(3, 2, "0"), BlockLabel(1, 1, "d")))


def test_high_co_level_blocks_clip_to_the_chain_length():
    space, X = od.odd_witness(cb.OddLabel(0, (BlockLabel(3, 2, "d"),)), F2)
    s = od.split_odd_functional(space, X)
    lab = od.rational_odd_label(s)
    assert lab == cb.OddLabel(0, (BlockLabel(3, 3, "0"),))
    assert ms.odd_label_by_search(s) == lab


def test_decoration_moves_collapse_non_canonical_starts():
    # o(5): both decorations on the two singleton blocks absorb to plain
    for eps in [("d", "d"), ("0", "d"), ("d", "0")]:
        lab = cb.OddLabel(0, (BlockLabel(1, 1, eps[0]), BlockLabel(1, 1, eps[1])))
        space, X = od.odd_witness(lab, F2)
        got = od.rational_odd_label(od.split_odd_functional(space, X))
        assert got == cb.OddLabel(0, (BlockLabel(1, 1, "0"), BlockLabel(1, 1, "0")))


def test_moves_agree_with_the_isometry_search():
    for lab in canonical_labels(2):
        space, X = od.odd_witness(lab, F2)
        s = od.split_odd_functional(space, X)
        assert ms.odd_label_by_search(s) == od.rational_odd_label(s) == lab


def orth_complements(k, top=None):
    "Every valid decorated orth block tuple of total size k."
    top = k if top is None else top
    if k == 0:
        yield ()
        return
    for size in range(min(k, top), 0, -1):
        for rest in orth_complements(k - size, size):
            for l, eps in product(range((size + 1) // 2, size + 1), "0d"):
                blocks = (BlockLabel(size, l, eps),) + rest
                if cb.validate_blocks(blocks, kind="orth"):
                    yield blocks


def test_coset_reduction_matches_the_walk():
    # every chain length m and valid decorated complement with n <= 6: the
    # walk starts from the complement itself, the reduction from what
    # classify_orth_fq reads off its normal form
    cases = [(m, raw) for k in range(7) for raw in orth_complements(k)
             for m in range(7 - k) if m + k]
    assert len(cases) == 732
    for m, raw in cases:
        module = fm.build_normal_form(raw, F2, kind="orth")[0] if raw else None
        split = od.OddSplit(None, None, m, [], [], [], module)
        try:
            want = ms.odd_label_by_walk(m, raw)
        except fm.ClassificationError:
            with pytest.raises(fm.ClassificationError):
                od.rational_odd_label(split)
            continue
        assert od.rational_odd_label(split) == want, (m, raw)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_paired_singletons_classify_at_the_rank_cap(n):
    # every pair of blocks flips in tandem: a walk visits 2^n labels
    lab = cb.OddLabel(0, (BlockLabel(1, 1, "0"),) * n)
    space, X = od.odd_witness(lab, F2)
    Y = coadjoint(space, random_group_element(space, np.random.default_rng(n)), X)
    assert od.rational_odd_label(od.split_odd_functional(space, Y)) == lab


@pytest.mark.parametrize("e", [1, 2])
def test_label_is_invariant_under_translation(e):
    F = Field(e)
    rng = np.random.default_rng(17 + e)
    labs = [cb.OddLabel(1, (BlockLabel(1, 1, "d"),)),
            cb.OddLabel(0, (BlockLabel(2, 2, "0"),))]
    for lab in labs:
        space, X = od.odd_witness(lab, F)
        for _ in range(2):
            g = random_group_element(space, rng)
            moved = od.split_odd_functional(space, coadjoint(space, g, X))
            assert od.rational_odd_label(moved) == lab


def test_census_labels_are_admissible_pairs():
    labels, _ = census(space_for("so-odd", 2))
    for lab in labels:
        nu, mu = lab.pair()
        assert cb.oodd_pair_valid(nu, mu)
        assert sum(nu) + sum(mu) == 2


def test_witness_bytes_are_pinned():
    # sha256 of every canonical witness for n = 1..4, over F_2 then F_4:
    # normal-form prints these functionals, so their bytes must not drift
    h = hashlib.sha256()
    count = 0
    for F in (F2, F4):
        for n in range(1, 5):
            for lab in cb.rational_labels(n):
                _, X = od.odd_witness(lab, F)
                h.update(bytes(la.flatten(X)))
                count += 1
    assert count == 74
    assert h.hexdigest() == ("9822377546b5942a035535e264706997"
                             "984c0b2179ae66aed3e02b400e32dab1")


def test_nine_decorated_blocks_embed_without_search():
    lab = cb.OddLabel(0, (BlockLabel(1, 1, "d"),) * 9)
    space, X = od.odd_witness(lab, F4)
    s = od.split_odd_functional(space, X)
    assert s.m == 0
    assert classify_closed(s.module) == (BlockLabel(1, 1),) * 9


def test_witness_requires_decorations():
    with pytest.raises(ValueError):
        od.odd_witness(cb.OddLabel(1, (BlockLabel(1, 1),)), F2)


def test_label_json_round_trip():
    labs = [cb.OddLabel(2, ()),
            cb.OddLabel(0, (BlockLabel(1, 1, "0"), BlockLabel(1, 1, "0"))),
            cb.OddLabel(0, (BlockLabel(2, 2, "d"), BlockLabel(1, 1, "0")))]
    want = [{"m": 2, "pair": {"nu": [2], "mu": []}, "eps": []},
            {"m": 0, "pair": {"nu": [], "mu": [1, 1]}, "eps": ["0", "0"]},
            {"m": 0, "pair": {"nu": [], "mu": [2, 1]}, "eps": ["d", "0"]}]
    for lab, obj in zip(labs, want):
        assert json.loads(json.dumps(cb.label_to_json(lab))) == obj


def test_pair_to_label_round_trips_the_pair():
    for n in range(1, 7):
        for pair in cb.oodd_pairs(n):
            lab = cb.pair_to_label(pair)
            assert lab.pair() == tuple(map(tuple, pair))
            assert all(b.eps == "0" for b in lab.blocks)
    with pytest.raises(ValueError):
        cb.pair_to_label(((1, 2), ()))


def test_rational_labels_count_is_partition_number():
    for n in range(1, 7):
        labs = cb.rational_labels(n)
        assert len(labs) == cb.p2(n)
        assert len(set(labs)) == len(labs)


def test_label_text_round_trip():
    labs = [cb.OddLabel(3, ()),
            cb.OddLabel(0, (BlockLabel(2, 2, "0"),)),
            cb.OddLabel(2, (BlockLabel(2, 1, "d"), BlockLabel(1, 1, "0")))]
    for lab in labs:
        assert cb.parse_label(cb.format_label(lab)) == lab
    assert cb.format_label(labs[0]) == "m=3; -"
    with pytest.raises(ValueError):
        cb.parse_label("chain=3; -")
