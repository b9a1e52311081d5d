import json
from itertools import combinations, product

import numpy as np
import pytest

import module_search as ms
from char2orbits import centralizers as cz
from char2orbits import classical as cl
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.finite_field import field_for

F2 = field_for(1)
F4 = field_for(2)
SP = cb.FAMILIES["sp"]

rng = np.random.default_rng(23)


def labels(*pairs, eps=None):
    if eps is None:
        return tuple(cb.BlockLabel(m, l) for m, l in pairs)
    return tuple(cb.BlockLabel(m, l, e) for (m, l), e in zip(pairs, eps))


def single(m, l, eps=None, field=F2, kind="sp"):
    mod, _ = fm.build_normal_form((cb.BlockLabel(m, l, eps),), field, kind=kind)
    return mod


def direct_sum(a, b):
    "The orthogonal direct sum of two modules of one kind over one field."
    def diag(x, y):
        return [r + [0] * len(y) for r in x] + [[0] * len(x) + r for r in y]
    return fm.FormModule(a.kind, a.field, diag(a.gram, b.gram),
                         diag(a.op, b.op), a.quad + b.quad)


# ----------------------------------------------------------------------
# validation and split positions


def test_validate_rejects_bad_ranges_and_orders():
    assert cb.validate_blocks(labels((2, 1), (1, 0)))
    assert not cb.validate_blocks(labels((2, 0)))          # l < floor(m/2)
    assert not cb.validate_blocks(labels((1, 2)))          # l > m
    assert not cb.validate_blocks(labels((1, 1), (2, 1)))  # m increasing
    assert not cb.validate_blocks(labels((2, 1), (2, 2)))  # l increasing
    assert not cb.validate_blocks(labels((3, 3), (2, 1)))  # co-level increasing
    # mixed decorated/undecorated is rejected
    assert not cb.validate_blocks(
        (cb.BlockLabel(2, 1, "0"), cb.BlockLabel(1, 1)))
    # delta needs 2l >= m and l < m
    assert cb.validate_blocks(labels((2, 1), eps=["d"]))
    assert not cb.validate_blocks(labels((2, 2), eps=["d"]))
    assert not cb.validate_blocks(labels((3, 1), eps=["d"]))
    # orth range starts at floor((m+1)/2)
    assert cb.validate_blocks(labels((2, 1)), kind="orth")
    assert not cb.validate_blocks(labels((3, 1)), kind="orth")
    assert cb.validate_blocks(labels((3, 2)), kind="orth")
    # the orth decoration needs 2l > m
    assert cb.validate_blocks(labels((2, 2), eps=["d"]), kind="orth")
    assert cb.validate_blocks(labels((3, 2), eps=["d"]), kind="orth")
    assert not cb.validate_blocks(labels((2, 1), eps=["d"]), kind="orth")
    assert not cb.validate_blocks(labels((4, 2), eps=["d"]), kind="orth")


@pytest.mark.parametrize("n", range(1, 7))
def test_split_positions_agree_with_pair_language(n):
    for pair in cb.symp_pairs(n):
        blocks = cb.symp_pair_to_blocks(pair)
        free = SP.free(cb.symp_blocks_to_pair(blocks))
        assert free == cb.symp_split_indices(pair)
        assert len(free) == cz.report(SP, blocks).comp_rank


# ----------------------------------------------------------------------
# normal forms and the index function


@pytest.mark.parametrize("m,l", [(m, l) for m in range(1, 5)
                                 for l in range(m // 2, m + 1)])
def test_chi_of_a_single_block_matches_the_capped_pattern(m, l):
    mod = single(m, l)
    for k in range(2 * m + 1):
        assert fm.index_chi(mod, k) == max(0, min(k - m + l, l))


@pytest.mark.parametrize("m,l", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_orth_chi_follows_the_same_pattern(m, l):
    mod = single(m, l, kind="orth")
    for k in range(2 * m + 1):
        assert fm.index_chi(mod, k) == max(0, min(k - m + l, l))


def test_chi_of_a_sum_is_the_sup_over_blocks():
    for pairs in [((2, 1), (1, 1)), ((3, 2), (2, 1)), ((2, 2), (2, 1))]:
        mods = [single(m, l) for m, l in pairs]
        total = direct_sum(mods[0], mods[1])
        for k in range(total.dim + 1):
            assert fm.index_chi(total, k) == max(
                fm.index_chi(mods[0], min(k, mods[0].dim)),
                fm.index_chi(mods[1], min(k, mods[1].dim)))


def test_chi_at_zero_is_zero():
    assert fm.index_chi(single(2, 2), 0) == 0


@pytest.mark.parametrize("field", [F2, F4])
@pytest.mark.parametrize("n", range(1, 6))
def test_closed_round_trip(field, n):
    if field is F4 and n > 3:
        pytest.skip("field 4 round trip is checked at small rank")
    for pair in cb.symp_pairs(n):
        blocks = cb.symp_pair_to_blocks(pair)
        mod, X = fm.build_normal_form(blocks, field)
        assert fm.classify_closed(mod) == blocks
        # the witness functional reproduces the module on the nose
        space = cl.Space("sp", mod.dim // 2, field)
        again = fm.build_module(space, X)
        assert again.op == mod.op
        assert again.quad == mod.quad


def test_symbol_counts_at_small_rank():
    seen1 = {cb.symp_pair_to_blocks(p) for p in cb.symp_pairs(1)}
    assert seen1 == {labels((1, 0)), labels((1, 1))}
    seen2 = {cb.symp_pair_to_blocks(p) for p in cb.symp_pairs(2)}
    assert seen2 == {labels((2, 1)), labels((2, 2)),
                     labels((1, 1), (1, 1)), labels((1, 0), (1, 0))}
    for n in range(1, 8):
        assert len(cb.symp_pairs(n)) == cb.p2(n) - cb.p2(n - 2)


def test_trivial_functional_classifies_to_level_zero_blocks():
    for n in (1, 2, 3):
        space = cl.space_for("sp", n)
        mod = fm.build_module(space, la.zeros(2 * n, 2 * n))
        assert fm.classify_closed(mod) == tuple(
            cb.BlockLabel(1, 0) for _ in range(n))


def test_build_module_rejects_non_nilpotent():
    space = cl.space_for("sp", 1)
    with pytest.raises(fm.NotNilpotentError,
                       match="^functional is not nilpotent$"):
        fm.build_module(space, [[1, 0], [0, 0]])
    plain = single(2, 1)
    with pytest.raises(fm.NotNilpotentError,
                       match="^operator must be nilpotent$"):
        fm.FormModule("sp", F2, plain.gram, la.identity(4), plain.quad)


def test_orth_round_trip_single_blocks():
    for m in range(1, 4):
        for l in range((m + 1) // 2, m + 1):
            mod = single(m, l, kind="orth")
            assert fm.classify_closed(mod) == labels((m, l))


def test_orth_trivial_module_forces_level_one():
    # quad zero on the basis but beta nonzero: the polar check keeps the
    # level at 1, not 0
    mod = single(1, 1, kind="orth")
    assert sum(map(bool, mod.quad)) == 1
    plain, _ = fm.build_normal_form(labels((1, 1)), F2, kind="orth")
    z = fm.FormModule("orth", F2, plain.gram, plain.op, [0, 0])
    assert fm.classify_closed(z) == labels((1, 1))


# ----------------------------------------------------------------------
# series identities


@pytest.mark.parametrize("field", [F2, F4])
def test_series_identities_on_random_vectors(field):
    mod, _ = fm.build_normal_form(labels((3, 2), (2, 1)), field)
    for _ in range(100):
        v = rng.integers(0, field.q, size=mod.dim, dtype=np.uint8).tolist()
        w = rng.integers(0, field.q, size=mod.dim, dtype=np.uint8).tolist()
        # the self series vanishes identically
        assert fm.phi_series(mod, v, v) == [0] * (mod.dim + 1)
        # the shifted series is the plain series shifted by one slot
        assert fm.xi_series(mod, v, w)[:-1] == fm.phi_series(mod, v, w)[1:]


def test_series_of_the_generator_pair_is_an_indicator():
    m, l = 3, 2
    mod, _ = fm.build_normal_form(labels((m, l)), F2)
    v1 = [0] * mod.dim
    v1[0] = 1
    v2 = [0] * mod.dim
    v2[2 * m - 1] = 1
    series = fm.phi_series(mod, v1, v2)
    assert series == [1 if k == m - 1 else 0 for k in range(mod.dim + 1)]


# ----------------------------------------------------------------------
# rewriting


def test_normalize_agrees_with_basis_free_classification():
    # build the misordered sums directly and let chi read the label
    for raw, want in [
        ([(2, 1), (2, 2)], labels((2, 2), (2, 2))),
        ([(3, 3), (2, 1)], labels((3, 3), (2, 2))),
    ]:
        total = direct_sum(single(*raw[0]), single(*raw[1]))
        assert fm.classify_closed(total) == want


@pytest.mark.parametrize("field", [F2, F4])
def test_rewrite_equivalence_is_witnessed_by_an_isometry(field):
    total = direct_sum(single(2, 1, field=field), single(2, 2, field=field))
    blocks = labels((2, 2), (2, 2))
    assert ms.matches_normal_form(total, blocks)


# ----------------------------------------------------------------------
# rational classification


@pytest.mark.parametrize("field", [F2, F4])
def test_the_two_rational_forms_of_2_1(field):
    plain = single(2, 1, "0", field=field)
    delta = single(2, 1, "d", field=field)
    assert fm.classify_fq(plain) == labels((2, 1), eps=["0"])
    assert fm.classify_fq(delta) == labels((2, 1), eps=["d"])


def test_fusion_when_levels_reach_the_size():
    # two (2,1) blocks: l1 + l2 >= m1, so the leading decoration fuses away
    dd = fm.build_normal_form(labels((2, 1), (2, 1), eps=["d", "d"]), F2)[0]
    d0 = fm.build_normal_form(labels((2, 1), (2, 1), eps=["d", "0"]), F2)[0]
    assert fm.classify_fq(dd) == labels((2, 1), (2, 1), eps=["0", "0"])
    # the mixed labels fuse onto each other: a direct search finds the map
    assert ms.matches_normal_form(d0, labels((2, 1), (2, 1), eps=["0", "d"]))


def test_no_fusion_when_levels_fall_short():
    mod = fm.build_normal_form(labels((2, 1), (1, 0), eps=["d", "0"]), F2)[0]
    assert fm.classify_fq(mod) == labels((2, 1), (1, 0), eps=["d", "0"])


def test_trivial_functional_rational_label_is_all_zero_decorated():
    space = cl.space_for("sp", 2)
    mod = fm.build_module(space, la.zeros(4, 4))
    assert fm.classify_fq(mod) == labels((1, 0), (1, 0), eps=["0", "0"])


@pytest.mark.parametrize("field", [F2, F4])
def test_rational_label_is_invariant_under_the_group(field):
    gen = np.random.default_rng(5)
    for blocks in [labels((2, 1), eps=["d"]), labels((1, 1), (1, 1), eps=["0", "0"]),
                   labels((2, 2), eps=["0"])]:
        nf, X = fm.build_normal_form(blocks, field)
        space = cl.Space("sp", nf.dim // 2, field)
        assert fm.classify_fq(fm.build_module(space, X)) == blocks
        for _ in range(3):
            g = cl.random_group_element(space, gen)
            Y = cl.coadjoint(space, g, X)
            assert fm.classify_fq(fm.build_module(space, Y)) == blocks


def test_orth_rational_distinguishes_the_two_quadratic_planes():
    plain = single(1, 1, "0", kind="orth")
    delta = single(1, 1, "d", kind="orth")
    assert not ms.matches_normal_form(delta, labels((1, 1), eps=["0"]))
    assert fm.classify_orth_fq(plain) == labels((1, 1), eps=["0"])
    assert fm.classify_orth_fq(delta) == labels((1, 1), eps=["d"])


def test_orth_rational_scan_is_stable():
    for m, l in [(2, 1), (2, 2), (3, 2)]:
        for eps in ("0", "d"):
            if eps == "d" and 2 * l <= m:
                continue
            mod = single(m, l, eps, kind="orth")
            lab = fm.classify_orth_fq(mod)
            again = fm.build_normal_form(lab, F2, kind="orth")[0]
            assert fm.classify_orth_fq(again) == lab


@pytest.mark.parametrize("field", [F2, F4])
def test_orth_boundary_decoration_rebuilds_the_higher_level(field):
    # writing delta onto the second chain of a (2,1) block does not make a
    # new module: it reproduces (2,2) with decoration, so (2,1):d is not
    # an admissible label
    plain, _ = fm.build_normal_form(labels((2, 1)), field, kind="orth")
    quad = plain.quad.copy()
    quad[2] ^= field.nonsplit_element()
    mod = fm.FormModule("orth", field, plain.gram, plain.op, quad)
    assert fm.classify_closed(mod) == labels((2, 2))
    assert fm.classify_orth_fq(mod) == labels((2, 2), eps=["d"])


@pytest.mark.parametrize("field", [F2, F4])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_rational_label_is_constant_on_random_conjugates(field, n):
    gen = np.random.default_rng(n)
    space = cl.Space("sp", n, field)
    for blocks in cb.rational_symbols(n):
        _, X = fm.build_normal_form(blocks, field)
        Y = cl.coadjoint(space, cl.random_group_element(space, gen), X)
        assert fm.classify_fq(fm.build_module(space, Y)) == blocks


# ----------------------------------------------------------------------
# Arf invariants


@pytest.mark.parametrize("e,dim", [(1, 6), (2, 4), (3, 3)])
def test_arf_trace_matches_the_zero_count(e, dim):
    # a form that vanishes on its polar radical R has
    # q^dim(R) (q^(2r-1) + s (q^r - q^(r-1))) zeros on a 2r-dimensional
    # nondegenerate part, with s = +1 exactly when the Arf trace is 0
    F = field_for(e)
    q = F.q
    gen = np.random.default_rng(e)
    vecs = np.indices((q,) * dim).reshape(dim, -1).T.astype(np.uint8)
    rows = vecs.tolist()
    for _ in range(60):
        A = np.triu(gen.integers(0, q, size=(dim, dim), dtype=np.uint8), 1)
        A[:, gen.random(dim) < 0.3] = 0
        gram = (A ^ A.T).tolist()
        vals = gen.integers(0, q, size=dim, dtype=np.uint8)
        vals[gen.random(dim) < 0.4] = 0
        vals = vals.tolist()
        zero = np.array(
            la.quad_values(F, la.quad_matrix(F, vals, gram), rows)) == 0
        radical = ~np.array(la.mat_mul(F, rows, gram)).any(axis=1)
        got = fm._arf_trace(F, gram, vals)
        if not zero[radical].all():
            assert got is None
            continue
        rho = la.rank(F, vecs[radical].tolist())
        r = (dim - rho) // 2
        split = q ** (2 * r - 1) + q ** r - q ** (r - 1)
        assert got == (0 if zero.sum() == q ** rho * split else 1)


@pytest.mark.parametrize("field", [F2, F4])
def test_arf_invariant_reads_the_decoration(field):
    # (2)^2_1: quad vanishes on ker T, the radical of its polar
    # beta(T., .), and the Arf trace on V / ker T is the decoration
    assert fm.arf_invariant(single(2, 1, "0", field=field)) == (0, 0, 0)
    assert fm.arf_invariant(single(2, 1, "d", field=field)) == (1, 0, 0)
    # (2)^2_2: quad is nonzero on ker T, so nothing descends at i = 0, 1
    assert fm.arf_invariant(single(2, 2, "0", field=field)) == (None, None, 0)
    # orth (1)^2_1: the split and the non-split quadratic plane
    assert fm.arf_invariant(single(1, 1, "0", field=field, kind="orth")) == (0, 0)
    assert fm.arf_invariant(single(1, 1, "d", field=field, kind="orth")) == (1, 0)


@pytest.mark.parametrize("field", [F2, F4])
def test_arf_invariant_separates_the_canonical_sp_decorations(field):
    for n in range(1, 6):
        for pair in cb.symp_pairs(n):
            closed = cb.symp_pair_to_blocks(pair)
            cands = SP.decorate(closed, SP.free(pair))
            invs = {fm.arf_invariant(fm.build_normal_form(c, field)[0])
                    for c in cands}
            assert len(invs) == len(cands), closed


def closed_orth_labels(K):
    "Every closed orth label whose chain sizes sum to K."
    for sizes in cb.partitions(K):
        for levels in product(*[range((m + 1) // 2, m + 1) for m in sizes]):
            blocks = labels(*zip(sizes, levels))
            if cb.validate_blocks(blocks, kind="orth"):
                yield blocks


@pytest.mark.parametrize("field", [F2, F4])
@pytest.mark.parametrize("K", [1, 2])
def test_arf_invariant_is_complete_on_orth_decorations(field, K):
    pairs = 0
    for closed in closed_orth_labels(K):
        cands = [c for c in cb.decorations(closed, range(len(closed)))
                 if cb.validate_blocks(c, kind="orth")]
        mods = [fm.build_normal_form(c, field, kind="orth")[0] for c in cands]
        for (a, ma), (b, mb) in combinations(zip(cands, mods), 2):
            same = fm.arf_invariant(ma) == fm.arf_invariant(mb)
            assert same == ms.matches_normal_form(mb, a), (a, b)
            pairs += 1
    assert pairs == {1: 1, 2: 7}[K]


# ----------------------------------------------------------------------
# per-block Arf tables against whole normal forms


def valid_decorations(closed, kind):
    return [c for c in cb.decorations(closed, range(len(closed)))
            if cb.validate_blocks(c, kind=kind)]


TABLE_RANKS = [(F2, n) for n in range(1, 9)] + [(F4, n) for n in range(1, 7)]


@pytest.mark.parametrize("field,n", TABLE_RANKS)
def test_block_tables_give_the_normal_form_invariant(field, n):
    cases = [("sp", c) for c in cb.rational_symbols(n)]
    cases += [("orth", c) for closed in closed_orth_labels(n)
              for c in valid_decorations(closed, "orth")]
    for kind, blocks in cases:
        mod = fm.build_normal_form(blocks, field, kind=kind)[0]
        assert fm._label_invariant(blocks, kind) == fm.arf_invariant(mod), \
            blocks


def test_block_tables_refuse_an_invalid_label():
    with pytest.raises(ValueError, match="invalid label"):
        fm._label_invariant(labels((2, 2), eps=["d"]), "sp")
    with pytest.raises(ValueError, match="invalid label"):
        fm._label_invariant(labels((2, 1), eps=["d"]), "orth")


def valid_blocks(kind, top):
    "Every valid one-block label of `kind` with chain length at most top."
    return [b for m in range(1, top + 1) for l in range(m + 1)
            for b in (cb.BlockLabel(m, l, "0"), cb.BlockLabel(m, l, "d"))
            if cb.validate_blocks((b,), kind=kind)]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_closed_form_block_tables_match_the_normal_form(e):
    # the formula reads no field: over F_2, F_4 and F_8 alike it gives the
    # power forms of the one-block normal form at every Jordan size
    field, sizes = field_for(e), range(1, 13)
    blocks = [(kind, b) for kind in ("sp", "orth")
              for b in valid_blocks(kind, 12)]
    assert len(blocks) == 180
    for kind, block in blocks:
        got = {m: fm._block_table(kind, block, m) for m in sizes}
        assert got == ms.block_tables_by_normal_form(kind, block, field,
                                                     sizes), (kind, block)


@pytest.mark.parametrize("n", range(1, 9))
def test_classify_closed_reads_chi_off_the_power_table(n):
    for kind, labs in (("sp", map(cb.symp_pair_to_blocks, cb.symp_pairs(n))),
                       ("orth", closed_orth_labels(n))):
        for closed in labs:
            mod = fm.build_normal_form(closed, F2, kind=kind)[0]
            assert fm.classify_closed(mod) == ms.closed_by_index_chi(mod) \
                == closed


def test_classification_walks_the_power_forms_once(monkeypatch):
    blocks = labels((3, 2), (2, 1), (1, 0), eps=["0", "d", "0"])
    nf = fm.build_normal_form(blocks, F4)[0]
    fm.classify_fq(nf)  # fills the block tables, so only mod walks below
    mod = fm.FormModule("sp", F4, nf.gram, nf.op, nf.quad)
    walked = []
    real = fm._power_forms
    monkeypatch.setattr(fm, "_power_forms", lambda mod, m, count: (
        walked.append(m), real(mod, m, count))[1])
    assert fm.classify_fq(mod) == blocks
    assert fm.arf_invariant(mod) == fm.arf_invariant(nf)
    assert walked == [1, 2, 3]  # once per distinct Jordan size
    assert fm.arf_invariant(mod) == ms.power_form_invariant(mod)


@pytest.mark.parametrize("field", [F2, F4])
def test_power_forms_match_the_polar_formula(field):
    for n in range(1, 6):
        cases = [("sp", c) for c in cb.rational_symbols(n)]
        cases += [("orth", c) for closed in closed_orth_labels(n)
                  for c in valid_decorations(closed, "orth")]
        for kind, blocks in cases:
            mod = fm.build_normal_form(blocks, field, kind=kind)[0]
            for m in sorted({0, mod.dim} | set(mod.partition)):
                assert list(fm._power_forms(mod, m, m + 2)) == \
                    ms.power_entries_by_polar(mod, m, m + 2), (blocks, m)


def conjugate_modules(field, max_n, seed):
    """The sp module of a seeded conjugate of every rational normal form and
    the orth module of a seeded conjugate of every odd witness, n <= max_n."""
    gen = np.random.default_rng(seed)
    out = []
    for n in range(1, max_n + 1):
        space = cl.Space("sp", n, field)
        for blocks in cb.rational_symbols(n):
            X = fm.build_normal_form(blocks, field)[1]
            g = cl.random_group_element(space, gen)
            out.append(fm.build_module(space, cl.coadjoint(space, g, X)))
        for lab in cb.rational_labels(n):
            osp, X = od.odd_witness(lab, field)
            g = cl.random_group_element(osp, gen)
            mod = od.split_odd_functional(osp, cl.coadjoint(osp, g, X)).module
            if mod is not None:
                out.append(mod)
    return out


@pytest.mark.parametrize("field,max_n", [(F2, 5), (F4, 5), (field_for(3), 3)])
def test_power_table_shortcuts_hold_off_the_normal_form(field, max_n,
                                                        monkeypatch):
    # the polar form of v -> quad(T^i v) is beta(T^(2i+s) v, w), s = 1 for
    # sp and 0 for orth: zero on ker(T^m) once 2i + s >= m, where the walk
    # reads the entry off the values alone and skips _arf_trace
    mods = conjugate_modules(field, max_n, 41)
    want = []
    for mod in mods:
        s = int(mod.kind == "sp")
        for m in set(mod.partition):
            for i, (pol, _) in enumerate(ms.power_forms_by_polar(mod, m, m + 1)):
                assert (2 * i + s < m) or la.is_zero(pol), (mod.kind, m, i)
        want.append(ms.power_table_by_polar(mod))
    reductions = []
    arf_trace = fm._arf_trace
    monkeypatch.setattr(fm, "_arf_trace", lambda F, gram, vals: (
        reductions.append(len(gram)), arf_trace(F, gram, vals))[1])
    assert [fm._power_table(mod) for mod in mods] == want
    assert len(reductions) == sum(
        2 * i + int(mod.kind == "sp") < m
        for mod in mods for m in set(mod.partition) for i in range(m + 1))


@pytest.mark.parametrize("field", [F2, F4])
def test_classifiers_match_the_normal_form_scan(field):
    gen = np.random.default_rng(31)
    for n in range(1, 6):
        space = cl.Space("sp", n, field)
        for blocks in cb.rational_symbols(n):
            nf, X = fm.build_normal_form(blocks, field)
            Y = cl.coadjoint(space, cl.random_group_element(space, gen), X)
            for mod in (nf, fm.build_module(space, Y)):
                assert fm.classify_fq(mod) == ms.classify_fq_by_scan(mod) \
                    == blocks
        for closed in closed_orth_labels(n):
            for blocks in valid_decorations(closed, "orth"):
                nf = fm.build_normal_form(blocks, field, kind="orth")[0]
                assert fm.classify_orth_fq(nf) == ms.classify_orth_fq_by_scan(nf)
        for lab in cb.rational_labels(n):
            osp, X = od.odd_witness(lab, field)
            Y = cl.coadjoint(osp, cl.random_group_element(osp, gen), X)
            mod = od.split_odd_functional(osp, Y).module
            if mod is not None:
                assert fm.classify_orth_fq(mod) == \
                    ms.classify_orth_fq_by_scan(mod)


# ----------------------------------------------------------------------
# text and JSON round trips


def test_text_round_trip():
    blocks = labels((3, 2), (2, 1), eps=["0", "d"])
    txt = cb.format_blocks(blocks)
    assert txt == "(3)^2_2:0 (2)^2_1:d"
    assert cb.parse_blocks(txt) == blocks
    closed = labels((2, 1), (1, 0))
    assert cb.parse_blocks(cb.format_blocks(closed)) == closed
    assert cb.parse_blocks("") == ()


def test_json_round_trip():
    blocks = labels((2, 1), (2, 1), eps=["0", "d"])
    obj = json.loads(json.dumps(cb.blocks_to_json(blocks)))
    assert obj == {"blocks": [{"m": 2, "l": 1, "eps": "0"},
                              {"m": 2, "l": 1, "eps": "d"}]}


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        cb.parse_blocks("(2)^3_1")
    with pytest.raises(ValueError):
        cb.parse_blocks("(2)^2_1:x")


def test_rational_symbols_count_is_partition_number():
    for n in range(1, 7):
        syms = cb.rational_symbols(n)
        assert len(syms) == cb.p2(n)
        assert len(set(syms)) == len(syms)
        for sym in syms:
            assert cb.validate_blocks(sym, kind="sp")
            assert sum(b.m for b in sym) == n


def test_rational_symbols_n2_lists_all_five():
    texts = sorted(cb.format_blocks(s) for s in cb.rational_symbols(2))
    assert texts == ["(1)^2_0:0 (1)^2_0:0", "(1)^2_1:0 (1)^2_1:0",
                     "(2)^2_1:0", "(2)^2_1:d", "(2)^2_2:0"]
