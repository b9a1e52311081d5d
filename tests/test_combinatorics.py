import copy
import pickle
from itertools import product

import pytest

from char2orbits import combinatorics as co
from char2orbits import odd_split as od
from char2orbits import oracle as orc
from char2orbits import verify as vf

SP, SO = co.FAMILIES["sp"], co.FAMILIES["so-odd"]

# frozen by hand/classical tables
P_VALUES = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
P2_VALUES = [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]


def test_partition_counts():
    for n, v in enumerate(P_VALUES):
        got = list(co.partitions(n))
        assert len(got) == v == co.partition_count(n)
        assert len(set(got)) == v
        for p in got:
            assert co.is_partition(p) and sum(p) == n


def test_p2():
    for n, v in enumerate(P2_VALUES):
        assert co.p2(n) == v
    assert co.p2(-1) == 0
    assert co.p2(-5) == 0


def all_pairs(n):
    out = []
    for a in range(n + 1):
        for mu in co.partitions(a):
            for nu in co.partitions(n - a):
                out.append((mu, nu))
    return out


def test_p2_matches_exhaustive_pairs():
    for n in range(7):
        assert len(all_pairs(n)) == co.p2(n)


def test_strip_zeros_convention():
    assert co.strip_zeros((3, 1, 0, 0)) == (3, 1)
    assert co.strip_zeros(()) == ()
    assert co.symp_pair_valid((1, 0), (1,)) == co.symp_pair_valid((1,), (1, 0, 0))


def _strip_zeros_reference(parts):
    p = list(parts)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _is_partition_reference(parts):
    p = _strip_zeros_reference(parts)
    return all(a >= b for a, b in zip(p, p[1:])) and all(a > 0 for a in p)


def _symp_pair_valid_reference(mu, nu):
    mu, nu = _strip_zeros_reference(mu), _strip_zeros_reference(nu)
    if not (_is_partition_reference(mu) and _is_partition_reference(nu)):
        return False
    m = list(mu) + [0] * (len(nu) - len(mu))
    return all(nu[i] <= m[i] + 1 for i in range(len(nu)))


def _oodd_pair_valid_reference(nu, mu):
    nu, mu = _strip_zeros_reference(nu), _strip_zeros_reference(mu)
    if not (_is_partition_reference(nu) and _is_partition_reference(mu)):
        return False
    if len(nu) > len(mu) + 1:
        return False
    m = list(mu) + [0] * (len(nu) - len(mu))
    return all(nu[i] <= m[i - 1] for i in range(1, len(nu)))


# trailing zeros, interior zeros, negative parts, increasing tuples and ()
EDGE_PARTS = [(), (0,), (0, 0), (3, 1, 0, 0), (2, 0, 1), (0, 1), (1, 0, 1, 0),
              (-1,), (2, -1), (1, -1, 0), (-2, -3), (1, 2), (1, 2, 3),
              (3, 3, 3), (5, 2, 2, 1), (2, 2, 0, 0, 0), [3, 1, 0]]


def test_validity_predicates_match_their_definitions():
    cases = EDGE_PARTS + [t for k in range(4)
                          for t in product(range(-1, 4), repeat=k)]
    for p in cases:
        assert co.strip_zeros(p) == _strip_zeros_reference(p)
        assert co.is_partition(p) == _is_partition_reference(p), p
    for a, b in product(cases, repeat=2):
        assert co.symp_pair_valid(a, b) == _symp_pair_valid_reference(a, b)
        assert co.oodd_pair_valid(a, b) == _oodd_pair_valid_reference(a, b)


# ----------------------------------------------------------------------
# symplectic labels


def test_symp_enumeration_size():
    for n in range(1, 11):
        assert len(co.symp_pairs(n)) == co.p2(n) - co.p2(n - 2)


def test_symp_pairs_n2_explicit():
    got = set(co.symp_pairs(2))
    assert got == {((), (1, 1)), ((1,), (1,)), ((2,), ()), ((1, 1), ())}


def blocks(*ml):
    return tuple(co.BlockLabel(m, l) for m, l in ml)


def test_symbol_pair_round_trip():
    for n in range(1, 9):
        for pair in co.symp_pairs(n):
            closed = co.symp_pair_to_blocks(pair)
            assert co.symp_blocks_to_pair(closed) == pair
            assert sum(b.m for b in closed) == n
            assert all(b.eps is None for b in closed)


def test_symp_pair_to_blocks_rejects_invalid():
    with pytest.raises(ValueError):
        co.symp_pair_to_blocks(((), (2,)))  # nu_1 > mu_1 + 1


def test_symbol_validity_bounds():
    assert co.validate_blocks(blocks((1, 0)), kind="sp")
    assert co.validate_blocks(blocks((2, 1), (1, 1)), kind="sp")
    assert not co.validate_blocks(blocks((2, 0)), kind="sp")  # l < floor(m/2)
    assert not co.validate_blocks(blocks((1, 2)), kind="sp")  # l > m
    # the co-level m - l rises 0 -> 1 from the first block to the second
    assert not co.validate_blocks(blocks((2, 2), (2, 1), (1, 1)), kind="sp")
    assert co.validate_blocks(blocks((2, 2), (2, 2), (1, 1)), kind="sp")


def _sequences(total):
    "Every sequence of blocks (m, l), m >= 1 and 0 <= l <= m, with sum m <= total."
    yield ()
    for m in range(1, total + 1):
        for l in range(m + 1):
            for rest in _sequences(total - m):
                yield ((m, l),) + rest


def test_closed_sp_labels_are_the_images_of_the_pairs():
    # brute force over all 15,760 sequences with sum m <= 8: validate_blocks
    # accepts exactly the closed labels of symp_pairs, and on them it keeps
    # the symbol rules it replaced (ranges, then three monotone chains)
    images = {co.symp_pair_to_blocks(p) for n in range(9) for p in co.symp_pairs(n)}
    seqs = list(_sequences(8))
    assert len(seqs) == 15760
    for seq in seqs:
        rules = (all(m // 2 <= l <= m for m, l in seq)
                 and all(m1 >= m2 and l1 >= l2 and m1 - l1 >= m2 - l2
                         for (m1, l1), (m2, l2) in zip(seq, seq[1:])))
        label = blocks(*seq)
        assert co.validate_blocks(label, kind="sp") == rules == (label in images)


def test_symp_blocks_to_pair_drops_zero_parts():
    assert co.symp_blocks_to_pair(blocks((1, 0))) == ((), (1,))
    assert co.symp_blocks_to_pair(blocks((2, 2), (1, 1))) == ((2, 1), ())
    # decorations are ignored
    assert co.symp_blocks_to_pair((co.BlockLabel(2, 1, "d"),)) == ((1,), (1,))


def test_symp_split_k_examples():
    # (2)^2_2 has pair mu=(2), nu=(); nothing to split
    assert len(SP.free(co.symp_blocks_to_pair(blocks((2, 2))))) == 0
    # (2)^2_1 has pair mu=(1), nu=(1); one split position
    assert len(SP.free(((1,), (1,)))) == 1
    assert co.symp_fq_fanout(((1,), (1,))) == [((1,), (1,)), ((), (2,))]


def test_symp_fanout_identity_first_and_membership():
    for n in range(1, 9):
        for pair in co.symp_pairs(n):
            fan = co.symp_fq_fanout(pair)
            assert len(fan) == 2 ** len(SP.free(pair))
            assert len(set(fan)) == len(fan)
            assert fan[0] == pair
            in_delta = [p for p in fan if co.symp_pair_valid(*p)]
            assert in_delta == [pair]
            for mu, nu in fan:
                assert co.is_partition(mu) and co.is_partition(nu)
                assert sum(mu) + sum(nu) == n


def test_symp_fanout_union_is_all_pairs():
    for n in range(1, 9):
        seen = []
        for pair in co.symp_pairs(n):
            seen.extend(co.symp_fq_fanout(pair))
        assert len(seen) == len(set(seen)) == co.p2(n)
        assert set(seen) == {(co.strip_zeros(a), co.strip_zeros(b)) for a, b in all_pairs(n)}


def test_symp_sum_2k_is_p2():
    for n in range(1, 11):
        total = sum(2 ** len(SP.free(p)) for p in co.symp_pairs(n))
        assert total == co.p2(n)


def test_symp_fanout_rejects_invalid():
    with pytest.raises(ValueError):
        co.symp_fq_fanout(((), (2,)))


# ----------------------------------------------------------------------
# odd orthogonal labels


def test_oodd_n1_and_n2():
    assert set(co.oodd_pairs(1)) == {((1,), ()), ((), (1,))}
    assert len(co.oodd_pairs(2)) == 4
    assert set(co.oodd_pairs(2)) == {((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))}


def test_oodd_enumeration_size():
    for n in range(1, 11):
        assert len(co.oodd_pairs(n)) == co.p2(n) - co.p2(n - 2)


def test_oodd_split_k_examples():
    assert len(SO.free(((1,), (1,)))) == 1
    assert len(SO.free(((), (2,)))) == 0
    assert len(SO.free(((2,), ()))) == 0
    fan = co.oodd_fq_fanout(((1,), (1,)))
    assert fan == [((1,), (1,)), ((1, 1), ())]


def test_oodd_fanout_properties():
    for n in range(1, 9):
        seen = []
        for pair in co.oodd_pairs(n):
            fan = co.oodd_fq_fanout(pair)
            assert len(fan) == 2 ** len(SO.free(pair))
            assert len(set(fan)) == len(fan)
            assert fan[0] == pair
            assert [p for p in fan if co.oodd_pair_valid(*p)] == [pair]
            for nu, mu in fan:
                assert co.is_partition(nu) and co.is_partition(mu)
                assert sum(nu) + sum(mu) == n
            seen.extend(fan)
        assert len(seen) == len(set(seen)) == co.p2(n)


def test_split_positions_are_0_based_blocks():
    # the splitting indices by the 1-based rule, i >= 1 with
    # nu_i < mu_i <= nu_{i-1}, are the 0-based complement blocks plus one
    for n in range(1, 11):
        for nu, mu in co.oodd_pairs(n):
            v = list(nu) + [0] * (len(mu) + 1 - len(nu))
            old = [i for i in range(1, len(mu) + 1)
                   if v[i] < mu[i - 1] <= v[i - 1]]
            assert co.oodd_split_indices((nu, mu)) == [i - 1 for i in old]
    # and each family's rational labels carry "d" only at those positions
    for fam in co.FAMILIES.values():
        for n in range(1, 9):
            for label in fam.rational(n):
                free = fam.free(fam.pair(label))
                assert all(b.eps == "0" or i in free
                           for i, b in enumerate(fam.blocks(label)))


def test_oodd_sum_2k_is_p2():
    for n in range(1, 11):
        assert sum(2 ** len(SO.free(p)) for p in co.oodd_pairs(n)) == co.p2(n)


# ----------------------------------------------------------------------
# text forms


def test_pair_text_round_trip():
    assert co.format_pair(((1,), (1,))) == "nu=[1];mu=[1]"
    assert co.format_pair(((), (2,))) == "nu=[2];mu=[]"
    assert co.format_pair(((), (2,)), odd=True) == "nu=[0];mu=[2]"


def test_symbol_text():
    assert co.format_symp_symbol(blocks((2, 1), (1, 0))) == "(2)^2_1(1)^2_0"
    decorated = (co.BlockLabel(2, 1, "d"), co.BlockLabel(1, 1, "0"))
    assert co.format_symp_symbol(decorated) == "(2)^2_1(1)^2_1"


@pytest.mark.parametrize("parse,text", [
    (co.parse_label, "m=1_0; -"),
    (co.parse_label, "m=+2; -"),
    (co.parse_label, "m=\uff12; -"),
    (co.parse_blocks, "(\u0662)^2_\u0661:d"),
    (co.parse_blocks, "(2)^2_\uff11"),
])
def test_label_numbers_are_ascii_digits(parse, text):
    # int() would read these as 10, 2, 2, (2)^2_1 and (2)^2_1
    with pytest.raises(ValueError):
        parse(text)


# ----------------------------------------------------------------------
# label records


def test_block_label_equality_hash_and_order():
    a, b = co.BlockLabel(2, 1, "0"), co.BlockLabel(2, 1, "0")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != co.BlockLabel(2, 1, "d") and a != co.BlockLabel(2, 1)
    assert co.BlockLabel(1, 1) == co.BlockLabel(1, 1, None)
    assert co.BlockLabel(1, 1) != (1, 1, None)
    assert (1, 1, None) != co.BlockLabel(1, 1)
    labels = [co.BlockLabel(2, 1, "d"), co.BlockLabel(1, 1, "0"),
              co.BlockLabel(2, 1, "0"), co.BlockLabel(2, 2, "0")]
    assert sorted(labels) == [co.BlockLabel(1, 1, "0"), co.BlockLabel(2, 1, "0"),
                              co.BlockLabel(2, 1, "d"), co.BlockLabel(2, 2, "0")]
    assert co.BlockLabel(1, 1, "0") < co.BlockLabel(1, 1, "d") <= co.BlockLabel(1, 1, "d")
    assert co.BlockLabel(2, 0, "0") > co.BlockLabel(1, 1, "0") >= co.BlockLabel(1, 1, "0")
    with pytest.raises(TypeError):
        co.BlockLabel(1, 1) < (1, 1, None)


def test_odd_label_equality_and_hash():
    blocks = (co.BlockLabel(1, 1, "0"),)
    a, b = co.OddLabel(1, blocks), co.OddLabel(1, tuple(blocks))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != co.OddLabel(1, (co.BlockLabel(1, 1, "d"),))
    assert a != co.OddLabel(2, blocks) and a != (1, blocks)


def test_label_repr_is_exact():
    # census reports sort by str(label), so this text is part of the output
    assert repr(co.BlockLabel(2, 1, "0")) == "BlockLabel(m=2, l=1, eps='0')"
    assert repr(co.BlockLabel(2, 1)) == "BlockLabel(m=2, l=1, eps=None)"
    assert str((co.BlockLabel(1, 1, "d"),)) == "(BlockLabel(m=1, l=1, eps='d'),)"
    assert (repr(co.OddLabel(1, (co.BlockLabel(1, 1, "0"),)))
            == "OddLabel(m=1, blocks=(BlockLabel(m=1, l=1, eps='0'),))")
    assert repr(co.OddLabel(0, ())) == "OddLabel(m=0, blocks=())"


@pytest.mark.parametrize("label,fields", [
    (co.BlockLabel(2, 1, "d"), ("m", "l", "eps")),
    (co.OddLabel(1, (co.BlockLabel(2, 1, "0"),)), ("m", "blocks")),
])
def test_label_records_are_frozen(label, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
        with pytest.raises(AttributeError):
            delattr(label, name)
    with pytest.raises(AttributeError):
        label.other = 0


@pytest.mark.parametrize("label", [
    co.BlockLabel(2, 1, "d"),
    co.BlockLabel(1, 0),
    co.OddLabel(1, (co.BlockLabel(2, 1, "0"),)),
])
def test_label_records_survive_pickle_and_copy(label):
    for other in (pickle.loads(pickle.dumps(label)), copy.copy(label),
                  copy.deepcopy(label)):
        assert type(other) is type(label)
        assert other == label and hash(other) == hash(label)
        assert repr(other) == repr(label)


# the records built by the base's __init__ alone, one value per field
POSITIONAL = [orc.FiniteGroup, orc.OrbitReport, od.OddSplit, vf.CheckResult]


@pytest.mark.parametrize("cls", POSITIONAL, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    record = cls(*range(len(cls.__slots__)))
    for i, name in enumerate(cls.__slots__):
        assert getattr(record, name) == i
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 0


@pytest.mark.parametrize("cls", POSITIONAL + [co.OddLabel],
                         ids=lambda c: c.__name__)
def test_records_refuse_a_wrong_field_count(cls):
    fields = len(cls.__slots__)
    for count in (0, fields - 1, fields + 1):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*range(count))


# ----------------------------------------------------------------------
# the family table


@pytest.mark.parametrize("kind", co.FAMILIES)
def test_family_table_wiring(kind):
    fam = co.FAMILIES[kind]
    assert fam.kind == kind
    for n in range(1, 7):
        labels = fam.rational(n)
        assert len(labels) == co.p2(n)
        for label in labels:
            assert fam.valid(label)
            assert fam.parse(fam.format(label)) == label
        for pair in fam.pairs(n):
            closed = fam.closed(pair)
            assert fam.pair(closed) == pair
            free = fam.free(pair)
            assert len(fam.decorate(closed, free)) == 2 ** len(free)
