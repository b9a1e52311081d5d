import numpy as np
import pytest

from char2orbits.finite_field import Field, field_for, is_irreducible, poly_mod

# ----------------------------------------------------------------------
# frozen oracle: the full GF(4) multiplication table, written out by hand
# from (x+1)*x = x^2+x = 1 under x^2 = x+1.  Elements 0,1,2,3 = 0,1,x,x+1.

GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def test_gf4_against_frozen_table():
    F = field_for(2)
    for a in range(4):
        for b in range(4):
            assert F.mul(a, b) == GF4_MUL[a][b]


def test_gf8_spot_products():
    # x^3 = x+1 under 0b1011, so x*x^2 = 3 and x^2*x^2 = x^4 = x^2+x = 6
    F = field_for(3)
    assert F.mul(2, 4) == 3
    assert F.mul(4, 4) == 6
    assert F.mul(5, 5) == F.mul(4, 4) ^ 1  # (x^2+1)^2 = x^4+1 in char 2


def test_gf256_modulus_relation():
    # x^8 = x^4+x^3+x^2+1 under the frozen degree-8 modulus
    F = field_for(8)
    assert F.mul(1 << 4, 1 << 4) == 0b00011101


# ----------------------------------------------------------------------
# algebraic laws, exhaustively for small fields


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_field_axioms_exhaustive(e):
    F = field_for(e)
    els = list(range(F.q))
    for a in els:
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.mul(a, b) == F.mul(b, a)
    for a in els[:8]:
        for b in els[:8]:
            for c in els[:8]:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 7, 8])
def test_pow_order(e):
    F = field_for(e)
    for a in [1, 2, F.q - 1, F.q // 2 + 1]:
        if a:
            assert F.pow(a, F.q - 1) == 1
    assert F.pow(2 % F.q, 0) == 1


@pytest.mark.parametrize("e", [1, 2, 3, 4, 8])
def test_inv_table_matches_scalar(e):
    F = field_for(e)
    for a in range(1, F.q):
        assert F.inv_table[a] == F.inv(a)
    assert F.inv_table[0] == 0


def test_mul_table_matches_scalar():
    F = field_for(4)
    t = F.mul_table
    assert t.dtype == np.uint8
    for a in range(F.q):
        for b in range(F.q):
            assert t[a, b] == F.mul(a, b)


# ----------------------------------------------------------------------
# square roots, trace, Artin-Schreier


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_sqrt_is_frobenius_inverse(e):
    F = field_for(e)
    for a in range(F.q):
        r = F.sqrt(a)
        assert F.mul(r, r) == a
    # squaring is a bijection, so sqrt must be too
    assert len({F.sqrt(a) for a in range(F.q)}) == F.q


def test_sqrt_gf4_frozen():
    F = field_for(2)
    assert [F.sqrt(a) for a in range(4)] == [0, 1, 3, 2]


def test_trace_gf2_gf4():
    assert [field_for(1).trace(a) for a in range(2)] == [0, 1]
    assert [field_for(2).trace(a) for a in range(4)] == [0, 0, 1, 1]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_trace_additive_and_onto(e):
    F = field_for(e)
    traces = [F.trace(a) for a in range(F.q)]
    assert set(traces) == {0, 1}
    assert traces.count(0) == F.q // 2
    for a in range(min(F.q, 8)):
        for b in range(min(F.q, 8)):
            assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_artin_schreier(e):
    F = field_for(e)
    image = set()
    for x in range(F.q):
        image.add(F.mul(x, x) ^ x)
    assert len(image) == F.q // 2
    # x^2 + x = c is solvable exactly when c has trace 0
    assert image == {c for c in range(F.q) if F.trace(c) == 0}


def test_nonsplit_element_frozen():
    assert field_for(1).nonsplit_element() == 1
    assert field_for(2).nonsplit_element() == 2
    for e in range(1, 9):
        F = field_for(e)
        assert F.trace(F.nonsplit_element()) == 1


# ----------------------------------------------------------------------
# construction guards and serialization


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        Field(2, 0b101)  # x^2+1 = (x+1)^2
    with pytest.raises(ValueError):
        Field(3, 0b1111)  # x^3+x^2+x+1 has root 1
    with pytest.raises(ValueError):
        Field(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        Field(3, 0b111)  # wrong degree


def test_degree4_cyclotomic_modulus_accepted():
    # x^4+x^3+x^2+x+1 is irreducible (2 has order 4 mod 5), so a non-default
    # modulus of the right degree must be accepted
    f = Field(4, 0b11111)
    assert f.mul(0b1000, 0b10) == 0b1111  # x^4 = x^3+x^2+x+1


def test_is_irreducible_exhaustive_degree_2_and_3():
    assert [p for p in range(4, 8) if is_irreducible(p)] == [0b111]
    assert [p for p in range(8, 16) if is_irreducible(p)] == [0b1011, 0b1101]


def test_poly_mod():
    assert poly_mod(0b100, 0b11) == 1  # x^2 mod (x+1) = 1
    assert poly_mod(0b1011, 0b1011) == 0


def test_header_round_trip():
    for e in range(1, 9):
        F = field_for(e)
        G = Field.from_header(F.header())
        assert G == F and hash(G) == hash(F)
    with pytest.raises(ValueError):
        Field.from_header("GF(3^2)/111")


def test_element_text_round_trip():
    F = field_for(8)
    for a in [0, 1, 2, 0xFF, 0xA5]:
        assert F.parse_element(F.format_element(a)) == a
    with pytest.raises(ValueError):
        F.parse_element("100")  # 256 is out of range
