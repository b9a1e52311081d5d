"""Arithmetic in the binary fields GF(2^e), 1 <= e <= 8.

Field elements are plain ints: bit i of the int is the coefficient of x^i in
the residue polynomial.  Addition is XOR.  Multiplication is carry-less
(peasant) multiplication followed by reduction modulo a fixed irreducible
polynomial.  One modulus per degree is frozen here so that serialized data is
stable across runs:

    e   modulus (binary)    polynomial
    1   11                  x + 1
    2   111                 x^2 + x + 1
    3   1011                x^3 + x + 1
    4   10011               x^4 + x + 1
    5   100101              x^5 + x^2 + 1
    6   1000011             x^6 + x + 1
    7   10001001            x^7 + x^3 + 1
    8   100011101           x^8 + x^4 + x^3 + x^2 + 1

Each modulus is re-checked for irreducibility at construction time.
"""

from __future__ import annotations

import re
from functools import cached_property

DEFAULT_MODULUS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}

MAX_DEGREE = 8

_HEX_DIGITS = "0123456789abcdefABCDEF"
_HEADER_RE = re.compile(r"GF\(2\^([1-9][0-9]*)\)/(1[01]*)")


def poly_degree(p: int) -> int:
    "Degree of a polynomial over GF(2) encoded as an int; degree(0) = -1."
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    "Remainder of a modulo b, both polynomials over GF(2)."
    db = poly_degree(b)
    assert db >= 0
    while poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division.

    A polynomial of degree e is irreducible over GF(2) iff no polynomial of
    degree between 1 and e//2 divides it.  Degrees here never exceed 8, so
    trying every candidate divisor is instant.
    """
    e = poly_degree(p)
    if e < 1:
        return False
    for d in range(2, 1 << (e // 2 + 1)):
        if poly_mod(p, d) == 0:
            return False
    return True


class Field:
    """GF(2^e) with a fixed modulus.  Elements are ints in range(2**e)."""

    def __init__(self, e: int, modulus: int | None = None):
        if not 1 <= e <= MAX_DEGREE:
            raise ValueError(f"extension degree {e} out of supported range 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = DEFAULT_MODULUS[e]
        if poly_degree(modulus) != e:
            raise ValueError(f"modulus {modulus:#b} does not have degree {e}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#b} is reducible")
        self.e = e
        self.q = 1 << e
        self.modulus = modulus

    # ------------------------------------------------------------------
    # scalar arithmetic

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return r

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def sqrt(self, a: int) -> int:
        "Every element has a unique square root: the inverse of Frobenius."
        return self.pow(a, 1 << (self.e - 1))

    def trace(self, a: int) -> int:
        "Absolute trace down to GF(2); the result is 0 or 1."
        t = 0
        x = a
        for _ in range(self.e):
            t ^= x
            x = self.mul(x, x)
        return t

    def nonsplit_element(self) -> int:
        """Smallest c not of the form x^2 + x.

        This is the scalar that twists a split form block into the non-split
        one; any two choices give isometric twists, so the smallest is fixed
        for reproducibility.  Over GF(2) it is 1, over GF(4) it is x.
        """
        for c in range(self.q):
            if self.trace(c):
                return c
        raise AssertionError("trace form identically zero")

    # ------------------------------------------------------------------
    # lookup tables (built on first read, then plain instance attributes;
    # used by the dense linear algebra)

    @cached_property
    def mul_table(self) -> list[list[int]]:
        "mul_table[a][b] is the product a b."
        return [[self.mul(a, b) for b in range(self.q)] for a in range(self.q)]

    @cached_property
    def inv_table(self) -> list[int]:
        "inv_table[a] is the inverse of a, with 0 at 0."
        return [0] + [self.inv(a) for a in range(1, self.q)]

    @cached_property
    def scale_bytes(self) -> list[bytes]:
        """bytes.translate tables: scale_bytes[c] maps each element byte a
        to the byte c a, so it scales a row stored one byte per entry."""
        pad = bytes(256 - self.q)
        return [bytes(row) + pad for row in self.mul_table]

    # ------------------------------------------------------------------
    # serialization

    def header(self) -> str:
        return f"GF(2^{self.e})/{self.modulus:b}"

    @classmethod
    def from_header(cls, text: str) -> "Field":
        "Inverse of header(): ASCII GF(2^<e>)/<modulus in binary>, as written."
        text = text.strip()
        m = _HEADER_RE.fullmatch(text)
        if m:
            try:
                return cls(int(m.group(1)), int(m.group(2), 2))
            except ValueError:  # degree out of range or reducible modulus
                pass
        raise ValueError(f"bad field header {text!r}")

    def format_element(self, a: int) -> str:
        return format(a, "x")

    def parse_element(self, s: str) -> int:
        "Lower- or upper-case hex digits only: no sign, prefix or spaces."
        if not s or s.strip(_HEX_DIGITS):
            raise ValueError(f"{s!r} is not a hex field element")
        a = int(s, 16)
        if not 0 <= a < self.q:
            raise ValueError(f"{s!r} is not an element of {self.header()}")
        return a

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.e, self.modulus) == (other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.e, self.modulus))

    def __repr__(self) -> str:
        return self.header()


_CACHE: dict[int, Field] = {}


def field_for(e: int) -> Field:
    "The GF(2^e) instance with the default modulus (cached)."
    if e not in _CACHE:
        _CACHE[e] = Field(e)
    return _CACHE[e]
