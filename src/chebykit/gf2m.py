"""Binary field arithmetic GF(2^m) in polynomial basis.

Elements are m-bit integers whose bits are coordinates modulo a fixed
irreducible polynomial over GF(2).  The moduli below are standard published
irreducibles (AES's x^8+x^4+x^3+x+1 at m = 8, x^4+x+1 at m = 4, ...), kept
fixed for reproducibility.  Supports m up to 16, which is all the desk-scale
work here needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactcore import horner
from .numtheory import factorize

# modulus bitmasks, bit m set; index by m
_DEFAULT_MODULI = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def _clmul(a: int, b: int) -> int:
    """Carry-less multiplication of bit-polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _clmod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _poly_gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _clmod(a, b)
    return a


def _is_irreducible(mod: int) -> bool:
    """Rabin test over GF(2) for the modulus polynomial."""
    m = mod.bit_length() - 1
    if m < 1:
        return False
    x = _clmod(0b10, mod)
    # x^(2^m) == x mod f
    t = x
    for _ in range(m):
        t = _clmod(_clmul(t, t), mod)
    if t != x:
        return False
    # gcd(x^(2^(m/q)) - x, f) == 1 for prime divisors q of m
    for q in factorize(m)[0]:
        t = x
        for _ in range(m // q):
            t = _clmod(_clmul(t, t), mod)
        if _poly_gcd2(t ^ x, mod) != 1:
            return False
    return True


class GF2m:
    """The field with 2^m elements, polynomial basis modulo a fixed irreducible."""

    def __init__(self, m: int, modulus: int | None = None):
        if modulus is None:
            if m not in _DEFAULT_MODULI:
                raise ValueError(f"no default modulus for m = {m}")
            modulus = _DEFAULT_MODULI[m]
        if modulus.bit_length() - 1 != m:
            raise ValueError("modulus degree must equal m")
        if not _is_irreducible(modulus):
            raise ValueError(f"modulus {bin(modulus)} is reducible")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m

    def __eq__(self, other):
        return isinstance(other, GF2m) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"GF2m({self.m}, modulus={bin(self.modulus)})"

    def __call__(self, bits: int) -> "GF2mElement":
        """The element whose bits, as a polynomial over GF(2), are reduced mod the modulus."""
        if bits < 0:
            raise ValueError(f"bit pattern {bits} is negative")
        return GF2mElement(self, _clmod(bits, self.modulus))

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self):
        return self(0b10)

    def elements(self):
        for v in range(self.order):
            yield self(v)

    def mul_bits(self, a: int, b: int) -> int:
        return _clmod(_clmul(a, b), self.modulus)

    def inv_bits(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        # extended Euclid on bit-polynomials
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << d
            s0 ^= s1 << d
        if r0 != 1:
            raise ArithmeticError("modulus not irreducible?")
        return _clmod(s0, self.modulus)


@dataclass(frozen=True)
class GF2mElement:
    field: GF2m
    bits: int

    def _check(self, other):
        if not isinstance(other, GF2mElement) or other.field != self.field:
            raise ValueError("elements from different fields")
        return other

    def __add__(self, other):
        return GF2mElement(self.field, self.bits ^ self._check(other).bits)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, int):
            return self if other % 2 else self.field.zero()
        return GF2mElement(self.field, self.field.mul_bits(self.bits, self._check(other).bits))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def inverse(self):
        return GF2mElement(self.field, self.field.inv_bits(self.bits))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return self.bits == 0

    def sqrt(self):
        """Unique square root: the inverse Frobenius x -> x^(2^(m-1))."""
        return self ** (1 << (self.field.m - 1))

    def trace(self) -> int:
        """Absolute trace to GF(2), as 0 or 1."""
        acc = self
        t = self
        for _ in range(self.field.m - 1):
            t = t * t
            acc = acc + t
        return acc.bits  # 0 or 1

    def __repr__(self):
        return f"<{self.bits:#x} in GF(2^{self.field.m})>"


@lru_cache(maxsize=None)
def _embedding_image(m: int, big_m: int) -> int:
    """Bits of a root of the degree-m default modulus inside GF(2^big_m)."""
    if big_m % m != 0:
        raise ValueError("target degree must be a multiple of the source degree")
    big = GF2m(big_m)
    coeffs = [big((_DEFAULT_MODULI[m] >> i) & 1) for i in range(m + 1)]
    for v in range(big.order):
        if horner(coeffs, big(v)).is_zero():
            return v
    raise AssertionError("no root of the subfield modulus found")


def embed(x: GF2mElement, big: GF2m) -> GF2mElement:
    """Embed an element of GF(2^m) (default modulus) into GF(2^big_m)."""
    if big.m == x.field.m:
        return big(x.bits)
    image = big(_embedding_image(x.field.m, big.m))
    return horner([big((x.bits >> i) & 1) for i in range(x.field.m)], image)


def retract(y: GF2mElement, small: GF2m) -> GF2mElement | None:
    """Inverse of embed when y lies in the embedded subfield, else None."""
    # brute inverse: the subfield is small at desk scale
    for x in small.elements():
        if embed(x, y.field) == y:
            return x
    return None
