"""Factorization identities for Chebyshev powers and their cyclotomic layer.

Covers the difference factorizations C_n(x) - C_n(y), the "roots of two"
(solutions of C_n(x) = 2), the half-degree fold of cyclotomic polynomials,
and the structural splits of C_n, S_n and the odd-order U polynomials.
The difference quotients (f(x) - f(y)) / (x - y) for f = C_n or S_n are
read off the coefficients of f: the x^i y^j coefficient is the x^(i+j+1)
coefficient of f, as in (x^n - y^n) / (x - y) = sum x^i y^j.  All
identities are verified by exact expansion; irreducibility evidence is
certificate-based (Eisenstein, rational roots, bounded quadratic factors)
rather than a general factoring engine.  Rational roots are found by
p-adic lifting: roots mod a prime, Newton-lifted past the Cauchy bound and
checked exactly, so the cost does not grow with the size of the roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactcore import (
    BiPolynomial,
    IntPolynomial,
    cheb_first_kind,
    cheb_second_kind,
    cheby_transform,
    u_odd_poly,
)
from .numtheory import divisors, factorize, is_prime
from .padic import _fp_gcd, _newton_lift_simple, roots_mod_p


@dataclass(frozen=True)
class FactorList:
    """A scalar times a product of (polynomial, multiplicity) pairs."""

    scalar: int
    factors: tuple  # ((IntPolynomial, mult), ...)

    def __init__(self, scalar=1, factors=()):
        object.__setattr__(self, "scalar", int(scalar))
        object.__setattr__(
            self, "factors", tuple((p, int(m)) for p, m in factors)
        )

    def expand(self) -> IntPolynomial:
        out = IntPolynomial.constant(self.scalar)
        for poly, mult in self.factors:
            out = out * poly**mult
        return out

    def to_json(self):
        return {
            "scalar": self.scalar,
            "factors": [[list(p.coeffs), m] for p, m in self.factors],
        }

    @staticmethod
    def from_json(data):
        return FactorList(
            data["scalar"],
            [(IntPolynomial(tuple(c)), m) for c, m in data["factors"]],
        )


def r_bipoly(n: int) -> BiPolynomial:
    """The symmetric kernel R_n(x,y) = sum_{i=1}^{n-1} S_i(x) S_{n-i}(y).

    It is the difference quotient (S_n(x) - S_n(y)) / (x - y), so its
    x^i y^j coefficient is the x^(i+j+1) coefficient of S_n.
    """
    return _difference_quotient(n, cheb_second_kind)


def diff_factor(n: int) -> BiPolynomial:
    """Cofactor of (x - y) in C_n(x) - C_n(y), namely R_{n+1} - R_{n-1}.

    Its x^i y^j coefficient is the x^(i+j+1) coefficient of C_n.
    """
    return _difference_quotient(n, cheb_first_kind)


def _difference_quotient(n: int, family) -> BiPolynomial:
    """(f(x) - f(y)) / (x - y) for f = family(n), read off the coefficients of f.

    Since (x^k - y^k) / (x - y) = sum_{i+j=k-1} x^i y^j, row i holds the
    coefficients of f from degree i + 1 up: no polynomial products at all.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    c = family(n).coeffs
    return BiPolynomial(tuple(c[i + 1 :] for i in range(len(c) - 1)))


def cofactor_at(n: int, a: int) -> IntPolynomial:
    """Cofactor of (x - a) in C_n(x) - C_n(a), by one synthetic division.

    It is diff_factor(n) at y = a, and equals the Chebyshev substitution of
    sum_{i=1}^{n} S_i(a) x^{n-i}; for a in {-2,-1,0,1,2,3} those S_i(a)
    follow the classical patterns (alternating signs, period-six pattern,
    even-index Fibonacci numbers for a = 3).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    cn = cheb_first_kind(n)
    return (cn - cn(a)) // IntPolynomial((-a, 1))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by dividing x^n - 1 by proper divisors."""
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = IntPolynomial.monomial(n) - IntPolynomial.one()
    for d in divisors(n)[:-1]:
        poly = poly // cyclotomic(d)
    return poly


def euler_phi(n: int) -> int:
    """The number of k in [1, n] prime to n >= 1."""
    result = n
    for p in factorize(n)[0]:
        result -= result // p
    return result


def cheb_cyclotomic(n: int) -> IntPolynomial:
    """Minimal polynomial of the primitive order-n Chebyshev roots of two.

    For n > 2 the cyclotomic polynomial is palindromic of even degree; fold
    it to half degree and apply the Chebyshev substitution.  Order 1 is the
    constant 1 by convention; order 2 is rejected (odd totient, no fold).
    """
    if n == 1:
        return IntPolynomial.one()
    if n == 2:
        raise ValueError("order 2 has no half-degree fold (totient 1)")
    if n < 1:
        raise ValueError("order must be >= 1")
    phi = cyclotomic(n)
    d = phi.degree
    half = d // 2
    folded = [0] * (half + 1)
    for i in range(half + 1):
        folded[half - i] = phi[d - i]  # leading part of the palindrome
    return cheby_transform(IntPolynomial(tuple(folded)))


def u_psi_factorization(n: int) -> FactorList:
    """Split U_n (odd n) into the Chebyshev-cyclotomic polynomials of divisors of n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("order must be odd and >= 1")
    result = FactorList(1, [(cheb_cyclotomic(d), 1) for d in divisors(n)])
    if result.expand() != u_odd_poly(n):
        raise AssertionError(f"cyclotomic split failed for U_{n}")
    return result


def structural_factorizations(n: int) -> dict:
    """The structural splits applicable to order n, each verified by expansion.

    Returns a dict of named FactorList entries, keyed by the target they
    multiply out to:

      'even_minus_two':  C_{2k} - 2 = (x^2 - 4) S_k^2          (n = 2k)
      'odd_minus_two':   C_n - 2 = (x - 2) U_n^2               (n odd)
      'geometric':       C_n - 2 = (x - 2) (sub(1+x+...+x^k))^2 (n = 2k+1)
      's_even':          S_{2k} = S_k C_k                      (n = 2k)
      's_odd':           S_n = (-1)^k U_n(x) U_n(-x)           (n = 2k+1)
      'odd_u':           C_n = (-1)^k x U_n(2 - x^2)           (n = 2k+1)
      'two_power':       C_n = (-1)^((m-1)/2) C_l U_m(-C_{2l}) (n = l*m, l = 2^a maximal)

    The 'two_power' entry records the composition identity with the odd part
    m evaluated on -C_{2l}; degree l + 2l*(m-1)/2 = n as it must be.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    out = {}
    x = IntPolynomial.x()
    xsq_m4 = IntPolynomial((-4, 0, 1))
    cn = cheb_first_kind(n)

    if n % 2 == 0:
        k = n // 2
        fl = FactorList(1, [(xsq_m4, 1), (cheb_second_kind(k), 2)])
        assert fl.expand() == cn - 2
        out["even_minus_two"] = fl
        fl = FactorList(1, [(cheb_second_kind(k), 1), (cheb_first_kind(k), 1)])
        assert fl.expand() == cheb_second_kind(n)
        out["s_even"] = fl
    else:
        k = (n - 1) // 2
        u = u_odd_poly(n)
        fl = FactorList(1, [(x - 2, 1), (u, 2)])
        assert fl.expand() == cn - 2
        out["odd_minus_two"] = fl
        geo = cheby_transform(IntPolynomial((1,) * (k + 1)))
        fl = FactorList(1, [(x - 2, 1), (geo, 2)])
        assert fl.expand() == cn - 2
        out["geometric"] = fl
        neg_u = IntPolynomial(tuple(c if i % 2 == 0 else -c for i, c in enumerate(u.coeffs)))
        fl = FactorList((-1) ** k, [(u, 1), (neg_u, 1)])
        assert fl.expand() == cheb_second_kind(n)
        out["s_odd"] = fl
        fl = FactorList(
            (-1) ** k,
            [(x, 1), (u.compose(IntPolynomial((2, 0, -1))), 1)],
        )
        assert fl.expand() == cn
        out["odd_u"] = fl

    l = n & -n  # the largest power of two dividing n
    m = n // l
    if m > 1 and l > 1:
        inner = -cheb_first_kind(2 * l)
        fl = FactorList(
            (-1) ** ((m - 1) // 2),
            [(cheb_first_kind(l), 1), (u_odd_poly(m).compose(inner), 1)],
        )
        assert fl.expand() == cn
        out["two_power"] = fl
    return out


def eisenstein_check(p: IntPolynomial, q: int) -> bool:
    """Eisenstein irreducibility certificate at the prime q for a monic polynomial."""
    if not p.is_monic():
        raise ValueError("Eisenstein check needs a monic polynomial")
    if p.degree < 1:
        return False
    for c in p.coeffs[:-1]:
        if c % q != 0:
            return False
    return p.coeffs[0] % (q * q) != 0


@dataclass(frozen=True)
class ChebRootOfTwoSet:
    """The real solutions of C_n(x) = 2 with their primitive orders.

    `values` lists (value, order) pairs for 2*cos(2*pi*k/n), k = 0..floor(n/2);
    `defining` maps each order d present to the polynomial with those
    primitive values as roots (x - 2 and x + 2 for orders 1 and 2).
    """

    n: int
    values: tuple  # ((float, int), ...)
    defining: dict  # order -> IntPolynomial


def chebroots_of_two(n: int) -> ChebRootOfTwoSet:
    if n < 1:
        raise ValueError("order must be >= 1")
    values = []
    orders = set()
    for k in range(n // 2 + 1):
        v = 2.0 * math.cos(2.0 * math.pi * k / n)
        d = n // math.gcd(n, k) if k else 1
        values.append((v, d))
        orders.add(d)
    defining = {}
    for d in sorted(orders):
        if d == 1:
            defining[d] = IntPolynomial((-2, 1))
        elif d == 2:
            defining[d] = IntPolynomial((2, 1))
        else:
            defining[d] = cheb_cyclotomic(d)
    return ChebRootOfTwoSet(n, tuple(values), defining)


# ---------------------------------------------------------------------------
# Irreducibility evidence helpers


def rational_roots(p: IntPolynomial):
    """All rational roots of an integer polynomial, by p-adic lifting.

    Repeated roots are found once, on the squarefree part f / gcd(f, f').
    With n = deg f and a = lead(f), the rational roots of f are y / a for
    the integer roots y of the monic g(y) = a^(n-1) f(y / a), and every such
    |y| is below the Cauchy bound B = 1 + max |g_i|.  At a prime q where g
    is squarefree, each root of g mod q is simple, so Newton lifting takes
    it to the one root mod q^k it can be the residue of; once q^k > 2B the
    symmetric residue is the only candidate integer, and it is checked
    exactly (Loos, SIAM J. Comput. 12 (1983); Cohen, GTM 138, 3.5).  All
    arithmetic is on integers, and the cost is polynomial in the degree and
    in the number of digits of the coefficients.  Roots come out ordered by
    numerator size, then denominator, positive before negative.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) > 1:
        coeffs = _squarefree_part(coeffs)
        n, lead = len(coeffs) - 1, coeffs[-1]
        g = [c * lead ** (n - 1 - i) for i, c in enumerate(coeffs[:-1])] + [1]
        deriv = [i * c for i, c in enumerate(g)][1:]
        q = next(q for q in itertools.count(2) if is_prime(q) and _squarefree_mod(g, deriv, q))
        bound = 1 + max(abs(c) for c in g[:-1])
        k, mod = 1, q
        while mod <= 2 * bound:
            k, mod = k + 1, mod * q
        monic = IntPolynomial(g)
        for r in roots_mod_p(g, q):
            y = _newton_lift_simple(g, deriv, r, q, k)
            if y > mod // 2:
                y -= mod
            if monic(y) == 0:
                roots.append(Fraction(y, lead))
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _squarefree_mod(g, deriv, q):
    """Whether the monic g is squarefree mod the prime q (coprime to its derivative there)."""
    return len(_fp_gcd([c % q for c in g], [c % q for c in deriv], q)) == 1


def _squarefree_part(coeffs):
    """f / gcd(f, f') for an integer polynomial f of degree >= 1, with integer coefficients."""
    f = IntPolynomial(coeffs)
    common = _primitive_gcd(coeffs, list(f.derivative().coeffs))
    if len(common) == 1:
        return coeffs
    return list((f // IntPolynomial(common)).coeffs)


def _primitive_gcd(a, b):
    """The primitive gcd in Z[x] (positive leading coefficient), by primitive remainder sequences."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a if not b else [1]


def _primitive(c):
    if not c:
        return c
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return [x // g for x in c]


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of a by b (trimmed; [] when b | a)."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    while len(a) > db:
        head, shift = a[-1], len(a) - 1 - db
        a = [lb * x for x in a]
        for i, bi in enumerate(b):
            a[shift + i] -= head * bi
        while a and a[-1] == 0:
            a.pop()
    return a


def has_quadratic_factor(p: IntPolynomial, bound: int = 64) -> bool:
    """Bounded search for a monic integer quadratic factor (degree <= 4 inputs)."""
    if p.degree > 4:
        raise ValueError("bounded quadratic search is for degree <= 4")
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            quad = IntPolynomial((b, a, 1))
            try:
                _, rem = p.divmod_exact(quad)
            except ValueError:
                continue
            if rem.is_zero():
                return True
    return False
