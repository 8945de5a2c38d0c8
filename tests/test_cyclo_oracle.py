"""CycloNumber arithmetic against an independent oracle.

sympy represents an element of Q(zeta_N) as a rational polynomial in x
reduced modulo the cyclotomic polynomial Phi_N(x); products are remainders
and inverses come from the extended Euclidean algorithm (``invert``).  None
of it shares code with the power-basis rewrite or the norm inverse of
``stabdecomp.algebra``.
"""

from fractions import Fraction

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from stabdecomp.algebra import CycloNumber  # noqa: E402

X = sympy.Symbol("x")
PHI = {n: sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ") for n in (24, 72)}
DEGREE = {24: 8, 72: 24}
PAIRS = 50


def random_operand(rng, conductor: int) -> CycloNumber:
    coeffs = [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) if rng.random() < 0.7 else 0
        for _ in range(DEGREE[conductor])
    ]
    if not any(coeffs):
        coeffs[0] = 1
    return CycloNumber(conductor, coeffs)


def poly_of(terms: dict, conductor: int) -> sympy.Poly:
    """The reduced polynomial sum_e c_e x^e of a {exponent: Fraction} dict."""
    rep = {(e,): sympy.Rational(c.numerator, c.denominator) for e, c in terms.items() if c}
    return sympy.Poly.from_dict(rep or {(0,): 0}, X, domain="QQ").rem(PHI[conductor])


def as_poly(a: CycloNumber) -> sympy.Poly:
    return poly_of(dict(enumerate(a.coeffs)), a.conductor)


def coeffs_of(poly: sympy.Poly, conductor: int) -> tuple[Fraction, ...]:
    """Power-basis coefficients of a polynomial of degree below phi(N)."""
    low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(low_first + [Fraction(0)] * (DEGREE[conductor] - len(low_first)))


@pytest.mark.parametrize("conductor", [24, 72])
def test_multiply_and_inverse_match_sympy(conductor):
    rng = np.random.default_rng(conductor)
    for _ in range(PAIRS):
        a, b = random_operand(rng, conductor), random_operand(rng, conductor)
        pa, pb = as_poly(a), as_poly(b)
        assert (a * b).coeffs == coeffs_of((pa * pb).rem(PHI[conductor]), conductor)
        assert a.inverse().coeffs == coeffs_of(sympy.invert(pa, PHI[conductor]), conductor)


@pytest.mark.parametrize("conductor", [24, 72])
def test_conjugate_matches_sympy(conductor):
    # zeta^j -> zeta^(N - j), written out term by term
    rng = np.random.default_rng(conductor + 1)
    for _ in range(PAIRS):
        a = random_operand(rng, conductor)
        want = poly_of({(-j) % conductor: c for j, c in enumerate(a.coeffs)}, conductor)
        assert a.conjugate().coeffs == coeffs_of(want, conductor)


def test_lift_matches_sympy():
    # zeta_24 = zeta_72^3: x^j -> x^(3j), reduced modulo Phi_72
    rng = np.random.default_rng(3)
    for _ in range(PAIRS):
        a = random_operand(rng, 24)
        want = poly_of({3 * j: c for j, c in enumerate(a.coeffs)}, 72)
        assert a.lift(72).coeffs == coeffs_of(want, 72)
