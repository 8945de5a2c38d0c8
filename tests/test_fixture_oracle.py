"""The bundled fixtures replayed exactly by an independent oracle.

Every number is an element of Q(zeta_72), a rational polynomial in x reduced
modulo Phi_72(x), as in ``test_cyclo_oracle``.  The magic states are written
out from their definitions, each stabilizer state is built from its
``record()`` and each coefficient is read from its payload; no
``CycloNumber`` arithmetic, no ``magic_power`` and no ``verify_exact`` is on
the path.  sum_i c_i |s_i> must equal the target once both sides are put over
one power of N = sqrt(3 - sqrt 3), which is not cyclotomic: only N^2 is.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from stabdecomp import known  # noqa: E402

X = sympy.Symbol("x")
PHI = sympy.Poly(sympy.cyclotomic_poly(72, X), X, domain="QQ")


def zeta(e: int) -> sympy.Poly:
    """zeta_72^e."""
    return sympy.Poly(X ** (e % 72), X, domain="QQ").rem(PHI)


def rational(q) -> sympy.Poly:
    q = Fraction(q)
    return sympy.Poly(sympy.Rational(q.numerator, q.denominator), X, domain="QQ")


def mul(*factors) -> sympy.Poly:
    out = rational(1)
    for f in factors:
        out = (out * f).rem(PHI)
    return out


ZERO, ONE = rational(0), rational(1)
SQRT2 = zeta(9) + zeta(-9)  # zeta_8 + zeta_8^-1
SQRT3 = zeta(6) + zeta(-6)  # zeta_12 + zeta_12^-1
N_SQUARED = rational(3) - SQRT3
E8 = zeta(9)  # e^{i pi/4}
OMEGA = zeta(24)  # e^{2 pi i/3}
OMEGA9 = zeta(8)  # e^{2 pi i/9}
INV_SQRT = {2: mul(SQRT2, rational(Fraction(1, 2))), 3: mul(SQRT3, rational(Fraction(1, 3)))}


def _magic_blocks():
    """name -> (p, copies, N power, amplitudes of that many copies over N^power)."""
    r2, r3 = INV_SQRT[2], INV_SQRT[3]
    r6 = mul(r2, r3)
    c = mul(SQRT3 - ONE, rational(Fraction(1, 2)))
    # qubit T = cos(b)|0> + e^{i pi/4} sin(b)|1>, cos^2(b) = 1/2 + sqrt3/6, cos(b) sin(b) = 1/sqrt6
    cos2 = rational(Fraction(1, 2)) + mul(SQRT3, rational(Fraction(1, 6)))
    sin2 = rational(Fraction(1, 2)) - mul(SQRT3, rational(Fraction(1, 6)))
    return {
        "S": (3, 1, 0, [ZERO, r2, -r2]),  # (|1> - |2>)/sqrt2
        "N": (3, 1, 0, [r6, r6, mul(rational(-2), r6)]),  # (|0> + |1> - 2|2>)/sqrt6
        "H3": (3, 1, 1, [ONE, c, c]),  # (|0> + c|1> + c|2>)/N, c = (sqrt3 - 1)/2
        "T3": (3, 1, 0, [r3, mul(r3, OMEGA9), mul(r3, OMEGA9, OMEGA9)]),  # (|0> + w9|1> + w9^2|2>)/sqrt3
        "H": (2, 1, 0, [r2, mul(r2, E8)]),  # (|0> + e^{i pi/4}|1>)/sqrt2
        "T": (2, 2, 0, [cos2, mul(r6, E8), mul(r6, E8), mul(sin2, E8, E8)]),
    }


MAGIC = _magic_blocks()


def target(name: str, m: int) -> tuple[int, list]:
    """(N power, amplitudes) of m copies: the first copy is the most significant digit."""
    p, copies, npow, block = MAGIC[name]
    assert m % copies == 0
    amps = [ONE]
    for _ in range(m // copies):
        amps = [mul(a, b) for a in amps for b in block]
    return npow * m // copies, amps


def state(rec: dict) -> list:
    """The amplitudes p^(-k/2) phase(y) at x0 + W y of a canonical stabilizer record, where
    phase(y) = omega^(y.A.y + b.y + c) for qutrits and i^(a.y + 2 y.B.y + c) for qubits."""
    p, n, k, x0, W, form = rec["p"], rec["n"], rec["k"], rec["x0"], rec["W"], rec["phase"]
    vec = [ZERO] * p**n
    scale = mul(*[INV_SQRT[p]] * k)
    for y in itertools.product(range(p), repeat=k):
        x = [(x0[i] + sum(W[i][j] * y[j] for j in range(k))) % p for i in range(n)]
        index = sum(d * p ** (n - 1 - i) for i, d in enumerate(x))
        if p == 3:
            e = sum(form["A"][i][j] * y[i] * y[j] for i in range(k) for j in range(k))
            e += sum(form["b"][i] * y[i] for i in range(k)) + form["c"]
            vec[index] = mul(scale, zeta(24 * e))
        else:
            e = sum(form["a"][i] * y[i] for i in range(k)) + form["c"]
            e += 2 * sum(form["B"][i][j] * y[i] * y[j] for i in range(k) for j in range(k))
            vec[index] = mul(scale, zeta(18 * e))
    return vec


def coefficient(payload: dict) -> sympy.Poly:
    """sum_j q_j zeta_N^j of a coefficient payload, in Q(zeta_72)."""
    conductor = payload["conductor"]
    assert 72 % conductor == 0
    step = 72 // conductor
    return sum((mul(rational(Fraction(q)), zeta(step * j)) for j, q in enumerate(payload["coeffs"])), ZERO)


def mismatches(payload: dict) -> list[int]:
    """The basis indices where the decomposition and its target differ, over one N power."""
    t_pow, t_amps = target(payload["target"], payload["copies"])
    d_pow = payload["n_power"]
    d = max(t_pow, d_pow)
    assert (d - t_pow) % 2 == 0 and (d - d_pow) % 2 == 0
    lhs = [ZERO] * len(t_amps)
    for term in payload["terms"]:
        c = coefficient(term["coeff"])
        for i, a in enumerate(state(term["state"])):
            if not a.is_zero:
                lhs[i] = lhs[i] + mul(c, a)
    lift_lhs = mul(*[N_SQUARED] * ((d - d_pow) // 2))
    lift_rhs = mul(*[N_SQUARED] * ((d - t_pow) // 2))
    return [i for i, (a, t) in enumerate(zip(lhs, t_amps)) if not (mul(a, lift_lhs) - mul(t, lift_rhs)).is_zero]


def _coeffs72(poly: sympy.Poly) -> list[str]:
    """The power-basis coefficients of a reduced polynomial, as a coefficient payload writes them."""
    low_first = [str(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs())]
    return low_first + ["0"] * (24 - len(low_first))


@pytest.mark.parametrize("name", sorted(known.FIXTURES))
def test_fixture_replays_in_the_oracle(name):
    payload = known.FIXTURES[name]().to_payload()
    assert mismatches(payload) == []
    # the same payload with one coefficient multiplied by omega fails
    terms = [dict(t) for t in payload["terms"]]
    terms[0]["coeff"] = {"conductor": 72, "coeffs": _coeffs72(mul(coefficient(terms[0]["coeff"]), OMEGA))}
    assert mismatches(dict(payload, terms=terms)) != []

