import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdecomp.algebra import (
    CycloNumber,
    QuadraticForm,
    cyclo_solve,
    i_unit,
    inv_sqrt,
    omega,
    omega9,
    sqrt2,
    sqrt3,
    sqrt6,
    xi,
)

RNG = np.random.default_rng(20240817)


def rand_cyclo(rng, conductor=24, span=6):
    phi = 8 if conductor == 24 else 24
    coeffs = [
        Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 5)))
        for _ in range(phi)
    ]
    return CycloNumber(conductor, coeffs)


# ---------------------------------------------------------------------------
# constants against the complex-number oracle
# ---------------------------------------------------------------------------


def test_constants_match_cmath():
    checks = {
        omega(): cmath.exp(2j * cmath.pi / 3),
        i_unit(): 1j,
        xi(): cmath.exp(1j * cmath.pi / 6),
        sqrt2(): cmath.sqrt(2),
        sqrt3(): cmath.sqrt(3),
        sqrt6(): cmath.sqrt(6),
        omega9(): cmath.exp(2j * cmath.pi / 9),
        CycloNumber.zeta_pow(24, 3): cmath.exp(1j * cmath.pi / 4),
        CycloNumber.zeta_pow(24, 1): cmath.exp(1j * cmath.pi / 12),
    }
    for got, want in checks.items():
        assert abs(got.to_complex() - want) < 1e-14


def test_constant_identities_exact():
    assert sqrt2() * sqrt2() == CycloNumber.from_rational(2)
    assert sqrt3() * sqrt3() == CycloNumber.from_rational(3)
    assert sqrt6() == sqrt2() * sqrt3()
    assert omega() ** 3 == CycloNumber.one()
    assert omega() ** 2 + omega() + 1 == CycloNumber.zero()
    assert i_unit() * i_unit() == CycloNumber.from_rational(-1)
    assert xi() ** 4 == omega()
    assert xi() ** 3 == i_unit()
    assert omega9() ** 9 == CycloNumber.one(72)
    assert omega9() ** 3 == omega().lift(72)
    # sqrt3 * xi + omega^2 == 1  (shows up in a rank-7 decomposition)
    assert sqrt3() * xi() + omega() * omega() == CycloNumber.one()


def test_root_of_unity():
    assert CycloNumber.root_of_unity(9, 1) == omega9()
    assert CycloNumber.root_of_unity(3, 2) == omega() ** 2
    assert CycloNumber.root_of_unity(3, 1).conductor == 24
    with pytest.raises(ValueError, match="order 5 divides neither 24 nor 72"):
        CycloNumber.root_of_unity(5, 1)


def test_zeta_pow_negative_and_wraparound():
    z = CycloNumber.zeta_pow
    for e in range(-30, 60):
        assert z(24, e) == z(24, e % 24)
        assert abs(z(24, e).to_complex() - cmath.exp(2j * cmath.pi * e / 24)) < 1e-14


# ---------------------------------------------------------------------------
# field laws (randomized, seeded)
# ---------------------------------------------------------------------------


def test_field_laws_randomized():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = 24 if trial % 3 else 72
        a, b, c = (rand_cyclo(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == CycloNumber.zero(n)
        if not a.is_zero():
            assert a * a.inverse() == CycloNumber.one(n)
            assert (b / a) * a == b


def test_to_complex_is_ring_hom():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rand_cyclo(rng), rand_cyclo(rng)
        za, zb = a.to_complex(), b.to_complex()
        scale = max(1.0, abs(za) * abs(zb))
        assert abs((a * b).to_complex() - za * zb) / scale < 1e-13
        assert abs((a + b).to_complex() - (za + zb)) < 1e-13 * max(1.0, abs(za) + abs(zb))


def test_conjugate():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rand_cyclo(rng, 72 if _ % 2 else 24)
        assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-12
        norm = a * a.conjugate()
        # |a|^2 is real: invariant under conjugation
        assert norm == norm.conjugate()


def test_lift_embedding():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b = rand_cyclo(rng), rand_cyclo(rng)
        assert (a * b).lift(72) == a.lift(72) * b.lift(72)
        assert (a + b).lift(72) == a.lift(72) + b.lift(72)
        assert abs(a.lift(72).to_complex() - a.to_complex()) < 1e-13
    # mixed-conductor arithmetic agrees with explicit lifting
    w9 = omega9()
    assert omega() * w9 == omega().lift(72) * w9


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_zeta_multiplication_is_exponent_addition(e1, e2):
    z = CycloNumber.zeta_pow
    assert z(24, e1) * z(24, e2) == z(24, e1 + e2)
    assert z(72, e1) * z(72, e2) == z(72, e1 + e2)


def test_serialization_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = rand_cyclo(rng, 72 if _ % 2 else 24)
        assert CycloNumber.from_payload(a.to_payload()) == a
    payload = (sqrt2() / 3).to_payload()
    assert payload["conductor"] == 24
    assert all(isinstance(s, str) for s in payload["coeffs"])


def test_hash_agrees_with_equality_across_conductors():
    assert omega() == omega().lift(72)
    assert len({omega(), omega().lift(72)}) == 1
    third = Fraction(1, 3)
    assert len({third, CycloNumber.from_rational(third), CycloNumber.from_rational(third, 72)}) == 1
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = rand_cyclo(rng)
        assert hash(a) == hash(a.lift(72))
        assert hash(a) == hash(CycloNumber.from_payload(a.to_payload()))


def test_rational_helpers():
    q = CycloNumber.from_rational(Fraction(3, 7))
    assert q.is_rational()
    assert not sqrt2().is_rational()
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero().inverse()


# ---------------------------------------------------------------------------
# exact linear solving
# ---------------------------------------------------------------------------


def test_cyclo_solve_random_square():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        A = [[rand_cyclo(rng, span=2) for _ in range(n)] for _ in range(n)]
        x = [rand_cyclo(rng, span=2) for _ in range(n)]
        rhs = [sum((A[i][j] * x[j] for j in range(n)), CycloNumber.zero()) for i in range(n)]
        sol = cyclo_solve(A, rhs)
        assert sol is not None
        back = [sum((A[i][j] * sol[j] for j in range(n)), CycloNumber.zero()) for i in range(n)]
        assert back == rhs


def test_cyclo_solve_overdetermined_and_inconsistent():
    one, w = CycloNumber.one(), omega()
    # two unknowns, three equations, consistent
    A = [[one, w], [w, one], [one, one]]
    x = [sqrt2(), w * w]
    rhs = [A[i][0] * x[0] + A[i][1] * x[1] for i in range(3)]
    sol = cyclo_solve(A, rhs)
    assert sol == x
    rhs_bad = [rhs[0], rhs[1], rhs[2] + one]
    assert cyclo_solve(A, rhs_bad) is None


# ---------------------------------------------------------------------------
# phase functions
# ---------------------------------------------------------------------------


def all_points(p, k):
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(p)] * k, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_quadratic_form_monomials_round_trip():
    # exhaustive check over F_3: monomial dict -> form -> pointwise values
    q = QuadraticForm.from_monomials(3, 2, quad={(0, 0): 1, (0, 1): 1, (1, 1): 1})
    for y0 in range(3):
        for y1 in range(3):
            assert q.eval_batch(np.array([[y0, y1]]))[0] == (y0 * y0 + y0 * y1 + y1 * y1) % 3
    assert q.monomial_coeffs() == {(0, 0): 1, (0, 1): 1, (1, 1): 1}


def test_quadratic_form_batch_matches_scalar():
    rng = np.random.default_rng(37)
    for _ in range(40):
        k = int(rng.integers(0, 4))
        A = rng.integers(0, 3, size=(k, k))
        A = (A + A.T) % 3
        b = rng.integers(0, 3, size=k)
        q = QuadraticForm(3, k, A, b)
        Y = all_points(3, k)
        batch = q.eval_batch(Y)
        for y, exponent in zip(Y, batch):
            assert exponent == q.eval_batch(np.array([y]))[0] == (y @ A @ y + b @ y) % 3
        q2 = QuadraticForm.from_payload(3, k, q.to_payload())
        assert q2.to_payload() == q.to_payload()


def test_fp3_linear_identities():
    # y + 2 y^2 = [y == 2] and 2 y + y^2 = 2 [y == 2] pointwise on F_3;
    # these drive several exact fixture phase patterns.
    for y in range(3):
        assert (y + 2 * y * y) % 3 == (1 if y == 2 else 0)
        assert (2 * y + y * y) % 3 == (2 if y == 2 else 0)


def z4_oracle(a, B, y):
    """i^(a.y) (-1)^(y^T B y) as a power of i."""
    return (a @ y + 2 * (y @ B @ y)) % 4


def test_z4_phase():
    # the qubit form: A = B + B^T with B strictly upper and b = a over Z_4
    rng = np.random.default_rng(41)
    for _ in range(40):
        k = int(rng.integers(0, 5))
        B = np.triu(rng.integers(0, 2, size=(k, k)), 1)
        a = rng.integers(0, 4, size=k)
        ph = QuadraticForm(2, k, B + B.T, a)
        assert ph.phase_order == 4
        Y = all_points(2, k)
        batch = ph.eval_batch(Y)
        for idx in range(len(Y)):
            y = Y[idx]
            assert batch[idx] == ph.eval_batch(np.array([y]))[0] == z4_oracle(a, B, y)
        payload = ph.to_payload()
        assert list(payload) == ["a", "B", "c"]
        assert payload == {"a": a.tolist(), "B": B.tolist(), "c": 0}
        assert QuadraticForm.from_payload(2, k, payload).to_payload() == payload


def test_qubit_form_refuses_a_nonzero_diagonal():
    with pytest.raises(ValueError, match="zero diagonal"):
        QuadraticForm(2, 2, [[1, 0], [0, 0]], [0, 0])
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(2, 2, [[0, 1], [0, 0]], [0, 0])


def test_qubit_payload_refuses_b_on_or_below_the_diagonal():
    for B in ([[0, 0], [1, 0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="strictly upper triangular"):
            QuadraticForm.from_payload(2, 2, {"a": [0, 0], "B": B, "c": 0})


def test_z4_phase_determined_by_values():
    # the (a, B) parameters are recoverable from pointwise values, so
    # distinct parameters give distinct qubit stabilizer phase patterns
    rng = np.random.default_rng(43)
    seen = {}
    for _ in range(200):
        k = 3
        B = np.triu(rng.integers(0, 2, size=(k, k)), 1)
        a = rng.integers(0, 4, size=k)
        ph = QuadraticForm(2, k, B + B.T, a)
        vals = tuple(ph.eval_batch(all_points(2, k)))
        assert vals == tuple(z4_oracle(a, B, y) for y in all_points(2, k))
        if vals in seen:
            assert seen[vals] == ph.to_payload()
        seen[vals] = ph.to_payload()
