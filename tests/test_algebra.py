import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdecomp.algebra import (
    CycloNumber,
    QuadraticForm,
    Z4Phase,
    cyclo_solve,
    fp_inv,
    i_unit,
    inv_sqrt,
    omega,
    omega9,
    reduce_coset_rep,
    rref_columns,
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
# F_p linear algebra
# ---------------------------------------------------------------------------


def test_fp_inv():
    for p in (2, 3):
        for a in range(1, p):
            assert (a * fp_inv(a, p)) % p == 1


def is_reduced_column_echelon(E, p):
    if E.shape[1] == 0:
        return True
    prev = -1
    for j in range(E.shape[1]):
        nz = np.nonzero(E[:, j])[0]
        if len(nz) == 0:
            return False
        piv = nz[0]
        if piv <= prev or E[piv, j] != 1:
            return False
        if np.count_nonzero(E[piv, :]) != 1:
            return False
        prev = piv
    return True


def span_mod_p(E, p):
    """All vectors in the column span (small cases only)."""
    n, r = E.shape
    pts = set()
    for idx in range(p**r):
        y = np.array([(idx // p**t) % p for t in range(r)], dtype=np.int64)
        pts.add(tuple((E @ y) % p))
    return pts


def test_rref_columns_random():
    rng = np.random.default_rng(29)
    for p in (2, 3):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            M = rng.integers(0, p, size=(n, m))
            E, r = rref_columns(M, p)
            assert is_reduced_column_echelon(E, p)
            assert E.shape == (n, r)
            assert span_mod_p(E, p) == span_mod_p(M, p)
            # canonicalization is idempotent and basis-independent
            E2, r2 = rref_columns(E, p)
            assert r2 == r and np.array_equal(E2, E)
            if m:
                shuffled = M[:, rng.permutation(m)]
                E3, _ = rref_columns(shuffled, p)
                assert np.array_equal(E3, E)


def column_span_contains(E: np.ndarray, v: np.ndarray, p: int) -> bool:
    """Whether v lies in the span of the reduced-echelon columns E."""
    E = np.atleast_2d(E)
    if E.shape[1] == 0:
        return bool(np.all(np.asarray(v) % p == 0))
    aug = np.concatenate([E, np.asarray(v).reshape(-1, 1)], axis=1)
    _, r = rref_columns(aug, p)
    return r == E.shape[1]


def test_coset_reduction():
    rng = np.random.default_rng(31)
    for p in (2, 3):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            M = rng.integers(0, p, size=(n, int(rng.integers(0, n + 1))))
            E, r = rref_columns(M, p)
            x0 = rng.integers(0, p, size=n)
            red = reduce_coset_rep(E, x0, p)
            # representative is in the same coset
            assert column_span_contains(E, (red - x0) % p, p)
            # and canonical: reducing any other member gives the same answer
            if r:
                y = rng.integers(0, p, size=r)
                other = (x0 + E @ y) % p
                assert np.array_equal(reduce_coset_rep(E, other, p), red)


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
            assert q.eval([y0, y1]) == (y0 * y0 + y0 * y1 + y1 * y1) % 3
    assert q.monomial_coeffs() == {(0, 0): 1, (0, 1): 1, (1, 1): 1}


def test_quadratic_form_batch_matches_scalar():
    rng = np.random.default_rng(37)
    for _ in range(40):
        k = int(rng.integers(0, 4))
        A = rng.integers(0, 3, size=(k, k))
        A = (A + A.T) % 3
        q = QuadraticForm(3, k, A, rng.integers(0, 3, size=k), int(rng.integers(0, 3)))
        Y = all_points(3, k)
        batch = q.eval_batch(Y)
        for idx in range(len(Y)):
            assert batch[idx] == q.eval(Y[idx])
        q2 = QuadraticForm.from_payload(3, k, q.to_payload())
        assert q2.to_payload() == q.to_payload()


def test_fp3_linear_identities():
    # y + 2 y^2 = [y == 2] and 2 y + y^2 = 2 [y == 2] pointwise on F_3;
    # these drive several exact fixture phase patterns.
    for y in range(3):
        assert (y + 2 * y * y) % 3 == (1 if y == 2 else 0)
        assert (2 * y + y * y) % 3 == (2 if y == 2 else 0)


def test_z4_phase():
    rng = np.random.default_rng(41)
    for _ in range(40):
        k = int(rng.integers(0, 5))
        B = np.triu(rng.integers(0, 2, size=(k, k)), 1)
        ph = Z4Phase(k, rng.integers(0, 4, size=k), B, int(rng.integers(0, 4)))
        Y = all_points(2, k)
        batch = ph.eval_batch(Y)
        for idx in range(len(Y)):
            y = Y[idx]
            want = (ph.a @ y + ph.c + 2 * (y @ ph.B @ y)) % 4
            assert batch[idx] == ph.eval(y) == want
        assert Z4Phase.from_payload(k, ph.to_payload()).to_payload() == ph.to_payload()
    with pytest.raises(ValueError):
        Z4Phase(2, [0, 0], [[0, 0], [1, 0]])


def test_z4_phase_determined_by_values():
    # the (a, B, c) parameters are recoverable from pointwise values, so
    # distinct parameters give distinct qubit stabilizer phase patterns
    rng = np.random.default_rng(43)
    seen = {}
    for _ in range(200):
        k = 3
        B = np.triu(rng.integers(0, 2, size=(k, k)), 1)
        ph = Z4Phase(k, rng.integers(0, 4, size=k), B, 0)
        vals = tuple(ph.eval_batch(all_points(2, k)))
        if vals in seen:
            assert seen[vals] == ph.to_payload()
        seen[vals] = ph.to_payload()
