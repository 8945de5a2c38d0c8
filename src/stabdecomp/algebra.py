"""Exact arithmetic foundations.

Two layers live here:

* :class:`CycloNumber`, exact elements of the cyclotomic fields Q(zeta_24)
  and Q(zeta_72): integer coefficients over the power basis and one common
  denominator, with an exact linear solver over them, and
* :class:`QuadraticForm`, the phase exponent of a canonical stabilizer
  state, one class for qubits and qutrits.

Q(zeta_24) contains every constant the qutrit/qubit decompositions need
(omega = e^{2 pi i/3}, i, e^{i pi/6}, sqrt 2, sqrt 3, sqrt 6, e^{i pi/12});
Q(zeta_72) adds e^{2 pi i/9}.  Both conductors have cyclotomic polynomial
x^(2m) - x^m + 1 (m = 4 resp. 12), so reduction is a two-term rewrite.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

import numpy as np

# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

_CONDUCTORS = (24, 72)
_PHI = {24: 8, 72: 24}
# both cyclotomic polynomials are x^(2m) - x^m + 1
_HALF = {24: 4, 72: 12}
# exponents k != 1 of the Galois automorphisms zeta -> zeta^k
_UNITS = {n: [k for k in range(2, n) if gcd(k, n) == 1] for n in _CONDUCTORS}
_BASIS_COMPLEX = {n: [cmath.exp(2j * cmath.pi * k / n) for k in range(_PHI[n])] for n in _CONDUCTORS}


def _reduce(poly: list[int], conductor: int) -> list[int]:
    """Power-basis coefficients of an integer polynomial in zeta_N of any degree.

    Rewrites x^e -> x^(e-m) - x^(e-2m), the relation x^(2m) = x^m - 1, from
    the top degree down; ``poly`` is consumed.
    """
    phi, m = _PHI[conductor], _HALF[conductor]
    for e in range(len(poly) - 1, phi - 1, -1):
        c = poly[e]
        if c:
            poly[e - m] += c
            poly[e - 2 * m] -= c
    return poly[:phi] + [0] * (phi - len(poly))


def _substitute(num, k: int, conductor: int) -> list[int]:
    """Power-basis coefficients of sum_j num[j] zeta_N^(k j): the map zeta^j -> zeta^(k j)."""
    poly = [0] * conductor
    for j, c in enumerate(num):
        poly[k * j % conductor] += c
    return _reduce(poly, conductor)


class CycloNumber:
    """An element of Q(zeta_N), N in {24, 72}, exact rational coefficients.

    Stored as integer numerators over the power basis zeta^0 .. zeta^(phi(N)-1)
    and one positive common denominator, in lowest terms, so equal values of
    one conductor have equal fields.  Values are immutable; mixed-conductor
    arithmetic lifts 24 -> 72.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __new__(cls, conductor: int, coeffs) -> "CycloNumber":
        if conductor not in _CONDUCTORS:
            raise ValueError("conductor must be 24 or 72, got %r" % (conductor,))
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != _PHI[conductor]:
            raise ValueError(
                "need %d coefficients for conductor %d, got %d"
                % (_PHI[conductor], conductor, len(coeffs))
            )
        den = lcm(*(c.denominator for c in coeffs))
        return cls._make(conductor, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def _make(cls, conductor: int, num, den: int) -> "CycloNumber":
        """From integer numerators over a nonzero integer denominator, in lowest terms."""
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        out = object.__new__(cls)
        object.__setattr__(out, "conductor", conductor)
        object.__setattr__(out, "_num", tuple(x // g for x in num))
        object.__setattr__(out, "_den", den // g)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coefficients."""
        return tuple(Fraction(x, self._den) for x in self._num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int = 24) -> "CycloNumber":
        return cls._make(conductor, [0] * _PHI[conductor], 1)

    @classmethod
    def from_rational(cls, value, conductor: int = 24) -> "CycloNumber":
        q = Fraction(value)
        return cls._make(conductor, [q.numerator] + [0] * (_PHI[conductor] - 1), q.denominator)

    @classmethod
    def one(cls, conductor: int = 24) -> "CycloNumber":
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta_pow(cls, conductor: int, exponent: int) -> "CycloNumber":
        """zeta_N^exponent, any integer exponent."""
        poly = [0] * conductor
        poly[exponent % conductor] = 1
        return cls._make(conductor, _reduce(poly, conductor), 1)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CycloNumber":
        """Primitive ``order``-th root of unity raised to ``power``, in conductor 24 when order divides 24, else 72."""
        conductor = 24 if 24 % order == 0 else 72
        if conductor % order:
            raise ValueError("order %d divides neither 24 nor 72" % order)
        return cls.zeta_pow(conductor, (conductor // order) * power)

    # -- structure ----------------------------------------------------------

    def lift(self, conductor: int) -> "CycloNumber":
        """Rewrite in a larger conductor (24 -> 72 embeds zeta_24 = zeta_72^3)."""
        if conductor == self.conductor:
            return self
        if not (self.conductor == 24 and conductor == 72):
            raise ValueError("only the 24 -> 72 lift is supported")
        return CycloNumber._make(72, _substitute(self._num, 3, 72), self._den)

    @staticmethod
    def _common(a: "CycloNumber", b: "CycloNumber") -> tuple["CycloNumber", "CycloNumber"]:
        n = max(a.conductor, b.conductor)
        return a.lift(n), b.lift(n)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "CycloNumber":
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        g = gcd(a._den, b._den)
        fa, fb = b._den // g, a._den // g
        return CycloNumber._make(
            a.conductor, [x * fa + y * fb for x, y in zip(a._num, b._num)], a._den * fa
        )

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return CycloNumber._make(self.conductor, [-x for x in self._num], self._den)

    def __sub__(self, other) -> "CycloNumber":
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycloNumber":
        return (-self) + other

    def __mul__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNumber._make(
                self.conductor, [x * q.numerator for x in self._num], self._den * q.denominator
            )
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._common(self, other)
        prod = [0] * (2 * _PHI[a.conductor] - 1)
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(b._num, i):
                    prod[j] += x * y
        return CycloNumber._make(a.conductor, _reduce(prod, a.conductor), a._den * b._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloNumber":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CycloNumber":
        """Complex conjugate (zeta -> zeta^(N-1))."""
        n = self.conductor
        return CycloNumber._make(n, _substitute(self._num, -1, n), self._den)

    def inverse(self) -> "CycloNumber":
        """Field inverse through the norm: x^-1 = prod_{k != 1} sigma_k(x) / Norm(x).

        sigma_k is the automorphism zeta -> zeta^k; the product over all k
        coprime to N is the rational norm Norm(x) (H. Cohen, GTM 138, sec. 4.2).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.conductor
        cofactor = CycloNumber.one(n)
        for k in _UNITS[n]:
            cofactor = cofactor * CycloNumber._make(n, _substitute(self._num, k, n), 1)
        norm = self * cofactor
        assert norm.is_rational(), "the norm of a cyclotomic number is rational"
        return CycloNumber._make(n, [x * norm._den for x in cofactor._num], norm._num[0])

    def __truediv__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self * other.inverse()

    # -- comparisons / output -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a._num == b._num and a._den == b._den

    def __hash__(self) -> int:
        # equal values hash alike across conductors: rationals as Fractions,
        # everything else by its conductor-72 form
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.lift(72)._num, self._den))

    def __repr__(self) -> str:
        terms = ["%s*z%d" % (c, j) if j else str(c) for j, c in enumerate(self.coeffs) if c]
        return "Cyclo%d(%s)" % (self.conductor, " + ".join(terms) or "0")

    def to_complex(self) -> complex:
        # x / den is float(Fraction(x, den)): both are the correctly rounded quotient
        basis = _BASIS_COMPLEX[self.conductor]
        den = self._den
        return sum((x / den * basis[j] for j, x in enumerate(self._num) if x), 0j)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_payload(cls, payload: dict) -> "CycloNumber":
        return cls(int(payload["conductor"]), [Fraction(s) for s in payload["coeffs"]])


def _coerce(value, conductor: int):
    if isinstance(value, CycloNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNumber.from_rational(value, conductor)
    return NotImplemented


# frequently used constants -------------------------------------------------


def omega() -> CycloNumber:
    """e^{2 pi i / 3}"""
    return CycloNumber.zeta_pow(24, 8)


def i_unit() -> CycloNumber:
    return CycloNumber.zeta_pow(24, 6)


def xi() -> CycloNumber:
    """e^{i pi / 6}; xi^3 = i, xi^4 = omega, xi^6 = -1."""
    return CycloNumber.zeta_pow(24, 2)


def sqrt2() -> CycloNumber:
    return CycloNumber.zeta_pow(24, 3) + CycloNumber.zeta_pow(24, -3)


def sqrt3() -> CycloNumber:
    return CycloNumber.zeta_pow(24, 2) + CycloNumber.zeta_pow(24, -2)


def sqrt6() -> CycloNumber:
    return sqrt2() * sqrt3()


def omega9() -> CycloNumber:
    """e^{2 pi i / 9}, lives in conductor 72."""
    return CycloNumber.zeta_pow(72, 8)


def inv_sqrt(p: int) -> CycloNumber:
    """Exact 1/sqrt(p) for p in {2, 3}."""
    if p == 2:
        return sqrt2() / 2
    if p == 3:
        return sqrt3() / 3
    raise ValueError("only p = 2, 3 supported")


# ---------------------------------------------------------------------------
# Exact linear solving over the cyclotomic field
# ---------------------------------------------------------------------------


def cyclo_solve(
    matrix: list[list[CycloNumber]], rhs: list[CycloNumber]
) -> list[CycloNumber] | None:
    """Solve an (overdetermined) linear system over the cyclotomic field.

    Returns exact coefficients c with matrix @ c == rhs, free variables set
    to zero, or None when the system is inconsistent.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    conductor = max([24] + [x.conductor for row in matrix for x in row] + [x.conductor for x in rhs])
    A = [[x.lift(conductor) for x in row] + [rhs[i].lift(conductor)] for i, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if not A[r][col].is_zero()), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = A[row][col].inverse()
        A[row] = [x * inv for x in A[row]]
        for r in range(nrows):
            if r != row and not A[r][col].is_zero():
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append((row, col))
        row += 1
    # consistency: all-zero coefficient rows must have zero rhs
    for r in range(row, nrows):
        if not A[r][ncols].is_zero():
            return None
    sol = [CycloNumber.zero(conductor) for _ in range(ncols)]
    for r, c in pivots:
        sol[c] = A[r][ncols]
    return sol


# ---------------------------------------------------------------------------
# Phase functions for canonical stabilizer states
# ---------------------------------------------------------------------------


class QuadraticForm:
    """The phase exponent e(y) = y^T A y + b . y of a canonical stabilizer state
    (no constant term: the global phase is fixed).

    One form for every prime p (Hostens, Dehaene & De Moor, PRA 71, 042315
    (2005)).  Values are exponents of a primitive ``phase_order``-th root of
    unity: omega_p for odd p, i for p = 2.  A is symmetric; the coefficient
    of the monomial y_i y_j (i < j) is 2 A_ij, and of y_i^2 is A_ii.

    * Odd p: A and b are mod p, and ``phase_order`` is p.
    * p = 2: b is mod 4, and ``phase_order`` is 4.  A = B + B^T is a
      0/1 matrix with zero diagonal, B strictly upper triangular, so
      y^T A y = 2 y^T B y and e(y) = b . y + 2 y^T B y mod 4.  The
      payload keeps the qubit layout {"a": b, "B": B, "c": 0}; every payload
      writes "c": 0, and ``from_payload`` refuses any other value.
    """

    __slots__ = ("p", "k", "A", "b")

    def __init__(self, p: int, k: int, A, b) -> None:
        self.p = p
        self.k = k
        self.A = np.asarray(A, dtype=np.int64).reshape(k, k) % p
        if not np.array_equal(self.A, self.A.T):
            raise ValueError("A must be symmetric")
        if p == 2 and self.A.diagonal().any():
            raise ValueError("a qubit A must have a zero diagonal")
        self.b = np.asarray(b, dtype=np.int64).reshape(k) % self.phase_order

    @classmethod
    def _trusted(cls, p: int, k: int, A: np.ndarray, b: np.ndarray) -> "QuadraticForm":
        """The form with the int64 arrays A (k x k) and b (k) as they are,
        unchecked: for a caller that lays them out as the constructor
        would leave them, A symmetric and reduced mod p with a zero diagonal
        for qubits, and b reduced mod ``phase_order``."""
        form = cls.__new__(cls)
        form.p, form.k, form.A, form.b = p, k, A, b
        return form

    @property
    def phase_order(self) -> int:
        return 4 if self.p == 2 else self.p

    @classmethod
    def zero(cls, p: int, k: int) -> "QuadraticForm":
        return cls(p, k, np.zeros((k, k), dtype=np.int64), np.zeros(k, dtype=np.int64))

    @classmethod
    def from_monomials(cls, p: int, k: int, quad: dict | None = None, lin=None) -> "QuadraticForm":
        """Build from monomial coefficients over F_p, p odd: quad[(i, j)] multiplies y_i y_j (i <= j)."""
        if p == 2:
            raise ValueError("from_monomials needs odd p")
        A = np.zeros((k, k), dtype=np.int64)
        inv2 = (p + 1) // 2
        for (i, j), coeff in (quad or {}).items():
            if i == j:
                A[i, i] = (A[i, i] + coeff) % p
            else:
                i, j = min(i, j), max(i, j)
                A[i, j] = (A[i, j] + coeff * inv2) % p
                A[j, i] = A[i, j]
        b = np.zeros(k, dtype=np.int64)
        if lin is not None:
            b = np.asarray(lin, dtype=np.int64) % p
        return cls(p, k, A, b)

    def monomial_coeffs(self) -> dict:
        out = {}
        for i in range(self.k):
            if self.A[i, i]:
                out[(i, i)] = int(self.A[i, i])
            for j in range(i + 1, self.k):
                cij = (2 * int(self.A[i, j])) % self.phase_order
                if cij:
                    out[(i, j)] = cij
        return out

    def eval_batch(self, Y: np.ndarray) -> np.ndarray:
        """Exponents for a batch of points, Y of shape (M, k)."""
        Y = np.asarray(Y, dtype=np.int64)
        if self.k == 0:
            return np.zeros(len(Y), dtype=np.int64)
        quad = np.einsum("mi,ij,mj->m", Y, self.A, Y)
        return (quad + Y @ self.b) % self.phase_order

    def to_payload(self) -> dict:
        if self.p == 2:
            return {"a": self.b.tolist(), "B": np.triu(self.A, 1).tolist(), "c": 0}
        return {"A": self.A.tolist(), "b": self.b.tolist(), "c": 0}

    @classmethod
    def from_payload(cls, p: int, k: int, payload: dict) -> "QuadraticForm":
        if payload.get("c", 0) != 0:
            raise ValueError("phase constant must be zero (global phase fixed)")
        if p == 2:
            B = np.asarray(payload["B"], dtype=np.int64).reshape(k, k) % 2
            if np.tril(B).any():
                raise ValueError("B must be strictly upper triangular")
            return cls(2, k, B + B.T, payload["a"])
        return cls(p, k, payload["A"], payload["b"])

    def __repr__(self) -> str:
        return "QuadraticForm(p=%d, k=%d, %s + %s.y)" % (self.p, self.k, self.monomial_coeffs(), self.b.tolist())
