"""Exact arithmetic foundations.

Two layers live here:

* small dense linear algebra over the prime fields F_2 and F_3 (numpy int
  arrays plus a column-style reduced echelon form used to canonicalize
  subspaces), and
* :class:`CycloNumber`, exact elements of the cyclotomic fields Q(zeta_24)
  and Q(zeta_72) with rational coefficients over the power basis.

Q(zeta_24) contains every constant the qutrit/qubit decompositions need
(omega = e^{2 pi i/3}, i, e^{i pi/6}, sqrt 2, sqrt 3, sqrt 6, e^{i pi/12});
Q(zeta_72) adds e^{2 pi i/9}.  Both conductors have cyclotomic polynomial
x^(2m) - x^m + 1 (m = 4 resp. 12), so reduction is a two-term rewrite.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# F_p linear algebra
# ---------------------------------------------------------------------------


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero scalar mod p (p prime)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


def rref_rows(mat: np.ndarray, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, rank, pivot_columns); R has the same shape as the input with
    the nonzero rows on top.
    """
    R = np.array(mat, dtype=np.int64) % p
    nrows, ncols = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sub = R[row:, col]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row] = (R[row] * fp_inv(int(R[row, col]), p)) % p
        for r in range(nrows):
            if r != row and R[r, col] != 0:
                R[r] = (R[r] - R[r, col] * R[row]) % p
        pivots.append(col)
        row += 1
    return R, row, pivots


def rref_columns(mat: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced column echelon basis of the column space of ``mat`` over F_p.

    Returns (E, rank) where E is n x rank: pivot rows strictly increase with
    the column index, pivot entries are 1, and each pivot row is zero in all
    other columns.  E depends only on the column span of the input.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    R, rank, _ = rref_rows(mat.T, p)
    return R[:rank].T.copy(), rank


def reduce_coset_rep(E: np.ndarray, x0: np.ndarray, p: int) -> np.ndarray:
    """Canonical representative of x0 + col(E): zero at the pivot rows of E."""
    x = np.asarray(x0, dtype=np.int64) % p
    E = np.atleast_2d(E)
    for j in range(E.shape[1]):
        piv = int(np.nonzero(E[:, j])[0][0])
        x = (x - int(x[piv]) * E[:, j]) % p
    return x


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

_CONDUCTORS = (24, 72)
_PHI = {24: 8, 72: 24}
# both cyclotomic polynomials are x^(2m) - x^m + 1
_HALF = {24: 4, 72: 12}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _build_reduction_table(conductor: int) -> list[tuple[tuple[int, int], ...]]:
    """Express zeta^e in the power basis, for e = 0 .. 2*(phi-1).

    Entry e is a tuple of (basis index, +-1 integer coefficient) pairs; the
    rewrite zeta^(2m) = zeta^m - 1 always terminates with +-1 coefficients
    because e stays below N for products of basis elements.
    """
    phi, m = _PHI[conductor], _HALF[conductor]
    table: list[tuple[tuple[int, int], ...]] = []
    for e in range(2 * phi - 1):
        acc: dict[int, int] = {}
        stack = [(e % conductor, 1)]
        while stack:
            j, s = stack.pop()
            if j < phi:
                acc[j] = acc.get(j, 0) + s
            else:
                stack.append((j - m, s))
                stack.append((j - 2 * m, -s))
        table.append(tuple((j, c) for j, c in sorted(acc.items()) if c != 0))
    return table


_REDUCTION = {n: _build_reduction_table(n) for n in _CONDUCTORS}
_BASIS_COMPLEX = {
    n: [cmath.exp(2j * cmath.pi * k / n) for k in range(_PHI[n])] for n in _CONDUCTORS
}


class CycloNumber:
    """An element of Q(zeta_N), N in {24, 72}, exact rational coefficients.

    Values are immutable; arithmetic reduces eagerly to the power basis
    zeta^0 .. zeta^(phi(N)-1).  Mixed-conductor arithmetic lifts 24 -> 72.
    """

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs) -> None:
        if conductor not in _CONDUCTORS:
            raise ValueError("conductor must be 24 or 72, got %r" % (conductor,))
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != _PHI[conductor]:
            raise ValueError(
                "need %d coefficients for conductor %d, got %d"
                % (_PHI[conductor], conductor, len(coeffs))
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CycloNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int = 24) -> "CycloNumber":
        return cls(conductor, [0] * _PHI[conductor])

    @classmethod
    def from_rational(cls, value, conductor: int = 24) -> "CycloNumber":
        c = [Fraction(0)] * _PHI[conductor]
        c[0] = Fraction(value)
        return cls(conductor, c)

    @classmethod
    def one(cls, conductor: int = 24) -> "CycloNumber":
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta_pow(cls, conductor: int, exponent: int) -> "CycloNumber":
        """zeta_N^exponent, any integer exponent."""
        e = exponent % conductor
        coeffs = [Fraction(0)] * _PHI[conductor]
        # fold e into the basis using the reduction rewrite
        stack = [(e, 1)]
        m = _HALF[conductor]
        phi = _PHI[conductor]
        while stack:
            j, s = stack.pop()
            if j < phi:
                coeffs[j] += s
            else:
                stack.append((j - m, s))
                stack.append((j - 2 * m, -s))
        return cls(conductor, coeffs)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1, conductor: int | None = None) -> "CycloNumber":
        """Primitive ``order``-th root of unity raised to ``power``."""
        if conductor is None:
            conductor = 24 if 24 % order == 0 else 72
        if conductor % order != 0:
            raise ValueError("order %d does not divide conductor %d" % (order, conductor))
        return cls.zeta_pow(conductor, (conductor // order) * power)

    # -- structure ----------------------------------------------------------

    def lift(self, conductor: int) -> "CycloNumber":
        """Rewrite in a larger conductor (24 -> 72 embeds zeta_24 = zeta_72^3)."""
        if conductor == self.conductor:
            return self
        if not (self.conductor == 24 and conductor == 72):
            raise ValueError("only the 24 -> 72 lift is supported")
        out = CycloNumber.zero(72)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + CycloNumber.zeta_pow(72, 3 * j) * c
        return out

    @staticmethod
    def _common(a: "CycloNumber", b: "CycloNumber") -> tuple["CycloNumber", "CycloNumber"]:
        if a.conductor == b.conductor:
            return a, b
        n = max(a.conductor, b.conductor)
        return a.lift(n), b.lift(n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "CycloNumber":
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return CycloNumber(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.conductor, [-x for x in self.coeffs])

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
            return CycloNumber(self.conductor, [c * q for c in self.coeffs])
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._common(self, other)
        table = _REDUCTION[a.conductor]
        out = [Fraction(0)] * _PHI[a.conductor]
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if not cj:
                    continue
                prod = ci * cj
                for idx, sgn in table[i + j]:
                    out[idx] += prod if sgn > 0 else -prod
        return CycloNumber(a.conductor, out)

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
        out = CycloNumber.zero(n)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + CycloNumber.zeta_pow(n, -j) * c
        return out

    def inverse(self) -> "CycloNumber":
        """Field inverse via an exact linear solve."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.conductor
        phi = _PHI[n]
        # columns: coordinates of zeta^j * self
        cols = []
        for j in range(phi):
            cols.append((CycloNumber.zeta_pow(n, j) * self).coeffs)
        rhs = [Fraction(1)] + [Fraction(0)] * (phi - 1)
        sol = _fraction_solve([[cols[j][i] for j in range(phi)] for i in range(phi)], rhs)
        assert sol is not None, "cyclotomic field element had singular multiplication map"
        return CycloNumber(n, sol)

    def __truediv__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNumber(self.conductor, [c / q for c in self.coeffs])
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._common(self, other)
        return a * b.inverse()

    # -- comparisons / output -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # hash is conductor-independent for embedded rationals only when
            # coefficients beyond the constant vanish; lift handles the rest.
            if self.is_rational():
                h = hash(self.coeffs[0])
            else:
                h = hash((self.conductor, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z%d" % (c, j) if j else str(c))
        return "Cyclo%d(%s)" % (self.conductor, " + ".join(terms) or "0")

    def to_complex(self) -> complex:
        basis = _BASIS_COMPLEX[self.conductor]
        return sum((float(c) * basis[j] for j, c in enumerate(self.coeffs) if c), 0j)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [
                "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)
                for c in self.coeffs
            ],
        }

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
# Exact linear solving (fractions and cyclotomic entries)
# ---------------------------------------------------------------------------


def _fraction_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system by Gaussian elimination; None if singular."""
    n = len(rows)
    A = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def cyclo_solve(
    matrix: list[list[CycloNumber]], rhs: list[CycloNumber]
) -> list[CycloNumber] | None:
    """Solve an (overdetermined) linear system over the cyclotomic field.

    Returns exact coefficients c with matrix @ c == rhs, free variables set
    to zero, or None when the system is inconsistent.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    conductor = 24
    for row in matrix:
        for x in row:
            conductor = max(conductor, x.conductor)
    for x in rhs:
        conductor = max(conductor, x.conductor)
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
    """Q(y) = y^T A y + b . y + c over F_p with p odd (here p = 3).

    A is symmetric; the coefficient of the monomial y_i y_j (i < j) is
    2 A_ij, and of y_i^2 is A_ii.  Values are used as exponents of
    omega_p, so ``phase_order`` is p.
    """

    __slots__ = ("p", "k", "A", "b", "c")

    def __init__(self, p: int, k: int, A, b, c: int = 0) -> None:
        if p % 2 == 0:
            raise ValueError("QuadraticForm needs odd p; use Z4Phase for qubits")
        self.p = p
        self.k = k
        self.A = np.asarray(A, dtype=np.int64).reshape(k, k) % p
        if not np.array_equal(self.A, self.A.T):
            raise ValueError("A must be symmetric")
        self.b = np.asarray(b, dtype=np.int64).reshape(k) % p
        self.c = int(c) % p

    @property
    def phase_order(self) -> int:
        return self.p

    @classmethod
    def zero(cls, p: int, k: int) -> "QuadraticForm":
        return cls(p, k, np.zeros((k, k), dtype=np.int64), np.zeros(k, dtype=np.int64), 0)

    @classmethod
    def from_monomials(cls, p: int, k: int, quad: dict | None = None, lin=None, const: int = 0) -> "QuadraticForm":
        """Build from monomial coefficients: quad[(i, j)] multiplies y_i y_j (i <= j)."""
        A = np.zeros((k, k), dtype=np.int64)
        inv2 = fp_inv(2, p)
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
        return cls(p, k, A, b, const)

    def monomial_coeffs(self) -> dict:
        out = {}
        for i in range(self.k):
            if self.A[i, i]:
                out[(i, i)] = int(self.A[i, i])
            for j in range(i + 1, self.k):
                cij = (2 * int(self.A[i, j])) % self.p
                if cij:
                    out[(i, j)] = cij
        return out

    def eval(self, y) -> int:
        y = np.asarray(y, dtype=np.int64)
        return int((y @ self.A @ y + self.b @ y + self.c) % self.p)

    def eval_batch(self, Y: np.ndarray) -> np.ndarray:
        """Exponents for a batch of points, Y of shape (M, k)."""
        Y = np.asarray(Y, dtype=np.int64)
        if self.k == 0:
            return np.full(len(Y), self.c, dtype=np.int64) % self.p
        quad = np.einsum("mi,ij,mj->m", Y, self.A, Y)
        return (quad + Y @ self.b + self.c) % self.p

    def key(self) -> tuple:
        return (self.p, self.k, tuple(self.A.flat), tuple(self.b), self.c)

    def to_payload(self) -> dict:
        return {"A": self.A.tolist(), "b": self.b.tolist(), "c": self.c}

    @classmethod
    def from_payload(cls, p: int, k: int, payload: dict) -> "QuadraticForm":
        return cls(p, k, payload["A"], payload["b"], payload.get("c", 0))

    def __repr__(self) -> str:
        return "QuadraticForm(p=%d, k=%d, %s + %s.y + %d)" % (
            self.p,
            self.k,
            self.monomial_coeffs(),
            self.b.tolist(),
            self.c,
        )


class Z4Phase:
    """Qubit phase function i^(a.y + c) * (-1)^(y^T B y).

    ``a`` is Z_4-valued linear, ``B`` is a strictly upper triangular F_2
    bilinear part, ``c`` a Z_4 constant; exponents live in Z_4 (powers of i),
    so ``phase_order`` is 4.
    """

    __slots__ = ("k", "a", "B", "c")

    p = 2

    def __init__(self, k: int, a, B, c: int = 0) -> None:
        self.k = k
        self.a = np.asarray(a, dtype=np.int64).reshape(k) % 4
        self.B = np.asarray(B, dtype=np.int64).reshape(k, k) % 2
        if np.any(np.tril(self.B) != 0):
            raise ValueError("B must be strictly upper triangular")
        self.c = int(c) % 4

    @property
    def phase_order(self) -> int:
        return 4

    @classmethod
    def zero(cls, k: int) -> "Z4Phase":
        return cls(k, np.zeros(k, dtype=np.int64), np.zeros((k, k), dtype=np.int64), 0)

    def eval(self, y) -> int:
        y = np.asarray(y, dtype=np.int64)
        return int((self.a @ y + self.c + 2 * (y @ self.B @ y)) % 4)

    def eval_batch(self, Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=np.int64)
        if self.k == 0:
            return np.full(len(Y), self.c, dtype=np.int64) % 4
        quad = np.einsum("mi,ij,mj->m", Y, self.B, Y)
        return (Y @ self.a + self.c + 2 * quad) % 4

    def key(self) -> tuple:
        return (2, self.k, tuple(self.a), tuple(self.B.flat), self.c)

    def to_payload(self) -> dict:
        return {"a": self.a.tolist(), "B": self.B.tolist(), "c": self.c}

    @classmethod
    def from_payload(cls, k: int, payload: dict) -> "Z4Phase":
        return cls(k, payload["a"], payload["B"], payload.get("c", 0))

    def __repr__(self) -> str:
        return "Z4Phase(k=%d, a=%s, B=%s, c=%d)" % (self.k, self.a.tolist(), self.B.tolist(), self.c)
