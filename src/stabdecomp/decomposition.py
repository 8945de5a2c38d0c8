"""Stabilizer-rank decompositions: records, verification, and solving.

A decomposition asserts  target = sum_i c_i |sigma_i>  with the c_i exact
:class:`~stabdecomp.stabilizer.ScaledCyclo` numbers.  Verification comes in
two independent flavors: exact (clear the N = sqrt(3 - sqrt 3) denominators
and compare cyclotomic numbers coordinate-wise) and numeric (complex-vector
residual).  Both must agree; the exact route is the certificate, the numeric
route the cross-check.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import CycloNumber, cyclo_solve
from .stabilizer import CanonicalStabilizer, ScaledCyclo, TargetState, magic_power


def _read_json(path: str, what: str):
    """The JSON value in the file at path; a ValueError names the file as a ``what``
    and says why it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s %s: %s" % (what, path, exc.strerror)) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError("%s %s is not JSON: %s" % (what, path, exc)) from None


_NUMBER = (int, float)
_OPTIONAL_INT = (int, type(None))
_KIND_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    _NUMBER: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
    _OPTIONAL_INT: "an integer or null",
}


def _typed(what: str, label: str, value, kind):
    """value, when its JSON type is kind (booleans are never integers or numbers);
    a ValueError names the field ``label`` of the ``what`` payload.

    A number may be infinite (an empty shard records an infinite minimum
    residual) but not NaN, which every comparison the audit makes would pass.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        got = _KIND_NAMES.get(type(value), type(value).__name__)
        raise ValueError("%s field %r must be %s, not %s" % (what, label, _KIND_NAMES[kind], got))
    if isinstance(value, float) and math.isnan(value):
        raise ValueError("%s field %r must be a number, not NaN" % (what, label))
    return value


def _field(what: str, d: dict, key: str, kind, label: str | None = None):
    """d[key], typed as kind; a ValueError names the field when it is missing or mistyped."""
    label = label or key
    if key not in d:
        raise ValueError("%s lacks the field %r" % (what, label))
    return _typed(what, label, d[key], kind)


class Decomposition:
    """An asserted rank-r stabilizer decomposition of a magic-state power."""

    def __init__(
        self,
        target: TargetState,
        states: list[CanonicalStabilizer],
        coeffs: list[ScaledCyclo],
    ) -> None:
        if len(states) != len(coeffs):
            raise ValueError("need one coefficient per state")
        for st in states:
            if (st.p, st.n) != (target.p, target.n):
                raise ValueError("state dimensions must match the target")
        self.target = target
        self.states = list(states)
        self.coeffs = [ScaledCyclo.wrap(c) for c in coeffs]

    @property
    def rank(self) -> int:
        return len(self.states)

    # -- verification -----------------------------------------------------------

    def verify_exact(self) -> list[int]:
        """Indices where sum_i c_i sigma_i(x) != target(x); empty means exact."""
        dim = self.target.p**self.target.n
        vecs = [st.state_vector() for st in self.states]
        bad = []
        for x in range(dim):
            lhs = ScaledCyclo.wrap(0)
            for c, vec in zip(self.coeffs, vecs):
                if not vec[x].is_zero():
                    lhs = lhs + c * vec[x]
            if not lhs == self.target.amps[x]:
                bad.append(x)
        return bad

    def verify_numeric(self) -> float:
        """Euclidean residual of the superposition against the target vector."""
        acc = np.zeros(self.target.p**self.target.n, dtype=np.complex128)
        for c, st in zip(self.coeffs, self.states):
            acc += c.to_complex() * st.complex_vector()
        return float(np.linalg.norm(acc - self.target.complex_vector()))

    # -- composition -------------------------------------------------------------

    def tensor(self, other: "Decomposition") -> "Decomposition":
        """Sub-multiplicativity in action: ranks multiply under tensoring."""
        if self.target.name != other.target.name or self.target.p != other.target.p:
            raise ValueError("tensor factors must decompose powers of the same state")
        target = magic_power(self.target.name, self.target.n + other.target.n)
        states, coeffs = [], []
        for ca, sa in zip(self.coeffs, self.states):
            for cb, sb in zip(other.coeffs, other.states):
                states.append(sa.tensor(sb))
                coeffs.append(ca * cb)
        return Decomposition(target, states, coeffs)

    # -- serialization -------------------------------------------------------------

    def to_payload(self) -> dict:
        npows = {c.npow for c in self.coeffs if not c.is_zero()}
        d = max(npows, default=0)
        if len({v % 2 for v in npows}) > 1:
            raise ValueError("coefficients mix N-denominator parities")
        return {
            "format": "stabdecomp-decomposition",
            "version": 1,
            "target": self.target.name,
            "copies": self.target.n,
            "p": self.target.p,
            "rank": self.rank,
            "n_power": d,
            "terms": [
                {"coeff": c.cleared(d).to_payload(), "state": st.record()}
                for c, st in zip(self.coeffs, self.states)
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Decomposition":
        """The decomposition of a payload.

        A ValueError names a missing or mistyped field, or says that a state's
        dimensions differ from the target's; the states are checked before the
        m-copy target is built.
        """
        if not isinstance(payload, dict):
            got = _KIND_NAMES.get(type(payload), type(payload).__name__)
            raise ValueError("a decomposition payload must be an object, not %s" % got)
        what = "decomposition"
        name, copies = _field(what, payload, "target", str), _field(what, payload, "copies", int)
        p = magic_power(name, 0).p  # the zero-copy power: the state's p, without building the m-copy target
        d = _typed(what, "n_power", payload.get("n_power", 0), int)
        states, coeffs = [], []
        for j, term in enumerate(_field(what, payload, "terms", list)):
            label = "terms[%d]" % j
            term = _typed(what, label, term, dict)
            state = _field(what, term, "state", dict, label + ".state")
            coeff = _field(what, term, "coeff", dict, label + ".coeff")
            try:
                states.append(CanonicalStabilizer.from_record(state))
                coeffs.append(ScaledCyclo(CycloNumber.from_payload(coeff), d))
            except (KeyError, TypeError) as exc:
                reason = "%s: %s" % (type(exc).__name__, exc)
                raise ValueError("decomposition field %r is malformed (%s)" % (label, reason)) from None
            if (states[-1].p, states[-1].n) != (p, copies):
                raise ValueError("state dimensions must match the target")
        return cls(magic_power(name, copies), states, coeffs)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_payload(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Decomposition":
        """The decomposition saved at path; a ValueError says why a file cannot be read as one."""
        return cls.from_payload(_read_json(path, "decomposition"))

    def __repr__(self) -> str:
        return "Decomposition(%s^%d, rank=%d)" % (
            self.target.name,
            self.target.n,
            self.rank,
        )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def exponent_from_bound(r: int, m: int, p: int) -> float:
    """Asymptotic rank exponent log_p(r)/m implied by a rank-r bound at m copies."""
    if r < 1 or m < 1:
        raise ValueError("r and m must be positive")
    if p < 2:
        raise ValueError("p must be at least 2, got %d" % p)
    return math.log(r, p) / m


def best_fit(vectors: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients for target over the given column vectors.

    Returns (coeffs, residual); the minimum-norm solution is used when the
    columns are dependent, so the residual is always the distance from the
    target to the column span.
    """
    A = np.asarray(vectors, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("vectors must be a (dim, r) array")
    sol, _, _, _ = np.linalg.lstsq(A, np.asarray(target, dtype=np.complex128), rcond=None)
    residual = float(np.linalg.norm(A @ sol - target))
    return sol, residual


# Projection residuals bottom out near sqrt(machine eps); anything below
# this squared threshold is re-scored exactly with ``best_fit``.
CANDIDATE_RES2 = 1e-12

# The smallest witness tolerance certify accepts.  Exact witnesses score up to
# a few 1e-16 in floating point, so a tol below that would rule out a rank
# that has a witness.
WITNESS_TOL_FLOOR = 1e-12

# A state whose squared distance from the span of the others is below this
# (relative to the largest direction) counts as dependent on them.  Distinct
# catalog states that are independent sit far above it; exact dependence
# leaves only rounding error, near 1e-16.
DEPENDENT_RES2 = 1e-10


class SpanProjection:
    """Squared residuals of the target over span(S + {v}), for one fixed set S
    and many unit vectors v.

    With Q an orthonormal basis of span(S), t_perp the part of the target
    outside it and a = Q^dagger v, adding v removes |<v, t_perp>|^2 / (1 - |a|^2)
    from |t_perp|^2, where <v, t_perp> = <v, t> - a^dagger Q^dagger t.  Q comes
    from an SVD with a relative singular-value cutoff, so the directions of a
    rank-deficient S add no column; a v dependent on S leaves |t_perp|^2.
    """

    def __init__(self, V_S: np.ndarray, t: np.ndarray, tnorm2: float):
        """V_S holds the states of S as rows; tnorm2 is |t|^2."""
        U, sv, _ = np.linalg.svd(V_S.T, full_matrices=False)
        Q = U[:, sv**2 > DEPENDENT_RES2 * sv.max(initial=0.0) ** 2]
        self.q_t = Q.conj().T @ t
        self.t_perp2 = tnorm2 - float(np.vdot(self.q_t, self.q_t).real)
        self.Q_conj = Q.conj()

    def outside(self, Vx: np.ndarray, t_ov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|v'|^2 and <v', t_perp> for each row v of Vx, v' its part outside span(S); t_ov holds the <v, t>."""
        a_conj = (Vx @ self.Q_conj).conj()  # rows conj(Q^dagger v), with no (B, dim) temporary
        return 1.0 - (a_conj.real**2 + a_conj.imag**2).sum(axis=1), t_ov - a_conj @ self.q_t

    def residual2(self, Vx: np.ndarray, t_ov: np.ndarray) -> np.ndarray:
        """Squared residual of each row v of Vx; t_ov holds the <v, t>."""
        denom, overlap = self.outside(Vx, t_ov)
        denom[denom <= DEPENDENT_RES2] = np.inf
        return np.maximum(self.t_perp2 - (overlap.real**2 + overlap.imag**2) / denom, 0.0)


def exact_coefficients(
    states: list[CanonicalStabilizer], target: TargetState
) -> list[ScaledCyclo] | None:
    """Exact coefficients expressing the target over the given states, or None.

    The target's 1/N^D scale (uniform over its support) is cleared first, so
    the solve happens entirely inside a cyclotomic field; a returned solution
    therefore certifies the decomposition with no floating point involved.
    """
    npows = {a.npow for a in target.amps if not a.is_zero()}
    if len(npows) > 1:
        raise ValueError("target amplitudes must share one N power")
    d = npows.pop() if npows else 0
    dim = target.p**target.n
    matrix = [[CycloNumber.zero() for _ in states] for _ in range(dim)]
    for j, st in enumerate(states):
        vec = st.state_vector()
        for x in range(dim):
            matrix[x][j] = vec[x]
    rhs = [a.num if not a.is_zero() else CycloNumber.zero() for a in target.amps]
    sol = cyclo_solve(matrix, rhs)
    if sol is None:
        return None
    return [ScaledCyclo(u, d) for u in sol]
