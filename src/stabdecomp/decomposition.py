"""Stabilizer-rank decompositions: records, verification, and solving.

A decomposition asserts  target = sum_i c_i |sigma_i>  with the c_i exact:
cyclotomic numerators over one power N^npow of N = sqrt(3 - sqrt 3), the
same power for every coefficient, as the target's amplitudes share one power
of their own.  Verification comes in two independent flavors: exact (put both
sides over the larger N power and compare cyclotomic numbers coordinate-wise)
and numeric (complex-vector residual).  Both must agree; the exact route is
the certificate, the numeric route the cross-check.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import CycloNumber, cyclo_solve
from .stabilizer import (
    CanonicalStabilizer,
    TargetState,
    _payload,
    check_target,
    magic_power,
    n_scaled_complex,
    n_squared_factor,
)


# the most basis states a loaded decomposition may have: its exact target (p^copies
# amplitudes) is built in the time and memory of the interpreter's start-up up to
# 3^8, and each further qutrit copy triples both (3^10 took 1 s and 51 MB); 3^8 is
# also the square of the largest fixture, norrell_m4
DECOMPOSITION_MAX_STATES = 3**8


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


def _check_header(what: str, d) -> None:
    """Refuse a d that is not an object opening with the format and version
    ``stabilizer._payload`` writes for a ``what`` artifact."""
    if not isinstance(d, dict):
        got = _KIND_NAMES.get(type(d), type(d).__name__)
        raise ValueError("a %s payload must be an object, not %s" % (what, got))
    for key, expected in _payload(what).items():
        value = _field(what, d, key, type(expected))
        if value != expected:
            raise ValueError("%s field %r = %r is not %r" % (what, key, value, expected))


class Decomposition:
    """An asserted rank-r stabilizer decomposition of a magic-state power,
    with coefficients coeffs / N^npow."""

    def __init__(
        self,
        target: TargetState,
        states: list[CanonicalStabilizer],
        coeffs: list[CycloNumber],
        npow: int = 0,
    ) -> None:
        if len(states) != len(coeffs):
            raise ValueError("need one coefficient per state")
        for st in states:
            if (st.p, st.n) != (target.p, target.n):
                raise ValueError("state dimensions must match the target")
        if npow < 0:
            raise ValueError("decomposition n_power must be at least 0, got %d" % npow)
        if (npow - target.npow) % 2:  # N is not cyclotomic: sums over N^npow reach N^target.npow only at one parity
            raise ValueError(
                "decomposition n_power %d and the N power %d of its target (%s, %d copies) differ in parity"
                % (npow, target.npow, target.name, target.n)
            )
        self.target = target
        self.states = list(states)
        self.coeffs = list(coeffs)
        self.npow = npow

    @property
    def rank(self) -> int:
        return len(self.states)

    # -- verification -----------------------------------------------------------

    def verify_exact(self) -> list[int]:
        """Indices where sum_i c_i sigma_i(x) != target(x); empty means exact."""
        d = max(self.npow, self.target.npow)
        scale, target_scale = n_squared_factor(self.npow, d), n_squared_factor(self.target.npow, d)
        bad = []
        for x, (row, amp) in enumerate(zip(_exact_rows(self.states, self.target), self.target.amps)):
            lhs = CycloNumber.zero()
            for c, v in zip(self.coeffs, row):
                if not v.is_zero():
                    lhs = lhs + c * v
            if lhs * scale != amp * target_scale:
                bad.append(x)
        return bad

    def verify_numeric(self) -> float:
        """Euclidean residual of the superposition against the target vector."""
        acc = np.zeros(self.target.p**self.target.n, dtype=np.complex128)
        for c, st in zip(n_scaled_complex(self.coeffs, self.npow), self.states):
            acc += c * st.complex_vector()
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
        return Decomposition(target, states, coeffs, self.npow + other.npow)

    # -- serialization -------------------------------------------------------------

    def to_payload(self) -> dict:
        return _payload(
            "decomposition",
            target=self.target.name,
            copies=self.target.n,
            p=self.target.p,
            rank=self.rank,
            n_power=self.npow,
            terms=[{"coeff": c.to_payload(), "state": st.record()} for c, st in zip(self.coeffs, self.states)],
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "Decomposition":
        """The decomposition of a payload.

        A ValueError names a payload that is not an object, a missing or
        mistyped field, a format other than ``stabdecomp-decomposition``, a
        version other than 1, a target that ``check_target`` refuses (an
        unknown name, or copies below 1 or not a whole number of the state's
        block), p^copies above ``DECOMPOSITION_MAX_STATES``, a p other than the
        target's or a rank other than the number of terms, or says that a
        state's dimensions differ from the target's, or that n_power cannot
        match the target's N power.  The target request is
        checked before any term is parsed, and the states before the m-copy
        target is built.
        """
        what = "decomposition"
        _check_header(what, payload)
        name, copies = _field(what, payload, "target", str), _field(what, payload, "copies", int)
        p = check_target(name, copies, "decomposition field 'copies'")
        if p ** min(copies, 64) > DECOMPOSITION_MAX_STATES:  # min: no huge power of p is computed
            raise ValueError(
                "decomposition field 'copies' = %d gives %d^%d basis states, above the %d a decomposition may have"
                % (copies, p, copies, DECOMPOSITION_MAX_STATES)
            )
        stated_p = _field(what, payload, "p", int)
        if stated_p != p:
            raise ValueError("decomposition field 'p' = %d is not %d, the p of its target %s" % (stated_p, p, name))
        npow = _typed(what, "n_power", payload.get("n_power", 0), int)
        states, coeffs = [], []
        for j, term in enumerate(_field(what, payload, "terms", list)):
            label = "terms[%d]" % j
            term = _typed(what, label, term, dict)
            state = _field(what, term, "state", dict, label + ".state")
            for key in ("p", "n", "k"):
                _field(what, state, key, int, "%s.state.%s" % (label, key))
            coeff = _field(what, term, "coeff", dict, label + ".coeff")
            try:
                states.append(CanonicalStabilizer.from_record(state))
                coeffs.append(CycloNumber.from_payload(coeff))
            except (KeyError, TypeError, AttributeError, ArithmeticError) as exc:  # ArithmeticError: 1/0, 1e400
                reason = "%s: %s" % (type(exc).__name__, exc)
                raise ValueError("decomposition field %r is malformed (%s)" % (label, reason)) from None
            if (states[-1].p, states[-1].n) != (p, copies):
                raise ValueError("state dimensions must match the target")
        rank = _field(what, payload, "rank", int)
        if rank != len(states):
            raise ValueError("decomposition field 'rank' = %d is not the number of terms, %d" % (rank, len(states)))
        return cls(magic_power(name, copies), states, coeffs, npow)

    def save(self, path: str) -> None:
        """Write ``to_payload()`` to path as indented JSON in its field order, format and version first."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_payload(), indent=1) + "\n")

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

# The witness tolerance of certify, search and audit: the largest least-squares
# residual of a witness.  Exact witnesses re-score below 1e-13 and non-witnesses
# at 0.06 or more, so any threshold in between decides the same; it stays below
# sqrt(CANDIDATE_RES2), so the exact re-score, not the projection, decides.
WITNESS_TOL = 1e-10


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

    def residual2(self, v: np.ndarray, t_ov: complex) -> float:
        """Squared residual of one unit vector v; t_ov is <v, t>.

        The arithmetic of ``outside`` for one row, so bitwise the value a batch
        of rows would give it, with the floor and the clamp on Python floats.
        """
        a = v.dot(self.Q_conj)  # Q^dagger v
        denom = 1.0 - float((a.real**2 + a.imag**2).sum())
        if denom <= DEPENDENT_RES2:
            return max(self.t_perp2, 0.0)
        overlap = complex(t_ov - np.vdot(a, self.q_t))
        return max(self.t_perp2 - (overlap.real * overlap.real + overlap.imag * overlap.imag) / denom, 0.0)


def _exact_rows(states: list[CanonicalStabilizer], target: TargetState) -> list[list[CycloNumber]]:
    """The states' exact amplitudes, one row per basis state of the target and one column per state."""
    vecs = [st.state_vector() for st in states]
    return [[vec[x] for vec in vecs] for x in range(target.p**target.n)]


def exact_coefficients(
    states: list[CanonicalStabilizer], target: TargetState
) -> list[CycloNumber] | None:
    """Exact coefficients expressing the target over the given states, or None.

    They are numerators over the target's own N power: the solve runs on the
    target's numerators, entirely inside a cyclotomic field, so a returned
    solution certifies the decomposition with no floating point involved.
    """
    return cyclo_solve(_exact_rows(states, target), list(target.amps))
