"""Known exact low-rank decompositions, reproduced here as executable data.

Each builder returns a verified :class:`~stabdecomp.decomposition.Decomposition`;
the test suite checks every one both exactly and numerically.  These are the
reference points the search and certification tools are measured against:

======================  ====  =====================================
fixture                 rank  target
======================  ====  =====================================
strange_m2               2    two copies of the strange state S
strange_m3               4    three copies of S
h3_m2                    3    two copies of the qutrit Hadamard H3
h3_m3                    4    three copies of H3
norrell_m2               3    two copies of the Norrell state N
norrell_m3               4    three copies of N
norrell_m4               7    four copies of N
qubit_t_m4               3    four copies of the qubit T state
======================  ====  =====================================
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import (
    CycloNumber,
    QuadraticForm,
    i_unit,
    omega,
    sqrt2,
    sqrt3,
    sqrt6,
    xi,
)
from .decomposition import Decomposition
from .stabilizer import (
    CanonicalStabilizer,
    ket,
    magic_power,
    plus_state,
)


def _W(n: int, *columns) -> np.ndarray:
    """Column basis matrix from row-index lists, e.g. _W(4, [0, 2], [1])."""
    W = np.zeros((n, len(columns)), dtype=np.int64)
    for j, rows in enumerate(columns):
        for r in rows:
            W[r, j] = 1
    return W


def _qutrit(n: int, x0, W: np.ndarray, quad=None, lin=None) -> CanonicalStabilizer:
    k = W.shape[1]
    form = QuadraticForm.from_monomials(3, k, quad=quad, lin=lin)
    x0 = np.zeros(n, dtype=np.int64) if x0 is None else x0
    return CanonicalStabilizer(3, n, x0, W, form)


def strange_m2() -> Decomposition:
    I2 = np.eye(2, dtype=np.int64)
    s1 = _qutrit(2, None, I2, quad={(0, 0): 1, (0, 1): 1, (1, 1): 1})
    s2 = _qutrit(2, None, I2, quad={(0, 0): 1, (0, 1): 2, (1, 1): 1})
    c = -(i_unit() * sqrt3() / 2) * omega()
    return Decomposition(magic_power("S", 2), [s1, s2], [c, -c])


def strange_m3() -> Decomposition:
    W = _W(3, [0], [2])
    s1 = _qutrit(3, [0, 2, 0], W, quad={(0, 0): 1, (0, 1): 1})
    s2 = _qutrit(3, [0, 1, 0], W, quad={(0, 0): 2, (0, 1): 1, (1, 1): 1})
    s3 = _qutrit(3, [0, 2, 0], W, quad={(0, 0): 1, (0, 1): 2})
    s4 = _qutrit(3, [0, 1, 0], W, quad={(0, 0): 2, (0, 1): 2, (1, 1): 1})
    alpha = (3 * sqrt2() - i_unit() * sqrt6()) / 8
    beta = -(i_unit() * sqrt6()) / 4
    return Decomposition(
        magic_power("S", 3), [s1, s2, s3, s4], [alpha, beta, -alpha, -beta]
    )


def h3_m2() -> Decomposition:
    one = CycloNumber.one()
    c = (sqrt3() - one) / 2
    s1 = _qutrit(2, None, _W(2, [1]))  # |0,+>
    s2 = _qutrit(2, None, _W(2, [0]))  # |+,0>
    s3 = _qutrit(2, None, np.eye(2, dtype=np.int64), quad={(0, 0): 2, (1, 1): 1})
    a1 = c * sqrt3() * (one - c * omega())
    a2 = c * sqrt3() * (one - c * omega() ** 2)
    a3 = 3 * c * c
    return Decomposition(magic_power("H3", 2), [s1, s2, s3], [a1, a2, a3], npow=2)


def h3_m3() -> Decomposition:
    one = CycloNumber.one()
    c = (sqrt3() - one) / 2
    I3 = np.eye(3, dtype=np.int64)
    s1 = _qutrit(3, None, I3, quad={(0, 0): 2, (1, 1): 2, (2, 2): 1})
    s2 = _qutrit(3, None, I3, quad={(0, 0): 1, (1, 1): 1, (2, 2): 2})
    s3 = _qutrit(3, None, _W(3, [2]))  # |0,0,+>
    s4 = _qutrit(3, None, _W(3, [0], [1]))  # |+,+,0>
    a1 = 3 * c * (one + i_unit()) / 4
    a2 = 3 * c * (one - i_unit()) / 4
    a34 = CycloNumber.from_rational(Fraction(3, 4))
    return Decomposition(magic_power("H3", 3), [s1, s2, s3, s4], [a1, a2, a34, a34], npow=1)


def norrell_m2() -> Decomposition:
    I2 = np.eye(2, dtype=np.int64)
    s1 = _qutrit(2, None, I2, quad={(0, 1): 1}, lin=[1, 1])
    s2 = ket(3, [2, 2])
    s3 = _qutrit(2, None, I2, quad={(0, 1): 2}, lin=[2, 2])
    w = omega()
    return Decomposition(
        magic_power("N", 2),
        [s1, s2, s3],
        [-w / 2, CycloNumber.one(), -(w * w) / 2],
    )


def norrell_m3() -> Decomposition:
    s1 = _qutrit(3, [2, 0, 0], _W(3, [1], [2]), quad={(0, 0): 2, (1, 1): 1}, lin=[1, 2])
    s2 = _qutrit(3, [0, 2, 0], _W(3, [0], [2]), quad={(0, 0): 1, (1, 1): 2}, lin=[2, 1])
    s3 = plus_state(3, 3)
    s4 = _qutrit(3, [0, 0, 2], _W(3, [0], [1]), quad={(0, 0): 2, (1, 1): 1}, lin=[1, 2])
    a = -sqrt6() / 4
    return Decomposition(magic_power("N", 3), [s1, s2, s3, s4], [a, a, sqrt2() / 4, a])


def norrell_m4() -> Decomposition:
    I4 = np.eye(4, dtype=np.int64)
    s0 = _qutrit(
        4, [0, 2, 0, 0], _W(4, [0], [2], [3]),
        quad={(0, 0): 1, (1, 1): 2, (2, 2): 1}, lin=[2, 1, 2],
    )
    s1 = _qutrit(
        4, None, I4,
        quad={(0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 2}, lin=[2, 2, 1, 1],
    )
    s2 = _qutrit(
        4, [2, 0, 0, 2], _W(4, [1], [2]), quad={(0, 0): 2, (1, 1): 2}, lin=[1, 1]
    )
    s3 = _qutrit(
        4, [0, 0, 2, 2], _W(4, [0], [1]), quad={(0, 0): 1, (1, 1): 2}, lin=[2, 1]
    )
    s4 = _qutrit(
        4, [2, 0, 0, 0], _W(4, [1], [2], [3]),
        quad={(0, 0): 1, (1, 1): 1, (2, 2): 2}, lin=[2, 2, 1],
    )
    s5 = _qutrit(
        4, [0, 2, 2, 0], _W(4, [0], [3]), quad={(0, 0): 2, (1, 1): 1}, lin=[1, 2]
    )
    s6 = plus_state(3, 4)
    tau = sqrt3() / 4
    w, x = omega(), xi()
    coeffs = [tau * w, tau * x, tau * x, tau * x, tau * w, tau * x, w * w / 4]
    return Decomposition(magic_power("N", 4), [s0, s1, s2, s3, s4, s5, s6], coeffs)


def qubit_t_m4() -> Decomposition:
    def qb(W, a, bpairs):
        # e(y) = a.y + 2 sum_(i,j) y_i y_j mod 4, as A = B + B^T
        k = W.shape[1]
        A = np.zeros((k, k), dtype=np.int64)
        for i, j in bpairs:
            A[i, j] = A[j, i] = 1
        return CanonicalStabilizer(2, 4, [0] * 4, W, QuadraticForm(2, k, A, a))

    s1 = qb(_W(4, [0, 2], [1], [3]), [1, 0, 0], [(1, 2)])
    s2 = qb(np.eye(4, dtype=np.int64), [0, 1, 0, 1], [(0, 2), (1, 3)])
    s3 = qb(_W(4, [0], [1, 3], [2]), [1, 1, 1], [(0, 2)])
    z = CycloNumber.zeta_pow
    third = Fraction(2, 3)
    coeffs = [z(24, 1) * third, CycloNumber.from_rational(third), z(24, -1) * third]
    return Decomposition(magic_power("T", 4), [s1, s2, s3], coeffs)


FIXTURES = {
    "strange_m2": strange_m2,
    "strange_m3": strange_m3,
    "h3_m2": h3_m2,
    "h3_m3": h3_m3,
    "norrell_m2": norrell_m2,
    "norrell_m3": norrell_m3,
    "norrell_m4": norrell_m4,
    "qubit_t_m4": qubit_t_m4,
}
