"""Qutrit Clifford machinery: gates, symplectic images, synthesis, orbits.

Weyl operators are W_(a,b) = X^a Z^b with X|j> = |j+1>, Z|j> = omega^j |j>;
conjugation by a Clifford unitary sends Weyl labels through a symplectic
matrix over F_3 (coordinates ordered a_1..a_n, b_1..b_n).  Generator images:

    H: (a, b) -> (-b, a)        S: (a, b) -> (a, a + b)
    SUM(c->t): a_t += a_c,  b_c -= b_t

``synthesize`` inverts the story: given any M in Sp(2n, 3) it emits a
deterministic H/S/SUM gate word whose unitary realizes M.  Gate words are
lists of (name, legs, power) in operator-product order (index 0 is the
leftmost matrix factor, i.e. the gate applied last).
"""

from __future__ import annotations

import functools

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)

# single-qutrit gate matrices
_X = np.roll(np.eye(3, dtype=np.complex128), 1, axis=0)
_Z = np.diag(OMEGA ** np.arange(3))
_S = np.diag(OMEGA ** np.array([0, 0, 1]))
_H = OMEGA ** np.outer(np.arange(3), np.arange(3)) / np.sqrt(3)

GATE_ORDER = {"X": 3, "Z": 3, "S": 3, "H": 4, "SUM": 3}


def _embed_single(gate: np.ndarray, n: int, leg: int) -> np.ndarray:
    return functools.reduce(np.kron, [gate if i == leg else np.eye(3) for i in range(n)])


def _sum_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 3**n
    U = np.zeros((dim, dim), dtype=np.complex128)
    digits = np.array([(np.arange(dim) // 3 ** (n - 1 - i)) % 3 for i in range(n)])
    new = digits.copy()
    new[target] = (digits[target] + digits[control]) % 3
    weights = 3 ** np.arange(n - 1, -1, -1)
    U[(weights @ new), np.arange(dim)] = 1
    return U


def gate_matrix(name: str, n: int, legs: tuple[int, ...], power: int = 1) -> np.ndarray:
    """Dense unitary for one gate application on n qutrits (leg 0 most significant)."""
    power %= GATE_ORDER[name]
    if name == "SUM":
        c, t = legs
        base = _sum_matrix(n, c, t)
    else:
        single = {"X": _X, "Z": _Z, "S": _S, "H": _H}[name]
        base = _embed_single(single, n, legs[0])
    return np.linalg.matrix_power(base, power)


def word_to_matrix(word, n: int) -> np.ndarray:
    """Operator product of a gate word (index 0 = leftmost factor)."""
    U = np.eye(3**n, dtype=np.complex128)
    for name, legs, power in word:
        U = U @ gate_matrix(name, n, tuple(legs), power)
    return U


def format_word(word) -> str:
    parts = []
    for name, legs, power in word:
        if power % GATE_ORDER[name] == 0:
            continue
        token = name + "".join(str(l + 1) for l in legs)
        if power != 1:
            token += "^%d" % power
        parts.append(token)
    return " ".join(parts) if parts else "I"


def parse_word(text: str, n: int) -> list:
    """Parse 'H1 SUM12 S2^2' into gate-word tuples; legs are 1-based digits.

    'SUM' with no digits on two qutrits means SUM12.
    """
    word = []
    for token in text.split():
        if "^" in token:
            token, pw = token.split("^")
            power = int(pw)
        else:
            power = 1
        name = "".join(ch for ch in token if ch.isalpha()).upper()
        digits = [int(ch) - 1 for ch in token if ch.isdigit()]
        if name not in GATE_ORDER:
            raise ValueError("unknown gate %r" % token)
        if name == "SUM":
            if not digits:
                if n != 2:
                    raise ValueError("SUM needs explicit legs on %d qutrits" % n)
                digits = [0, 1]
            if len(digits) != 2:
                raise ValueError("SUM takes two legs: %r" % token)
        elif len(digits) != 1:
            raise ValueError("%s takes one leg: %r" % (name, token))
        if any(not 0 <= d < n for d in digits):
            raise ValueError("leg out of range in %r" % token)
        word.append((name, tuple(digits), power))
    return word


def weyl_matrix(n: int, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64) % 3
    b = np.asarray(b, dtype=np.int64) % 3
    out = np.eye(1, dtype=np.complex128)
    for i in range(n):
        leg = np.linalg.matrix_power(_X, int(a[i])) @ np.linalg.matrix_power(_Z, int(b[i]))
        out = np.kron(out, leg)
    return out


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------


def symplectic_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    J[:n, n:] = np.eye(n, dtype=np.int64)
    J[n:, :n] = -np.eye(n, dtype=np.int64) % 3
    return J


@functools.cache
def _row_tables(n: int) -> tuple[np.ndarray, ...]:
    """Rows over F_3 of 2n entries as keys sum_j r_j 3^j below 3^(2n): the
    digits (keys, 2n), the add and negate tables of the keys, and the
    symplectic form x.J.y = sum_i x_i y_(n+i) - x_(n+i) y_i of two keys, all read-only."""
    weights = 3 ** np.arange(2 * n)
    digits = (np.arange(3 ** (2 * n))[:, None] // weights % 3).astype(np.int8)
    dtype = np.min_scalar_type(3 ** (2 * n) - 1)
    add = (((digits[:, None] + digits[None]) % 3) @ weights).astype(dtype)
    neg = ((-digits % 3) @ weights).astype(dtype)
    form = (digits[:, :n] @ digits[:, n:].T - digits[:, n:] @ digits[:, :n].T) % 3
    for table in (digits, add, neg, form):
        table.flags.writeable = False
    return digits, add, neg, form


def _row_op(rows: np.ndarray, name: str, n: int, legs: tuple[int, ...], power: int = 1) -> None:
    """Left-multiply a stack by img(gate^power) in place, rows[r] holding the
    keys of row r of every matrix: the gate's F_3 row operations."""
    if name not in GATE_ORDER:
        raise ValueError(name)
    _, add, neg, _ = _row_tables(n)
    for _ in range(power % GATE_ORDER[name]):  # X and Z leave symplectic labels alone
        if name == "S":  # row n+i += row i
            i = legs[0]
            rows[n + i] = add[rows[n + i], rows[i]]
        elif name == "H":  # row i <- -row n+i, row n+i <- row i
            i = legs[0]
            rows[i], rows[n + i] = neg[rows[n + i]], rows[i].copy()
        elif name == "SUM":  # row t += row c, row n+c -= row n+t
            c, t = legs
            rows[t] = add[rows[t], rows[c]]
            rows[n + c] = add[rows[n + c], neg[rows[n + t]]]


def enumerate_symplectic(n: int) -> np.ndarray:
    """All of Sp(2n, 3), shape (N, 2n, 2n), by breadth-first closure of the generator images.

    Each level applies every generator to the whole frontier as row
    operations on row keys; new elements keep their first-occurrence order
    (frontier-major, generator-minor), so element indices are stable.
    """
    if n > 3:  # a matrix key sum_i rowkey_i 3^(2n i) overflows an int64
        raise ValueError("Sp(%d, 3) matrices do not fit an int64 key" % (2 * n))
    gens = [("S", (i,)) for i in range(n)] + [("H", (i,)) for i in range(n)]
    gens += [("SUM", (c, t)) for c in range(n) for t in range(n) if c != t]
    weights = 3 ** (2 * n * np.arange(2 * n, dtype=np.int64))
    digits, add, _, _ = _row_tables(n)
    frontier = (3 ** np.arange(2 * n)).astype(add.dtype)[:, None]  # the identity's row keys
    levels = [frontier]
    seen = weights @ frontier  # sorted
    while frontier.shape[1]:
        cand = []
        for name, legs in gens:
            cand.append(frontier.copy())
            _row_op(cand[-1], name, n, legs)
        cand = np.stack(cand, axis=2).reshape(2 * n, -1)
        keys, first = np.unique(weights @ cand, return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        frontier = cand[:, np.sort(first[fresh])]
        levels.append(frontier)
        seen = np.sort(np.concatenate([seen, keys[fresh]]))  # np.union1d hashes: far slower
    return digits[np.concatenate(levels, axis=1).T].astype(np.int64)


# ---------------------------------------------------------------------------
# synthesis: symplectic matrix -> gate word
# ---------------------------------------------------------------------------


class GateWords:
    """The gate words of a stack of matrices, stored by slot.

    ``slots[s]`` is a (name, legs) gate and ``powers[e, s]`` its power in
    word e, 0 where word e skips it; word e is its nonzero slots in slot
    order, and ``words[e]`` lists them as (name, legs, power) tokens.
    """

    def __init__(self, slots: list, powers: np.ndarray):
        self.slots = slots
        self.powers = powers

    def __len__(self) -> int:
        return len(self.powers)

    def __getitem__(self, e: int) -> list:
        return [(name, legs, int(pw)) for (name, legs), pw in zip(self.slots, self.powers[e]) if pw]


def synthesize(M: np.ndarray):
    """Gate words (H/S/SUM tokens) whose unitaries have symplectic image M.

    One matrix in Sp(2n, 3) gives one word; a stack of shape (N, 2n, 2n)
    gives a ``GateWords`` of N words.  Words are in operator-product order
    (index 0 is the leftmost factor), as ``word_to_matrix`` reads them.

    Deterministic row reduction, run on the whole stack at once: for each
    qudit i the X-image column is steered to the unit vector e_{a_i} using
    single-qudit moves and SUM gathers, then the Z-image column is cleaned
    with the X-shear H_i^-1 S_i^-nu H_i = [[1, nu], [0, 1]] and SUM
    transfers; symplectic orthogonality keeps finished qudits untouched.
    Each step is a slot, one gate whose power every matrix reads off its
    own entries (power 0 skips the gate); the gate runs as its F_3 row
    operations on the row keys of the matrices that take it.
    """
    M = np.asarray(M, dtype=np.int64)
    M = M % 3 if ((M < 0) | (M > 2)).any() else M  # a whole-stack % 3 costs more than this test
    n = M.shape[-1] // 2
    digits, add, _, form = _row_tables(n)
    work = (M.reshape(-1, 2 * n, 2 * n) @ 3 ** np.arange(2 * n)).T.astype(add.dtype)  # work[r]: the keys of row r
    r, s = np.triu_indices(2 * n, 1)  # M is symplectic exactly when its rows pair as J's do
    if not (form[work[r], work[s]] == symplectic_form(n)[r, s, None]).all():
        raise ValueError("not a symplectic matrix")
    slots: list[tuple] = []
    applied: list[np.ndarray] = []

    def entry(r, c):
        return digits[work[r], c]

    def apply(name, legs, power):
        power = np.asarray(power, dtype=np.int8) % GATE_ORDER[name]
        slots.append((name, legs))
        applied.append(power)
        for p in range(1, GATE_ORDER[name]):
            rows = np.flatnonzero(power == p)
            if len(rows):
                part = work[:, rows]
                _row_op(part, name, n, legs, p)
                work[:, rows] = part

    # a nonzero entry mod 3 is its own inverse, so -b / a is -b * a
    for i in range(n):
        # --- phase 1: X column -> e_{a_i} ---------------------------------
        for j in range(i, n):
            alpha, beta = entry(j, i), entry(n + j, i)
            flip = (beta != 0) & (alpha == 0)
            apply("S", (j,), -beta * alpha)  # S_j^t: (a, b) -> (a, b + t a), kills b
            apply("H", (j,), flip)  # (0, beta) -> (-beta, 0)
        gather = entry(i, i) == 0
        for j in range(i + 1, n):
            first = gather & (entry(j, i) != 0)
            apply("SUM", (j, i), first)  # a_i += a_j for the first nonzero a_j
            gather &= ~first
        for j in range(i + 1, n):
            apply("SUM", (i, j), -entry(j, i) * entry(i, i))  # a_j += t a_i
        apply("H", (i,), 2 * (entry(i, i) == 2))  # parity flips the scale
        # --- phase 2: Z column -> e_{b_i} ----------------------------------
        zc = n + i
        for j in range(i + 1, n):
            apply("S", (j,), -entry(n + j, zc) * entry(j, zc))
            apply("H", (j,), entry(j, zc) != 0)  # move to pure b_j
            apply("SUM", (j, i), entry(n + j, zc))  # b_j -= power * b_i, b_i = 1
        # X-shear [[1, nu], [0, 1]] at qudit i, nu = -work[i, zc]
        nu = -entry(i, zc)
        apply("H", (i,), nu != 0)
        apply("S", (i,), -nu)
        apply("H", (i,), 3 * (nu != 0))
    assert (work == 3 ** np.arange(2 * n)[:, None]).all()  # the identity's row keys
    # work = img(g_K) ... img(g_1) M = I, so M = img(g_1^-1) ... img(g_K^-1):
    # the word lists the inverse gates in the order they were applied
    orders = np.array([GATE_ORDER[name] for name, _ in slots])
    powers = (-np.stack(applied, axis=1) % orders).astype(np.int8)
    words = GateWords(slots, powers)
    return words[0] if M.ndim == 2 else words


# ---------------------------------------------------------------------------
# projective group and orbits
# ---------------------------------------------------------------------------


# projective keys round matrix entries to this grid
_KEY_GRID = 1e-8


def projective_key(matrix: np.ndarray) -> bytes:
    """Hashable key identifying a matrix up to global phase (1e-8 grid)."""
    flat = matrix.ravel()
    idx = np.argmax(np.abs(flat) > _KEY_GRID)
    normalized = matrix * (abs(flat[idx]) / flat[idx])
    grid = np.round(normalized / _KEY_GRID)
    return np.stack([grid.real, grid.imag]).astype(np.int64).tobytes()


def generate_clifford_group() -> np.ndarray:
    """The projective single-qutrit Clifford group, shape (216, 3, 3), read-only.

    216 = 9 Weyls x |Sp(2,3)| = 24 elements, one unitary per projective
    class, in breadth-first order over right multiplication by X, Z, S, H;
    injection gadgets name their corrections by index into it.
    """
    return _clifford_group()


# cached behind the public function, which stays a plain function for bench/tracer.py to wrap
@functools.cache
def _clifford_group() -> np.ndarray:
    gens = [gate_matrix(name, 1, (0,)) for name in ("X", "Z", "S", "H")]
    eye = np.eye(3, dtype=np.complex128)
    seen = {projective_key(eye)}
    out = [eye]
    for mat in out:  # out grows while it is read: breadth-first
        for g in gens:
            cand = mat @ g
            key = projective_key(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
    group = np.stack(out)
    group.flags.writeable = False
    return group


def orbit_closure(vec: np.ndarray, group: np.ndarray) -> list[np.ndarray]:
    """Projectively distinct images of a state vector under a (N, d, d) stack of unitaries."""
    seen = {}
    for U in group:
        img = U @ vec
        key = projective_key(img.reshape(-1, 1))
        if key not in seen:
            seen[key] = img
    return list(seen.values())
