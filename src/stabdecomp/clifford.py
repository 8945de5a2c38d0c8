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

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)

# single-qutrit gate matrices
_X = np.roll(np.eye(3, dtype=np.complex128), 1, axis=0)
_Z = np.diag(OMEGA ** np.arange(3))
_S = np.diag(OMEGA ** np.array([0, 0, 1]))
_H = OMEGA ** np.outer(np.arange(3), np.arange(3)) / np.sqrt(3)

GATE_ORDER = {"X": 3, "Z": 3, "S": 3, "H": 4, "SUM": 3}


def _embed_single(gate: np.ndarray, n: int, leg: int) -> np.ndarray:
    ops = [gate if i == leg else np.eye(3) for i in range(n)]
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


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


def _gen_image(name: str, n: int, legs: tuple[int, ...], power: int = 1) -> np.ndarray:
    M = np.eye(2 * n, dtype=np.int64)
    G = np.eye(2 * n, dtype=np.int64)
    if name == "H":
        i = legs[0]
        G[i, i] = G[n + i, n + i] = 0
        G[i, n + i] = -1 % 3
        G[n + i, i] = 1
    elif name == "S":
        i = legs[0]
        G[n + i, i] = 1
    elif name == "SUM":
        c, t = legs
        G[t, c] = 1
        G[n + c, n + t] = -1 % 3
    elif name in ("X", "Z"):
        pass  # Weyl operators act trivially on symplectic labels
    else:
        raise ValueError(name)
    for _ in range(power % GATE_ORDER[name]):
        M = (G @ M) % 3
    return M


def _matrix_keys(Ms: np.ndarray) -> np.ndarray:
    """One int64 key per matrix of a stack over F_3: its entries as base-3 digits."""
    flat = Ms.reshape(len(Ms), -1)
    if flat.shape[1] > 39:  # 3**40 overflows int64
        raise ValueError("%d entries over F_3 do not fit an int64 key" % flat.shape[1])
    return flat @ 3 ** np.arange(flat.shape[1], dtype=np.int64)


def enumerate_symplectic(n: int) -> np.ndarray:
    """All of Sp(2n, 3), shape (N, 2n, 2n), by breadth-first closure of the generator images.

    Each level applies every generator to the whole frontier in one product;
    new elements keep their first-occurrence order (frontier-major,
    generator-minor), so element indices are stable.
    """
    gens = [_gen_image("S", n, (i,)) for i in range(n)]
    gens += [_gen_image("H", n, (i,)) for i in range(n)]
    for c in range(n):
        for t in range(n):
            if c != t:
                gens.append(_gen_image("SUM", n, (c, t)))
    gens = np.stack(gens)
    frontier = np.eye(2 * n, dtype=np.int64)[None]
    levels = [frontier]
    seen = _matrix_keys(frontier)  # sorted
    while len(frontier):
        cand = ((gens[None] @ frontier[:, None]) % 3).reshape(-1, 2 * n, 2 * n)
        keys, first = np.unique(_matrix_keys(cand), return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        frontier = cand[np.sort(first[fresh])]
        levels.append(frontier)
        seen = np.union1d(seen, keys[fresh])
    return np.concatenate(levels)


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
    own entries (power 0 skips the gate).
    """
    M = np.asarray(M, dtype=np.int64) % 3
    n = M.shape[-1] // 2
    work = M.reshape(-1, 2 * n, 2 * n).copy()
    J = symplectic_form(n)
    if not ((work.transpose(0, 2, 1) @ J @ work) % 3 == J).all():
        raise ValueError("not a symplectic matrix")
    slots: list[tuple] = []
    applied: list[np.ndarray] = []

    def apply(name, legs, power):
        order = GATE_ORDER[name]
        power = np.asarray(power, dtype=np.int64) % order
        slots.append((name, legs))
        applied.append(power)
        rows = np.nonzero(power)[0]
        if len(rows):
            images = np.stack([_gen_image(name, n, legs, p) for p in range(order)])
            work[rows] = (images[power[rows]] @ work[rows]) % 3

    # a nonzero entry mod 3 is its own inverse, so -b / a is -b * a
    for i in range(n):
        # --- phase 1: X column -> e_{a_i} ---------------------------------
        for j in range(i, n):
            alpha, beta = work[:, j, i], work[:, n + j, i]
            flip = (beta != 0) & (alpha == 0)
            apply("S", (j,), -beta * alpha)  # S_j^t: (a, b) -> (a, b + t a), kills b
            apply("H", (j,), flip)  # (0, beta) -> (-beta, 0)
        gather = work[:, i, i] == 0
        for j in range(i + 1, n):
            first = gather & (work[:, j, i] != 0)
            apply("SUM", (j, i), first)  # a_i += a_j for the first nonzero a_j
            gather &= ~first
        for j in range(i + 1, n):
            apply("SUM", (i, j), -work[:, j, i] * work[:, i, i])  # a_j += t a_i
        apply("H", (i,), 2 * (work[:, i, i] == 2))  # parity flips the scale
        # --- phase 2: Z column -> e_{b_i} ----------------------------------
        zc = n + i
        for j in range(i + 1, n):
            apply("S", (j,), -work[:, n + j, zc] * work[:, j, zc])
            apply("H", (j,), work[:, j, zc] != 0)  # move to pure b_j
            apply("SUM", (j, i), work[:, n + j, zc])  # b_j -= power * b_i, b_i = 1
        # X-shear [[1, nu], [0, 1]] at qudit i, nu = -work[i, zc]
        nu = -work[:, i, zc]
        apply("H", (i,), nu != 0)
        apply("S", (i,), -nu)
        apply("H", (i,), 3 * (nu != 0))
    assert (work == np.eye(2 * n, dtype=np.int64)).all()
    # work = img(g_K) ... img(g_1) M = I, so M = img(g_1^-1) ... img(g_K^-1):
    # the word lists the inverse gates in the order they were applied
    orders = np.array([GATE_ORDER[name] for name, _ in slots])
    powers = (-np.stack(applied, axis=1) % orders).astype(np.int8)
    words = GateWords(slots, powers)
    return words[0] if M.ndim == 2 else words


# ---------------------------------------------------------------------------
# projective group and orbits
# ---------------------------------------------------------------------------


def projective_key(matrix: np.ndarray, tol: float = 1e-8) -> bytes:
    """Hashable key identifying a matrix up to global phase (1e-8 grid)."""
    flat = matrix.ravel()
    idx = np.argmax(np.abs(flat) > tol)
    normalized = matrix * (abs(flat[idx]) / flat[idx])
    grid = np.round(normalized / tol)
    return np.stack([grid.real, grid.imag]).astype(np.int64).tobytes()


def generate_clifford_group(n: int = 1) -> list[tuple[np.ndarray, list]]:
    """The projective Clifford group by BFS over {X, Z, S, H(, SUM)} words.

    Returns (matrix, word) pairs; for one qutrit there are exactly 216
    elements (9 Weyls x |Sp(2,3)| = 24).
    """
    gens = []
    for name in ("X", "Z", "S", "H"):
        for i in range(n):
            gens.append(((name, (i,), 1), gate_matrix(name, n, (i,))))
    if n > 1:
        for c in range(n):
            for t in range(n):
                if c != t:
                    gens.append((("SUM", (c, t), 1), gate_matrix("SUM", n, (c, t))))
    eye = np.eye(3**n, dtype=np.complex128)
    seen = {projective_key(eye)}
    out = [(eye, [])]
    frontier = [(eye, [])]
    while frontier:
        new = []
        for mat, word in frontier:
            for token, g in gens:
                cand = mat @ g
                key = projective_key(cand)
                if key not in seen:
                    seen.add(key)
                    entry = (cand, word + [token])
                    out.append(entry)
                    new.append(entry)
        frontier = new
    return out


def orbit_closure(vec: np.ndarray, matrices) -> list[np.ndarray]:
    """Projectively distinct images of a state vector under the given unitaries."""
    seen = {}
    for U in matrices:
        img = U @ vec
        key = projective_key(img.reshape(-1, 1))
        if key not in seen:
            seen[key] = img
    return list(seen.values())
