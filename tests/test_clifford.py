import hashlib

import numpy as np
import pytest

from stabdecomp.clifford import (
    GATE_ORDER,
    OMEGA,
    _row_op,
    _row_tables,
    enumerate_symplectic,
    format_word,
    gate_matrix,
    generate_clifford_group,
    orbit_closure,
    parse_word,
    projective_key,
    symplectic_form,
    synthesize,
    weyl_matrix,
    word_to_matrix,
)
from stabdecomp.stabilizer import magic_state

# ---------------------------------------------------------------------------
# reference symplectic images: of a gate word from its generators' images, and
# of a dense unitary from how it conjugates the Weyl operators
# ---------------------------------------------------------------------------


def weyl_decompose(V: np.ndarray, n: int, tol: float = 1e-8):
    """Recover (a, b, phase) with V = phase * W_(a,b), or None if V is not a Weyl."""
    col0 = V[:, 0]
    nz = np.nonzero(np.abs(col0) > tol)[0]
    if len(nz) != 1:
        return None
    shift = int(nz[0])
    a = np.array([(shift // 3 ** (n - 1 - i)) % 3 for i in range(n)], dtype=np.int64)
    phase = col0[shift]
    if abs(abs(phase) - 1) > tol:
        return None
    b = np.zeros(n, dtype=np.int64)
    for i in range(n):
        s = 3 ** (n - 1 - i)  # basis string e_i
        r = np.nonzero(np.abs(V[:, s]) > tol)[0]
        if len(r) != 1:
            return None
        ratio = V[r[0], s] / phase
        b[i] = int(np.round(np.angle(ratio) / (2 * np.pi / 3))) % 3
    if not np.allclose(V, phase * weyl_matrix(n, a, b), atol=10 * tol):
        return None
    return a, b, phase


def is_symplectic(M: np.ndarray, n: int) -> bool:
    J = symplectic_form(n)
    return np.array_equal((M.T @ J @ M) % 3, J % 3)


def _gen_image(name: str, n: int, legs: tuple[int, ...], power: int = 1) -> np.ndarray:
    """Reference symplectic image of gate^power: the generator's matrix over F_3, power times."""
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


def word_image(word, n: int) -> np.ndarray:
    M = np.eye(2 * n, dtype=np.int64)
    for name, legs, power in word:
        M = (M @ _gen_image(name, n, tuple(legs), power)) % 3
    return M


def symplectic_image(U: np.ndarray, n: int, tol: float = 1e-8) -> np.ndarray:
    """Extract the symplectic image of a Clifford unitary by conjugating Weyls."""
    M = np.zeros((2 * n, 2 * n), dtype=np.int64)
    Udag = U.conj().T
    for col in range(2 * n):
        i = col % n
        lab_a = np.zeros(n, dtype=np.int64)
        lab_b = np.zeros(n, dtype=np.int64)
        (lab_a if col < n else lab_b)[i] = 1
        V = U @ weyl_matrix(n, lab_a, lab_b) @ Udag
        dec = weyl_decompose(V, n, tol)
        if dec is None:
            raise ValueError("matrix does not normalize the Weyl group")
        a, b, _ = dec
        M[:n, col] = a
        M[n:, col] = b
    if not is_symplectic(M, n):
        raise ValueError("extracted image is not symplectic")
    return M


def rand_word(rng, n, length):
    word = []
    for _ in range(length):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 0:
            word.append(("H", (int(rng.integers(0, n)),), int(rng.integers(1, 4))))
        elif kind == 1:
            word.append(("S", (int(rng.integers(0, n)),), int(rng.integers(1, 3))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            word.append(("SUM", (int(c), int(t)), int(rng.integers(1, 3))))
    return word


def test_gate_relations():
    X = gate_matrix("X", 1, (0,))
    Z = gate_matrix("Z", 1, (0,))
    S = gate_matrix("S", 1, (0,))
    H = gate_matrix("H", 1, (0,))
    assert np.allclose(Z @ X, OMEGA * X @ Z)
    assert np.allclose(np.linalg.matrix_power(H, 4), np.eye(3))
    assert np.allclose(np.linalg.matrix_power(S, 3), np.eye(3))
    assert np.allclose(S, np.diag([1, 1, OMEGA]))
    SUM = gate_matrix("SUM", 2, (0, 1))
    assert np.allclose(np.linalg.matrix_power(SUM, 3), np.eye(9))
    # SUM|i,j> = |i, i+j>
    v = np.zeros(9)
    v[3 * 2 + 1] = 1  # |2,1>
    w = SUM @ v
    assert w[3 * 2 + 0] == 1  # |2,0>


def test_gates_are_unitary():
    for name, legs in (("X", (0,)), ("Z", (0,)), ("S", (0,)), ("H", (0,))):
        U = gate_matrix(name, 1, legs)
        assert np.allclose(U @ U.conj().T, np.eye(3))
    U = gate_matrix("SUM", 2, (1, 0))
    assert np.allclose(U @ U.conj().T, np.eye(9))


def test_word_parse_format_round_trip():
    text = "H1 SUM12 S2^2 H2^3 SUM21"
    word = parse_word(text, 2)
    assert word == [
        ("H", (0,), 1),
        ("SUM", (0, 1), 1),
        ("S", (1,), 2),
        ("H", (1,), 3),
        ("SUM", (1, 0), 1),
    ]
    assert parse_word(format_word(word), 2) == word
    with pytest.raises(ValueError):
        parse_word("Q1", 2)
    with pytest.raises(ValueError):
        parse_word("H3", 2)


def test_parse_word_reads_every_word_format_word_writes(sp4):
    # the empty word prints as I, and a SUM always prints its two legs
    assert format_word([]) == "I" and parse_word("I", 2) == []
    with pytest.raises(ValueError, match="legs"):
        parse_word("SUM", 2)
    words = synthesize(sp4)
    picks = np.concatenate([[0], np.random.default_rng(29).choice(len(words), size=4000, replace=False)])
    assert words[0] == []  # the identity
    for e in picks.tolist():
        assert parse_word(format_word(words[e]), 2) == words[e]


def test_weyl_decompose():
    X = gate_matrix("X", 1, (0,))
    Z = gate_matrix("Z", 1, (0,))
    a, b, phase = weyl_decompose(Z @ X, 1)
    assert (tuple(a), tuple(b)) == ((1,), (1,))
    assert abs(phase - OMEGA) < 1e-12
    rng = np.random.default_rng(53)
    for _ in range(30):
        a = rng.integers(0, 3, size=2)
        b = rng.integers(0, 3, size=2)
        c = np.exp(2j * np.pi * rng.random())
        got = weyl_decompose(c * weyl_matrix(2, a, b), 2)
        assert got is not None
        ga, gb, gphase = got
        assert np.array_equal(ga, a) and np.array_equal(gb, b)
        assert abs(gphase - c) < 1e-10
    assert weyl_decompose(gate_matrix("H", 1, (0,)), 1) is None


def test_symplectic_image_matches_word_image():
    rng = np.random.default_rng(59)
    for n in (1, 2):
        for _ in range(50):
            word = rand_word(rng, n, 8)
            U = word_to_matrix(word, n)
            assert np.array_equal(symplectic_image(U, n), word_image(word, n))


def test_symplectic_image_is_homomorphism():
    rng = np.random.default_rng(61)
    for _ in range(20):
        w1, w2 = rand_word(rng, 2, 5), rand_word(rng, 2, 5)
        U1, U2 = word_to_matrix(w1, 2), word_to_matrix(w2, 2)
        M = symplectic_image(U1 @ U2, 2)
        assert np.array_equal(M, (symplectic_image(U1, 2) @ symplectic_image(U2, 2)) % 3)


def test_enumerate_symplectic_orders():
    sp2 = enumerate_symplectic(1)
    assert len(sp2) == 24
    assert len({M.tobytes() for M in sp2}) == 24
    assert all(is_symplectic(M, 1) for M in sp2)


@pytest.fixture(scope="module")
def sp4():
    return enumerate_symplectic(2)


def test_enumerate_symplectic_two_qutrits(sp4):
    assert len(sp4) == 51840
    sample = np.random.default_rng(67).integers(0, len(sp4), size=200)
    for i in sample:
        assert is_symplectic(sp4[int(i)], 2)


def test_synthesize_all_single_qutrit():
    for M in enumerate_symplectic(1):
        word = synthesize(M)
        assert np.array_equal(word_image(word, 1), M)
        # and the dense unitary really conjugates Weyls through M
        assert np.array_equal(symplectic_image(word_to_matrix(word, 1), 1), M)


def test_synthesize_random_two_qutrit(sp4):
    rng = np.random.default_rng(71)
    picks = rng.integers(0, len(sp4), size=120)
    for i in picks:
        M = sp4[int(i)]
        word = synthesize(M)
        assert np.array_equal(word_image(word, 2), M)
    for i in picks[:15]:
        M = sp4[int(i)]
        U = word_to_matrix(synthesize(M), 2)
        assert np.allclose(U @ U.conj().T, np.eye(9), atol=1e-10)
        assert np.array_equal(symplectic_image(U, 2), M)


def test_synthesize_is_deterministic(sp4):
    M = sp4[31337]
    assert synthesize(M) == synthesize(M)
    with pytest.raises(ValueError):
        bad = np.eye(4, dtype=np.int64)
        bad[0, 0] = 2
        synthesize(bad)


@pytest.fixture(scope="module")
def group216():
    return generate_clifford_group()


# sha256 of the group's projective keys in order: injection gadgets name their
# corrections by index into the group, so its order is part of every sweep artifact
GROUP_KEYS_SHA256 = "e9083af4a5f9e553dce5e9ad8dcc697c2bbd75d670f759b87784a5fd59203090"


def test_projective_clifford_group_size(group216):
    assert group216.shape == (216, 3, 3) and group216.dtype == np.complex128
    keys = [projective_key(U) for U in group216]
    assert len(set(keys)) == 216
    assert hashlib.sha256(b"".join(keys)).hexdigest() == GROUP_KEYS_SHA256
    assert np.array_equal(group216[0], np.eye(3))
    # one cached array, which no caller can write into
    assert generate_clifford_group() is group216
    assert not group216.flags.writeable
    with pytest.raises(ValueError):
        group216[0, 0, 0] = 2


def test_group_splits_into_weyl_and_symplectic(group216):
    by_image = {}
    for U in group216:
        M = symplectic_image(U, 1)
        by_image.setdefault(M.tobytes(), []).append(U)
    assert len(by_image) == 24
    assert all(len(v) == 9 for v in by_image.values())
    # every element is Weyl x symplectic representative up to phase
    rng = np.random.default_rng(73)
    for idx in rng.integers(0, 216, size=12):
        U = group216[int(idx)]
        V = word_to_matrix(synthesize(symplectic_image(U, 1)), 1)
        assert weyl_decompose(U @ V.conj().T, 1) is not None


def test_strange_state_orbit_is_nine(group216):
    vec = magic_state("S").complex_vector()
    orbit = orbit_closure(vec, group216)
    assert len(orbit) == 9
    seen = set()
    for img in orbit:
        # each orbit member is (|a> - omega^c |b>)/sqrt2 projectively
        mags = np.abs(img)
        (zero_pos,) = np.nonzero(mags < 1e-9)
        others = [i for i in range(3) if i != zero_pos]
        a, b = others
        assert np.allclose(mags[others], 2**-0.5)
        ratio = img[b] / img[a]
        c = int(np.round(np.angle(-ratio) / (2 * np.pi / 3))) % 3
        assert abs(-ratio - OMEGA**c) < 1e-9
        seen.add((a, b, c))
    assert len(seen) == 9


# ---------------------------------------------------------------------------
# batched enumeration and synthesis, and the Sp(4,3) unitary table
# ---------------------------------------------------------------------------


def test_enumerate_symplectic_is_one_array(sp4):
    assert sp4.shape == (51840, 4, 4)
    assert sp4.dtype == np.int64
    assert np.array_equal(sp4[0], np.eye(4, dtype=np.int64))
    J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]])
    assert ((sp4.transpose(0, 2, 1) @ J @ sp4) % 3 == J).all()
    keys = sp4.reshape(len(sp4), -1) @ 3 ** np.arange(16)
    assert len(np.unique(keys)) == len(sp4)
    # sweep artifacts name elements by index, so the BFS order is pinned
    digest = hashlib.sha256(sp4.tobytes()).hexdigest()
    assert digest == "a95087ef53cb47a863e65b28a099a8d2d32d51b7eda1fa41ce77a2f1fb652d36"


def test_synthesize_stack_words_realize_their_matrices(sp4):
    sp2 = enumerate_symplectic(1)
    words = synthesize(sp2)
    assert len(words) == 24
    for e, M in enumerate(sp2):
        assert np.array_equal(word_image(words[e], 1), M)
    words = synthesize(sp4)
    assert len(words) == len(sp4)
    for e in np.random.default_rng(97).integers(0, len(sp4), size=300):
        assert np.array_equal(word_image(words[int(e)], 2), sp4[int(e)])
        assert words[int(e)] == synthesize(sp4[int(e)])


def test_synthesize_stack_rejects_any_non_symplectic_member(sp4):
    stack = sp4[:5].copy()
    stack[3, 0] = 2 * stack[3, 0] % 3  # diag(2, 1, 1, 1) is not symplectic
    with pytest.raises(ValueError):
        synthesize(stack)


@pytest.fixture(scope="module")
def table(sp4):
    # the whole table, assembled from the chunks the sweeps stream through
    from stabdecomp.gadget import _table_chunks

    U = np.empty((len(sp4), 9, 9), dtype=np.complex128)
    for rows, chunk in _table_chunks():
        U[rows] = chunk
    return sp4, U


def test_table_rows_are_synthesized_words(table):
    # words are in operator-product order, index 0 the leftmost factor
    sp, U = table
    for e in np.random.default_rng(101).integers(0, len(sp), size=40):
        row = word_to_matrix(synthesize(sp[int(e)]), 2)
        assert np.array_equal(row.view(np.uint8), U[int(e)].view(np.uint8))


def _slot_by_slot_table(sp):
    """Reference: each slot's gate multiplied into the rows whose word holds it."""
    words = synthesize(sp)
    gates = [
        [gate_matrix(name, 2, legs, p) for p in range(GATE_ORDER[name])]
        for name, legs in words.slots
    ]
    U = np.empty((len(sp), 9, 9), dtype=np.complex128)
    for lo in range(0, len(sp), 4096):
        powers = words.powers[lo : lo + 4096]
        Uc = np.repeat(np.eye(9, dtype=np.complex128)[None], len(powers), axis=0)
        for slot, mats in enumerate(gates):
            for p in range(1, len(mats)):
                mask = powers[:, slot] == p
                if mask.any():
                    Uc[mask] = Uc[mask] @ mats[p]
        U[lo : lo + len(powers)] = Uc
    return U


def test_table_equals_the_slot_by_slot_products(table):
    # the shared-prefix build multiplies the same factors in the same order
    sp, U = table
    assert np.array_equal(U.view(np.uint64), _slot_by_slot_table(sp).view(np.uint64))


def test_every_table_row_conjugates_weyls_through_its_image(table):
    # U W_(e_c) U^dag = phase * W(column c of M) for all 51,840 rows and c = 0..3
    sp, U = table
    digits = np.array([[(v // 3 ** (3 - i)) % 3 for i in range(4)] for v in range(81)])
    weyls = np.stack([weyl_matrix(2, d[:2], d[2:]) for d in digits])  # label a1 a2 b1 b2
    for col in range(4):
        unit = np.zeros(4, dtype=np.int64)
        unit[col] = 1
        W = weyl_matrix(2, unit[:2], unit[2:])
        labels = sp[:, :, col] @ 3 ** np.arange(3, -1, -1)
        for lo in range(0, len(sp), 4096):
            Uc = U[lo : lo + 4096]
            V = Uc @ W @ Uc.conj().transpose(0, 2, 1)
            want = weyls[labels[lo : lo + 4096]]
            phase = np.einsum("kxy,kxy->k", want.conj(), V) / 9
            assert np.abs(np.abs(phase) - 1).max() < 1e-10
            assert np.abs(V - phase[:, None, None] * want).max() < 1e-10


# ---------------------------------------------------------------------------
# F_3 row operations, against the generator-image products they replaced
# ---------------------------------------------------------------------------


def _to_row_keys(Ms: np.ndarray) -> np.ndarray:
    """(N, 2n, 2n) matrices over F_3 -> (2n, N) row keys, as ``_row_op`` takes them."""
    n = Ms.shape[-1] // 2
    return (Ms @ 3 ** np.arange(2 * n)).T.astype(_row_tables(n)[1].dtype)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_op_is_the_generator_image_product(n):
    Ms = np.random.default_rng(107 + n).integers(0, 3, size=(60, 2 * n, 2 * n))
    gates = [(name, (i,)) for name in ("S", "H", "X", "Z") for i in range(n)]
    gates += [("SUM", (c, t)) for c in range(n) for t in range(n) if c != t]
    for name, legs in gates:
        for power in range(-1, GATE_ORDER[name] + 1):
            rows = _to_row_keys(Ms)
            _row_op(rows, name, n, legs, power)
            want = (_gen_image(name, n, legs, power) @ Ms) % 3
            assert np.array_equal(_row_tables(n)[0][rows.T], want), (name, legs, power)
    with pytest.raises(ValueError):
        _row_op(_to_row_keys(Ms), "T", n, (0,))


def _matmul_enumerate(n: int) -> np.ndarray:
    """Reference BFS: each level multiplies every generator image into the
    frontier and keys the products by their 4n^2 entries as base-3 digits."""

    def keys(Ms):
        return Ms.reshape(len(Ms), -1) @ 3 ** np.arange(4 * n * n, dtype=np.int64)

    gens = [_gen_image("S", n, (i,)) for i in range(n)] + [_gen_image("H", n, (i,)) for i in range(n)]
    gens += [_gen_image("SUM", n, (c, t)) for c in range(n) for t in range(n) if c != t]
    gens = np.stack(gens)
    frontier = np.eye(2 * n, dtype=np.int64)[None]
    levels = [frontier]
    seen = keys(frontier)
    while len(frontier):
        cand = ((gens[None] @ frontier[:, None]) % 3).reshape(-1, 2 * n, 2 * n)
        found, first = np.unique(keys(cand), return_index=True)
        fresh = ~np.isin(found, seen, assume_unique=True)
        frontier = cand[np.sort(first[fresh])]
        levels.append(frontier)
        seen = np.union1d(seen, found[fresh])
    return np.concatenate(levels)


def test_row_key_bfs_equals_the_matmul_bfs(sp4):
    assert np.array_equal(enumerate_symplectic(1), _matmul_enumerate(1))
    want = _matmul_enumerate(2)
    assert sp4.dtype == want.dtype and np.array_equal(sp4, want)
    with pytest.raises(ValueError):
        enumerate_symplectic(4)


def _matmul_synthesize(M: np.ndarray) -> tuple[list, np.ndarray]:
    """Reference synthesis of a stack: the same row reduction, each slot applied
    as a product with its gate's symplectic image.  Returns (slots, powers)."""
    M = np.asarray(M, dtype=np.int64) % 3
    n = M.shape[-1] // 2
    work = M.reshape(-1, 2 * n, 2 * n).copy()
    slots, applied = [], []

    def apply(name, legs, power):
        order = GATE_ORDER[name]
        power = np.asarray(power, dtype=np.int64) % order
        slots.append((name, legs))
        applied.append(power)
        rows = np.nonzero(power)[0]
        if len(rows):
            images = np.stack([_gen_image(name, n, legs, p) for p in range(order)])
            work[rows] = (images[power[rows]] @ work[rows]) % 3

    for i in range(n):
        for j in range(i, n):
            alpha, beta = work[:, j, i], work[:, n + j, i]
            flip = (beta != 0) & (alpha == 0)
            apply("S", (j,), -beta * alpha)
            apply("H", (j,), flip)
        gather = work[:, i, i] == 0
        for j in range(i + 1, n):
            first = gather & (work[:, j, i] != 0)
            apply("SUM", (j, i), first)
            gather &= ~first
        for j in range(i + 1, n):
            apply("SUM", (i, j), -work[:, j, i] * work[:, i, i])
        apply("H", (i,), 2 * (work[:, i, i] == 2))
        zc = n + i
        for j in range(i + 1, n):
            apply("S", (j,), -work[:, n + j, zc] * work[:, j, zc])
            apply("H", (j,), work[:, j, zc] != 0)
            apply("SUM", (j, i), work[:, n + j, zc])
        nu = -work[:, i, zc]
        apply("H", (i,), nu != 0)
        apply("S", (i,), -nu)
        apply("H", (i,), 3 * (nu != 0))
    assert (work == np.eye(2 * n, dtype=np.int64)).all()
    orders = np.array([GATE_ORDER[name] for name, _ in slots])
    return slots, (-np.stack(applied, axis=1) % orders).astype(np.int8)


def test_row_op_synthesis_equals_the_matmul_synthesis(sp4):
    for sp in (enumerate_symplectic(1), sp4):
        words = synthesize(sp)
        slots, powers = _matmul_synthesize(sp)
        assert words.slots == slots
        assert words.powers.dtype == powers.dtype and np.array_equal(words.powers, powers)
