import hashlib

import numpy as np
import pytest

from stabdecomp.clifford import (
    GATE_ORDER,
    OMEGA,
    _gen_image,
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
    # bare SUM on two qutrits
    assert parse_word("SUM", 2) == [("SUM", (0, 1), 1)]
    with pytest.raises(ValueError):
        parse_word("Q1", 2)
    with pytest.raises(ValueError):
        parse_word("H3", 2)


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
    return generate_clifford_group(1)


def test_projective_clifford_group_size(group216):
    assert len(group216) == 216
    keys = {projective_key(U) for U, _ in group216}
    assert len(keys) == 216


def test_group_splits_into_weyl_and_symplectic(group216):
    by_image = {}
    for U, word in group216:
        M = symplectic_image(U, 1)
        by_image.setdefault(M.tobytes(), []).append(U)
    assert len(by_image) == 24
    assert all(len(v) == 9 for v in by_image.values())
    # every element is Weyl x symplectic representative up to phase
    rng = np.random.default_rng(73)
    for idx in rng.integers(0, 216, size=12):
        U, _ = group216[int(idx)]
        V = word_to_matrix(synthesize(symplectic_image(U, 1)), 1)
        assert weyl_decompose(U @ V.conj().T, 1) is not None


def test_strange_state_orbit_is_nine(group216):
    vec = magic_state("S").complex_vector()
    orbit = orbit_closure(vec, [U for U, _ in group216])
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
def table():
    from stabdecomp.gadget import _symplectic_unitaries

    return _symplectic_unitaries()


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
