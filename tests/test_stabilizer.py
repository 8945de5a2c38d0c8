import json

import numpy as np
import pytest

from stabdecomp.algebra import CycloNumber, QuadraticForm, sqrt3
from stabdecomp.stabilizer import (
    CanonicalStabilizer,
    Catalog,
    _all_points,
    _echelon_bases,
    basis_index,
    build_catalog,
    ket,
    magic_power,
    magic_state,
    n_scaled_complex,
    n_squared_factor,
    plus_state,
)


def exact_norm_sq(state: CanonicalStabilizer) -> CycloNumber:
    total = CycloNumber.zero()
    for a in state.state_vector():
        total = total + a * a.conjugate()
    return total


# ---------------------------------------------------------------------------
# individual states
# ---------------------------------------------------------------------------


def test_basis_index_big_endian():
    assert basis_index([1, 2], 3) == 5
    assert basis_index([2, 0, 1], 3) == 19
    assert basis_index([1, 0, 1], 2) == 5


def test_ket_and_plus():
    e12 = ket(3, [1, 2]).complex_vector()
    want = np.zeros(9)
    want[basis_index([1, 2], 3)] = 1
    assert np.allclose(e12, want)
    assert np.allclose(plus_state(3, 1).complex_vector(), np.full(3, 3**-0.5))
    assert np.allclose(plus_state(2, 2).complex_vector(), np.full(4, 0.5))


def test_tensor_matches_kron():
    rng = np.random.default_rng(5)
    cat = build_catalog(3, 1)
    qcat = build_catalog(2, 2)
    for _ in range(20):
        a = cat.get(int(rng.integers(0, len(cat))))
        b = cat.get(int(rng.integers(0, len(cat))))
        t = a.tensor(b)
        assert np.allclose(t.complex_vector(), np.kron(a.complex_vector(), b.complex_vector()))
    for _ in range(10):
        a = qcat.get(int(rng.integers(0, len(qcat))))
        b = qcat.get(int(rng.integers(0, len(qcat))))
        t = a.tensor(b)
        assert np.allclose(t.complex_vector(), np.kron(a.complex_vector(), b.complex_vector()))
        assert abs(exact_norm_sq(t).to_complex() - 1) == 0


def test_validation_rejects_noncanonical():
    with pytest.raises(ValueError):
        # W not echelon (pivot entry 2)
        CanonicalStabilizer(3, 2, [0, 0], [[2], [0]], QuadraticForm.zero(3, 1))
    with pytest.raises(ValueError):
        # x0 not reduced (nonzero at pivot row)
        CanonicalStabilizer(3, 2, [1, 0], [[1], [0]], QuadraticForm.zero(3, 1))
    with pytest.raises(ValueError, match="phase constant must be zero"):
        # nonzero constant term: the form has none, and a record is refused
        phase = {"A": [[0]], "b": [0], "c": 1}
        CanonicalStabilizer.from_record({"p": 3, "n": 1, "k": 1, "x0": [0], "W": [[1]], "phase": phase})
    with pytest.raises(ValueError):
        CanonicalStabilizer(2, 1, [0], [[1]], QuadraticForm.zero(3, 1))


def is_reduced_column_echelon(E):
    """Pivot rows strictly increase, pivot entries are 1, and each pivot row is zero in the other columns."""
    prev = -1
    for j in range(E.shape[1]):
        nz = np.nonzero(E[:, j])[0]
        if len(nz) == 0 or nz[0] <= prev or E[nz[0], j] != 1 or np.count_nonzero(E[nz[0], :]) != 1:
            return False
        prev = nz[0]
    return True


def _accepts(p, n, x0, W):
    try:
        CanonicalStabilizer(p, n, x0, W, QuadraticForm.zero(p, W.shape[1]))
    except ValueError:
        return False
    return True


def _check_canonical_pairs(p, n, k, Ws, x0s):
    """CanonicalStabilizer accepts (W, x0) exactly when W is one of the matrices
    ``_echelon_bases`` enumerates and x0 is zero at its pivot rows."""
    pivots_of = {W.tobytes(): pivots for pivots, W in _echelon_bases(p, n, k)}
    for W in Ws:
        W = W.reshape(n, k)
        pivots = pivots_of.get(W.tobytes())
        assert (pivots is not None) == is_reduced_column_echelon(W)
        for x0 in x0s:
            assert _accepts(p, n, x0, W) == (pivots is not None and not x0[list(pivots)].any())


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_canonical_pairs_are_the_enumerated_ones(p, n):
    # every n x k matrix over F_p and every x0
    for k in range(n + 1):
        _check_canonical_pairs(p, n, k, _all_points(p, n * k), _all_points(p, n))


def test_canonical_pairs_three_qutrits_sampled():
    rng = np.random.default_rng(47)
    for k in range(4):
        enumerated = [W.ravel() for _, W in _echelon_bases(3, 3, k)]
        sample = list(rng.integers(0, 3, size=(300, 3 * k)))
        _check_canonical_pairs(3, 3, k, enumerated + sample, _all_points(3, 3))


def test_record_round_trip():
    rng = np.random.default_rng(7)
    for p, n in ((3, 2), (2, 2)):
        cat = build_catalog(p, n)
        for i in rng.integers(0, len(cat), size=20):
            st = cat.get(int(i))
            rec = json.loads(json.dumps(st.record()))
            assert CanonicalStabilizer.from_record(rec).record() == st.record()
            # the global phase is fixed: a missing phase constant reads as 0
            del rec["phase"]["c"]
            assert CanonicalStabilizer.from_record(rec).record() == st.record()


# ---------------------------------------------------------------------------
# catalog counts: the enumeration's moment of truth
# ---------------------------------------------------------------------------


def test_expected_count_formula():
    assert Catalog.expected_count(3, 1) == 12
    assert Catalog.expected_count(3, 2) == 360
    assert Catalog.expected_count(3, 3) == 30240
    assert Catalog.expected_count(3, 4) == 7439040
    assert Catalog.expected_count(2, 1) == 6
    assert Catalog.expected_count(2, 2) == 60
    assert Catalog.expected_count(2, 4) == 36720


def _assert_one_entry_per_projective_state(p, n):
    """The raw enumeration is its own deduplication: expected_count entries,
    and no two of them the same state up to global phase."""
    cat = build_catalog(p, n)
    assert len(cat) == Catalog.expected_count(p, n)
    V = cat.amplitude_table()[cat.codes()]
    first = V[np.arange(len(V)), np.argmax(np.abs(V) > 1e-9, axis=1)]
    rows = np.round(V * (np.abs(first) / first)[:, None], 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    assert len(np.unique(rows.view(np.float64), axis=0)) == len(cat)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (2, 1), (2, 2), (2, 3)])
def test_raw_equals_dedupe_small(p, n):
    _assert_one_entry_per_projective_state(p, n)


def test_raw_equals_dedupe_three_qutrits():
    _assert_one_entry_per_projective_state(3, 3)


def test_raw_equals_dedupe_four_qubits():
    _assert_one_entry_per_projective_state(2, 4)


def test_four_qutrit_catalog_is_lazy():
    cat = build_catalog(3, 4)
    assert len(cat) == 7439040
    st = cat.get(5_000_000)
    assert st.n == 4
    assert abs(np.linalg.norm(st.complex_vector()) - 1) < 1e-12
    assert cat.get(0).k == 0
    assert cat.get(len(cat) - 1).k == 4


def test_catalog_states_are_valid_and_normalized():
    for p, n in ((3, 2), (2, 2)):
        cat = build_catalog(p, n)
        for i in range(len(cat)):
            st = cat.get(i)
            st._validate()
            assert exact_norm_sq(st) == CycloNumber.one()
            assert np.count_nonzero(st.complex_vector()) == p**st.k


def test_single_qutrit_catalog_is_mub():
    # 12 states on one qutrit form 4 mutually unbiased bases: pairwise
    # overlaps are 0 (same basis) or 1/sqrt(3)
    cat = build_catalog(3, 1)
    vecs = [cat.get(i).complex_vector() for i in range(len(cat))]
    assert len(vecs) == 12
    for i in range(12):
        for j in range(i + 1, 12):
            ov = abs(np.vdot(vecs[i], vecs[j]))
            assert min(abs(ov - 0), abs(ov - 3**-0.5)) < 1e-12


def test_catalog_order_is_deterministic():
    a = build_catalog(3, 2)
    b = build_catalog(3, 2)
    idx = np.random.default_rng(11).integers(0, len(a), size=30)
    for i in idx:
        assert a.get(int(i)).record() == b.get(int(i)).record()
    assert a.content_hash() == b.content_hash()


def test_catalog_export(tmp_path):
    cat = build_catalog(2, 2)
    path = tmp_path / "cat.jsonl"
    path.write_text("".join(cat.jsonl_chunks()))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "format": "stabdecomp-catalog", "version": 1, "p": 2, "n": 2, "mode": "raw", "count": 60,
        "sha256": cat.content_hash(),
    }
    assert len(lines) == 61
    # body hash re-derivable from the file alone
    import hashlib

    h = hashlib.sha256()
    for line in lines[1:]:
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == header["sha256"]
    # entries parse back into valid states
    st = CanonicalStabilizer.from_record(json.loads(lines[1]))
    assert st.p == 2 and st.n == 2


# ---------------------------------------------------------------------------
# magic-state targets
# ---------------------------------------------------------------------------


def test_magic_single_copies():
    s = magic_state("S").complex_vector()
    assert np.allclose(s, np.array([0, 1, -1]) / np.sqrt(2))
    nstate = magic_state("N").complex_vector()
    assert np.allclose(nstate, np.array([1, 1, -2]) / np.sqrt(6))
    c = (np.sqrt(3) - 1) / 2
    nn = np.sqrt(3 - np.sqrt(3))
    h3 = magic_state("H3").complex_vector()
    assert np.allclose(h3, np.array([1, c, c]) / nn)
    w9 = np.exp(2j * np.pi / 9)
    t3 = magic_state("T3").complex_vector()
    assert np.allclose(t3, np.array([1, w9, w9**2]) / np.sqrt(3))
    h = magic_state("H").complex_vector()
    assert np.allclose(h, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


def exact_target_norm(target):
    """The exact squared norm of the target: its numerators' squared norm over N^(2 npow)."""
    total = CycloNumber.zero()
    for a in target.amps:
        total = total + a * a.conjugate()
    return total / n_squared_factor(0, 2 * target.npow)


@pytest.mark.parametrize("name", ["S", "N", "H3", "T3", "H"])
def test_magic_powers_exact_norm(name):
    for m in (1, 2, 3):
        t = magic_power(name, m)
        assert exact_target_norm(t) == 1
        vec = t.complex_vector()
        assert abs(np.vdot(vec, vec) - 1) < 1e-13
        single = magic_state(name).complex_vector()
        want = np.array([1.0])
        for _ in range(m):
            want = np.kron(want, single)
        assert np.allclose(vec, want, atol=1e-14)


def test_h3_n_power_bookkeeping():
    t = magic_power("H3", 3)
    assert t.npow == 3
    assert [magic_power(name, 3).npow for name in ("S", "N", "T3", "H")] == [0, 0, 0, 0]
    # c = (sqrt3-1)/2 satisfies 1 + 2 c^2 = 3 - sqrt3 exactly
    c = (sqrt3() - CycloNumber.one()) / 2
    assert CycloNumber.one() + 2 * c * c == CycloNumber.from_rational(3) - sqrt3()


def test_qubit_t_even_powers():
    t = magic_power("T", 4)
    beta = 0.5 * np.arccos(1 / np.sqrt(3))
    single = np.array([np.cos(beta), np.exp(1j * np.pi / 4) * np.sin(beta)])
    want = np.array([1.0])
    for _ in range(4):
        want = np.kron(want, single)
    assert np.allclose(t.complex_vector(), want, atol=1e-14)
    assert exact_target_norm(t) == 1
    with pytest.raises(ValueError):
        magic_power("T", 3)


def test_n_squared_factor_clears_even_differences():
    one = CycloNumber.one()
    n2 = CycloNumber.from_rational(3) - sqrt3()
    assert n_squared_factor(1, 1) == one and n_squared_factor(0, 0) == one
    assert n_squared_factor(1, 3) == n2  # 1/N == N^2/N^3
    assert n_squared_factor(0, 4) == n2 * n2
    for npow, d in ((1, 2), (0, 3), (3, 1), (2, 0)):  # odd or negative differences
        with pytest.raises(ValueError, match="cannot clear N power %d to N power %d" % (npow, d)):
            n_squared_factor(npow, d)
    # the floats divide each numerator by N^npow
    (inv_n,) = n_scaled_complex([one], 1)
    assert abs(inv_n - 1 / np.sqrt(3 - np.sqrt(3))) < 1e-15
    assert n_scaled_complex([n2, one], 2) == pytest.approx([1.0, 1 / (3 - np.sqrt(3))], abs=1e-15)
