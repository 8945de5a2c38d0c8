import hashlib
import json

import numpy as np
import pytest

from stabdecomp import gadget
from stabdecomp.algebra import CycloNumber, omega
from stabdecomp.clifford import (
    enumerate_symplectic,
    gate_matrix,
    generate_clifford_group,
    parse_word,
    synthesize,
    weyl_matrix,
    word_to_matrix,
)
from stabdecomp.gadget import (
    ATOL_CLIFFORD,
    ATOL_UNITARY,
    CLASS_CLIFFORD,
    CLASS_NONCLIFFORD,
    CLASS_NONE,
    GadgetReport,
    branch_operator,
    check_reduction,
    replay_protocol,
    sweep_injection,
    sweep_two_copy,
)
from stabdecomp.stabilizer import magic_state

H3_WORD = "H1 SUM H1 SUM H1 S2 SUM H1 H2^2"
N_WORD = "H1 H2 SUM H1^3 H2 SUM H1"


def rand_word(rng, n, length):
    word = []
    for _ in range(length):
        kind = rng.integers(0, 3)
        if kind == 0:
            word.append(("H", (int(rng.integers(0, n)),), int(rng.integers(1, 4))))
        elif kind == 1:
            word.append(("S", (int(rng.integers(0, n)),), int(rng.integers(1, 3))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            word.append(("SUM", (int(c), int(t)), int(rng.integers(1, 3))))
    return word


# ---------------------------------------------------------------------------
# branch operators
# ---------------------------------------------------------------------------


def test_branch_operator_identity():
    for name in ("S", "N", "H3", "T3"):
        m = magic_state(name).complex_vector()
        for k in range(3):
            E = branch_operator(np.eye(9), m, k)
            assert np.allclose(E, m[k] * np.eye(3), atol=1e-14)


def test_branch_operator_sum_is_selector():
    SUM = gate_matrix("SUM", 2, (0, 1))
    ket0 = np.array([1, 0, 0], dtype=np.complex128)
    for k in range(3):
        E = branch_operator(SUM, ket0, k)
        want = np.zeros((3, 3))
        want[k, k] = 1  # SUM copies the data digit into the ancilla
        assert np.allclose(E, want)


def test_branch_operator_validation():
    with pytest.raises(ValueError):
        branch_operator(np.eye(3), np.zeros(3), 0)
    with pytest.raises(ValueError):
        branch_operator(np.eye(9), np.zeros(9), 0)


def test_check_reduction_random():
    rng = np.random.default_rng(79)
    m = magic_state("H3").complex_vector()
    for _ in range(110):
        C = word_to_matrix(rand_word(rng, 2, 6), 2)
        D = weyl_matrix(1, [rng.integers(0, 3)], [rng.integers(0, 3)])
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        assert check_reduction(D, a, b, C, m)
    # dropping the omega^{b(k-a)} phase must break the identity: with D = 1, a = 0,
    # b = 1 and C = 1 the two sides differ by omega^k on the branches k = 1, 2
    W = np.kron(np.eye(3), weyl_matrix(1, [0], [1]))
    gaps = [np.abs(branch_operator(W, m, k) - branch_operator(np.eye(9), m, k)).max() for k in range(3)]
    assert gaps[0] == 0 and min(gaps[1:]) > 0.1
    assert check_reduction(np.eye(3), 0, 1, np.eye(9), m)


# ---------------------------------------------------------------------------
# the branch classifier, and the per-branch oracle it replaced: one data vector
# at a time, the rule ``gadget._classify`` applies to whole stacks
# ---------------------------------------------------------------------------


def is_phase_state(v: np.ndarray, atol: float = ATOL_UNITARY):
    """(True, relative phases) when all moduli match within atol, else (False, None)."""
    v = np.asarray(v, dtype=np.complex128)
    mods = np.abs(v)
    if mods.max() <= atol:
        raise ValueError("zero vector has no phase-state classification")
    if mods.max() - mods.min() > atol:
        return False, None
    phases = np.angle(v[1:] / v[0])
    return True, tuple(float(t) for t in phases)


def is_nonclifford_diagonal(phases, atol: float = ATOL_CLIFFORD) -> bool:
    """True when some phase sits further than atol from every multiple of 2pi/3."""
    third = 2 * np.pi / 3
    for theta in phases:
        rem = theta % third
        if min(rem, third - rem) > atol:
            return True
    return False


def classify_branch(v: np.ndarray):
    """(class, phases or None, squared norm) of one branch output."""
    norm2 = float(np.vdot(v, v).real)
    if np.abs(v).max() <= 10 * ATOL_UNITARY:
        return CLASS_NONE, None, norm2
    ok, phases = is_phase_state(v)
    if not ok:
        return CLASS_NONE, None, norm2
    if is_nonclifford_diagonal(phases):
        return CLASS_NONCLIFFORD, phases, norm2
    return CLASS_CLIFFORD, phases, norm2


def classify(vectors) -> list:
    """``gadget._classify`` of one row of branch vectors: (class, phases or None) per branch."""
    V = np.asarray(vectors, dtype=np.complex128)[None]
    _, ks, rel, noncliff, _ = gadget._classify(V)
    out = [(CLASS_NONE, None)] * V.shape[1]
    for k, phases, nc in zip(ks.tolist(), rel.tolist(), noncliff.tolist()):
        out[k] = (CLASS_NONCLIFFORD if nc else CLASS_CLIFFORD, tuple(phases))
    return out


def phase_vector(*phases) -> np.ndarray:
    return np.exp(1j * np.array([0.0, *phases])) / np.sqrt(3)


def test_classify_phase_states():
    a = 1 / np.sqrt(3)
    vectors = [
        phase_vector(np.pi / 2, np.pi / 3),
        magic_state("H3").complex_vector(),
        magic_state("T3").complex_vector(),
        np.zeros(3),
        np.array([a, a, a + 0.9 * ATOL_UNITARY]),  # moduli just inside / outside the tolerance
        np.array([a, a, a + 1.1 * ATOL_UNITARY]),
    ]
    got = classify(vectors)
    assert got[0][0] == CLASS_NONCLIFFORD
    assert got[0][1] == pytest.approx((np.pi / 2, np.pi / 3), abs=1e-12)
    assert got[1] == (CLASS_NONE, None)
    assert got[2][0] == CLASS_NONCLIFFORD
    assert got[3] == (CLASS_NONE, None)  # the zero vector is no phase state
    assert got[4] == (CLASS_CLIFFORD, (0.0, 0.0))
    assert got[5] == (CLASS_NONE, None)
    # the per-branch oracle agrees on every vector; its phase-state predicate alone refuses zero
    assert [classify_branch(v)[:2] for v in vectors] == got
    with pytest.raises(ValueError):
        is_phase_state(np.zeros(3))


def test_classify_nonclifford_phases():
    third = 2 * np.pi / 3
    cases = [
        ((np.pi / 2, np.pi / 3), True),
        ((third, 2 * third), False),
        ((np.pi, np.pi), True),
        ((0.0, -third), False),
        # just inside / outside the tolerance
        ((third + 0.9 * ATOL_CLIFFORD, 0.0), False),
        ((third + 1.1 * ATOL_CLIFFORD, 0.0), True),
    ]
    got = classify([phase_vector(*phases) for phases, _ in cases])
    assert [cls for cls, _ in got] == [CLASS_NONCLIFFORD if nc else CLASS_CLIFFORD for _, nc in cases]
    assert [is_nonclifford_diagonal(phases) for phases, _ in cases] == [nc for _, nc in cases]


# ---------------------------------------------------------------------------
# protocol invariants
# ---------------------------------------------------------------------------


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(83)
    for name in ("S", "N", "H3", "T3"):
        m = magic_state(name).complex_vector()
        for _ in range(5):
            C = word_to_matrix(rand_word(rng, 2, 7), 2)
            total = sum(
                float(np.linalg.norm(branch_operator(C, m, k) @ m) ** 2) for k in range(3)
            )
            assert abs(total - 1) < 1e-12


def test_weyl_prefactor_preserves_classifications():
    # multiset of branch classifications is invariant under C -> (Weyl) C
    rng = np.random.default_rng(89)
    m = magic_state("H3").complex_vector()

    def classes(C):
        return sorted(cls for cls, _ in classify([branch_operator(C, m, k) @ m for k in range(3)]))

    for _ in range(20):
        C = word_to_matrix(rand_word(rng, 2, 6), 2)
        W = np.kron(
            weyl_matrix(1, [rng.integers(0, 3)], [rng.integers(0, 3)]),
            weyl_matrix(1, [rng.integers(0, 3)], [rng.integers(0, 3)]),
        )
        assert classes(C) == classes(W @ C)


def test_norrell_fourier_component_vanishes():
    # the unnormalized DFT of (1, 1, -2): zero at j=0, -3w^2 and -3w elsewhere
    one = CycloNumber.one()
    w = omega()
    c = [one, one, CycloNumber.from_rational(-2)]
    for j, want in ((0, CycloNumber.zero()), (1, -3 * w * w), (2, -3 * w)):
        got = sum((c[y] * w ** (j * y) for y in range(3)), CycloNumber.zero())
        assert got == want
    # numerically: after the first gate of the N protocol (H on the data leg)
    # the data-digit-0 block of the two-copy state vanishes
    m = magic_state("N").complex_vector()
    state = word_to_matrix(parse_word("H1", 2), 2) @ np.kron(m, m)
    assert np.abs(state[:3]).max() < 1e-15


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_h3_protocol():
    rep = replay_protocol(H3_WORD, "H3", 1)
    assert rep.classification == CLASS_NONCLIFFORD
    assert rep.probability == pytest.approx(3 / 8, abs=1e-12)
    assert rep.phases == pytest.approx((np.pi / 2, np.pi / 3), abs=1e-12)


def test_replay_norrell_protocol():
    rep = replay_protocol(N_WORD, "N", 0)
    assert rep.probability == pytest.approx(1 / 4, abs=1e-12)
    want = np.array([1, -1, -1]) / np.sqrt(3)
    got = rep.vector / np.linalg.norm(rep.vector)
    phase = got[0] / want[0]
    assert np.allclose(got, phase * want, atol=1e-12)
    assert abs(abs(rep.phases[0]) - np.pi) < 1e-12
    assert abs(abs(rep.phases[1]) - np.pi) < 1e-12
    assert rep.classification == CLASS_NONCLIFFORD


def test_replay_empty_word():
    for name in ("N", "T3"):
        m = magic_state(name).complex_vector()
        for k in range(3):
            rep = replay_protocol("", name, k)
            assert np.allclose(rep.vector, m[k] * m, atol=1e-14)


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------


def test_sweep_two_copy_h3():
    res = sweep_two_copy("H3")
    assert res.total == 51840 * 3
    nc = res.nonclifford_hits()
    assert nc, "H3 must admit two-copy conversion protocols"
    for r in nc:
        assert abs(r.probability - 3 / 8) < 1e-10
    exact = [
        r
        for r in nc
        if abs(r.phases[0] - np.pi / 2) < 1e-8 and abs(r.phases[1] - np.pi / 3) < 1e-8
    ]
    assert exact, "the canonical (pi/2, pi/3) output must appear in the sweep"


def test_sweep_two_copy_norrell():
    res = sweep_two_copy("N")
    nc = res.nonclifford_hits()
    assert nc
    for r in nc:
        assert abs(r.probability - 1 / 4) < 1e-10
    exact = [
        r
        for r in nc
        if abs(abs(r.phases[0]) - np.pi) < 1e-8 and abs(abs(r.phases[1]) - np.pi) < 1e-8
    ]
    assert exact


def test_sweep_two_copy_strange_has_no_nonclifford_hits():
    res = sweep_two_copy("S")
    assert res.nonclifford_hits() == []
    # S x S does reach phase states, but they all inject Clifford gates
    assert res.counts[CLASS_CLIFFORD] > 0


def test_sweep_injection_t3_positive_control():
    res = sweep_injection("T3")
    assert res.hits, "T3 admits a deterministic injection gadget"
    want = (2 * np.pi / 9, 4 * np.pi / 9)
    canonical = [
        g
        for g in res.hits
        if g.diagonal_phases is not None
        and abs(g.diagonal_phases[0] - want[0]) < 1e-8
        and abs(g.diagonal_phases[1] - want[1]) < 1e-8
    ]
    assert canonical, "diag(1, w9, w9^2) must be recovered"
    g = canonical[0]
    assert set(g.corrections) == {k for k in range(3)} - {g.k_star}


@pytest.mark.parametrize("name", ["S", "H3", "N"])
def test_sweep_injection_other_states_have_no_gadget(name):
    res = sweep_injection(name)
    assert res.hits == []


SWEEP_COUNTS = {
    ("injection", "S"): {"unitary-branches": 10368, "gadgets": 0},
    ("injection", "N"): {"unitary-branches": 14256, "gadgets": 0},
    ("injection", "H3"): {"unitary-branches": 15552, "gadgets": 0},
    ("injection", "T3"): {"unitary-branches": 46656, "gadgets": 31104},
    ("two-copy", "S"): {CLASS_NONCLIFFORD: 0, CLASS_CLIFFORD: 62208, CLASS_NONE: 93312},
    ("two-copy", "N"): {CLASS_NONCLIFFORD: 11664, CLASS_CLIFFORD: 3888, CLASS_NONE: 139968},
    ("two-copy", "H3"): {CLASS_NONCLIFFORD: 10368, CLASS_CLIFFORD: 0, CLASS_NONE: 145152},
    ("two-copy", "T3"): {CLASS_NONCLIFFORD: 8748, CLASS_CLIFFORD: 2916, CLASS_NONE: 143856},
}


@pytest.mark.parametrize("kind,name", sorted(SWEEP_COUNTS))
def test_sweep_counts_pinned(kind, name):
    res = (sweep_injection if kind == "injection" else sweep_two_copy)(name)
    assert res.total == 51840 * 3
    assert res.counts == SWEEP_COUNTS[kind, name]
    if kind == "injection":
        assert len(res.hits) == res.counts["gadgets"]
        ks = [(g.clifford, g.k_star) for g in res.hits]
        assert ks == sorted(ks)
    if (kind, name) == ("injection", "T3"):
        first = [(g.clifford, g.k_star, g.corrections) for g in res.hits[:3]]
        assert first == [(5, 0, {1: 69, 2: 27}), (5, 1, {0: 10, 2: 13}), (5, 2, {0: 30, 1: 3})]
        assert res.hits[-1].clifford == 51825


def test_proportional_to_clifford_batched():
    group = generate_clifford_group()
    rng = np.random.default_rng(103)
    picks = rng.integers(0, 216, size=50)
    scales = rng.uniform(0.2, 3, size=50) * np.exp(2j * np.pi * rng.random(50))
    clifford = scales[:, None, None] * group[picks]
    t9 = np.diag(np.exp(2j * np.pi * np.array([0, 1, 2]) / 9))
    # group[0] is the identity; the check allows 1e-5 per entry
    others = np.stack([t9, group[7] @ t9, np.zeros((3, 3)), np.eye(3) + 1e-4 * t9, np.eye(3) + 1e-6 * t9])
    got = gadget._proportional_to_clifford(np.concatenate([others, clifford]), group)
    assert list(got[:5]) == [-1, -1, -1, -1, 0]
    assert np.array_equal(got[5:], picks)


def test_sweep_injection_branch_that_never_occurs(monkeypatch):
    # C = D x V with V|T3> = |0>: branch 0 injects D = diag(1, w9, w9^2), branches 1
    # and 2 never occur; the identity row's branches are all Clifford
    m = magic_state("T3").complex_vector()
    Q, _ = np.linalg.qr(np.column_stack([m, np.eye(3)[:, 1:]]))
    D = np.diag(np.exp(2j * np.pi * np.arange(3) / 9))
    table = np.stack([np.kron(D, Q.conj().T), np.eye(9)])
    monkeypatch.setattr(gadget, "_symplectic_unitaries", lambda: (None, table))
    res = sweep_injection("T3")
    assert res.counts == {"unitary-branches": 4, "gadgets": 1}
    (g,) = res.hits
    assert (g.clifford, g.k_star, g.corrections) == (0, 0, {1: None, 2: None})
    assert g.diagonal_phases == pytest.approx((2 * np.pi / 9, 4 * np.pi / 9), abs=1e-12)


# ---------------------------------------------------------------------------
# columnar hits and the artifact writer
# ---------------------------------------------------------------------------

# sha256 of the `sweep injection --state T3` artifact without its wall_time line
T3_INJECTION_SHA256 = "24379653eb87d5aa247b0de8d2443f761103337760821c00113ad87e1fc2aa09"


def hit_json(r) -> dict:
    """The artifact object of one GadgetReport or ProtocolReport."""
    if isinstance(r, GadgetReport):
        return {
            "magic": r.magic,
            "clifford": r.clifford,
            "k_star": r.k_star,
            "gate": [[[float(z.real), float(z.imag)] for z in row] for row in r.gate],
            "diagonal_phases": list(r.diagonal_phases) if r.diagonal_phases is not None else None,
            "corrections": r.corrections,
        }
    return {
        "magic": r.magic,
        "clifford": r.clifford,
        "k": r.k,
        "vector": [[float(z.real), float(z.imag)] for z in r.vector],
        "probability": r.probability,
        "phases": list(r.phases) if r.phases is not None else None,
        "classification": r.classification,
    }


def sweep_json(res) -> dict:
    """The artifact payload, one report object per hit: the reference for ``json_chunks``."""
    header = {"magic": res.magic, "kind": res.kind, "total": res.total, "counts": res.counts}
    return {**header, "hits": [hit_json(r) for r in res.hits]}


def _assert_writes_reference(res, **extra):
    """json_chunks gives json.dumps(payload, indent=1) + "\\n"; a mismatch is shown around its first byte."""
    text = "".join(res.json_chunks(**extra))
    want = json.dumps({**sweep_json(res), **extra}, indent=1) + "\n"
    if text != want:
        at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b), min(len(text), len(want)))
        lo = max(at - 200, 0)
        assert text[lo : at + 200] == want[lo : at + 200], (len(text), len(want))
    return text


@pytest.mark.parametrize("kind,name", sorted(SWEEP_COUNTS))
def test_json_chunks_equal_the_json_module(kind, name):
    res = (sweep_injection if kind == "injection" else sweep_two_copy)(name)
    _assert_writes_reference(res, wall_time=0.1 + 0.2)
    hits = len(res.columns["clifford"])
    assert len(list(res.json_chunks(wall_time=1.0))) == (2 + -(-hits // gadget._HIT_CHUNK) if hits else 1)


def test_json_chunks_never_occurring_branch(monkeypatch):
    m = magic_state("T3").complex_vector()
    Q, _ = np.linalg.qr(np.column_stack([m, np.eye(3)[:, 1:]]))
    D = np.diag(np.exp(2j * np.pi * np.arange(3) / 9))
    table = np.stack([np.kron(D, Q.conj().T), np.eye(9)])
    monkeypatch.setattr(gadget, "_symplectic_unitaries", lambda: (None, table))
    res = sweep_injection("T3")
    (g,) = res.hits
    assert g.corrections == {1: None, 2: None} and g.diagonal_phases is not None
    _assert_writes_reference(res, wall_time=2.0)


# -0.0 next to 0.0, the smallest subnormal and every non-finite float
EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf, 1 / 3, -1e300])


def _edge_complex(rng, shape):
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = rng.choice(EDGE_FLOATS, size=shape), rng.choice(EDGE_FLOATS, size=shape)
    return z


def test_json_chunks_edge_values_injection():
    rng = np.random.default_rng(107)
    n = 6
    phases = rng.choice(EDGE_FLOATS, size=(n, 2))
    phases[0] = 0.0, -0.0
    columns = {
        "clifford": np.array([0, 3, 3, 51839, 7, 7]),
        "k_star": np.array([0, 1, 2, 0, 1, 2]),
        "gate": _edge_complex(rng, (n, 3, 3)),
        "diagonal_phases": phases,
        "diagonal_known": np.array([True, False, True, True, False, True]),
        "corrections": np.array([[-1, 5, -1], [215, -1, 0], [-1, -1, -1], [9, 9, 9], [0, 1, 2], [3, -1, 4]]),
    }
    res = gadget.SweepResult("T3", "injection", columns, {"unitary-branches": 9, "gadgets": n}, 155520)
    text = _assert_writes_reference(res, wall_time=-0.0)
    assert all(word in text for word in ("-0.0", "5e-324", "NaN", "-Infinity", "null"))
    assert res.hits[0].diagonal_phases == (0.0, -0.0)
    assert [g.diagonal_phases is None for g in res.hits] == [False, True, False, False, True, False]
    assert res.hits[0].corrections == {1: 5, 2: None}
    assert res.hits[1].corrections == {0: 215, 2: 0}


def test_json_chunks_edge_values_two_copy():
    rng = np.random.default_rng(109)
    n = 5
    columns = {
        "clifford": np.arange(n) * 11,
        "k": np.array([0, 1, 2, 1, 0]),
        "vector": _edge_complex(rng, (n, 3)),
        "probability": EDGE_FLOATS[:n],
        "phases": rng.choice(EDGE_FLOATS, size=(n, 2)),
        "nonclifford": np.array([True, False, False, True, True]),
    }
    counts = {CLASS_NONCLIFFORD: 3, CLASS_CLIFFORD: 2, CLASS_NONE: 7}
    res = gadget.SweepResult("N", "two-copy", columns, counts, 12)
    _assert_writes_reference(res, wall_time=np.inf)
    empty = gadget.SweepResult("N", "two-copy", {key: col[:0] for key, col in columns.items()}, counts, 12)
    assert empty.hits == []
    _assert_writes_reference(empty, wall_time=1.0)


def test_cli_t3_injection_artifact_is_pinned(tmp_path, capsys):
    from stabdecomp import cli

    out = tmp_path / "t3.json"
    assert cli.main(["sweep", "injection", "--state", "T3", "--out", str(out)]) == 0
    assert "deterministic gadgets: 31104" in capsys.readouterr().out
    lines = out.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b'"wall_time"' not in line)
    assert len(kept) < sum(map(len, lines))
    assert hashlib.sha256(kept).hexdigest() == T3_INJECTION_SHA256


def _pauli_diagonal_phases_loop(Ug, atol=1e-8):
    """One matrix at a time: the relative diagonal phases of Ug = phase * W_(a,b) D, or None."""
    col_rows = []
    for j in range(3):
        nz = np.nonzero(np.abs(Ug[:, j]) > atol)[0]
        if len(nz) != 1:
            return None
        col_rows.append(int(nz[0]))
    shift = col_rows[0]
    if [(j + shift) % 3 for j in range(3)] != col_rows:
        return None
    diag = np.array([Ug[(j + shift) % 3, j] for j in range(3)])
    rel = np.angle(diag[1:] / diag[0])
    return (float(rel[0]), float(rel[1]))


def test_pauli_diagonal_phases_matches_the_loop():
    D = np.diag(np.exp(2j * np.pi * np.array([0, 1, 2]) / 9))
    X = weyl_matrix(1, [1], [0])
    crafted = [
        D,
        X @ D,
        X @ X @ weyl_matrix(1, [0], [1]) @ D,
        np.eye(3)[[1, 0, 2]] @ D,  # a permutation that is not a shift
        gate_matrix("H", 1, (0,)),
        np.diag([1.0, 1e-9, 1.0]),  # a column below atol
        np.zeros((3, 3)),
    ]
    gates = sweep_injection("T3").columns["gate"]
    stack = np.concatenate([np.stack(crafted).astype(np.complex128), gates[::7]])
    phases, known = gadget._pauli_diagonal_phases(stack)
    want = [_pauli_diagonal_phases_loop(U) for U in stack]
    assert list(known) == [w is not None for w in want]
    assert list(known[: len(crafted)]) == [True, True, True, False, False, False, False]
    for row, w in zip(phases[known], [w for w in want if w is not None]):
        assert tuple(row.tolist()) == w


def test_lazy_hits_equal_per_branch_reports():
    _, table = gadget._symplectic_unitaries()
    group = generate_clifford_group()
    rng = np.random.default_rng(113)
    res = sweep_injection("T3")
    assert res.hits is res.hits
    m = magic_state("T3").complex_vector()
    for i in rng.choice(len(res.hits), size=60, replace=False):
        g = res.hits[i]
        assert (type(g.clifford), type(g.k_star), g.magic) == (int, int, "T3")
        E = [branch_operator(table[g.clifford], m, k) for k in range(3)]
        Ug = E[g.k_star] / np.sqrt(np.trace(E[g.k_star].conj().T @ E[g.k_star]).real / 3)
        assert np.allclose(g.gate, Ug, atol=1e-12)
        assert np.array_equal(g.gate, res.columns["gate"][i])
        want = _pauli_diagonal_phases_loop(g.gate)
        assert g.diagonal_phases == want
        assert g.diagonal_phases is None or all(type(t) is float for t in g.diagonal_phases)
        fixes = {
            k: None
            if np.linalg.norm(E[k]) < 1e-10
            else int(gadget._proportional_to_clifford((E[k] @ Ug.conj().T)[None], group)[0])
            for k in range(3)
            if k != g.k_star
        }
        assert g.corrections == fixes
        assert all(type(v) is int for v in g.corrections.values() if v is not None)

    for name in ("N", "H3"):
        res = sweep_two_copy(name)
        m = magic_state(name).complex_vector()
        for i in rng.choice(len(res.hits), size=40, replace=False):
            r = res.hits[i]
            v = branch_operator(table[r.clifford], m, r.k) @ m
            cls, phases, norm2 = classify_branch(v)
            assert (r.magic, r.classification) == (name, cls)
            assert (type(r.clifford), type(r.k), type(r.probability)) == (int, int, float)
            assert np.allclose(r.vector, v, atol=1e-12)
            assert r.probability == pytest.approx(norm2, abs=1e-12)
            assert r.phases == pytest.approx(phases, abs=1e-9)
            assert all(type(t) is float for t in r.phases)


def test_nonclifford_hits_injection_and_two_copy():
    # every injection gadget injects a non-Clifford gate by construction
    res = sweep_injection("T3")
    nc = res.nonclifford_hits()
    assert len(nc) == 31104 == res.counts["gadgets"]
    assert "hits" not in vars(res)  # read from the columns, not from the cached full list
    assert [hit_json(g) for g in nc[::97]] == [hit_json(g) for g in res.hits[::97]]
    # two-copy: exactly the hits classified non-Clifford, in sweep order, and only those are built
    for name in ("N", "H3", "S"):
        res = sweep_two_copy(name)
        nc = res.nonclifford_hits()
        assert "hits" not in vars(res)
        assert len(nc) == res.counts[CLASS_NONCLIFFORD]
        want = [r for r in res.hits if r.classification == CLASS_NONCLIFFORD]
        assert [hit_json(r) for r in nc] == [hit_json(r) for r in want]


@pytest.fixture(scope="module")
def sp4_words():
    return synthesize(enumerate_symplectic(2))


@pytest.mark.parametrize("name", ["S", "N", "H3", "T3"])
def test_replay_agrees_with_the_sweep(name, sp4_words):
    # replay_protocol reads a word chronologically and reverses it into an operator
    # product, so the reversed gate word of Sp(4,3) element e replays sweep row e
    res = sweep_two_copy(name)
    c = res.columns
    hit_of = {(e, k): i for i, (e, k) in enumerate(zip(c["clifford"].tolist(), c["k"].tolist()))}
    _, table = gadget._symplectic_unitaries()
    m = magic_state(name).complex_vector()
    rng = np.random.default_rng(131)
    rows = np.concatenate([rng.choice(np.unique(c["clifford"]), size=12, replace=False), rng.integers(0, 51840, size=12)])
    seen = set()
    for e in rows.tolist():
        for k in range(3):
            rep = replay_protocol(sp4_words[e][::-1], name, k)
            i = hit_of.get((e, k))
            if i is None:
                assert (rep.classification, rep.phases) == (CLASS_NONE, None)
                want = float(np.linalg.norm(branch_operator(table[e], m, k) @ m) ** 2)
            else:
                assert rep.classification == (CLASS_NONCLIFFORD if c["nonclifford"][i] else CLASS_CLIFFORD)
                want = c["probability"][i]
                # phases compared on the circle: a phase of pi may come out as -pi
                turn = np.angle(np.exp(1j * (np.array(rep.phases) - c["phases"][i])))
                assert np.abs(turn).max() < 1e-9
            assert rep.probability == pytest.approx(want, abs=1e-12)
            seen.add(rep.classification)
    assert CLASS_NONE in seen and len(seen) >= 2
