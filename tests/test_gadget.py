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
    branch_operator,
    check_reduction,
    replay_protocol,
    sweep_injection,
    sweep_two_copy,
)
from stabdecomp.stabilizer import magic_state

# operator products, as format_word prints them: the rightmost gate acts first
H3_WORD = "H2^2 H1 SUM12 S2 H1 SUM12 H1 SUM12 H1"
N_WORD = "H1 SUM12 H2 H1^3 SUM12 H2 H1"


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
    # numerically: after the first gate of the N protocol (its rightmost, H on the data leg)
    # the data-digit-0 block of the two-copy state vanishes
    m = magic_state("N").complex_vector()
    state = word_to_matrix(parse_word("H1", 2), 2) @ np.kron(m, m)
    assert np.abs(state[:3]).max() < 1e-15


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_h3_protocol():
    rep = replay_protocol(H3_WORD, "H3", 1)
    assert rep.clifford == H3_WORD
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


def nonclifford_rows(res) -> dict:
    """The columns of a two-copy sweep's hits classified non-Clifford."""
    nc = res.columns["nonclifford"]
    return {key: col[nc] for key, col in res.columns.items()}


def test_sweep_two_copy_h3():
    res = sweep_two_copy("H3")
    assert res.total == 51840 * 3
    nc = nonclifford_rows(res)
    assert len(nc["clifford"]), "H3 must admit two-copy conversion protocols"
    assert (np.abs(nc["probability"] - 3 / 8) < 1e-10).all()
    phases = nc["phases"]
    exact = (np.abs(phases[:, 0] - np.pi / 2) < 1e-8) & (np.abs(phases[:, 1] - np.pi / 3) < 1e-8)
    assert exact.any(), "the canonical (pi/2, pi/3) output must appear in the sweep"


def test_sweep_two_copy_norrell():
    res = sweep_two_copy("N")
    nc = nonclifford_rows(res)
    assert len(nc["clifford"])
    assert (np.abs(nc["probability"] - 1 / 4) < 1e-10).all()
    assert (np.abs(np.abs(nc["phases"]) - np.pi) < 1e-8).all(axis=1).any()


def test_sweep_two_copy_strange_has_no_nonclifford_hits():
    res = sweep_two_copy("S")
    assert not res.columns["nonclifford"].any()
    # S x S does reach phase states, but they all inject Clifford gates
    assert res.counts[CLASS_CLIFFORD] > 0


def test_sweep_injection_t3_positive_control():
    res = sweep_injection("T3")
    c = res.columns
    assert len(c["clifford"]), "T3 admits a deterministic injection gadget"
    want = (2 * np.pi / 9, 4 * np.pi / 9)
    canonical = c["diagonal_known"] & (np.abs(c["diagonal_phases"] - want) < 1e-8).all(axis=1)
    assert canonical.any(), "diag(1, w9, w9^2) must be recovered"
    i = np.flatnonzero(canonical)[0]
    # every branch other than k* is a Clifford correction (an index into the 216 group) or never occurs
    others = [k for k in range(3) if k != c["k_star"][i]]
    assert ((c["corrections"][i, others] >= -1) & (c["corrections"][i, others] < 216)).all()


@pytest.mark.parametrize("name", ["S", "H3", "N"])
def test_sweep_injection_other_states_have_no_gadget(name):
    res = sweep_injection(name)
    assert len(res.columns["clifford"]) == 0


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
    c = res.columns
    if kind == "injection":
        assert len(c["clifford"]) == res.counts["gadgets"]
        ks = list(zip(c["clifford"].tolist(), c["k_star"].tolist()))
        assert ks == sorted(ks)
    else:
        assert int(c["nonclifford"].sum()) == res.counts[CLASS_NONCLIFFORD]
        assert len(c["clifford"]) == res.counts[CLASS_NONCLIFFORD] + res.counts[CLASS_CLIFFORD]
    if (kind, name) == ("injection", "T3"):
        first = [(g["clifford"], g["k_star"], g["corrections"]) for g in hit_objects(res)[:3]]
        assert first == [(5, 0, {1: 69, 2: 27}), (5, 1, {0: 10, 2: 13}), (5, 2, {0: 30, 1: 3})]
        assert c["clifford"][-1] == 51825


def test_sweeps_stream_the_table_in_bounded_memory():
    # the sweeps hold one 4,096-row chunk of unitaries at a time, never the 67 MB table
    import tracemalloc

    sweep_injection("S")  # warm-up: the words, the gate matrices and the group are cached
    tracemalloc.start()
    try:
        for sweep, name in ((sweep_injection, "S"), (sweep_injection, "T3"), (sweep_two_copy, "N")):
            tracemalloc.reset_peak()
            sweep(name)
            assert tracemalloc.get_traced_memory()[1] < 40e6, name
    finally:
        tracemalloc.stop()


def test_table_words_build_in_bounded_memory():
    # the gate powers stay int8 from the row reduction to the words: an int64
    # power stack and its negation raise the peak from about 10 MB to 17 MB
    import tracemalloc

    synthesize(enumerate_symplectic(2))  # warm-up: the row tables are cached
    tracemalloc.start()
    try:
        synthesize(enumerate_symplectic(2))
        assert tracemalloc.get_traced_memory()[1] < 12e6
    finally:
        tracemalloc.stop()


def test_proportional_to_clifford_batched():
    group = generate_clifford_group()
    rng = np.random.default_rng(103)
    picks = rng.integers(0, 216, size=50)
    scales = rng.uniform(0.2, 3, size=50) * np.exp(2j * np.pi * rng.random(50))
    clifford = scales[:, None, None] * group[picks]
    t9 = np.diag(np.exp(2j * np.pi * np.array([0, 1, 2]) / 9))
    # group[0] is the identity; the check allows 1e-5 per entry
    others = np.stack([t9, group[7] @ t9, np.zeros((3, 3)), np.eye(3) + 1e-4 * t9, np.eye(3) + 1e-6 * t9])
    stack = np.concatenate([others, clifford])
    got = gadget._proportional_to_clifford(stack, group)
    assert list(got[:5]) == [-1, -1, -1, -1, 0]
    assert np.array_equal(got[5:], picks)
    assert np.array_equal(got, _screen_all_216(stack, group))


def _screen_all_216(M, group):
    """Reference screen: every group element G whose overlap with M passes the
    |tr(G^dag M)| = sqrt(3) ||M|| screen is checked entrywise; the lowest passing
    index per operator, or -1."""
    out = np.full(len(M), -1, dtype=np.int64)
    fro = np.linalg.norm(M, axis=(1, 2))
    group_dag = group.reshape(len(group), -1).conj().T
    for lo in range(0, len(M), 1024):
        Mc, fc = M[lo : lo + 1024], fro[lo : lo + 1024]
        overlaps = Mc.reshape(len(Mc), -1) @ group_dag
        with np.errstate(divide="ignore", invalid="ignore"):
            screen = np.abs(np.abs(overlaps) / (np.sqrt(3) * fc[:, None]) - 1) < 1e-3
        screen &= (fc >= 1e-12)[:, None]
        ks, gs = np.nonzero(screen)
        mu = overlaps[ks, gs] / 3.0
        err = np.abs(Mc[ks] - mu[:, None, None] * group[gs]).max(axis=(1, 2))
        ok = err <= ATOL_CLIFFORD * np.maximum(1.0, np.abs(mu))
        hit, first = np.unique(ks[ok], return_index=True)
        out[lo + hit] = gs[ok][first]
    return out


# per state: the sizes of the stacks the injection sweep screens (its unitary branches,
# then the correction products of branch k = 0, 1, 2), and how many of each are Clifford
SCREEN_INPUTS = {
    "S": ([10368, 0, 0, 0], [10368, 0, 0, 0]),
    "N": ([14256, 0, 0, 0], [14256, 0, 0, 0]),
    "H3": ([15552, 0, 0, 0], [15552, 0, 0, 0]),
    "T3": ([46656, 20736, 20736, 20736], [15552, 20736, 20736, 20736]),
}


def _screen_inputs(monkeypatch, name):
    """The stacks ``sweep_injection(name)`` hands ``_proportional_to_clifford``, in call order."""
    screen, inputs = gadget._proportional_to_clifford, []
    monkeypatch.setattr(gadget, "_proportional_to_clifford", lambda M, group: inputs.append(M) or screen(M, group))
    sweep_injection(name)
    monkeypatch.setattr(gadget, "_proportional_to_clifford", screen)
    return inputs


@pytest.mark.parametrize("name", sorted(SCREEN_INPUTS))
def test_one_candidate_screen_equals_the_216_screen(monkeypatch, name):
    inputs = _screen_inputs(monkeypatch, name)
    sizes, clifford = SCREEN_INPUTS[name]
    assert [len(M) for M in inputs] == sizes
    group = generate_clifford_group()
    found = []
    for M in inputs:
        got = gadget._proportional_to_clifford(M, group)
        assert np.array_equal(got, _screen_all_216(M, group))
        found.append(int((got >= 0).sum()))
    # S, N and H3 have no non-Clifford unitary branch; for T3 a third of them are
    # Clifford, and every correction product is
    assert found == clifford


def test_key_lookup_margin_covers_every_screened_norm(monkeypatch):
    # The norm above which _proportional_to_clifford's key lookup misses no passing
    # operator.  Write a passing M as mu G + D, |D_ij| <= d = ATOL_CLIFFORD * max(1, |mu|),
    # and t = d / |mu|.  Then ||D||_F <= 3d, so ||M||_F is within a factor 1 +- sqrt(3) t
    # of sqrt(3) |mu|; for t < 1/(3 sqrt(3)) the entries above ||M||_F / 6 are those where
    # G is nonzero (modulus 1/sqrt(3) or 1), so the pivot is G's; its phase moves by at most
    # 2 sqrt(3) t, as |u/|u| - v/|v|| <= 2 |u - v| / |v|; so each normalised entry moves by
    # at most (3 sqrt(3) + 1) t / (1 - sqrt(3) t).  That stays below the group's margin m to
    # a rounding boundary for t < t* = m / (3 sqrt(3) + 1 + sqrt(3) m).  For |mu| >= 1,
    # t = ATOL_CLIFFORD; below, t = ATOL_CLIFFORD / |mu| and ||M||_F <= sqrt(3) |mu| +
    # 3 ATOL_CLIFFORD, so t < t* once ||M||_F > sqrt(3) ATOL_CLIFFORD / t* + 3 ATOL_CLIFFORD.
    group = generate_clifford_group()
    flat = group.reshape(216, 9)
    pivot = flat[np.arange(216), (np.abs(flat) > np.sqrt(3) / 6).argmax(axis=1)]
    z = flat * (pivot.conj() / np.abs(pivot))[:, None]
    x = np.concatenate([z.real, z.imag], axis=1) * gadget._KEY_GRID
    margin = np.abs(x - np.floor(x) - 0.5).min() / gadget._KEY_GRID
    assert margin > 0.01485
    t_star = margin / (3 * np.sqrt(3) + 1 + np.sqrt(3) * margin)
    norm_bound = np.sqrt(3) * ATOL_CLIFFORD / t_star + 3 * ATOL_CLIFFORD
    assert 2.38e-3 < t_star < 2.39e-3 and 7.2e-3 < norm_bound < 7.3e-3
    # the sweeps screen nothing near it: every stack holds norms of 1 or more
    inputs = _screen_inputs(monkeypatch, "T3")
    assert min(np.linalg.norm(M, axis=(1, 2)).min() for M in inputs) > 1 - 1e-12 > norm_bound
    # just above it, operators off a Clifford by up to ATOL_CLIFFORD per entry are keyed to it
    rng = np.random.default_rng(131)
    count = 4000
    picks = rng.integers(0, 216, size=count)
    mu = norm_bound / np.sqrt(3) * rng.uniform(1.01, 3, size=count) * np.exp(2j * np.pi * rng.random(count))
    noise = ATOL_CLIFFORD * np.exp(2j * np.pi * rng.random((count, 3, 3))) * rng.uniform(0.5, 1, (count, 3, 3))
    M = mu[:, None, None] * group[picks] + noise
    got = gadget._proportional_to_clifford(M, group)
    assert np.array_equal(got, _screen_all_216(M, group))
    assert (got >= 0).sum() > count // 2 and np.array_equal(got[got >= 0], picks[got >= 0])
    assert np.array_equal(gadget._proportional_to_clifford(np.zeros((2, 3, 3)), group), [-1, -1])


def test_one_candidate_screen_near_the_tolerance():
    # scaled Cliffords plus noise from 1e-7 to 1e-3 per entry: both sides of ATOL_CLIFFORD
    group = generate_clifford_group()
    rng = np.random.default_rng(113)
    count = 2000
    scales = rng.uniform(0.05, 4, size=count) * np.exp(2j * np.pi * rng.random(count))
    noise = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    amplitude = 10 ** rng.uniform(-7, -3, size=count)
    M = scales[:, None, None] * group[rng.integers(0, 216, size=count)] + amplitude[:, None, None] * noise
    got = gadget._proportional_to_clifford(M, group)
    assert (got >= 0).sum() > count // 4 and (got < 0).sum() > count // 4
    assert np.array_equal(got, _screen_all_216(M, group))


def test_sweep_injection_branch_that_never_occurs(monkeypatch):
    # C = D x V with V|T3> = |0>: branch 0 injects D = diag(1, w9, w9^2), branches 1
    # and 2 never occur; the identity row's branches are all Clifford
    m = magic_state("T3").complex_vector()
    Q, _ = np.linalg.qr(np.column_stack([m, np.eye(3)[:, 1:]]))
    D = np.diag(np.exp(2j * np.pi * np.arange(3) / 9))
    table = np.stack([np.kron(D, Q.conj().T), np.eye(9)])
    monkeypatch.setattr(gadget, "_table_chunks", lambda: iter([(np.arange(2), table)]))
    res = sweep_injection("T3")
    assert res.counts == {"unitary-branches": 4, "gadgets": 1}
    (g,) = hit_objects(res)
    assert (g["clifford"], g["k_star"], g["corrections"]) == (0, 0, {1: None, 2: None})
    assert g["diagonal_phases"] == pytest.approx([2 * np.pi / 9, 4 * np.pi / 9], abs=1e-12)


# ---------------------------------------------------------------------------
# columnar hits and the artifact writer
# ---------------------------------------------------------------------------

# sha256 of the `sweep injection --state T3` artifact without its wall_time line
T3_INJECTION_SHA256 = "422ea87e421e10a3fc8fa88db37e692d80153ab2fe38f225157b1ea4096a2a7c"


def hit_objects(res) -> list[dict]:
    """The artifact object of each hit, built one row at a time from the columns."""
    c = {key: col.tolist() for key, col in res.columns.items()}
    if res.kind == "injection":
        return [
            {
                "magic": res.magic,
                "clifford": e,
                "k_star": k_star,
                "gate": [[[z.real, z.imag] for z in row] for row in gate],
                "diagonal_phases": phases if known else None,
                "corrections": {k: (None if fix[k] < 0 else fix[k]) for k in range(3) if k != k_star},
            }
            for e, k_star, gate, phases, known, fix in zip(
                c["clifford"], c["k_star"], c["gate"], c["diagonal_phases"], c["diagonal_known"], c["corrections"]
            )
        ]
    return [
        {
            "magic": res.magic,
            "clifford": e,
            "k": k,
            "vector": [[z.real, z.imag] for z in vector],
            "probability": p,
            "phases": phases,
            "classification": CLASS_NONCLIFFORD if nc else CLASS_CLIFFORD,
        }
        for e, k, vector, p, phases, nc in zip(
            c["clifford"], c["k"], c["vector"], c["probability"], c["phases"], c["nonclifford"]
        )
    ]


def sweep_json(res) -> dict:
    """The artifact payload, one object per hit: the reference for ``json_chunks``."""
    header = {"format": "stabdecomp-sweep", "version": 1, "magic": res.magic, "kind": res.kind}
    return {**header, "total": res.total, "counts": res.counts, "hits": hit_objects(res)}


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


def test_json_chunks_format_each_distinct_value_once(monkeypatch):
    # one json.dumps per column group over the whole artifact: the T3 chunks used to
    # format 106,078 floats between them, one list per chunk
    res = sweep_injection("T3")
    c = res.columns
    bits = lambda x: len(np.unique(np.ascontiguousarray(x).view(np.uint64)))  # noqa: E731
    ints = len(np.unique(np.concatenate([c["clifford"], c["k_star"], c["corrections"].ravel()])))
    distinct = ints + bits(c["gate"]) + bits(c["diagonal_phases"][c["diagonal_known"]])
    dumps, counted = json.dumps, []

    def counting_dumps(obj, **kw):
        if isinstance(obj, list) and not any(isinstance(v, str) for v in obj):
            counted.append(len(obj))
        return dumps(obj, **kw)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    for _ in res.json_chunks(wall_time=1.0):
        pass
    monkeypatch.setattr(json, "dumps", dumps)
    assert counted == [10427, 16854, 129] and sum(counted) == distinct  # ints, gate floats, diagonal phases


def test_json_chunks_hold_one_chunk_of_text_at_a_time():
    # the T3 artifact is 25 MB of text; consumed a chunk at a time the writer peaked at
    # 7.7 MB when it formatted each chunk on its own, and holds about 1.7 MB more now,
    # the text of every distinct value
    import tracemalloc

    res = sweep_injection("T3")
    tracemalloc.start()
    try:
        for _ in res.json_chunks(wall_time=1.0):
            pass
        assert tracemalloc.get_traced_memory()[1] < 11.5e6
    finally:
        tracemalloc.stop()


def test_json_chunks_never_occurring_branch(monkeypatch):
    m = magic_state("T3").complex_vector()
    Q, _ = np.linalg.qr(np.column_stack([m, np.eye(3)[:, 1:]]))
    D = np.diag(np.exp(2j * np.pi * np.arange(3) / 9))
    table = np.stack([np.kron(D, Q.conj().T), np.eye(9)])
    monkeypatch.setattr(gadget, "_table_chunks", lambda: iter([(np.arange(2), table)]))
    res = sweep_injection("T3")
    text = _assert_writes_reference(res, wall_time=2.0)
    (g,) = json.loads(text)["hits"]
    assert g["corrections"] == {"1": None, "2": None} and g["diagonal_phases"] is not None


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
    hits = json.loads(text)["hits"]
    assert [str(t) for t in hits[0]["diagonal_phases"]] == ["0.0", "-0.0"]
    assert [g["diagonal_phases"] is None for g in hits] == [False, True, False, False, True, False]
    assert hits[0]["corrections"] == {"1": 5, "2": None}
    assert hits[1]["corrections"] == {"0": 215, "2": 0}


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
    assert json.loads(_assert_writes_reference(empty, wall_time=1.0))["hits"] == []


def test_json_texts_are_the_json_module():
    rng = np.random.default_rng(127)
    ints = np.concatenate([[0, -1, 1, 215, 51839, -(2**63), 2**63 - 1], rng.integers(-(10**12), 10**12, 200)])
    floats = np.concatenate([EDGE_FLOATS, [2.2e-308, -5e-324, 1e16, 0.1 + 0.2], rng.normal(size=200)])
    for x in (ints.reshape(-1, 3), floats.reshape(-1, 3), rng.choice(floats, size=(7, 5, 2))):
        texts = gadget._json_texts(x)
        for part in (x, x[1:3], x[::-2]):
            got = texts(part)
            assert got.shape == part.shape
            assert got.ravel().tolist() == [json.dumps(v) for v in part.ravel().tolist()]
    assert gadget._json_texts(np.zeros((0, 3)))(np.zeros((0, 3))).shape == (0, 3)


# sha256 of each `sweep KIND --state NAME` artifact without its wall_time line
SWEEP_SHA256 = {
    ("twocopy", "S"): "4f4308302d434e5a424a38eb59a860843f919245a06ab76a8a73b6b9d50d144a",
    ("twocopy", "N"): "adbb2b2d9875e810ecacc09a567e6c0959ba72e4ab0a46dea8dac1dc1ba83325",
    ("twocopy", "H3"): "4ee355f2857f8dbb628a0b315051054530f6a5cf189414663259c9a220ea3a39",
    ("twocopy", "T3"): "d564f4df0059d950d911f6d1e363a8f9d146649d5680e6dd63075563a40b6156",
    ("injection", "S"): "9077ca315787c90e0f11eb85fca269f1c4ed6103a0ff689d0b3d0e17605f7353",
    ("injection", "N"): "2d9b47c91e33ef2b1813db8d06f5fda65e0e34dd6f534826f44b904a68e3a161",
    ("injection", "H3"): "33e0ec4b1acc0fa175c505d36b143473c3d6760f127d31eb42cc1e399062b4d6",
    ("injection", "T3"): T3_INJECTION_SHA256,
}


# the T3 injection artifact has its own test below
@pytest.mark.parametrize("kind,name", sorted(set(SWEEP_SHA256) - {("injection", "T3")}))
def test_cli_sweep_artifacts_are_pinned(tmp_path, kind, name):
    from stabdecomp import cli

    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", kind, "--state", name, "--out", str(out)]) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b'"wall_time"' not in line)
    assert len(kept) < sum(map(len, lines))
    assert hashlib.sha256(kept).hexdigest() == SWEEP_SHA256[kind, name]


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


def test_hit_columns_equal_per_branch_recomputation(sp4_words):
    # row e of the table is the operator product of word e
    group = generate_clifford_group()
    rng = np.random.default_rng(113)
    res = sweep_injection("T3")
    c = res.columns
    m = magic_state("T3").complex_vector()
    for i in rng.choice(len(c["clifford"]), size=60, replace=False):
        e, k_star, gate = int(c["clifford"][i]), int(c["k_star"][i]), c["gate"][i]
        E = [branch_operator(word_to_matrix(sp4_words[e], 2), m, k) for k in range(3)]
        Ug = E[k_star] / np.sqrt(np.trace(E[k_star].conj().T @ E[k_star]).real / 3)
        assert np.allclose(gate, Ug, atol=1e-12)
        want = _pauli_diagonal_phases_loop(gate)
        assert bool(c["diagonal_known"][i]) == (want is not None)
        assert want is None or tuple(c["diagonal_phases"][i].tolist()) == want
        for k in range(3):
            if k != k_star:
                absent = np.linalg.norm(E[k]) < 1e-10
                fix = -1 if absent else gadget._proportional_to_clifford((E[k] @ Ug.conj().T)[None], group)[0]
                assert c["corrections"][i, k] == fix

    for name in ("N", "H3"):
        res = sweep_two_copy(name)
        c = res.columns
        m = magic_state(name).complex_vector()
        for i in rng.choice(len(c["clifford"]), size=40, replace=False):
            e, k = int(c["clifford"][i]), int(c["k"][i])
            v = branch_operator(word_to_matrix(sp4_words[e], 2), m, k) @ m
            cls, phases, norm2 = classify_branch(v)
            assert (CLASS_NONCLIFFORD if c["nonclifford"][i] else CLASS_CLIFFORD) == cls
            assert np.allclose(c["vector"][i], v, atol=1e-12)
            assert c["probability"][i] == pytest.approx(norm2, abs=1e-12)
            assert tuple(c["phases"][i].tolist()) == pytest.approx(phases, abs=1e-9)


@pytest.fixture(scope="module")
def sp4_words():
    return synthesize(enumerate_symplectic(2))


@pytest.mark.parametrize("name", ["S", "N", "H3", "T3"])
def test_replay_agrees_with_the_sweep(name, sp4_words):
    # replay_protocol reads a word as the operator product word_to_matrix does,
    # so the gate word of Sp(4,3) element e replays sweep row e
    res = sweep_two_copy(name)
    c = res.columns
    hit_of = {(e, k): i for i, (e, k) in enumerate(zip(c["clifford"].tolist(), c["k"].tolist()))}
    m = magic_state(name).complex_vector()
    rng = np.random.default_rng(131)
    rows = np.concatenate([rng.choice(np.unique(c["clifford"]), size=12, replace=False), rng.integers(0, 51840, size=12)])
    seen = set()
    for e in rows.tolist():
        for k in range(3):
            rep = replay_protocol(sp4_words[e], name, k)
            i = hit_of.get((e, k))
            if i is None:
                assert (rep.classification, rep.phases) == (CLASS_NONE, None)
                want = float(np.linalg.norm(branch_operator(word_to_matrix(sp4_words[e], 2), m, k) @ m) ** 2)
            else:
                assert rep.classification == (CLASS_NONCLIFFORD if c["nonclifford"][i] else CLASS_CLIFFORD)
                want = c["probability"][i]
                # phases compared on the circle: a phase of pi may come out as -pi
                turn = np.angle(np.exp(1j * (np.array(rep.phases) - c["phases"][i])))
                assert np.abs(turn).max() < 1e-9
            assert rep.probability == pytest.approx(want, abs=1e-12)
            seen.add(rep.classification)
    assert CLASS_NONE in seen and len(seen) >= 2
