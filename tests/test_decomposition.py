import hashlib
import json

import numpy as np
import pytest

from stabdecomp.algebra import CycloNumber, i_unit, sqrt2, sqrt6, xi
from stabdecomp.decomposition import Decomposition, best_fit, exact_coefficients
from stabdecomp.known import FIXTURES
from stabdecomp.stabilizer import build_catalog, ket, magic_power, n_scaled_complex

# the rank of each bundled decomposition (the table in stabdecomp.known)
FIXTURE_RANKS = {
    "strange_m2": 2,
    "strange_m3": 4,
    "h3_m2": 3,
    "h3_m3": 4,
    "norrell_m2": 3,
    "norrell_m3": 4,
    "norrell_m4": 7,
    "qubit_t_m4": 3,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_verifies_exactly(name):
    dec = FIXTURES[name]()
    assert dec.rank == FIXTURE_RANKS[name]
    assert dec.verify_exact() == []
    assert dec.verify_numeric() < 1e-13


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trip(name):
    dec = FIXTURES[name]()
    back = Decomposition.from_payload(dec.to_payload())
    assert back.verify_exact() == []
    assert back.npow == dec.npow
    for a, b in zip(dec.coeffs, back.coeffs):
        assert a == b
    for sa, sb in zip(dec.states, back.states):
        assert sa.record() == sb.record()


# sha256 of json.dumps(to_payload(), indent=1): the insertion-order layout a
# `search` artifact embeds, which pins the key order of every phase payload
# (qutrit {"A", "b", "c"}, qubit {"a", "B", "c"}) as well as its values
FIXTURE_PAYLOAD_HASHES = {
    "strange_m2": "0981f8467a23f20dec9a91ba5abcd7861ad0335e8366a8dc02d636416ddf5475",
    "strange_m3": "21f941fa9a934bec044280b80b78e6855f0cf1f9ffa91b98ac2f36807e5f16d8",
    "h3_m2": "15aa8d9c6ff59275858e8231602ca936dc5f4c3240da9260c8dab8a1112455b9",
    "h3_m3": "123f0122b248376505bb0906dc5cd2ff3af4d06d465ea94c85f4627f2c6e9354",
    "norrell_m2": "c791f4f6d907e9dc43b77b80ade888d04bbdd005ea4cf16cb916185566f9c965",
    "norrell_m3": "d26e00756f5b0197d56f2b9b64764209805e80587d201dfa401b9fcfee6c6c9f",
    "norrell_m4": "120bbdd38a75e2d2f410e4305ed8fda367d2bb583eafba755af5a9d180daf45a",
    "qubit_t_m4": "b6eea514b45307c77dc04acb61e69bd37842a1017861b8fbaa07ca07278e6a17",
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_payload_is_pinned(name):
    text = json.dumps(FIXTURES[name]().to_payload(), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_PAYLOAD_HASHES[name]


def test_save_load(tmp_path):
    dec = FIXTURES["h3_m3"]()
    path = tmp_path / "h3_m3.json"
    dec.save(str(path))
    back = Decomposition.load(str(path))
    assert back.verify_exact() == []
    assert back.to_payload() == dec.to_payload()
    # the file is the payload in its own field order, as the CLI writes an artifact
    assert path.read_text() == json.dumps(dec.to_payload(), indent=1) + "\n"
    assert list(json.loads(path.read_text()))[:2] == ["format", "version"]


def test_perturbed_coefficient_fails_both_ways():
    dec = FIXTURES["strange_m2"]()
    dec.coeffs[0] = dec.coeffs[0] * CycloNumber.from_rational(2)
    bad = dec.verify_exact()
    assert bad, "perturbed decomposition must not verify"
    assert dec.verify_numeric() > 1e-2


def test_wrong_state_fails():
    dec = FIXTURES["norrell_m2"]()
    dec.states[1] = ket(3, [0, 0])
    assert dec.verify_exact() != []
    assert dec.verify_numeric() > 1e-2


def test_strange_m3_alpha_has_polar_form():
    # (3 sqrt2 - i sqrt6)/8  ==  (sqrt6/4) e^{-i pi/6}
    lhs = (3 * sqrt2() - i_unit() * sqrt6()) / 8
    rhs = sqrt6() / 4 * xi().conjugate()
    assert lhs == rhs


def test_norrell_m4_target_value_classes():
    # N^{otimes 4} amplitudes depend only on the number of 2-digits
    t = magic_power("N", 4)
    vals = {}
    for idx, amp in enumerate(t.amps):
        digits = [(idx // 3**j) % 3 for j in range(4)]
        vals.setdefault(digits.count(2), set()).add(amp.coeffs)
    assert set(vals) == {0, 1, 2, 3, 4}
    for n2, seen in vals.items():
        assert len(seen) == 1
    vec = t.complex_vector()
    assert t.npow == 0 and [vec[0].real] == [pytest.approx(1 / 36)]
    want = {0: 1 / 36, 1: -1 / 18, 2: 1 / 9, 3: -2 / 9, 4: 4 / 9}
    for idx, amp in enumerate(vec):
        digits = [(idx // 3**j) % 3 for j in range(4)]
        assert amp == pytest.approx(want[digits.count(2)])


def test_tensor_composition():
    d2 = FIXTURES["strange_m2"]()
    d4 = d2.tensor(d2)
    assert d4.rank == 4 and d4.target.n == 4
    assert d4.verify_exact() == []
    d5 = d2.tensor(FIXTURES["strange_m3"]())
    assert d5.rank == 8 and d5.target.n == 5
    assert d5.verify_numeric() < 1e-13
    with pytest.raises(ValueError):
        d2.tensor(FIXTURES["norrell_m2"]())


def test_best_fit_recovers_fixture_coefficients():
    for name in ("strange_m2", "h3_m2", "qubit_t_m4"):
        dec = FIXTURES[name]()
        A = np.stack([st.complex_vector() for st in dec.states], axis=1)
        sol, res = best_fit(A, dec.target.complex_vector())
        assert res < 1e-13
        for got, want in zip(sol, n_scaled_complex(dec.coeffs, dec.npow)):
            assert abs(got - want) < 1e-10


def test_best_fit_rank_deficient_and_insufficient():
    dec = FIXTURES["strange_m2"]()
    v = dec.states[0].complex_vector()
    # duplicated column: minimum-norm solution, residual well defined
    A = np.stack([v, v], axis=1)
    sol, res = best_fit(A, dec.target.complex_vector())
    assert np.isfinite(res) and res > 0.1
    assert abs(sol[0] - sol[1]) < 1e-10
    # a single stabilizer state cannot reach S x S
    _, res1 = best_fit(v[:, None], dec.target.complex_vector())
    assert res1 > 0.1


def test_exact_solver_recovers_coefficients():
    for name in ("strange_m2", "norrell_m3", "h3_m2", "qubit_t_m4"):
        dec = FIXTURES[name]()
        coeffs = exact_coefficients(dec.states, dec.target)
        assert coeffs is not None
        # these fixtures carry the target's own N power (h3_m2: N^2)
        assert dec.npow == dec.target.npow
        rebuilt = Decomposition(dec.target, dec.states, coeffs, dec.target.npow)
        assert rebuilt.verify_exact() == []
        for a, b in zip(coeffs, dec.coeffs):
            assert a == b


def test_exact_solver_rejects_wrong_states():
    target = magic_power("S", 2)
    cat = build_catalog(3, 2)
    states = [cat.get(0), cat.get(1), cat.get(2)]  # three basis kets
    assert exact_coefficients(states, target) is None


def test_single_copy_strange_rank_two():
    target = magic_power("S", 1)
    states = [ket(3, [1]), ket(3, [2])]
    coeffs = exact_coefficients(states, target)
    assert coeffs is not None
    dec = Decomposition(target, states, coeffs)
    assert dec.verify_exact() == []
    assert dec.coeffs[0] == sqrt2() / 2
    assert dec.coeffs[1] == -sqrt2() / 2
