import math

import numpy as np
import pytest

from stabdecomp.asymptotics import exp_subsequence, find_ratio_witness, moulton_bound
from stabdecomp.clifford import generate_clifford_group
from stabdecomp.decomposition import exponent_from_bound
from stabdecomp.stabilizer import basis_index, magic_power, magic_state


def test_moulton_values():
    assert moulton_bound(1) == pytest.approx(2 / 3, abs=1e-15)
    assert moulton_bound(3) == pytest.approx(2 / 3, abs=1e-15)
    assert moulton_bound(26) == pytest.approx(27 / (3 * math.log2(27)), abs=1e-15)
    assert moulton_bound(26) == pytest.approx(1.893, abs=1e-3)
    # eventually growing without bound
    assert moulton_bound(100) > moulton_bound(50) > 1
    with pytest.raises(ValueError):
        moulton_bound(0)


def test_exponent_from_bound_values():
    assert exponent_from_bound(2, 2, 3) == pytest.approx(0.3155, abs=1e-4)
    assert exponent_from_bound(4, 3, 3) == pytest.approx(0.4206, abs=1e-4)
    assert exponent_from_bound(3, 4, 2) == pytest.approx(0.3962, abs=1e-4)
    assert exponent_from_bound(3, 2, 3) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        exponent_from_bound(0, 1, 3)


def test_witness_h3():
    w = find_ratio_witness(magic_state("H3").complex_vector())
    assert w is not None
    assert w.ratio == pytest.approx(math.sqrt(3) + 1, abs=1e-12)
    assert w.i_a == 0 and w.i_b in (1, 2)
    assert w.a >= 2 * w.b > 0


def test_witness_norrell():
    w = find_ratio_witness(magic_state("N").complex_vector())
    assert w is not None
    assert w.ratio == pytest.approx(2.0, abs=1e-12)
    assert (w.i_a, w.i_b) == (2, 0)


def test_witness_absent():
    assert find_ratio_witness(magic_state("S").complex_vector()) is None
    assert find_ratio_witness(magic_state("T3").complex_vector()) is None
    assert find_ratio_witness(np.array([1.0, 0.0, 0.0])) is None
    with pytest.raises(ValueError):
        find_ratio_witness(np.eye(3))


def test_witness_absent_on_whole_strange_orbit():
    from stabdecomp.clifford import orbit_closure

    orbit = orbit_closure(magic_state("S").complex_vector(), generate_clifford_group())
    assert len(orbit) == 9
    for vec in orbit:
        assert find_ratio_witness(vec) is None


def test_subsequence_norrell_m4():
    seq = exp_subsequence(magic_state("N").complex_vector(), 4)
    assert len(seq) == 5
    b = 1 / math.sqrt(6)
    for k, (coord, modulus) in enumerate(seq):
        assert coord == (2,) * k + (0,) * (4 - k)
        assert modulus == pytest.approx(b**4 * 2**k, abs=1e-12)
    for (_, lo), (_, hi) in zip(seq, seq[1:]):
        assert hi / lo == pytest.approx(2.0, abs=1e-12)


def test_subsequence_h3_m2():
    seq = exp_subsequence(magic_state("H3").complex_vector(), 2)
    assert len(seq) == 3
    for (_, lo), (_, hi) in zip(seq, seq[1:]):
        assert hi / lo == pytest.approx(math.sqrt(3) + 1, abs=1e-12)


@pytest.mark.parametrize("name", ["H3", "N"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_subsequence_matches_power_amplitudes(name, m):
    seq = exp_subsequence(magic_state(name).complex_vector(), m)
    power = magic_power(name, m).complex_vector()
    for coord, modulus in seq:
        assert abs(power[basis_index(np.array(coord), 3)]) == pytest.approx(
            modulus, abs=1e-12
        )


def test_subsequence_refuses_without_witness():
    for name in ("S", "T3"):
        with pytest.raises(ValueError):
            exp_subsequence(magic_state(name).complex_vector(), 3)
    with pytest.raises(ValueError):
        exp_subsequence(magic_state("N").complex_vector(), 0)
