"""Acceptance gate: the headline numerical claims the package must reproduce.

Each test pins a published quantity (rank certificate, sweep statistic,
exponent, orbit fact) with an explicit tolerance.  The simulated-annealing
re-discoveries use the documented seeds recorded in the README.
"""

import math
import time

import numpy as np
import pytest

from stabdecomp import known
from stabdecomp.anneal import AnnealConfig, anneal_search
from stabdecomp.asymptotics import find_ratio_witness
from stabdecomp.certify import (
    ShardSpec,
    audit,
    certify_rank,
    merge_certificates,
    rank_tuple,
    unrank_tuple,
)
from stabdecomp.clifford import generate_clifford_group, orbit_closure, projective_keys, weyl_matrix, word_to_matrix
from stabdecomp.decomposition import exponent_from_bound
from stabdecomp.gadget import check_reduction, sweep_injection, sweep_two_copy
from stabdecomp.stabilizer import build_catalog, magic_power, magic_state

WITNESS_TOL = 1e-10

# the published rank of each bundled decomposition
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


@pytest.fixture(scope="module")
def cat1():
    return build_catalog(3, 1)


@pytest.fixture(scope="module")
def cat2():
    return build_catalog(3, 2)


@pytest.fixture(scope="module")
def desk_certs(cat1, cat2):
    """The five small full-coverage certificates behind the desk-scale ranks."""
    return {
        "T3-r2": certify_rank(magic_power("T3", 1), 2, cat1),
        "S2-r1": certify_rank(magic_power("S", 2), 1, cat2),
        "H32-r2": certify_rank(magic_power("H3", 2), 2, cat2),
        "N2-r2": certify_rank(magic_power("N", 2), 2, cat2),
        "T32-r2": certify_rank(magic_power("T3", 2), 2, cat2),
    }


# -- 1. bundled decompositions replay exactly -------------------------------------


def test_fixture_replay_exact_and_fast():
    t0 = time.monotonic()
    for name, build in sorted(known.FIXTURES.items()):
        dec = build()
        assert dec.verify_exact() == [], name
        assert dec.verify_numeric() <= 1e-13, name
        assert dec.rank == FIXTURE_RANKS[name]
    assert time.monotonic() - t0 < 5.0


# -- 2. desk-scale rank equalities -------------------------------------------------


def test_t3_single_copy_rank_three(desk_certs):
    cert = desk_certs["T3-r2"]
    assert cert.total_tuples == 66
    assert cert.tuples_tested == 66
    assert cert.witnesses == []
    assert cert.rules_out()


def test_strange_pair_rank_two(desk_certs):
    cert = desk_certs["S2-r1"]
    assert cert.total_tuples == 360
    assert cert.witnesses == []
    assert cert.rules_out()
    witness = known.FIXTURES["strange_m2"]()
    assert witness.rank == 2
    assert witness.verify_numeric() <= 1e-13


def test_h3_and_norrell_pairs_rank_three(desk_certs):
    for key, fixture in (("H32-r2", "h3_m2"), ("N2-r2", "norrell_m2")):
        cert = desk_certs[key]
        assert cert.total_tuples == math.comb(360, 2) == 64_620
        assert cert.witnesses == []
        assert cert.rules_out()
        witness = known.FIXTURES[fixture]()
        assert witness.rank == 3
        assert witness.verify_numeric() <= 1e-13


def test_t3_pair_rank_at_least_three(desk_certs):
    # no pair of two-qutrit stabilizer states spans T3 x T3; 6,786 pairs miss its
    # support, each at a residual of at least the prune bound 1/3
    cert = desk_certs["T32-r2"]
    assert cert.total_tuples == cert.tuples_tested == math.comb(360, 2) == 64_620
    assert cert.tuples_pruned == 6_786
    assert cert.witnesses == []
    assert cert.rules_out()
    assert cert.min_nonwitness_residual == pytest.approx(1 / 3, abs=1e-12)


# -- 3. asymptotic exponents -------------------------------------------------------


def test_rank_exponents():
    assert exponent_from_bound(2, 2, 3) == pytest.approx(0.3155, abs=1e-4)
    assert exponent_from_bound(4, 3, 3) == pytest.approx(0.4206, abs=1e-4)
    assert exponent_from_bound(3, 4, 2) == pytest.approx(0.3962, abs=1e-4)
    assert exponent_from_bound(3, 2, 3) == pytest.approx(0.5, abs=1e-12)


# -- 4. exhaustive two-copy conversion sweeps --------------------------------------


def test_two_copy_sweep_h3():
    res = sweep_two_copy("H3")
    assert res.total == 51_840 * 3
    nc = res.columns["nonclifford"]
    assert nc.any()
    assert (np.abs(res.columns["probability"][nc] - 3 / 8) < 1e-10).all()
    phases = res.columns["phases"][nc]
    assert ((np.abs(phases[:, 0] - np.pi / 2) < 1e-8) & (np.abs(phases[:, 1] - np.pi / 3) < 1e-8)).any()


def test_two_copy_sweep_norrell():
    res = sweep_two_copy("N")
    nc = res.columns["nonclifford"]
    assert nc.any()
    assert (np.abs(res.columns["probability"][nc] - 1 / 4) < 1e-10).all()
    assert (np.abs(np.abs(res.columns["phases"][nc]) - np.pi) < 1e-8).all(axis=1).any()


def test_two_copy_sweep_strange_yields_nothing():
    res = sweep_two_copy("S")
    assert res.total == 51_840 * 3
    assert not res.columns["nonclifford"].any()


# -- 5. deterministic injection gadgets --------------------------------------------


def test_injection_sweep_t3_positive_control():
    c = sweep_injection("T3").columns
    assert len(c["clifford"])
    want = (2 * np.pi / 9, 4 * np.pi / 9)
    canonical = c["diagonal_known"] & (np.abs(c["diagonal_phases"] - want) < 1e-8).all(axis=1)
    assert canonical.any(), "the diag(1, w9, w9^2) gadget must appear"


@pytest.mark.parametrize("name", ["S", "H3", "N"])
def test_injection_sweep_other_orbits_empty(name):
    assert len(sweep_injection(name).columns["clifford"]) == 0


# -- 6. the four orbits, and rigidity of the strange one ---------------------------


def test_strange_orbit_rigidity():
    orbit = orbit_closure(magic_state("S").complex_vector(), generate_clifford_group())
    assert len(orbit) == 9
    for vec in orbit:
        mods = np.abs(vec)
        nz = mods > 1e-12
        assert int(nz.sum()) == 2
        assert np.ptp(mods[nz]) < 1e-12
        assert find_ratio_witness(vec) is None


def test_four_orbits_sizes_and_disjointness():
    group = generate_clifford_group()
    sizes, keys = {}, {}
    for name in ("S", "N", "H3", "T3"):
        orbit = orbit_closure(magic_state(name).complex_vector(), group)
        sizes[name], keys[name] = len(orbit), set(projective_keys(orbit).tolist())
    assert sizes == {"S": 9, "N": 36, "H3": 54, "T3": 72}
    # the four orbits are inequivalent: no state lies in two of them
    assert len(set().union(*keys.values())) == sum(sizes.values())


# -- 7. measurement-branch reduction identity --------------------------------------


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


def test_reduction_identity_hundred_random_trials():
    rng = np.random.default_rng(2026)
    states = [magic_state(n).complex_vector() for n in ("S", "N", "H3", "T3")]
    for trial in range(100):
        C = word_to_matrix(rand_word(rng, 2, 6), 2)
        D = weyl_matrix(1, [rng.integers(0, 3)], [rng.integers(0, 3)])
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        m = states[trial % 4]
        assert check_reduction(D, a, b, C, m)


# -- 8. annealing re-discovers the published ranks ---------------------------------

SA_CASES = [
    ("S", 2, 2, 0),
    ("H3", 2, 3, 0),
    ("N", 2, 3, 0),
    ("S", 3, 4, 0),
    ("H3", 3, 4, 2),
    ("N", 3, 4, 18),
    ("N", 4, 7, 0),
]

_SA_TIMES = []


@pytest.mark.parametrize(
    "name,m,r,seed", SA_CASES, ids=["%s-m%d-r%d" % (n, m, r) for n, m, r, _ in SA_CASES]
)
def test_annealing_rediscovery(name, m, r, seed):
    target = magic_power(name, m)
    catalog = build_catalog(3, m)
    cfg = AnnealConfig(target=target, rank=r, catalog=catalog, seed=seed)
    t0 = time.monotonic()
    res = anneal_search(cfg)
    _SA_TIMES.append(time.monotonic() - t0)
    assert res.success
    assert res.residual <= WITNESS_TOL
    assert res.decomposition is not None
    assert res.decomposition.verify_numeric() <= WITNESS_TOL


def test_annealing_total_budget():
    if not _SA_TIMES:
        pytest.skip("annealing cases were deselected")
    assert sum(_SA_TIMES) < 1800.0


# -- 9. certificate audits ----------------------------------------------------------


def test_desk_certificates_audit_clean(desk_certs, cat1, cat2):
    for key, cert in desk_certs.items():
        catalog = cat1 if key == "T3-r2" else cat2
        target = magic_power(cert.target_name.split("^")[0], cert.copies)
        report = audit(cert, catalog, target, samples=500, seed=0)
        assert report.passed, (key, report.failures)
        assert cert.min_nonwitness_residual >= 1e-7, key


# -- 10. large-shard substitutes for the out-of-scale certificates ------------------


def test_merge_and_coverage_arithmetic_on_full_certificate(cat1):
    target = magic_power("T3", 1)
    total = math.comb(len(cat1), 2)
    parts = [
        certify_rank(target, 2, cat1, shard=ShardSpec.of(i, 3, total))
        for i in range(3)
    ]
    merged = merge_certificates(parts)
    assert merged.tuples_tested == sum(p.tuples_tested for p in parts) == total
    assert merged.tuples_pruned == sum(p.tuples_pruned for p in parts)
    assert merged.full_coverage
    assert merged.rules_out()
    whole = certify_rank(target, 2, cat1)
    assert merged.witnesses == whole.witnesses
    assert merged.min_nonwitness_residual == pytest.approx(
        whole.min_nonwitness_residual, abs=1e-12
    )


@pytest.mark.parametrize("name", ["S", "H3", "N"])
def test_qutrit_triple_shard_certificates(name):
    catalog = build_catalog(3, 3)
    target = magic_power(name, 3)
    total = math.comb(len(catalog), 3)
    shard = ShardSpec.of(0, 40_000, total)
    assert shard.hi - shard.lo >= 10**8
    cert = certify_rank(target, 3, catalog, shard=shard)
    assert cert.tuples_tested == shard.hi - shard.lo
    assert cert.witnesses == []
    report = audit(cert, catalog, target, samples=200, seed=0)
    assert report.passed, report.failures


def test_qutrit_triple_unpruned_range_certificate():
    # Shard 0 holds only low-support states and is pruned whole.  Here every
    # tuple's largest index is a full-support state (k = 3; the catalog lists
    # them from index 10,557 on), so nothing is pruned and all 1e6 tuples go
    # through the projection kernel.
    catalog = build_catalog(3, 3)
    target = magic_power("S", 3)
    lo = rank_tuple((0, 20_000, 30_000))
    shard = ShardSpec(lo, lo + 10**6)
    largest = unrank_tuple(shard.lo, 3)[2]
    assert largest >= 10_557 and catalog.get(largest).k == 3
    cert = certify_rank(target, 3, catalog, shard=shard)
    assert cert.tuples_tested == 10**6
    assert cert.tuples_pruned == 0
    assert cert.witnesses == []
    assert cert.min_nonwitness_residual >= 1e-7
    report = audit(cert, catalog, target, samples=200, seed=0)
    assert report.passed, report.failures


def test_qubit_quadruple_shard_certificate():
    catalog = build_catalog(2, 4)
    target = magic_power("H", 4)
    total = math.comb(len(catalog), 3)
    shard = ShardSpec.of(0, 80_000, total)
    assert shard.hi - shard.lo >= 10**8
    cert = certify_rank(target, 3, catalog, shard=shard)
    assert cert.tuples_tested == shard.hi - shard.lo
    assert cert.witnesses == []
    report = audit(cert, catalog, target, samples=200, seed=0)
    assert report.passed, report.failures
