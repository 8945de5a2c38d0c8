import math

import numpy as np
import pytest

from stabdecomp.certify import (
    AuditReport,
    Certificate,
    ShardSpec,
    audit,
    certify_rank,
    merge_certificates,
    rank_tuple,
    target_fingerprint,
    unrank_tuple,
)
from stabdecomp.decomposition import best_fit
from stabdecomp.stabilizer import (
    Catalog,
    ScaledCyclo,
    TargetState,
    build_catalog,
    magic_power,
    magic_state,
)


@pytest.fixture(scope="module")
def cat1():
    return build_catalog(3, 1)


@pytest.fixture(scope="module")
def cat2():
    return build_catalog(3, 2)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_round_trip():
    rng = np.random.default_rng(5)
    for r in (1, 2, 3, 4):
        for _ in range(50):
            rank = int(rng.integers(0, 10**9))
            assert rank_tuple(unrank_tuple(rank, r)) == rank
    with pytest.raises(ValueError):
        rank_tuple((3, 3))
    with pytest.raises(ValueError):
        rank_tuple((5, 2))


def _bisect_largest_with_binomial_leq(rank, t):
    """Reference: the largest i with C(i, t) <= rank, by doubling then bisection."""
    lo, hi = t - 1, t
    while math.comb(hi, t) <= rank:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, t) <= rank:
            lo = mid
        else:
            hi = mid
    return lo


def _bisect_unrank(rank, r):
    out = []
    for t in range(r, 0, -1):
        i = _bisect_largest_with_binomial_leq(rank, t)
        out.append(i)
        rank -= math.comb(i, t)
    return tuple(reversed(out))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_unrank_matches_bisection_at_the_edges(r):
    ranks = {0, 1, 2}
    for n in (7_439_040, 36_720, 30_240, 360):
        ranks.add(math.comb(n, r) - 1)
        for edge in (math.comb(n, 3), math.comb(n, r)):
            ranks.update(range(max(edge - 3, 0), edge + 4))
    for rank in sorted(ranks):
        tup = unrank_tuple(rank, r)
        assert tup == _bisect_unrank(rank, r), rank
        assert rank_tuple(tup) == rank
    for n in (7_439_040, 36_720):
        assert unrank_tuple(math.comb(n, r) - 1, r) == tuple(range(n - r, n))
        assert unrank_tuple(math.comb(n, r), r) == tuple(range(r - 1)) + (n,)


def test_colex_enumeration_matches_rank_order():
    import itertools

    tuples = sorted(itertools.combinations(range(7), 3), key=rank_tuple)
    assert tuples[:4] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert [rank_tuple(t) for t in tuples] == list(range(math.comb(7, 3)))
    assert [unrank_tuple(i, 3) for i in range(len(tuples))] == tuples


def test_shard_partition_exact():
    total = math.comb(12, 2)
    shards = [ShardSpec.of(i, 5, total) for i in range(5)]
    assert shards[0].lo == 0 and shards[-1].hi == total
    assert all(a.hi == b.lo for a, b in zip(shards, shards[1:]))
    assert sum(s.hi - s.lo for s in shards) == total
    with pytest.raises(ValueError):
        ShardSpec.of(5, 5, total)
    with pytest.raises(ValueError):
        ShardSpec(10, 5)


# ---------------------------------------------------------------------------
# small exhaustive searches
# ---------------------------------------------------------------------------


def test_t3_pair_certificate(cat1):
    cert = certify_rank(magic_state("T3"), 2, cat1)
    assert cert.total_tuples == 66
    assert cert.tuples_tested == 66
    assert cert.witnesses == []
    assert cert.rules_out()
    assert cert.min_nonwitness_residual > 1e-7
    report = audit(cert, cat1, magic_state("T3"))
    assert report.passed and report.failures == []


def test_pruning_matches_support_oracle(cat1):
    # pairs whose combined support misses a target point are pruned
    cert = certify_rank(magic_state("T3"), 2, cat1)
    supports = [set(cat1.get(i).points()[0].tolist()) for i in range(12)]
    expect = sum(
        1
        for j in range(12)
        for i in range(j)
        if not {0, 1, 2} <= (supports[i] | supports[j])
    )
    assert cert.tuples_pruned == expect == 3


def test_strange_two_copy_rank1_excluded(cat2):
    cert = certify_rank(magic_power("S", 2), 1, cat2)
    assert cert.tuples_tested == 360
    assert cert.witnesses == []
    assert cert.min_nonwitness_residual == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name", ["H3", "N"])
def test_two_copy_rank2_excluded(cat2, name):
    cert = certify_rank(magic_power(name, 2), 2, cat2)
    assert cert.total_tuples == math.comb(360, 2) == 64620
    assert cert.witnesses == []
    assert cert.rules_out()
    assert cert.min_nonwitness_residual > 1e-7


def test_strange_two_copy_rank2_witnesses(cat2):
    cert = certify_rank(magic_power("S", 2), 2, cat2)
    assert len(cert.witnesses) > 0
    t = magic_power("S", 2).complex_vector()
    for w in cert.witnesses:
        A = np.column_stack([cat2.get(i).complex_vector() for i in w])
        _, res = best_fit(A, t)
        assert res <= 1e-10
    assert not cert.rules_out()
    assert audit(cert, cat2, magic_power("S", 2)).passed


def test_completeness_against_projective_equality(cat1):
    # with the target equal to a catalog state, r=1 witnesses are exactly it
    for idx in (0, 7, 11):
        st = cat1.get(idx)
        target = TargetState("fixture", 3, 1, [ScaledCyclo.wrap(a) for a in st.state_vector()])
        cert = certify_rank(target, 1, cat1)
        assert cert.witnesses == [(idx,)]


def _assert_matches_direct_lstsq(cert, catalog, target):
    """Witnesses and min residual of cert equal best_fit on every tuple it covers."""
    t = target.complex_vector()
    V = np.array([catalog.get(i).complex_vector() for i in range(len(catalog))])
    best = math.inf
    wits = []
    for rank in range(cert.shard.lo, cert.shard.hi):
        tup = unrank_tuple(rank, cert.r)
        A = V[list(tup)].T
        _, res = best_fit(A, t)
        if res <= 1e-10:
            wits.append(tup)
        else:
            best = min(best, res)
    if cert.tuples_pruned:
        # a pruned tuple's residual is at least the smallest target amplitude
        best = min(best, float(np.abs(t[np.abs(t) > 0]).min()))
    assert sorted(wits) == cert.witnesses
    assert cert.min_nonwitness_residual == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["S", "T3"])
def test_gram_scores_match_direct_lstsq(cat1, name, r):
    # r=3 and r=4 reach suffixes spanning C^3 (every x dependent) and, at
    # r=4, rank-deficient suffixes
    target = magic_state(name)
    _assert_matches_direct_lstsq(certify_rank(target, r, cat1), cat1, target)


def test_rank_deficient_suffix_in_larger_space():
    # two-qubit states 8, 28 and 30 span a plane of C^4; a suffix basis that
    # kept a third direction would misscore the tuples (x, 8, 28, 30)
    catalog = build_catalog(2, 2)
    target = magic_power("H", 2)
    states = np.array([catalog.get(i).complex_vector() for i in (8, 28, 30)])
    assert np.linalg.matrix_rank(states) == 2
    lo = rank_tuple((0, 8, 28, 30))
    cert = certify_rank(target, 4, catalog, shard=ShardSpec(lo, lo + 8))
    assert cert.tuples_pruned < cert.tuples_tested
    _assert_matches_direct_lstsq(cert, catalog, target)


def test_tol_above_rescore_threshold_rejected(cat1):
    # a residual in (1e-6, tol] would skip the exact re-score and be
    # recorded as a non-witness: 18 pairs sit at or below 0.282 here
    with pytest.raises(ValueError, match="re-score threshold"):
        certify_rank(magic_power("T3", 1), 2, cat1, tol=0.282)
    assert certify_rank(magic_power("T3", 1), 2, cat1, tol=1e-6).rules_out()


def test_dimension_above_mask_bits_rejected(monkeypatch):
    # int64 support masks hold 63 basis states; check before decoding anything
    def refuse(*args, **kwargs):
        raise AssertionError("decoded a catalog")

    monkeypatch.setattr(Catalog, "vectors", refuse)
    for name, m, p in (("N", 4, 3), ("H", 6, 2)):
        with pytest.raises(ValueError, match="support mask"):
            certify_rank(magic_power(name, m), 1, build_catalog(p, m))


def test_audit_detects_a_block_decoder_mismatch(cat1, monkeypatch):
    t3 = magic_state("T3")
    cert = certify_rank(t3, 2, cat1)
    assert audit(cert, cat1, t3).passed
    decode = Catalog.vectors
    monkeypatch.setattr(Catalog, "vectors", lambda self, indices=None: -decode(self, indices))
    report = audit(cert, cat1, t3)
    assert report.failures == ["block-decoder"]
    assert report.samples_tested == 1


def test_shard_out_of_range(cat1):
    with pytest.raises(ValueError):
        certify_rank(magic_state("T3"), 2, cat1, shard=ShardSpec(0, 67))


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def test_merge_shards_equals_full(cat1):
    t3 = magic_state("T3")
    full = certify_rank(t3, 2, cat1)
    parts = [certify_rank(t3, 2, cat1, shard=ShardSpec.of(i, 3, 66)) for i in range(3)]
    merged = merge_certificates(parts)
    assert merged.tuples_tested == full.tuples_tested == 66
    assert merged.witnesses == full.witnesses
    assert merged.full_coverage and merged.rules_out()
    assert merged.min_nonwitness_residual == pytest.approx(
        full.min_nonwitness_residual, abs=1e-12
    )
    assert audit(merged, cat1, t3).passed


def test_merge_rejects_bad_unions(cat1):
    t3 = magic_state("T3")
    parts = [certify_rank(t3, 2, cat1, shard=ShardSpec.of(i, 3, 66)) for i in range(3)]
    with pytest.raises(ValueError):
        merge_certificates([parts[0], parts[0]])
    with pytest.raises(ValueError):
        merge_certificates([parts[0], parts[2]])
    other = certify_rank(t3, 2, cat1, shard=ShardSpec.of(1, 3, 66), tol=1e-9)
    with pytest.raises(ValueError):
        merge_certificates([parts[0], other])


def test_partial_merge_has_no_ruling_power(cat1):
    t3 = magic_state("T3")
    parts = [certify_rank(t3, 2, cat1, shard=ShardSpec.of(i, 3, 66)) for i in range(2)]
    merged = merge_certificates(parts)
    assert not merged.full_coverage
    assert not merged.rules_out()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_detects_tampering(cat1):
    t3 = magic_state("T3")
    cert = certify_rank(t3, 2, cat1)

    forged = Certificate.from_payload(cert.to_payload())
    forged.tuples_tested = 65
    assert audit(forged, cat1, t3).failures[:1] == ["coverage-arithmetic"]

    forged = Certificate.from_payload(cert.to_payload())
    forged.tuples_pruned = -7
    assert audit(forged, cat1, t3).failures == ["coverage-arithmetic"]

    forged = Certificate.from_payload(cert.to_payload())
    forged.catalog_hash = "0" * 64
    assert "catalog-hash" in audit(forged, cat1, t3).failures

    forged = Certificate.from_payload(cert.to_payload())
    forged.min_nonwitness_residual = 1e-9
    assert "residual-gap" in audit(forged, cat1, t3).failures

    forged = Certificate.from_payload(cert.to_payload())
    forged.min_nonwitness_residual = math.nan
    assert audit(forged, cat1, t3).failures == ["residual-gap"]

    forged = Certificate.from_payload(cert.to_payload())
    forged.witnesses = [(0, 1)]
    assert "witness-replay" in audit(forged, cat1, t3).failures

    forged = Certificate.from_payload(cert.to_payload())
    forged.min_nonwitness_residual = 0.9
    assert "sample-below-recorded-minimum" in audit(forged, cat1, t3).failures

    wrong_target = magic_state("S")
    assert "target-hash" in audit(cert, cat1, wrong_target).failures


def test_audit_fails_a_witness_outside_the_shard_or_listed_twice(cat2):
    # real witnesses, each of which replays below tol: only their ranks are forged
    s2 = magic_power("S", 2)
    full = certify_rank(s2, 2, cat2)
    ranks = sorted(rank_tuple(w) for w in full.witnesses)
    cert = certify_rank(s2, 2, cat2, shard=ShardSpec(lo=0, hi=ranks[len(ranks) // 2]))
    assert cert.witnesses and audit(cert, cat2, s2, samples=100).passed
    outside = unrank_tuple(ranks[-1], 2)
    assert outside in full.witnesses and outside not in cert.witnesses

    forged = Certificate.from_payload(cert.to_payload())
    forged.witnesses = cert.witnesses + [outside]
    assert audit(forged, cat2, s2, samples=100).failures == ["witness-replay"]

    forged = Certificate.from_payload(cert.to_payload())
    forged.witnesses = sorted(cert.witnesses + cert.witnesses[:1])
    assert audit(forged, cat2, s2, samples=100).failures == ["witness-replay"]


def test_audit_refuses_a_negative_sample_count(cat1):
    t3 = magic_state("T3")
    cert = certify_rank(t3, 2, cat1)
    with pytest.raises(ValueError, match="samples must be at least 0, got -5"):
        audit(cert, cat1, t3, samples=-5)
    assert audit(cert, cat1, t3, samples=0) == AuditReport(True, [], 0, math.inf)


def test_certificate_round_trip(tmp_path, cat1):
    cert = certify_rank(magic_state("T3"), 2, cat1)
    path = str(tmp_path / "cert.json")
    cert.save(path)
    loaded = Certificate.load(path)
    assert loaded == cert
    assert target_fingerprint(magic_state("T3")) == cert.target_hash
