import hashlib
import json
import math

import numpy as np
import pytest

from stabdecomp import certify
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
from stabdecomp.decomposition import CANDIDATE_RES2, WITNESS_TOL, best_fit
from stabdecomp.stabilizer import (
    Catalog,
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
        target = TargetState("fixture", 3, 1, list(st.state_vector()))
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


@pytest.mark.parametrize("name, witnesses", [("S", 5640), ("N", 48), ("H", 846), ("T", 1243)])
def test_one_witness_tolerance_sits_in_a_wide_gap(monkeypatch, name, witnesses):
    # every tuple certify re-scores exactly is an exact witness near rounding
    # error, and every other tuple scores far above, so no threshold between
    # them changes a certificate: WITNESS_TOL is the only one
    assert WITNESS_TOL <= math.sqrt(CANDIDATE_RES2)
    rescored = []

    def recording(A, t):
        sol, res = best_fit(A, t)
        rescored.append(res)
        return sol, res

    monkeypatch.setattr(certify, "best_fit", recording)
    target = magic_power(name, 2)
    cert = certify_rank(target, 3, build_catalog(target.p, target.n))
    assert len(cert.witnesses) == witnesses
    # a witness is a re-scored tuple and no tuple is re-scored twice, so equal
    # counts make every re-scored tuple a listed witness
    assert len(rescored) == witnesses
    assert max(rescored) <= 1e-13
    assert cert.min_nonwitness_residual >= 0.06


def test_dimension_above_mask_bits_rejected(monkeypatch):
    # int64 support masks hold 63 basis states; check before decoding anything
    def refuse(*args, **kwargs):
        raise AssertionError("decoded a catalog")

    monkeypatch.setattr(Catalog, "codes", refuse)
    for name, m, p in (("N", 4, 3), ("H", 6, 2)):
        with pytest.raises(ValueError, match="support mask"):
            certify_rank(magic_power(name, m), 1, build_catalog(p, m))


def test_audit_detects_a_block_decoder_mismatch(cat1, monkeypatch):
    t3 = magic_state("T3")
    cert = certify_rank(t3, 2, cat1)
    assert audit(cert, cat1, t3).passed
    decode, order = Catalog.codes, 3
    zero = len(cat1.amplitude_table()) - 1

    def turned(self, *args, **kwargs):
        # every amplitude's phase turned by one step: code k * order + e becomes k * order + (e + 1) % order
        codes = decode(self, *args, **kwargs)
        return np.where(codes == zero, codes, codes - codes % order + (codes + 1) % order).astype(np.uint8)

    monkeypatch.setattr(Catalog, "codes", turned)
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
    other = certify_rank(magic_state("H3"), 2, cat1, shard=ShardSpec.of(1, 3, 66))
    with pytest.raises(ValueError, match="different searches"):
        merge_certificates([parts[0], other])


# the certificate payload's keys in file order
CERTIFICATE_KEYS = [
    "format", "version", "target", "copies", "p", "n", "r", "tol", "target_hash", "catalog_hash",
    "catalog_mode", "catalog_count", "total_tuples", "shard", "tuples_tested", "tuples_pruned",
    "witnesses", "min_nonwitness_residual", "full_coverage", "wall_time",
]


def test_certificate_format_is_pinned(cat1):
    t3 = magic_state("T3")
    cert = certify_rank(t3, 2, cat1, shard=ShardSpec.of(1, 3, 66))
    payload = cert.to_payload()
    assert list(payload) == CERTIFICATE_KEYS
    assert payload["format"] == "stabdecomp-certificate" and payload["catalog_mode"] == "raw"
    assert payload["shard"] == {"index": 1, "count": 3, "lo": 22, "hi": 44}
    assert Certificate.from_payload(payload) == cert


def test_merged_certificate_round_trip(cat2):
    s2 = magic_power("S", 2)
    total = math.comb(len(cat2), 2)
    merged = merge_certificates([certify_rank(s2, 2, cat2, shard=ShardSpec.of(i, 2, total)) for i in range(2)])
    payload = merged.to_payload()
    assert list(payload) == CERTIFICATE_KEYS
    assert payload["shard"] == {"index": None, "count": None, "lo": 0, "hi": total}
    assert payload["witnesses"] and all(type(w) is list for w in payload["witnesses"])
    loaded = Certificate.from_payload(json.loads(json.dumps(payload)))
    assert loaded == merged and loaded.witnesses == merged.witnesses


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


def test_audit_fails_a_shard_past_the_tuple_space(cat1):
    # in memory, where from_payload cannot refuse it: a failed check, not an IndexError
    t3 = magic_state("T3")
    forged = certify_rank(t3, 2, cat1)
    forged.shard, forged.tuples_tested, forged.full_coverage = ShardSpec(0, 100), 100, False
    report = audit(forged, cat1, t3, samples=300)
    assert report.failures == ["coverage-arithmetic"] and report.samples_tested == 0
    with pytest.raises(ValueError, match=r"^certificate field 'shard.hi' = 100 is above total_tuples 66$"):
        Certificate.from_payload(forged.to_payload())


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
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_payload(), indent=1) + "\n")
    loaded = Certificate.load(str(path))
    assert loaded == cert
    assert target_fingerprint(magic_state("T3")) == cert.target_hash


# (name, copies): (target_fingerprint, sha256 of complex_vector().tobytes()).
# Every version-1 certificate carries the first as its target_hash; the second
# pins the float amplitudes bit for bit, signed zeros included.
TARGET_PINS = {
    ("S", 1): ("bc1c712017d91fb6fa6100c17df278ed02ddf084b4b603bd5c0c4b62923bf5a2", "50281e77085a701997586d87c290a72144fff3f414769972c78230920fea058e"),
    ("S", 2): ("b86d7b27f1fe8a99a0a8653c8b9138f33fdb2b5bed1040f90c15394e1b4a1e0a", "36ce2f6b23bae4f6d38b4d186ab7f41d06f3f3b5f000405537dab9e6abd90721"),
    ("S", 3): ("a2c1605a015ce5a1ade2359a4f84abc7a5f88cedd2bc31f3f0c97d10c60a4a7e", "4ad3d5491396b4ea9872fb0c2d3b8e76266ef105c8bdb567927e205981f5577b"),
    ("S", 4): ("81ef00aa1e83fa53df35f836a18baf07a6951f4435496a075d6da80555929c83", "82f205466b1995fc937efb0db40c72d224641f681210a334f11f247cfa87e815"),
    ("N", 1): ("8abac90998eec771d2d68770cafcd2871a2a81a724ef08d10e01f3f663e1f99e", "f66a49b142d03cdce4b3ed08301dd9ea03c444ec6741f06eaeb796701151cb36"),
    ("N", 2): ("3cd8a9a563135368a3b606232a1f3fcad0452bdd7194edfe2da517fb323b7da3", "daffe5c3133f8dd27f32f8a098ce36f19a7edb40b538df5a9bc78186c59c9017"),
    ("N", 3): ("92c9231fb3fe0d1385e339c6687c3d63de2eec230887846b13e0193f45b54463", "52929245befe565db261a13ac4ca430449cf7c728d1fe35642f3240896199fc9"),
    ("N", 4): ("4dbd4028abddd5c74f9f14b96d0c89b17d9c3e8a765b105b6028f8fb4adc732c", "5ae7a8afc3196cca4cae0292f1f79171a65474fb7057119d24040531efc6f175"),
    ("H3", 1): ("424f31d3041128734053308fe70665058dd733b9cd9509978a10263d916e5227", "d959b0b55133745671e289e4dcd6a1796ca0c99504279865df2bf9951fea70fb"),
    ("H3", 2): ("f537fc78f484e1d6ccbd81982e30a44aab3b38edb6a9de57d602d48b15972a9f", "975338a54fc7222b6de674133b6b04ef2c5df577c403af4e37e96d781150e758"),
    ("H3", 3): ("87ace4efcf3e2224ec8cf177d1a52f4b44b800ae670dbbf2d73fcf2250464e44", "ac0ab30247f7bfba81a25fdfcacd7eec83e5161f3dc2cd70601914490043574a"),
    ("H3", 4): ("84b41e2347e2d9b623cf1b0e86c2dae18949a0773065873d55f72090586b3082", "a5660b27d7b9ae1d0b3e95a21456c92eaeb75ee9b776c3434671b03f64ea8f5f"),
    ("T3", 1): ("eea4b6c0d78edce61cb1662fb3171d8ec326aa73fd277292a2f8b2d92f03ec82", "2771d5db1a1f353126f93ceb4dd7b0bbc6ea0e5432725ea8a14dfa1459cae56d"),
    ("T3", 2): ("4b3c5b73b94f2bbe3a1666f727f58a51540f59edbe3093d88546dc842b75d5b3", "0b9d0dcdff7154a1c89c5e1ad6dc472a0c33e64f33b77c4579e2d3cac0319707"),
    ("T3", 3): ("4a008bab2a6fcb471ce27f8b1798a9f4e9cdaea46253e14f30c987d7ffe8bced", "faa20b014dde908db5b5d054ab1351746792a916d5cb9b448148e46bf3008ff0"),
    ("T3", 4): ("43c7b33e5a23c45f1eea96285ba364277eb554b4aea6a190e62d2017938dbf5a", "20779e092cdd773c45c26f14065df35d6acb19d62509608c2040592ffa71f935"),
    ("H", 1): ("febf1be836f86a102d3632dcd7d9cde4e8fdacc02e5d5a173a3ec47926b58a06", "c6474c19add71b24ca64b4e5d0d1260002bc38083b4511f4d5874a889cce95c9"),
    ("H", 2): ("9190e190d8120f2c6c4ad81db7d83ccc4e8621a780c22be275c5ac60c6d2d37e", "c96b2852ddb7d8375138b14da948e739ec12718be6b9a7b1de24ffa23b779362"),
    ("H", 3): ("79a456e378ea9871e173f60ffe9886fe7aae6335838c72a77b6eb3bc55f54128", "eae40399fe18cb0e369f896074500785c955c605a9377186783795a2524c113c"),
    ("H", 4): ("c859456b567f0440083097b95f6384ac7393f3e9d2f8cb48d861e75926a2d800", "f28513aaa3292fba471bf1f7f337a9a255a62e53c6103911b2dc97f0b1f383c6"),
    ("T", 2): ("58b80aee16890aeaa103c5a135f4f06755d25b5eccd998d3f8795b713cfd21bd", "460022a0adca0f8de1f3b373449e914683e2802f37046fe1ace06fa660fed16f"),
    ("T", 4): ("88ce1a3de2cce88b681f254faefc71c7f7206ea8d4dc68bb2998638217f89e98", "be3ff34ce8af0c36a89e114f52ffde12bb872192acb1b97f3b3f2f83ed677d02"),
    ("T", 6): ("82010ae582e263dda395595e797e25bcb82d9ee1abe809bfaa3c4cc92959c42e", "67ed6b2facfb5e292011847f98215ff629ccbb41d3b55d298752e1139459a569"),
}


@pytest.mark.parametrize("name, m", sorted(TARGET_PINS))
def test_exact_targets_are_pinned(name, m):
    t = magic_power(name, m)
    fingerprint, floats = TARGET_PINS[name, m]
    assert target_fingerprint(t) == fingerprint
    assert hashlib.sha256(t.complex_vector().tobytes()).hexdigest() == floats
