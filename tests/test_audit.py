"""The audit's independent re-decode: each distinct index once, the reports unchanged."""

import math

import numpy as np
import pytest

from stabdecomp.certify import (
    AuditReport,
    Certificate,
    ShardSpec,
    audit,
    certify_rank,
    rank_tuple,
    target_fingerprint,
    unrank_tuple,
)
from stabdecomp.decomposition import WITNESS_TOL, best_fit
from stabdecomp.stabilizer import Catalog, _all_points, build_catalog, magic_power


def reference_audit(cert, catalog, target, samples=1000, seed=0):
    """The audit with every member of every tuple decoded afresh and the whole
    tuple compared with the block decoder's codes; also returns the tuples it scored, in order."""
    failures = []
    if target_fingerprint(target) != cert.target_hash:
        failures.append("target-hash")
    if len(catalog) != cert.catalog_count:
        failures.append("catalog-shape")
    elif catalog.content_hash() != cert.catalog_hash:
        failures.append("catalog-hash")
    total = math.comb(len(catalog), cert.r)
    span = cert.shard.hi - cert.shard.lo
    if (
        total != cert.total_tuples
        or cert.tuples_tested != span
        or not 0 <= cert.tuples_pruned <= cert.tuples_tested
        or cert.full_coverage != (cert.shard.lo == 0 and cert.shard.hi == total)
    ):
        failures.append("coverage-arithmetic")
    if not cert.min_nonwitness_residual >= WITNESS_TOL * 1e3:
        failures.append("residual-gap")

    t = target.complex_vector()
    scored = []

    def residual_of(tup):
        scored.append(tup)
        A = np.column_stack([catalog.get(i).complex_vector() for i in tup])
        coded = catalog.amplitude_table()[np.concatenate([catalog.codes(i, i + 1) for i in tup])]
        if "block-decoder" not in failures and not np.array_equal(A.T, coded):
            failures.append("block-decoder")
        return best_fit(A, t)[1]

    if not failures:
        for w in cert.witnesses:
            if residual_of(w) > WITNESS_TOL:
                failures.append("witness-replay")
                break
    witness_ranks = {rank_tuple(w) for w in cert.witnesses}
    rng = np.random.default_rng(seed)
    n_samples = min(samples, max(span - len(witness_ranks), 0))
    min_sample = math.inf
    tested = 0
    if failures or span == 0:
        n_samples = 0
    while tested < n_samples:
        rank = int(rng.integers(cert.shard.lo, cert.shard.hi))
        if rank in witness_ranks:
            continue
        res = residual_of(unrank_tuple(rank, cert.r))
        min_sample = min(min_sample, res)
        tested += 1
        if failures:
            break
        if res <= WITNESS_TOL:
            failures.append("sample-below-tolerance")
            break
        if res < cert.min_nonwitness_residual - 1e-9:
            failures.append("sample-below-recorded-minimum")
            break
    return AuditReport(not failures, failures, tested, min_sample), scored


@pytest.fixture(scope="module")
def cat1():
    return build_catalog(3, 1)


@pytest.fixture(scope="module")
def cat2():
    return build_catalog(3, 2)


@pytest.fixture(scope="module")
def cat3():
    return build_catalog(3, 3)


@pytest.fixture(scope="module")
def s2_pairs(cat2):
    """S⊗2 at r=2: a full-coverage certificate that lists witnesses."""
    cert = certify_rank(magic_power("S", 2), 2, cat2)
    assert cert.witnesses
    return cert


def _cases(cat1, cat2, cat3):
    """(certificate, catalog, target, samples): the desk certificates, a forged
    T3 certificate whose sampling fails, and an S⊗3 r=3 mid-range shard."""
    t3 = magic_power("T3", 1)
    forged = Certificate.from_payload(certify_rank(t3, 2, cat1).to_payload())
    forged.min_nonwitness_residual = 0.9
    s3 = magic_power("S", 3)
    lo = rank_tuple((0, 20_000, 30_000))
    cases = [
        (certify_rank(t3, 2, cat1), cat1, t3, 500),
        (forged, cat1, t3, 500),
        (certify_rank(s3, 3, cat3, shard=ShardSpec(lo, lo + 10**5)), cat3, s3, 1000),
    ]
    for name, r in (("S", 1), ("H3", 2), ("N", 2)):
        target = magic_power(name, 2)
        cases.append((certify_rank(target, r, cat2), cat2, target, 500))
    return cases


def test_audit_decodes_each_index_once_with_unchanged_reports(cat1, cat2, cat3, monkeypatch):
    for cert, catalog, target, samples in _cases(cat1, cat2, cat3):
        expected, scored = reference_audit(cert, catalog, target, samples=samples, seed=0)
        calls = []
        get = Catalog.get
        monkeypatch.setattr(Catalog, "get", lambda self, i: calls.append(i) or get(self, i))
        report = audit(cert, catalog, target, samples=samples, seed=0)
        monkeypatch.undo()
        assert report == expected, cert.target_name
        assert len(calls) == len(set(calls)) == len({i for tup in scored for i in tup})


def _flip_block_decoder(monkeypatch, index):
    """Make Catalog.codes turn the phase of the first nonzero amplitude of one index by one step."""
    decode = Catalog.codes

    def codes(self, start=0, stop=None):
        out = decode(self, start, stop)
        if start <= index < start + len(out):
            row = out[index - start]
            col = np.flatnonzero(row != len(self.amplitude_table()) - 1)[0]
            order = {2: 4, 3: 3}[self.p]  # the phases are powers of i (qubits) or of omega (qutrits)
            code = int(row[col])  # k * order + e becomes k * order + (e + 1) % order
            row[col] = code - code % order + (code + 1) % order
        return out

    monkeypatch.setattr(Catalog, "codes", codes)


def test_block_decoder_mismatch_in_a_witness(cat2, s2_pairs, monkeypatch):
    target = magic_power("S", 2)
    assert audit(s2_pairs, cat2, target).passed
    _flip_block_decoder(monkeypatch, s2_pairs.witnesses[0][0])
    report = audit(s2_pairs, cat2, target)
    assert report.failures == ["block-decoder"]
    assert report.samples_tested == 0
    assert report == reference_audit(s2_pairs, cat2, target)[0]


def test_block_decoder_mismatch_first_seen_in_a_later_sample(cat2, s2_pairs, monkeypatch):
    target = magic_power("S", 2)
    _, scored = reference_audit(s2_pairs, cat2, target)
    samples = scored[len(s2_pairs.witnesses):]
    seen = {i for w in s2_pairs.witnesses for i in w}
    for k, tup in enumerate(samples):
        fresh = [i for i in tup if i not in seen]
        if k >= 20 and fresh:
            break
        seen.update(tup)
    else:
        pytest.fail("no sample after the 20th holds an index seen for the first time")
    _flip_block_decoder(monkeypatch, fresh[0])
    report = audit(s2_pairs, cat2, target)
    assert report.failures == ["block-decoder"]
    assert report.samples_tested == k + 1
    assert report == reference_audit(s2_pairs, cat2, target)[0]


def test_point_tables_are_shared_and_read_only():
    Y = _all_points(3, 2)
    assert Y is _all_points(3, 2)
    assert Y.tolist() == [[a, b] for a in range(3) for b in range(3)]
    with pytest.raises(ValueError):
        Y[0, 0] = 1


@pytest.mark.parametrize(
    "r,witness",
    [(1, (99,)), (2, (3, 2)), (2, (1, 2, 3))],
    ids=["index-past-the-catalog", "not-increasing", "more-than-r-indices"],
)
def test_malformed_witness_fails_the_replay(cat1, r, witness):
    """A certificate built in a library session never went through
    ``Certificate.from_payload``; the audit applies the same witness rule."""
    t3 = magic_power("T3", 1)
    cert = certify_rank(t3, r, cat1)
    cert.witnesses = [witness]
    report = audit(cert, cat1, t3)
    assert report.failures == ["witness-replay"]
    assert report.samples_tested == 0
    with pytest.raises(ValueError, match=r"witnesses\[0\]"):
        Certificate.from_payload(cert.to_payload())
