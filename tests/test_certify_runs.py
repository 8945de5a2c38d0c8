"""The run screen and run scorer of the certify kernel against a per-block walk.

``_certify_range`` sends every block of a run (one tail, consecutive s1) to
one ``_score_run`` call, which rules out whole blocks in one vectorized pass
(``_ruled_out``) and scores the others together.  ``_per_block`` below is
the walk without the screen: every block goes through ``_score_run`` alone,
with ``_ruled_out`` patched to rule nothing.  The two must agree exactly on
the tuples tested, the tuples pruned, the witnesses and the minimum residual.
Where every block is pruned whole, the reference is the per-block support
test of ``test_certify_oracle``, which needs no projection at all.
"""

import itertools
import math
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from stabdecomp.certify import (
    ShardSpec,
    _certify_range,
    _covered_below,
    _ruled_out,
    _score_run,
    _SearchContext,
    certify_rank,
    merge_certificates,
    rank_tuple,
    unrank_tuple,
)
from stabdecomp.stabilizer import build_catalog, magic_power
from test_certify_oracle import _blocks, _svd_score_block

TOL = 1e-10


@lru_cache(maxsize=None)
def _catalog(p, n):
    return build_catalog(p, n)


@lru_cache(maxsize=None)
def _context(name, m):
    target = magic_power(name, m)
    return _SearchContext(target, _catalog(target.p, target.n))


def _score_block(ctx, x_lo, x_hi, suffix, tol):
    """``_score_run`` on the tuples (x, *suffix), x_lo <= x < x_hi, addressed by their pair positions C(s1, 2) + x."""
    if not suffix:
        return _score_run(ctx, (), None, x_lo, x_hi, tol)
    pairs = math.comb(suffix[0], 2)
    return _score_run(ctx, suffix[1:], np.array(suffix[:1]), pairs + x_lo, pairs + x_hi, tol)


def _rule_nothing(ctx, missed, s1s, xend):
    return np.zeros(len(s1s), dtype=bool)


def _per_block(ctx, lo, hi, r, tol):
    """Ranks [lo, hi) one colex block at a time, each through ``_score_run`` with the screen off."""
    pruned = 0
    min_res = math.inf
    witnesses = []
    with mock.patch("stabdecomp.certify._ruled_out", _rule_nothing):
        for x_lo, x_hi, suffix in _blocks(ctx, lo, hi, r):
            p, m, w = _score_block(ctx, x_lo, x_hi, suffix, tol)
            pruned += p
            min_res = min(min_res, m)
            witnesses.extend(w)
    return hi - lo, pruned, min_res, witnesses


def _assert_same(name, m, r, lo, hi):
    ctx = _context(name, m)
    got = _certify_range(ctx, lo, hi, r, TOL)
    want = _per_block(ctx, lo, hi, r, TOL)
    assert got[:2] == want[:2]
    assert got[2] == want[2]  # the same floats, not merely close ones
    assert got[3] == want[3]
    return got


def _support_pruned(ctx, r, below):
    """Tuples with every index < below whose joined supports miss the target's, one at a time."""
    masks = ctx.masks.tolist()
    count = 0
    for suffix in itertools.combinations(range(1, below), r - 1):
        joined = 0
        for s in suffix:
            joined |= masks[s]
        count += sum(1 for x in range(suffix[0]) if (masks[x] | joined) & ctx.target_mask != ctx.target_mask)
    return count


# ---------------------------------------------------------------------------
# equality with the per-block walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["T3", "N"])
def test_two_qutrit_pairs_full_space(name):
    ctx = _context(name, 2)
    total = math.comb(ctx.count, 2)
    tested, pruned, _, _ = _assert_same(name, 2, 2, 0, total)
    assert tested == total
    assert pruned == _support_pruned(ctx, 2, ctx.count) > 0


# the 48 witnesses of the N⊗2 r=3 space (7,711,320 tuples)
N2_WITNESSES = [
    (8, 117, 215), (8, 117, 301), (8, 152, 175), (8, 215, 301), (32, 115, 117), (32, 115, 293),
    (32, 117, 293), (32, 168, 194), (34, 113, 117), (34, 113, 223), (34, 117, 223), (34, 160, 183),
    (36, 72, 117), (36, 72, 238), (36, 72, 261), (36, 72, 324), (36, 72, 359), (36, 117, 238),
    (36, 117, 359), (36, 238, 261), (36, 238, 324), (36, 238, 359), (36, 261, 359), (36, 324, 359),
    (41, 77, 215), (43, 79, 301), (72, 117, 261), (72, 117, 324), (72, 238, 261), (72, 238, 324),
    (72, 261, 324), (72, 261, 359), (72, 324, 359), (113, 117, 223), (113, 308, 340), (115, 117, 293),
    (115, 230, 253), (117, 215, 301), (117, 238, 261), (117, 238, 324), (117, 261, 359), (117, 324, 359),
    (223, 316, 348), (238, 261, 324), (238, 261, 359), (238, 324, 359), (246, 272, 293), (261, 324, 359),
]

# ranges of the N⊗2 r=3 space that hold witnesses; each starts inside a
# block, and all but the last end inside one
N2_WITNESS_RANGES = [(262_001, 270_003), (1_829_001, 1_831_007), (2_950_001, 2_960_003), (7_640_007, 7_711_320)]


def test_two_qutrit_triples_full_space_certificate():
    target = magic_power("N", 2)
    cert = certify_rank(target, 3, _catalog(3, 2))
    assert cert.full_coverage
    assert cert.tuples_tested == math.comb(360, 3) == 7_711_320
    assert cert.tuples_pruned == 257_214
    assert cert.witnesses == N2_WITNESSES
    assert cert.min_nonwitness_residual == pytest.approx(1 / 6, rel=0, abs=1e-12)


@pytest.mark.parametrize("lo,hi", N2_WITNESS_RANGES)
def test_two_qutrit_triples_with_witnesses(lo, hi):
    assert unrank_tuple(lo, 3)[0] > 0
    _, _, _, witnesses = _assert_same("N", 2, 3, lo, hi)
    assert witnesses
    assert all(lo <= rank_tuple(w) < hi for w in witnesses)


def test_two_qutrit_triples_prefix_matches_support_oracle():
    # every s2 < 60: the low-support states, where the exact cover test decides
    ctx = _context("N", 2)
    _, pruned, _, _ = _assert_same("N", 2, 3, 0, math.comb(60, 3))
    assert pruned == _support_pruned(ctx, 3, 60) > 0


@pytest.mark.parametrize("name", ["S", "T3"])
def test_one_qutrit_quadruples_full_space(name):
    ctx = _context(name, 1)
    _assert_same(name, 1, 4, 0, math.comb(ctx.count, 4))


@pytest.mark.parametrize("lo,hi", [(0, 3_001), (7_003, 10_010), (19_017, 21_999)])
def test_two_qubit_quadruples(lo, hi):
    # the two-qubit catalog has 60 states; its low-support ones, where pruning
    # happens, fill the ranks below about 21,000
    _, pruned, _, witnesses = _assert_same("H", 2, 4, lo, hi)
    assert pruned and witnesses


def test_ranges_start_and_end_mid_block_and_mid_run():
    rng = np.random.default_rng(11)
    total = math.comb(_context("N", 2).count, 3)
    for _ in range(12):
        lo = int(rng.integers(0, total - 1))
        hi = min(total, lo + int(rng.integers(1, 60_000)))
        _assert_same("N", 2, 3, lo, hi)
    # a block start that is not the first block of its run, to the middle of a later run
    lo = rank_tuple((0, 40, 90))
    hi = rank_tuple((17, 95, 97))
    _assert_same("N", 2, 3, lo, hi)
    # one tuple, and the last tuple of a block
    _assert_same("N", 2, 3, lo + 5, lo + 6)
    _assert_same("N", 2, 3, rank_tuple((39, 40, 90)), rank_tuple((39, 40, 90)) + 1)
    _assert_same("N", 2, 3, lo, lo)


def test_low_support_prefixes():
    # every block here is pruned whole, so the per-block SVD scorer of
    # test_certify_oracle returns from its support test, before any projection
    for name, m in (("S", 3), ("H", 4)):
        ctx = _context(name, m)
        got = _certify_range(ctx, 3, 5_000_003, 3, TOL)
        blocks = list(_blocks(ctx, 3, 5_000_003, 3))
        scores = [_svd_score_block(ctx, *block, TOL) for block in blocks]
        want = (
            sum(x_hi - x_lo for x_lo, x_hi, _ in blocks),
            sum(p for p, _, _ in scores),
            min(res for _, res, _ in scores),
            [w for _, _, ws in scores for w in ws],
        )
        assert got[:2] == want[:2]
        assert got[2] == want[2]  # the same floats, not merely close ones
        assert got[3] == want[3]
        tested, pruned, min_res, witnesses = got
        assert tested == pruned == 5_000_000
        assert min_res == ctx.prune_bound and not witnesses


@pytest.mark.parametrize("name,m", [("S", 3), ("H", 4)])
@pytest.mark.parametrize(
    "first,last",
    [((3, 40, 90), (16, 85, 90)), ((3, 40, 90), (16, 40, 90)), ((3, 40, 90), (16, 85, 95))],
    ids=["one-tail", "one-block", "six-tails"],
)
def test_partial_edge_blocks_ruled_out(monkeypatch, name, m, first, last):
    # the range starts and ends inside blocks that the screen rules out, so its
    # pruned count comes from the x windows alone, with nothing projected
    screened = []

    def recording(ctx, missed, s1s, xend):
        screened.append((s1s, xend, _ruled_out(ctx, missed, s1s, xend)))
        return screened[-1][2]

    def no_projection(*args):
        raise AssertionError("a ruled-out block reached the projection")

    ctx = _context(name, m)
    lo, hi = rank_tuple(first), rank_tuple(last) + 1
    assert unrank_tuple(lo, 3)[0] > 0 and unrank_tuple(hi, 3)[0] > 0
    with monkeypatch.context() as patched:
        patched.setattr("stabdecomp.certify._ruled_out", recording)
        patched.setattr("stabdecomp.certify.SpanProjection", no_projection)
        got = _certify_range(ctx, lo, hi, 3, TOL)
    want = _per_block(ctx, lo, hi, 3, TOL)
    assert got[:2] == want[:2] and got[2] == want[2] and got[3] == want[3]
    tested, pruned, min_res, witnesses = got
    assert tested == pruned == hi - lo
    assert min_res == ctx.prune_bound and not witnesses
    # every block is ruled out: the first window starts past x = 0 (above),
    # and the last window ends before its block's s1
    assert all(ruled.all() for _, _, ruled in screened)
    s1s, xend, _ = screened[-1]
    assert s1s[-1] == last[1] and xend[-1] == last[0] + 1 < last[1]
    assert len(screened) == last[2] - first[2] + 1  # one screen per tail


@pytest.mark.parametrize(
    "name,m,r,lo,hi",
    [
        ("N", 2, 3, 2_000_003, 2_400_001),
        # dependent suffixes and partly pruned blocks
        ("H", 2, 4, 5, 15_000),
        # the benchmark's seed-0 run: blocks of about 20,340 tuples over several row tiles
        ("S", 3, 3, rank_tuple((0, 20_338, 24_001)) + 11, rank_tuple((0, 20_460, 24_001)) + 17),
    ],
)
def test_whole_range_equals_merged_random_sub_shards(name, m, r, lo, hi):
    # each tuple's residual must not depend on how a range is split into
    # shards, runs and blocks: the merge matches float for float
    target = magic_power(name, m)
    catalog = _catalog(target.p, target.n)
    rng = np.random.default_rng(lo)
    cuts = sorted(int(c) for c in rng.choice(np.arange(lo + 1, hi), size=7, replace=False))
    cuts = [c for c in cuts if unrank_tuple(c, r)[0] > 0]  # mid-block
    assert len(cuts) >= 5
    edges = [lo, *cuts, hi]
    parts = [certify_rank(target, r, catalog, shard=ShardSpec(a, b)) for a, b in zip(edges, edges[1:])]
    whole = certify_rank(target, r, catalog, shard=ShardSpec(lo, hi))
    assert replace(merge_certificates(parts), wall_time=0.0) == replace(whole, wall_time=0.0)


def test_single_state_range():
    ctx = _context("S", 2)
    _assert_same("S", 2, 1, 0, ctx.count)
    _assert_same("S", 2, 1, 7, 200)


def test_covered_below_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(3)
    masks = rng.integers(0, 1 << 12, size=300).astype(np.int64)
    s1 = np.sort(rng.integers(0, 300, size=400))
    # needed values drawn from the masks at s1 itself and around it, and random ones
    needed = np.where(rng.random(400) < 0.5, masks[np.minimum(s1, 299)], rng.integers(0, 1 << 6, size=400))
    needed = needed.astype(np.int64)
    want = [any(masks[x] & need == need for x in range(s)) for need, s in zip(needed.tolist(), s1.tolist())]
    assert _covered_below(masks, needed, s1).tolist() == want
    assert any(want) and not all(want)
    assert _covered_below(masks, needed[:0], s1[:0]).size == 0
    # window ends in no order, at or below s1 as the last block of a window has, 0 among them
    end = rng.integers(0, s1 + 1)
    assert (np.diff(end) < 0).any() and (end < s1).any() and (end == 0).any()
    want = [any(masks[x] & need == need for x in range(e)) for need, e in zip(needed.tolist(), end.tolist())]
    assert _covered_below(masks, needed, end).tolist() == want
    assert any(want) and not all(want)
    monkeypatch.setattr("stabdecomp.certify._COVER_PAIRS", 1_000)  # chunks of 3 rows
    assert _covered_below(masks, needed, end).tolist() == want


def test_cover_test_sees_only_open_blocks(monkeypatch):
    # blocks that miss nothing (needed == 0) or that the support-size bound
    # already rules out never reach the pairwise cover test
    asked = []

    def recording(masks, needed, end):
        asked.append((needed.copy(), end.copy()))
        return _covered_below(masks, needed, end)

    monkeypatch.setattr("stabdecomp.certify._covered_below", recording)
    ctx = _context("N", 2)
    _assert_same("N", 2, 3, 0, math.comb(120, 3))
    needed = np.concatenate([n for n, _ in asked])
    end = np.concatenate([e for _, e in asked])
    assert needed.size and (needed != 0).all()
    sizes = [bin(v).count("1") for v in needed.tolist()]
    assert (np.array(sizes) <= ctx.cover_max[end - 1]).all()
    assert (np.array(sizes) == ctx.cover_max[end - 1]).any()


# ---------------------------------------------------------------------------
# progress
# ---------------------------------------------------------------------------


def _recording():
    seen = []
    return seen, seen.append


def test_progress_once_per_run_on_a_pruned_shard():
    target = magic_power("H", 4)
    catalog = _catalog(2, 4)
    total = math.comb(len(catalog), 3)
    shard = ShardSpec.of(0, 200_000, total)
    seen, progress = _recording()
    cert = certify_rank(target, 3, catalog, shard=shard, progress=progress)
    size = shard.hi - shard.lo
    assert cert.tuples_pruned == cert.tuples_tested == size
    assert seen[0] == 0 and seen[-1] == size
    assert all(a < b for a, b in zip(seen, seen[1:]))
    # one call before the walk, then one per largest index s2 (one tail each, its partial blocks included)
    runs = unrank_tuple(shard.hi - 1, 3)[2] - unrank_tuple(shard.lo, 3)[2] + 1
    assert len(seen) == runs + 1


def test_progress_and_certificate_across_shards_that_split_runs():
    target = magic_power("N", 2)
    catalog = _catalog(3, 2)
    total = math.comb(len(catalog), 3)
    lo, hi = 1_000_003, 1_300_007
    straight_seen, progress = _recording()
    straight = certify_rank(target, 3, catalog, shard=ShardSpec(lo, hi), progress=progress)
    # sub-shards of 7,919 tuples: their edges fall inside blocks and inside runs
    parts, sizes = [], []
    for a in range(lo, hi, 7_919):
        b = min(hi, a + 7_919)
        seen, progress = _recording()
        parts.append(certify_rank(target, 3, catalog, shard=ShardSpec(a, b), progress=progress))
        sizes.append(b - a)
        assert seen[-1] == b - a
        assert all(x < y for x, y in zip(seen, seen[1:]))
    assert straight_seen[-1] == hi - lo
    assert all(x < y for x, y in zip(straight_seen, straight_seen[1:]))
    assert [c.tuples_tested for c in parts] == sizes
    merged = merge_certificates(parts)
    assert replace(merged, wall_time=0.0) == replace(straight, wall_time=0.0)
    assert straight.tuples_tested == hi - lo < total
