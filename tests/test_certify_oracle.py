"""The run scorer of the certify kernel against the per-block SVD scorer it replaced.

``_svd_score_block`` below is the kernel's earlier scorer, kept here as a
reference: one :class:`SpanProjection` (an SVD of the suffix states) per
block and one projection per x, scored in a batch by ``_residual2`` over
``SpanProjection.outside``.  ``_score_run`` scores the same block from
one projection of the tail, one unit vector per s1 and one overlap product per
tile.  Block by block the two must give the same pruned count and the same
witnesses, and minimum residuals within 1e-12.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from stabdecomp.certify import _score_run, _SearchContext, rank_tuple, unrank_tuple
from stabdecomp.decomposition import CANDIDATE_RES2, DEPENDENT_RES2, SpanProjection, best_fit
from stabdecomp.stabilizer import build_catalog, magic_power

TOL = 1e-10


@lru_cache(maxsize=None)
def _context(name, m):
    target = magic_power(name, m)
    return _SearchContext(target, build_catalog(target.p, target.n))


def _residual2(proj, Vx, t_ov):
    """Squared residual of each row v of Vx over span(S + {v}); t_ov holds the <v, t>."""
    denom, overlap = proj.outside(Vx, t_ov)
    denom[denom <= DEPENDENT_RES2] = np.inf
    return np.maximum(proj.t_perp2 - (overlap.real**2 + overlap.imag**2) / denom, 0.0)


def _svd_score_block(ctx, x_lo, x_hi, suffix):
    """(pruned, min residual, witnesses) of the tuples (x, *suffix), x_lo <= x < x_hi."""
    needed = ctx.target_mask
    for s in suffix:
        needed &= ~int(ctx.masks[s])
    xs = np.arange(x_lo, x_hi)
    pruned, min_res = 0, math.inf
    if needed:
        covered = (ctx.masks[xs] & needed) == needed
        pruned = xs.size - int(np.count_nonzero(covered))
        if pruned:
            min_res = ctx.prune_bound
        xs = xs[covered]
    witnesses = []
    if not xs.size:
        return pruned, min_res, witnesses
    proj = SpanProjection(ctx.rows(list(suffix)), ctx.t, ctx.tnorm2)
    res2 = _residual2(proj, ctx.rows(xs), ctx.t_ov[xs])
    for row in np.flatnonzero(res2 <= CANDIDATE_RES2):
        tup = (int(xs[row]), *suffix)
        _, res = best_fit(np.column_stack([ctx.rows(i) for i in tup]), ctx.t)
        if res <= TOL:
            witnesses.append(tup)
            res2[row] = math.inf
        else:
            res2[row] = res**2
    finite = res2[np.isfinite(res2)]
    if finite.size:
        min_res = min(min_res, float(np.sqrt(finite.min())))
    return pruned, min_res, witnesses


def _blocks(ctx, lo, hi, r):
    """(x_lo, x_hi, suffix) of each colex block, whole or partial, in ranks [lo, hi)."""
    done = lo
    while done < hi:
        x_lo, *suffix = unrank_tuple(done, r)
        x_hi = min(suffix[0] if suffix else ctx.count, x_lo + (hi - done))
        yield x_lo, x_hi, tuple(suffix)
        done += x_hi - x_lo


def _score_block(ctx, x_lo, x_hi, suffix):
    """``_score_run`` on the tuples (x, *suffix), x_lo <= x < x_hi, addressed by their pair positions C(s1, 2) + x."""
    if not suffix:
        return _score_run(ctx, (), None, x_lo, x_hi)
    pairs = math.comb(suffix[0], 2)
    return _score_run(ctx, suffix[1:], np.array(suffix[:1]), pairs + x_lo, pairs + x_hi)


def _s1_in_tail_span(ctx, suffix):
    """Whether s1 lies in the span of the rest of the suffix."""
    if len(suffix) < 2:
        return False
    proj = SpanProjection(ctx.rows(list(suffix[1:])), ctx.t, ctx.tnorm2)
    v = ctx.rows(suffix[0])
    a = proj.Q_conj.T @ v
    return 1.0 - float(np.vdot(a, a).real) <= DEPENDENT_RES2


def _assert_blocks_agree(name, m, blocks):
    """Compare every block; returns (pruned, witnesses, blocks whose s1 lies in span(tail))."""
    ctx = _context(name, m)
    pruned = witnesses = dependent = 0
    for x_lo, x_hi, suffix in blocks:
        want = _svd_score_block(ctx, x_lo, x_hi, suffix)
        got = _score_block(ctx, x_lo, x_hi, suffix)
        where = (name, m, x_lo, x_hi, suffix)
        assert got[0] == want[0], where
        assert got[2] == want[2], where
        assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12), where
        pruned += got[0]
        witnesses += len(got[2])
        dependent += _s1_in_tail_span(ctx, suffix)
    return pruned, witnesses, dependent


def test_three_qutrit_triples():
    ctx = _context("S", 3)
    # whole blocks of the benchmark's seed-0 run (full support, nothing pruned),
    # partial blocks that start and end inside the row and column tiles
    blocks = [(0, s1, (s1, 24_001)) for s1 in (20_340, 20_341, 20_383, 20_448)]
    blocks += [(7, 20_001, (20_350, 24_001)), (130, 131, (20_351, 24_001)), (255, 20_349, (20_349, 24_001))]
    # low-support tails: partly pruned blocks
    blocks += list(_blocks(ctx, rank_tuple((0, 3_000, 5_000)), rank_tuple((0, 3_000, 5_000)) + 20_000, 3))
    pruned, _, _ = _assert_blocks_agree("S", 3, blocks)
    assert pruned


def test_x_windows_inside_later_column_tiles():
    # windows that start past the first column tile of 128 x and end before s1:
    # the pruned x below the window's start must count nowhere
    blocks = [(200, 2_000, (2_500, 5_000)), (300, 301, (2_500, 5_000)), (1_000, 2_299, (2_300, 5_000))]
    pruned, _, _ = _assert_blocks_agree("S", 3, blocks)
    assert pruned


# ranges of the N⊗2 r=3 space that hold its witnesses (see test_certify_runs)
@pytest.mark.parametrize("lo,hi", [(262_001, 270_003), (1_829_001, 1_831_007), (7_640_007, 7_711_320)])
def test_two_qutrit_triples_with_witnesses(lo, hi):
    ctx = _context("N", 2)
    _, witnesses, _ = _assert_blocks_agree("N", 2, _blocks(ctx, lo, hi, 3))
    assert witnesses


@pytest.mark.parametrize("lo,hi", [(0, 3_001), (7_003, 10_010), (19_017, 21_999)])
def test_two_qubit_quadruples(lo, hi):
    # dependent suffixes (s1 in the span of the tail) and partly pruned blocks
    ctx = _context("H", 2)
    pruned, witnesses, dependent = _assert_blocks_agree("H", 2, _blocks(ctx, lo, hi, 4))
    assert pruned and witnesses and dependent


@pytest.mark.parametrize("name,m,r", [("S", 2, 1), ("T3", 1, 1), ("T3", 1, 2), ("S", 2, 2), ("N", 2, 2), ("H", 3, 2)])
def test_single_states_and_pairs_full_space(name, m, r):
    ctx = _context(name, m)
    _assert_blocks_agree(name, m, _blocks(ctx, 0, math.comb(ctx.count, r), r))
    # partial blocks of the same space
    total = math.comb(ctx.count, r)
    _assert_blocks_agree(name, m, _blocks(ctx, total // 3 + 1, total // 3 + 2 * ctx.count // 3, r))
