"""Exhaustive non-existence certificates for stabilizer-rank bounds.

All unordered r-tuples from a catalog are enumerated in colexicographic
order (rank = sum_t C(i_t, t)), scored by least-squares residual against
the target, and summarized in a machine-auditable certificate.  Sharding
splits the rank range exactly, so independent runs tile the full space and
merge into one certificate.  Tuples whose combined support cannot cover
the target's support are pruned before any linear algebra; a pruned tuple's
residual is bounded below by the smallest nonzero target amplitude, which
keeps the recorded minimum residual sound.

The tuples (x, s1, *tail) with x < s1 form one scoring block per suffix
(s1, *tail); the blocks of one tail that a rank range holds form a run,
whose first and last blocks may be partial.  Let needed be the points of
supp(t) that s1 and every tail state miss.  A tuple of the block is pruned
exactly when supp(v_x) does not contain needed, so when needed is not empty
and no x < s1 contains it, all the block's tuples are pruned, each with
residual at least the prune bound.  The run scorer owns a run: it screens
the run's blocks for this in one vectorized pass, testing the x below the
end of each block's window, and counts the tuples of a block ruled out
whole without scoring them.  It takes the other blocks of the run together:
it projects the tail out of every x once and gets the overlaps of each s1
with every x from one product per tile.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .decomposition import CANDIDATE_RES2, DEPENDENT_RES2, WITNESS_TOL_FLOOR, SpanProjection, best_fit
from .decomposition import _NUMBER, _OPTIONAL_INT, _field, _read_json, _typed
from .stabilizer import CATALOG_LABEL, Catalog, TargetState

__all__ = [
    "ShardSpec",
    "Certificate",
    "AuditReport",
    "rank_tuple",
    "unrank_tuple",
    "certify_rank",
    "merge_certificates",
    "audit",
    "target_fingerprint",
]

# support masks are int64 bitsets, one bit per basis state; the sign bit stays clear
_MASK_BITS = 63

# A scoring tile is _TILE_ROWS states s1 by _TILE_COLS states x; each complex
# temporary of a tile is 64 kB.  Tiles sit at fixed multiples of these in
# absolute catalog indices, so a tuple's residual comes from products of the
# same shapes however a range, a run or a block is split: BLAS rounds the
# entries of products of different shapes differently (a one-row product
# takes the gemv path).
_TILE_ROWS = 32
_TILE_COLS = 128

# row tiles whose s1 side is held at once (about 0.1 MB at dimension 27)
_GROUP_TILES = 8

# catalog rows whose support bits are packed at once: a whole-catalog boolean
# temporary would raise the certify peak RSS by about 0.5 MB at (2,4)
_MASK_ROWS = 4096

# (block, x) pairs tested for coverage at once when a run is screened: the
# int64 temporary stays near 1 MB
_COVER_PAIRS = 1 << 17

# set bits of each byte value (np.bitwise_count needs numpy >= 2.0)
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)


# ---------------------------------------------------------------------------
# colexicographic tuple ranking
# ---------------------------------------------------------------------------


def rank_tuple(tup: tuple[int, ...]) -> int:
    """Colex rank of a strictly increasing index tuple."""
    if list(tup) != sorted(set(tup)):
        raise ValueError("tuple must be strictly increasing")
    return sum(math.comb(i, t) for t, i in enumerate(tup, start=1))


def _iroot(x: int, t: int) -> int:
    """floor(x ** (1/t)) for integers x >= 0, t >= 1, by Newton's method from above."""
    if x < 2:
        return x
    y = 1 << -(-x.bit_length() // t)
    while True:
        z = ((t - 1) * y + x // y ** (t - 1)) // t
        if z >= y:
            return y
        y = z


def _largest_with_binomial_leq(rank: int, t: int) -> int:
    """The largest i with C(i, t) <= rank.

    (i - t + 1)^t <= t! C(i, t) <= i^t for i >= t, so the answer lies in
    [s, s + t - 1] for s the integer t-th root of t! rank.
    """
    i = max(_iroot(math.factorial(t) * rank, t), t - 1)
    while math.comb(i + 1, t) <= rank:
        i += 1
    return i


def unrank_tuple(rank: int, r: int) -> tuple[int, ...]:
    """Inverse of rank_tuple: the rank-th r-tuple in colex order."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    out = []
    for t in range(r, 0, -1):
        i = _largest_with_binomial_leq(rank, t)
        out.append(i)
        rank -= math.comb(i, t)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# shards and certificates
# ---------------------------------------------------------------------------

# The certificate payload in file order: (payload key, Certificate attribute,
# JSON type).  "format" and "catalog_mode" are the same in every certificate
# and have no attribute.
_FIELDS = (
    ("format", None, str),
    ("version", "version", int),
    ("target", "target_name", str),
    ("copies", "copies", int),
    ("p", "p", int),
    ("n", "n", int),
    ("r", "r", int),
    ("tol", "tol", _NUMBER),
    ("target_hash", "target_hash", str),
    ("catalog_hash", "catalog_hash", str),
    ("catalog_mode", None, str),
    ("catalog_count", "catalog_count", int),
    ("total_tuples", "total_tuples", int),
    ("shard", "shard", dict),
    ("tuples_tested", "tuples_tested", int),
    ("tuples_pruned", "tuples_pruned", int),
    ("witnesses", "witnesses", list),
    ("min_nonwitness_residual", "min_nonwitness_residual", _NUMBER),
    ("full_coverage", "full_coverage", bool),
    ("wall_time", "wall_time", _NUMBER),
)
_FORMAT = "stabdecomp-certificate"


def _is_witness(w: tuple[int, ...], r: int, catalog_count: int) -> bool:
    """Whether w is r strictly increasing catalog indices, all below catalog_count."""
    return len(w) == r and list(w) == sorted(set(w)) and all(0 <= i < catalog_count for i in w)


@dataclass(frozen=True)
class ShardSpec:
    """Half-open tuple-rank range [lo, hi), optionally tagged index/count."""

    lo: int
    hi: int
    index: int | None = None
    count: int | None = None

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValueError("need 0 <= lo <= hi")

    @classmethod
    def of(cls, index: int, count: int, total: int) -> "ShardSpec":
        """Shard index/count with the exact-partition ranges floor(i*T/N)."""
        if not 0 <= index < count:
            raise ValueError("shard index out of range")
        return cls(
            lo=index * total // count,
            hi=(index + 1) * total // count,
            index=index,
            count=count,
        )

    def to_payload(self) -> dict:
        return {"index": self.index, "count": self.count, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_payload(cls, d: dict) -> "ShardSpec":
        """The shard of a certificate's ``shard`` object; index and count may be null."""
        lo, hi = (_field("certificate", d, key, int, "shard." + key) for key in ("lo", "hi"))
        index, count = (_typed("certificate", "shard." + key, d.get(key), _OPTIONAL_INT) for key in ("index", "count"))
        return cls(lo=lo, hi=hi, index=index, count=count)


@dataclass
class Certificate:
    """Record of one exhaustive (sharded) rank search."""

    target_name: str
    copies: int
    p: int
    n: int
    r: int
    tol: float
    target_hash: str
    catalog_hash: str
    catalog_count: int
    total_tuples: int
    shard: ShardSpec
    tuples_tested: int
    tuples_pruned: int
    witnesses: list[tuple[int, ...]]
    min_nonwitness_residual: float
    wall_time: float
    full_coverage: bool
    version: int = 1

    def rules_out(self) -> bool:
        """True when this certificate alone excludes rank r."""
        return self.full_coverage and not self.witnesses

    def to_payload(self) -> dict:
        fixed = {"format": _FORMAT, "catalog_mode": CATALOG_LABEL}
        payload = {key: fixed[key] if attr is None else getattr(self, attr) for key, attr, _ in _FIELDS}
        payload["shard"] = self.shard.to_payload()
        payload["witnesses"] = [list(w) for w in self.witnesses]
        return payload

    @classmethod
    def from_payload(cls, d: dict) -> "Certificate":
        """The certificate of a payload.

        A ValueError names a missing or mistyped field, a rank r outside
        [1, catalog_count], a tol outside the range certify accepts, a shard
        that runs past total_tuples, a witness that is not an r-tuple of
        catalog indices, or an unknown catalog_mode.
        """
        if not isinstance(d, dict) or d.get("format") != _FORMAT:
            raise ValueError("not a certificate payload")
        # "dedupe" is the legacy label of the same catalog: catalog_hash proves it
        mode = _field("certificate", d, "catalog_mode", str)
        if mode not in (CATALOG_LABEL, "dedupe"):
            raise ValueError("unknown catalog_mode %r" % (mode,))
        f = {attr: _field("certificate", d, key, kind) for key, attr, kind in _FIELDS if attr is not None}
        _check_tol(f["tol"], "certificate field 'tol' =")
        if not 1 <= f["r"] <= f["catalog_count"]:
            raise ValueError(
                "certificate rank r = %d is not between 1 and catalog_count %d" % (f["r"], f["catalog_count"])
            )
        witnesses = []
        for j, w in enumerate(f["witnesses"]):
            w = _typed("certificate", "witnesses[%d]" % j, w, list)
            w = tuple(_typed("certificate", "witnesses[%d][%d]" % (j, m), i, int) for m, i in enumerate(w))
            if not _is_witness(w, f["r"], f["catalog_count"]):
                raise ValueError(
                    "certificate field 'witnesses[%d]' must be %d increasing indices below catalog_count %d"
                    % (j, f["r"], f["catalog_count"])
                )
            witnesses.append(w)
        shard, total = ShardSpec.from_payload(f["shard"]), f["total_tuples"]
        if shard.hi > total:
            raise ValueError("certificate field 'shard.hi' = %d is above total_tuples %d" % (shard.hi, total))
        return cls(**dict(f, shard=shard, witnesses=witnesses))

    @classmethod
    def load(cls, path: str) -> "Certificate":
        """The certificate saved at path; a ValueError says why a file cannot be read as one."""
        return cls.from_payload(_read_json(path, "certificate"))


def target_fingerprint(target: TargetState) -> str:
    """SHA-256 over the exact amplitude payloads of a target state."""
    body = json.dumps(
        [
            {"npow": a.npow, "num": a.num.to_payload()}
            for a in target.amps
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the search kernel
# ---------------------------------------------------------------------------


def _support_masks(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support masks of the rows of A as int64 (bit j set when A[:, j] is nonzero), and their sizes as int8."""
    packed = np.zeros((len(A), 8), dtype=np.uint8)
    sizes = np.empty(len(A), dtype=np.int8)
    for lo in range(0, len(A), _MASK_ROWS):
        support = A[lo : lo + _MASK_ROWS] != 0
        bits = np.packbits(support, axis=1, bitorder="little")
        packed[lo : lo + _MASK_ROWS, : bits.shape[1]] = bits
        sizes[lo : lo + _MASK_ROWS] = support.sum(axis=1)
    return packed.view("<i8").reshape(-1).astype(np.int64, copy=False), sizes


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of each int64 mask, as int8."""
    counts = _BYTE_BITS[masks.view(np.uint8)].view(np.uint64)  # the eight byte counts of each mask
    return (counts * np.uint64(0x0101010101010101) >> np.uint64(56)).astype(np.int8)  # their sum, in the top byte


class _SearchContext:
    """Shared per-catalog precomputation for one certify run."""

    def __init__(self, target: TargetState, catalog: Catalog):
        if (catalog.p, catalog.n) != (target.p, target.n):
            raise ValueError("catalog does not match the target dimensions")
        self.V = catalog.vectors()
        self.count = len(self.V)
        self.masks, sizes = _support_masks(self.V)
        # cover_max[i]: the largest support among states 0..i
        self.cover_max = np.maximum.accumulate(sizes)
        self.t = target.complex_vector()
        self.tnorm2 = float(np.linalg.norm(self.t) ** 2)
        self.t_ov = (self.V @ self.t.conj()).conj()  # <v_x, t>, with no conjugated copy of V
        self.target_mask = int(_support_masks(self.t[None])[0][0])
        nonzero = np.abs(self.t[np.abs(self.t) > 0])
        # a pruned tuple misses at least one support point, so its residual
        # is at least the smallest amplitude sitting there
        self.prune_bound = float(nonzero.min()) if nonzero.size else 0.0


class _RowTile:
    """The s1 side of one tile: the states s1 that a run scores among rows r0 <= s1 < r1.

    ``uc`` holds every row conj(u), u = v'_s1 / |v'_s1|, where ' is the part
    outside span(tail); a row is zero where s1 lies in span(tail), because
    that s1 adds no direction and its tuples score as (x, *tail) alone.  The
    product with ``uc`` keeps the tile's fixed shape, and ``keep`` then picks
    the rows of the scored ``s1`` (None when every row is scored).  Per
    scored s1, ``cut`` is conj(<u, t'>), ``t2`` is t'' = |t'|^2 - |<u, t'>|^2,
    x runs over ``xlo`` <= x < ``xend``, and ``needed`` is the target support
    that s1 and the tail miss.  For r = 1 the tile is one row with no s1
    (``s1`` None, u = 0).
    """

    def __init__(self, uc, keep, s1, r1, cut, t2, xlo, xend, needed):
        self.uc, self.keep, self.s1, self.r1 = uc, keep, s1, r1
        self.cut, self.t2, self.xlo, self.xend, self.needed = cut, t2, xlo, xend, needed
        self.lo_min, self.lo_max = int(xlo.min()), int(xlo.max())
        self.end_max, self.end_min = int(xend.max()), int(xend.min())
        self.prunes = bool(needed.any())

    @classmethod
    def of(cls, ctx, proj, Q_T, t_out, r0, s1s, xlo, xend, missed):
        """The tile at r0 for the scored s1s and x windows xlo, xend; Q_T is the tail's basis as rows, t_out is t'."""
        r1 = min(r0 + _TILE_ROWS, ctx.count)
        V = ctx.V[r0:r1]
        W = V - (V @ proj.Q_conj) @ Q_T
        w2 = (W.real**2 + W.imag**2).sum(axis=1)
        scale = np.zeros(len(W))
        free = w2 > DEPENDENT_RES2
        scale[free] = 1.0 / np.sqrt(w2[free])
        uc = W.conj() * scale[:, None]
        ut = uc @ t_out  # over every row, so that its shape is fixed too
        lo, hi = np.searchsorted(s1s, [r0, r1])
        s1 = s1s[lo:hi]
        keep = None if len(s1) == r1 - r0 else s1 - r0
        if keep is not None:
            ut = ut[keep]
        t2 = proj.t_perp2 - (ut.real**2 + ut.imag**2)
        return cls(uc, keep, s1, r1, ut.conj(), t2, xlo[lo:hi], xend[lo:hi], missed & ~ctx.masks[s1])

    def residuals(self, Vx, nx2, ov):
        """Squared residuals, one row per scored s1 and one column per row v_x of Vx.

        nx2 holds the |v'_x|^2 and ov the conj <v'_x, t'>.
        """
        G = self.uc @ Vx.T  # g = <u, v_x> = <u, v'_x>
        if self.keep is not None:
            G = G[self.keep]
        num = G * self.cut[:, None]
        np.subtract(ov, num, out=num)  # conj(<v'_x, t'> - conj(g) <u, t'>)
        den = G.real**2 + G.imag**2
        np.subtract(nx2, den, out=den)  # |v'_x|^2 - |g|^2
        if den.min() <= DEPENDENT_RES2:
            den[den <= DEPENDENT_RES2] = np.inf
        res2 = num.real**2 + num.imag**2
        res2 /= den
        return np.subtract(self.t2[:, None], res2, out=res2)


def _score_run(ctx: _SearchContext, tail: tuple[int, ...], s1s, w_lo: int, w_hi: int, tol: float):
    """Residuals of the tuples (x, s1, *tail) with s1 in s1s and pair position C(s1, 2) + x in [w_lo, w_hi).

    s1s is an ascending array, and each s1 takes the x with
    max(w_lo - C(s1, 2), 0) <= x < min(w_hi - C(s1, 2), s1); for r = 1 it is
    None and the tuples are (x,) with w_lo <= x < w_hi.  ``_ruled_out``
    screens the blocks first: the tuples of a block it rules out are all
    pruned, each with residual at least ``prune_bound``, and are counted
    unscored.  The tail's :class:`SpanProjection` is built once, for the
    other blocks, and each x gets |v'_x|^2 and <v'_x, t'> from it (' is the
    part outside span(tail)).  One product per tile gives g = <u, v_x> for
    every s1 of the tile, and each tuple's residual follows in closed form:

        res^2 = t'' - |<v'_x, t'> - conj(g) <u, t'>|^2 / (|v'_x|^2 - |g|^2),

    with u and t'' as in :class:`_RowTile`.  A denominator at most
    DEPENDENT_RES2 (x in the span of the others) leaves t''.  Tuples whose
    joined supports miss the target's are pruned, and tuples scored below
    CANDIDATE_RES2 are re-scored exactly with ``best_fit``.

    Returns (pruned_count, min_nonwitness_residual, witness_list), the
    witnesses in colex order.
    """
    V, masks, count = ctx.V, ctx.masks, ctx.count
    missed = ctx.target_mask
    for s in tail:
        missed &= ~int(masks[s])
    pruned = 0
    if s1s is not None:
        pairs = s1s * (s1s - 1) // 2
        xlo, xend = np.maximum(w_lo - pairs, 0), np.minimum(w_hi - pairs, s1s)
        ruled = _ruled_out(ctx, missed, s1s, xend)
        if ruled.any():
            pruned = int((xend - xlo)[ruled].sum())
            if ruled.all():
                return pruned, ctx.prune_bound, []
            s1s, xlo, xend = s1s[~ruled], xlo[~ruled], xend[~ruled]
    proj = SpanProjection(V[list(tail)], ctx.t, ctx.tnorm2)
    if s1s is None:
        none = _RowTile(np.zeros((1, len(ctx.t))), None, None, count, np.zeros(1), np.array([proj.t_perp2]),
                        np.array([w_lo]), np.array([w_hi]), np.array([missed]))
        groups = [[none]]
    else:
        Q_T = proj.Q_conj.conj().T
        t_out = ctx.t - proj.q_t @ Q_T
        starts = list(dict.fromkeys((s1s - s1s % _TILE_ROWS).tolist()))  # np.unique would import numpy.ma
        groups = (
            [_RowTile.of(ctx, proj, Q_T, t_out, r0, s1s, xlo, xend, missed) for r0 in starts[g : g + _GROUP_TILES]]
            for g in range(0, len(starts), _GROUP_TILES)
        )
    best = math.inf  # the smallest non-witness squared residual
    witnesses: list[tuple[int, ...]] = []
    for rows in groups:
        start = min(row.lo_min for row in rows)
        for c0 in range(start - start % _TILE_COLS, max(row.end_max for row in rows), _TILE_COLS):
            c1 = min(c0 + _TILE_COLS, count)
            Vx = V[c0:c1]
            nx2, ov = proj.outside(Vx, ctx.t_ov[c0:c1])
            ov = ov.conj()
            for row in rows:
                if row.end_max <= c0 or row.lo_min >= c1:
                    continue
                m = min(c1, row.r1) - c0
                valid = None  # None: every tuple of the tile
                if c0 < row.lo_max or c0 + m > row.end_min:
                    x = np.arange(c0, c0 + m)
                    valid = (x >= row.xlo[:, None]) & (x < row.xend[:, None])
                if row.prunes:
                    need = row.needed[:, None]
                    cover = (masks[c0 : c0 + m] & need) == need
                    if valid is None:
                        valid = cover
                        pruned += cover.size - int(np.count_nonzero(cover))
                    else:
                        pruned += int(np.count_nonzero(valid & ~cover))
                        valid &= cover
                    if not valid.any():
                        continue
                res2 = row.residuals(Vx[:m], nx2[:m], ov[:m])
                if valid is not None:
                    res2[~valid] = np.inf
                if res2.min() <= CANDIDATE_RES2:
                    # exact re-score below the projection floating-point floor
                    for k in np.flatnonzero(res2 <= CANDIDATE_RES2).tolist():
                        i, j = divmod(k, m)
                        tup = (c0 + j,) + (() if row.s1 is None else (int(row.s1[i]),)) + tail
                        _, res = best_fit(np.column_stack([V[s] for s in tup]), ctx.t)
                        if res <= tol:
                            witnesses.append(tup)
                            res2.flat[k] = math.inf  # exclude from the non-witness minimum
                        else:
                            res2.flat[k] = res**2
                best = min(best, float(res2.min()))
    min_res = math.sqrt(best) if best < math.inf else math.inf
    if pruned:
        min_res = min(min_res, ctx.prune_bound)
    witnesses.sort(key=lambda w: w[::-1])
    return pruned, min_res, witnesses


def _covered_below(masks: np.ndarray, needed: np.ndarray, end: np.ndarray) -> np.ndarray:
    """True where some x < end[i] has masks[x] containing needed[i]; the ends may come in any order."""
    covered = np.zeros(len(end), dtype=bool)
    if not len(end):
        return covered
    step = max(1, _COVER_PAIRS // max(int(end.max()), 1))
    for lo in range(0, len(end), step):
        need, below = needed[lo : lo + step, None], end[lo : lo + step]
        hit = (masks[None, : max(int(below.max()), 1)] & need) == need
        first = hit.argmax(axis=1)  # the first covering x, or 0 when none covers
        covered[lo : lo + step] = hit[np.arange(len(below)), first] & (first < below)
    return covered


def _ruled_out(ctx: _SearchContext, missed: int, s1s: np.ndarray, xend: np.ndarray) -> np.ndarray:
    """For the blocks of suffixes (s1, *tail), s1 in s1s: True where no x < xend covers.

    missed is the part of the target's support that the tail misses, and
    needed[i] the part that s1s[i] misses too.  When it is nonzero and no
    x < xend[i] has a support containing it, every tuple of the block's
    window is pruned.  A support with fewer points than needed cannot
    contain it, which decides most blocks from ``cover_max`` alone; the rest
    are tested against every x < xend[i].
    """
    needed = np.int64(missed) & ~ctx.masks[s1s]
    ruled = _popcount(needed) > ctx.cover_max[xend - 1]
    check = np.flatnonzero(~ruled & (needed != 0))
    ruled[check] = ~_covered_below(ctx.masks, needed[check], xend[check])
    return ruled


def _certify_range(ctx, lo, hi, r, tol, progress=None):
    """Stream ranks [lo, hi) through the run scorer, one step per tail.

    The tuples (x, s1, *tail) of one tail have the consecutive ranks
    base + C(s1, 2) + x, so a step takes the window of pair positions
    C(s1, 2) + x that its ranks cover and sends every block of it, the
    partial first and last blocks included, to ``_score_run`` in one call;
    for r = 1 the window is x itself.  ``progress`` is called once before
    the walk and once after each tail.
    """
    pruned = 0
    min_res = math.inf
    witnesses: list[tuple[int, ...]] = []
    if progress is not None:
        progress(0)
    done = lo
    while done < hi:
        x, *suffix = unrank_tuple(done, r)
        if suffix:
            s1, tail = suffix[0], tuple(suffix[1:])
            base = done - math.comb(s1, 2) - x
            w_lo, w_hi = done - base, min(hi, base + math.comb(tail[0] if tail else ctx.count, 2)) - base
            s1s = np.arange(s1, _largest_with_binomial_leq(w_hi - 1, 2) + 1)  # the blocks of the window
        else:
            s1s, tail, base, w_lo, w_hi = None, (), 0, done, hi
        p, m, w = _score_run(ctx, tail, s1s, w_lo, w_hi, tol)
        pruned += p
        min_res = min(min_res, m)
        witnesses.extend(w)
        done = base + w_hi
        if progress is not None:
            progress(done - lo)
    return done - lo, pruned, min_res, witnesses


def _check_tol(tol: float, label: str) -> None:
    """Raise ValueError unless WITNESS_TOL_FLOOR <= tol <= sqrt(CANDIDATE_RES2); NaN fails too."""
    if not WITNESS_TOL_FLOOR <= tol <= math.sqrt(CANDIDATE_RES2):
        raise ValueError(
            "%s %g is not between the witness floor %g and the exact re-score threshold %g"
            % (label, tol, WITNESS_TOL_FLOOR, math.sqrt(CANDIDATE_RES2))
        )


def check_request(target, r: int, tol: float) -> None:
    """Raise ValueError for a certify request the kernel cannot run.

    Needs no catalog, so callers can refuse before building one.
    """
    count = Catalog.expected_count(target.p, target.n)
    if not 1 <= r <= count:  # above the catalog there is no r-tuple to test
        raise ValueError("r = %d is not between 1 and the %d catalog states" % (r, count))
    _check_tol(tol, "tol")
    if target.p**target.n > _MASK_BITS:
        raise ValueError(
            "%d basis states exceed the %d bits of a support mask" % (target.p**target.n, _MASK_BITS)
        )


def certify_rank(
    target: TargetState,
    r: int,
    catalog: Catalog,
    shard: ShardSpec | None = None,
    tol: float = 1e-10,
    progress=None,
) -> Certificate:
    """Exhaustively test every r-tuple in the shard against the target.

    A tuple is a witness when its least-squares residual is at most tol.
    Only tuples scored below sqrt(CANDIDATE_RES2) are re-scored exactly, so
    a larger tol is refused.  An interrupted shard is re-run; to keep the
    cost of that small, split the space into more shards and ``merge`` them.
    ``progress`` gets the count of tuples done: 0 before the walk, then the
    count after each tail.
    """
    check_request(target, r, tol)
    count = len(catalog)
    total = math.comb(count, r)
    if shard is None:
        shard = ShardSpec(0, total, index=0, count=1)
    if shard.hi > total:
        raise ValueError("shard range exceeds the tuple space")

    ctx = _SearchContext(target, catalog)
    t_start = time.perf_counter()
    tested, pruned, min_res, witnesses = _certify_range(ctx, shard.lo, shard.hi, r, tol, progress)
    return Certificate(
        target_name=target.name,
        copies=target.n,
        p=target.p,
        n=target.n,
        r=r,
        tol=tol,
        target_hash=target_fingerprint(target),
        catalog_hash=catalog.content_hash(),
        catalog_count=count,
        total_tuples=total,
        shard=shard,
        tuples_tested=tested,
        tuples_pruned=pruned,
        witnesses=sorted(witnesses),
        min_nonwitness_residual=min_res,
        wall_time=time.perf_counter() - t_start,
        full_coverage=(shard.lo == 0 and shard.hi == total),
    )


# ---------------------------------------------------------------------------
# merge and audit
# ---------------------------------------------------------------------------


# the fields that name one search: shards merge only when they all agree
_search_key = operator.attrgetter(
    "target_name", "copies", "r", "tol", "target_hash", "catalog_hash", "catalog_count", "total_tuples", "version"
)


def merge_certificates(certs: list[Certificate]) -> Certificate:
    """Union of disjoint shards of one search into a single certificate."""
    if not certs:
        raise ValueError("nothing to merge")
    head = certs[0]
    if any(_search_key(c) != _search_key(head) for c in certs[1:]):
        raise ValueError("certificates describe different searches")
    ordered = sorted(certs, key=lambda c: c.shard.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.shard.lo < a.shard.hi:
            raise ValueError("overlapping shards")
        if b.shard.lo != a.shard.hi:
            # a gapped union could not be audited from a single rank range
            raise ValueError("shards do not tile a contiguous range")
    return replace(
        head,
        shard=ShardSpec(lo=ordered[0].shard.lo, hi=ordered[-1].shard.hi),
        tuples_tested=sum(c.tuples_tested for c in ordered),
        tuples_pruned=sum(c.tuples_pruned for c in ordered),
        witnesses=sorted(w for c in ordered for w in c.witnesses),
        min_nonwitness_residual=min(c.min_nonwitness_residual for c in ordered),
        wall_time=sum(c.wall_time for c in ordered),
        full_coverage=ordered[0].shard.lo == 0 and ordered[-1].shard.hi == head.total_tuples,
    )


@dataclass
class AuditReport:
    passed: bool
    failures: list[str]
    samples_tested: int
    min_sample_residual: float


def audit(
    cert: Certificate,
    catalog: Catalog,
    target: TargetState,
    samples: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Independently re-check a certificate's claims.

    Re-derives the catalog and target hashes, replays every listed witness
    (one that is not r increasing catalog indices, lies outside the shard's
    rank range or is listed twice fails the replay),
    re-scores a random sample of non-witness tuples with the exact fitter,
    and checks the coverage arithmetic and the residual-gap invariant.

    Witnesses and samples are deliberately re-decoded one state at a time
    through :class:`CanonicalStabilizer`, which computes the support points
    from (x0, W) and evaluates the phase polynomial at every point,
    independently of the block decoder (``Catalog.vectors``) that
    ``certify_rank`` scores with.  The split of a form index into phase
    coefficients is shared with the block decoder; the catalog hashes pinned
    in ``tests/test_block_decoder.py`` fix it.  Each distinct index is re-decoded once, the first time a witness
    or sample holds it, and its vector is then compared bit for bit with the
    block decoder's, so a mismatch is reported at the first tuple that holds
    the index.

    A negative ``samples`` raises ValueError.
    """
    if samples < 0:
        raise ValueError("samples must be at least 0, got %d" % samples)
    failures: list[str] = []

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
        or cert.shard.hi > total
        or cert.tuples_tested != span
        or not 0 <= cert.tuples_pruned <= cert.tuples_tested
        or cert.full_coverage != (cert.shard.lo == 0 and cert.shard.hi == total)
    ):
        failures.append("coverage-arithmetic")

    if not cert.min_nonwitness_residual >= cert.tol * 1e3:  # NaN fails too
        failures.append("residual-gap")

    t = target.complex_vector()
    decoded: dict[int, np.ndarray] = {}

    def residual_of(tup):
        new = [i for i in tup if i not in decoded]
        if new:
            ref = np.array([catalog.get(i).complex_vector() for i in new])
            if "block-decoder" not in failures and not np.array_equal(ref, catalog.vectors(new)):
                failures.append("block-decoder")
            decoded.update(zip(new, ref))
        _, res = best_fit(np.column_stack([decoded[i] for i in tup]), t)
        return res

    witness_ranks: set[int] = set()
    if not failures:
        for w in cert.witnesses:
            rank = rank_tuple(w) if _is_witness(w, cert.r, cert.catalog_count) else -1
            if not cert.shard.lo <= rank < cert.shard.hi or rank in witness_ranks or residual_of(w) > cert.tol:
                failures.append("witness-replay")
                break
            witness_ranks.add(rank)

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
        if failures:  # the block decoder disagreed
            break
        if res <= cert.tol:
            failures.append("sample-below-tolerance")
            break
        if res < cert.min_nonwitness_residual - 1e-9:
            failures.append("sample-below-recorded-minimum")
            break

    return AuditReport(
        passed=not failures,
        failures=failures,
        samples_tested=tested,
        min_sample_residual=min_sample,
    )
