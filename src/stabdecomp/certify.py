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
(s1, *tail); the blocks with one tail and consecutive s1 form a run.  Let
needed be the points of supp(t) that s1 and every tail state miss.  A tuple
of the block is pruned exactly when supp(v_x) does not contain needed, so
when needed is not empty and no x < s1 contains it, all s1 tuples of the
block are pruned, each with residual at least the prune bound.  That is
exactly what the run scorer would return for the block, so such a block is
ruled out whole, unscored; a run's blocks are screened for it in one
vectorized pass.  The run scorer takes the other blocks of a run together:
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


def _next_suffix(suffix: tuple[int, ...], count: int) -> tuple[int, ...] | None:
    """Successor suffix (positions 2..r) once all first-slot values are done."""
    s = list(suffix)
    for u in range(len(s)):
        nxt = s[u] + 1
        bound = s[u + 1] if u + 1 < len(s) else count
        if nxt < bound:
            return tuple(range(1, u + 1)) + (nxt,) + tuple(s[u + 1 :])
    return None


# ---------------------------------------------------------------------------
# shards and certificates
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
_OPTIONAL_INT = (int, type(None))
_KIND_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    _NUMBER: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
    _OPTIONAL_INT: "an integer or null",
}

# JSON type of each certificate payload field that Certificate.from_payload reads
_PAYLOAD_FIELDS = {
    "target": str,
    "copies": int,
    "p": int,
    "n": int,
    "r": int,
    "tol": _NUMBER,
    "target_hash": str,
    "catalog_hash": str,
    "catalog_count": int,
    "total_tuples": int,
    "shard": dict,
    "tuples_tested": int,
    "tuples_pruned": int,
    "witnesses": list,
    "min_nonwitness_residual": _NUMBER,
    "wall_time": _NUMBER,
    "full_coverage": bool,
    "version": int,
}


def _is_witness(w: tuple[int, ...], r: int, catalog_count: int) -> bool:
    """Whether w is r strictly increasing catalog indices, all below catalog_count."""
    return len(w) == r and list(w) == sorted(set(w)) and all(0 <= i < catalog_count for i in w)


def _typed(label: str, value, kind):
    """value, when its JSON type is kind (booleans are never integers or numbers).

    A number may be infinite (an empty shard records an infinite minimum
    residual) but not NaN, which every comparison the audit makes would pass.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        got = _KIND_NAMES.get(type(value), type(value).__name__)
        raise ValueError("certificate field %r must be %s, not %s" % (label, _KIND_NAMES[kind], got))
    if isinstance(value, float) and math.isnan(value):
        raise ValueError("certificate field %r must be a number, not NaN" % label)
    return value


def _field(d: dict, key: str, kind, label: str | None = None):
    """d[key], typed as kind; a ValueError names the field when it is missing or mistyped."""
    label = label or key
    if key not in d:
        raise ValueError("certificate lacks the field %r" % label)
    return _typed(label, d[key], kind)


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
        lo, hi = (_field(d, key, int, "shard." + key) for key in ("lo", "hi"))
        index, count = (_typed("shard." + key, d.get(key), _OPTIONAL_INT) for key in ("index", "count"))
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
        return {
            "format": "stabdecomp-certificate",
            "version": self.version,
            "target": self.target_name,
            "copies": self.copies,
            "p": self.p,
            "n": self.n,
            "r": self.r,
            "tol": self.tol,
            "target_hash": self.target_hash,
            "catalog_hash": self.catalog_hash,
            "catalog_mode": CATALOG_LABEL,
            "catalog_count": self.catalog_count,
            "total_tuples": self.total_tuples,
            "shard": self.shard.to_payload(),
            "tuples_tested": self.tuples_tested,
            "tuples_pruned": self.tuples_pruned,
            "witnesses": [list(w) for w in self.witnesses],
            "min_nonwitness_residual": self.min_nonwitness_residual,
            "full_coverage": self.full_coverage,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_payload(cls, d: dict) -> "Certificate":
        """The certificate of a payload.

        A ValueError names a missing or mistyped field, a rank r outside
        [1, catalog_count], a tol outside the range certify accepts, a
        witness that is not an r-tuple of catalog indices, or an unknown
        catalog_mode.
        """
        if not isinstance(d, dict) or d.get("format") != "stabdecomp-certificate":
            raise ValueError("not a certificate payload")
        # "dedupe" is the legacy label of the same catalog: catalog_hash proves it
        mode = _field(d, "catalog_mode", str)
        if mode not in (CATALOG_LABEL, "dedupe"):
            raise ValueError("unknown catalog_mode %r" % (mode,))
        f = {key: _field(d, key, kind) for key, kind in _PAYLOAD_FIELDS.items()}
        _check_tol(f["tol"], "certificate field 'tol' =")
        if not 1 <= f["r"] <= f["catalog_count"]:
            raise ValueError(
                "certificate rank r = %d is not between 1 and catalog_count %d" % (f["r"], f["catalog_count"])
            )
        witnesses = []
        for j, w in enumerate(f["witnesses"]):
            w = _typed("witnesses[%d]" % j, w, list)
            w = tuple(_typed("witnesses[%d][%d]" % (j, m), i, int) for m, i in enumerate(w))
            if not _is_witness(w, f["r"], f["catalog_count"]):
                raise ValueError(
                    "certificate field 'witnesses[%d]' must be %d increasing indices below catalog_count %d"
                    % (j, f["r"], f["catalog_count"])
                )
            witnesses.append(w)
        return cls(
            target_name=f["target"],
            copies=f["copies"],
            p=f["p"],
            n=f["n"],
            r=f["r"],
            tol=f["tol"],
            target_hash=f["target_hash"],
            catalog_hash=f["catalog_hash"],
            catalog_count=f["catalog_count"],
            total_tuples=f["total_tuples"],
            shard=ShardSpec.from_payload(f["shard"]),
            tuples_tested=f["tuples_tested"],
            tuples_pruned=f["tuples_pruned"],
            witnesses=witnesses,
            min_nonwitness_residual=f["min_nonwitness_residual"],
            wall_time=f["wall_time"],
            full_coverage=f["full_coverage"],
            version=f["version"],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_payload(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Certificate":
        """The certificate saved at path; a ValueError says why a file cannot be read as one."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ValueError("cannot read certificate %s: %s" % (path, exc.strerror)) from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError("certificate %s is not JSON: %s" % (path, exc)) from None
        return cls.from_payload(payload)


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
    return _BYTE_BITS[masks.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int8)


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
    x runs over x_lo <= x < ``xend``, and ``needed`` is the target support
    that s1 and the tail miss.  For r = 1 the tile is one row with no s1
    (``s1`` None, u = 0).
    """

    def __init__(self, uc, keep, s1, r1, cut, t2, xend, needed):
        self.uc, self.keep, self.s1, self.r1 = uc, keep, s1, r1
        self.cut, self.t2, self.xend, self.needed = cut, t2, xend, needed
        self.end_max, self.end_min = int(xend.max()), int(xend.min())
        self.prunes = bool(needed.any())

    @classmethod
    def of(cls, ctx, proj, Q_T, t_out, r0, s1s, x_hi, missed):
        """The tile at r0 for the scored s1s; Q_T holds the tail's basis as rows and t_out is t'."""
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
        return cls(uc, keep, s1, r1, ut.conj(), t2, np.minimum(s1, x_hi), missed & ~ctx.masks[s1])

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


def _score_run(ctx: _SearchContext, tail: tuple[int, ...], s1s, x_lo: int, x_hi: int, tol: float):
    """Residuals of the tuples (x, s1, *tail) with s1 in s1s and x_lo <= x < min(s1, x_hi).

    s1s is ascending; for r = 1 it is None and the tuples are (x,) with
    x_lo <= x < x_hi.  The tail's :class:`SpanProjection` is built once, and
    each x gets |v'_x|^2 and <v'_x, t'> from it (' is the part outside
    span(tail)).  One product per tile gives g = <u, v_x> for every s1 of
    the tile, and each tuple's residual follows in closed form:

        res^2 = t'' - |<v'_x, t'> - conj(g) <u, t'>|^2 / (|v'_x|^2 - |g|^2),

    with u and t'' as in :class:`_RowTile`.  A denominator at most
    DEPENDENT_RES2 (x in the span of the others) leaves t''.  Tuples whose
    joined supports miss the target's are pruned, and a lone block with no
    covering x is pruned whole before any linear algebra; tuples scored
    below CANDIDATE_RES2 are re-scored exactly with ``best_fit``.

    Returns (pruned_count, min_nonwitness_residual, witness_list), the
    witnesses in colex order.
    """
    V, masks, count = ctx.V, ctx.masks, ctx.count
    missed = ctx.target_mask
    for s in tail:
        missed &= ~int(masks[s])
    if s1s is not None:
        s1s = np.asarray(s1s)
    if s1s is None or len(s1s) == 1:
        end = x_hi if s1s is None else min(int(s1s[0]), x_hi)
        needed = missed if s1s is None else missed & ~int(masks[s1s[0]])
        if needed and not ((masks[x_lo:end] & needed) == needed).any():
            return end - x_lo, ctx.prune_bound, []
    proj = SpanProjection(V[list(tail)], ctx.t, ctx.tnorm2)
    if s1s is None:
        none = _RowTile(np.zeros((1, len(ctx.t))), None, None, count, np.zeros(1), np.array([proj.t_perp2]),
                        np.array([x_hi]), np.array([missed]))
        groups = [[none]]
    else:
        Q_T = proj.Q_conj.conj().T
        t_out = ctx.t - proj.q_t @ Q_T
        starts = list(dict.fromkeys((s1s - s1s % _TILE_ROWS).tolist()))  # np.unique would import numpy.ma
        groups = (
            [_RowTile.of(ctx, proj, Q_T, t_out, r0, s1s, x_hi, missed) for r0 in starts[g : g + _GROUP_TILES]]
            for g in range(0, len(starts), _GROUP_TILES)
        )
    pruned = 0
    best = math.inf  # the smallest non-witness squared residual
    witnesses: list[tuple[int, ...]] = []
    for rows in groups:
        for c0 in range(x_lo - x_lo % _TILE_COLS, max(row.end_max for row in rows), _TILE_COLS):
            c1 = min(c0 + _TILE_COLS, count)
            Vx = V[c0:c1]
            a = Vx @ proj.Q_conj
            nx2 = 1.0 - (a.real**2 + a.imag**2).sum(axis=1)  # |v'_x|^2
            ov = (ctx.t_ov[c0:c1] - a.conj() @ proj.q_t).conj()  # conj <v'_x, t'>
            for row in rows:
                if row.end_max <= c0:
                    continue
                m = min(c1, row.r1) - c0
                valid = None  # None: every tuple of the tile
                if c0 < x_lo or c0 + m > row.end_min:
                    x = np.arange(c0, c0 + m)
                    valid = (x >= x_lo) & (x < row.xend[:, None])
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


def _covered_below(masks: np.ndarray, needed: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """True where some x < s1[i] has masks[x] containing needed[i]; s1 ascending."""
    covered = np.zeros(len(s1), dtype=bool)
    if not len(s1):
        return covered
    step = max(1, _COVER_PAIRS // int(s1[-1]))
    for lo in range(0, len(s1), step):
        need, below = needed[lo : lo + step, None], s1[lo : lo + step]
        hit = (masks[None, : below[-1]] & need) == need
        first = hit.argmax(axis=1)  # the first covering x, or 0 when none covers
        covered[lo : lo + step] = hit[np.arange(len(below)), first] & (first < below)
    return covered


def _ruled_out(ctx: _SearchContext, a: int, b: int, tail: tuple[int, ...]) -> np.ndarray:
    """For the blocks of suffixes (s1, *tail), a <= s1 < b: True where no x < s1 covers.

    needed[s1] is the part of the target's support that s1 and the tail
    miss.  When it is nonzero and no x < s1 has a support containing it,
    every tuple of the block is pruned.  A support with fewer points than
    needed cannot contain it, which decides most blocks from ``cover_max``
    alone; the rest are tested against every x < s1.
    """
    masks = ctx.masks
    missed = ctx.target_mask
    for s in tail:
        missed &= ~int(masks[s])
    needed = np.int64(missed) & ~masks[a:b]
    ruled = _popcount(needed) > ctx.cover_max[a - 1 : b - 1]
    check = np.flatnonzero(~ruled & (needed != 0))
    ruled[check] = ~_covered_below(masks, needed[check], a + check)
    return ruled


def _whole_blocks_end(s1: int, room: int) -> int:
    """The largest e such that the blocks s1..e-1, C(e, 2) - C(s1, 2) tuples, fit in room."""
    return (1 + math.isqrt(1 + 8 * (room + math.comb(s1, 2)))) // 2


def _certify_range(ctx, lo, hi, r, tol, progress=None):
    """Stream ranks [lo, hi) through the run screen and the run scorer.

    At a block boundary the whole blocks of the current run that fit in the
    range are screened by ``_ruled_out``.  A block ruled out has no x whose
    support, joined with the suffix's, covers the target's support, so all
    its s1 tuples are pruned and each residual is at least ``prune_bound``:
    exactly what ``_score_run`` returns for it.  The blocks that are not
    ruled out go to ``_score_run`` together, and each partial block at a
    range edge goes alone, with its x range.  ``progress`` is called after
    each run and each partial block.
    """
    pruned = 0
    min_res = math.inf
    witnesses: list[tuple[int, ...]] = []
    if lo >= hi:
        return 0, pruned, min_res, witnesses
    tup = unrank_tuple(lo, r)
    x_lo = tup[0]
    suffix = tup[1:]
    done = lo
    while done < hi:
        s1, tail = (suffix[0], suffix[1:]) if suffix else (ctx.count, ())
        b = s1
        if suffix and x_lo == 0:
            b = min(tail[0] if tail else ctx.count, _whole_blocks_end(s1, hi - done))
        if b > s1:  # the whole blocks s1..b-1 of a run
            ruled = _ruled_out(ctx, s1, b, tail)
            if ruled.any():
                pruned += int((s1 + np.flatnonzero(ruled)).sum())
                min_res = min(min_res, ctx.prune_bound)
            s1s, x_a, x_b = s1 + np.flatnonzero(~ruled), 0, ctx.count
            done += math.comb(b, 2) - math.comb(s1, 2)
            last = (b - 1, *tail)
        else:  # a partial block, or the one block of r = 1
            s1s, x_a, x_b = [s1] if suffix else None, x_lo, min(s1, x_lo + (hi - done))
            done += x_b - x_a
            last = suffix
        if s1s is None or len(s1s):
            p, m, w = _score_run(ctx, tail, s1s, x_a, x_b, tol)
            pruned += p
            min_res = min(min_res, m)
            witnesses.extend(w)
        if progress is not None:
            progress(done - lo)
        if done < hi:  # the last block ended at its bound
            suffix = _next_suffix(last, ctx.count)
            if suffix is None:
                raise RuntimeError("ran past the final tuple; shard range invalid")
            x_lo = 0
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
    through :class:`CanonicalStabilizer`, independently of the block decoder
    (``Catalog.vectors``) that ``certify_rank`` scores with.  Each distinct
    index is re-decoded once, the first time a witness or sample holds it,
    and its vector is then compared bit for bit with the block decoder's, so
    a mismatch is reported at the first tuple that holds the index.

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
