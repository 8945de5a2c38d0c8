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
exactly what the block scorer would return for the block, so such a block is
ruled out whole, unscored; a run's blocks are screened for it in one
vectorized pass.  Every other block goes to the block scorer.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import CANDIDATE_RES2, WITNESS_TOL_FLOOR, SpanProjection, best_fit
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

# x rows scored at once within a block.  Blocks reach 2e4 rows; scored whole,
# their ~0.3-0.6 MB temporaries go back to the system after every block and
# are faulted in again for the next one.
_SCORE_ROWS = 2048

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
    """value, when its JSON type is kind (booleans are never integers or numbers)."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        got = _KIND_NAMES.get(type(value), type(value).__name__)
        raise ValueError("certificate field %r must be %s, not %s" % (label, _KIND_NAMES[kind], got))
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


def _score_block(
    ctx: _SearchContext,
    x_lo: int,
    x_hi: int,
    suffix: tuple[int, ...],
    tol: float,
):
    """Residuals for tuples (x, *suffix) with x_lo <= x < x_hi; returns per-tuple stats.

    The suffix states S get one :class:`SpanProjection` per block, so each x
    costs one (r-1)-column projection.

    Returns (pruned_count, min_nonwitness_residual, witness_list).
    """
    masks = ctx.masks
    needed = ctx.target_mask
    for s in suffix:
        needed &= ~int(masks[s])
    witnesses: list[tuple[int, ...]] = []
    min_res = math.inf
    pruned = 0
    xs = None  # the scored x when some are pruned; otherwise all of [x_lo, x_hi)
    Vx, t_ov = ctx.V[x_lo:x_hi], ctx.t_ov[x_lo:x_hi]
    if needed:
        covered = (masks[x_lo:x_hi] & needed) == needed
        kept = int(np.count_nonzero(covered))
        pruned = covered.size - kept
        if pruned:
            min_res = ctx.prune_bound
            if not kept:
                return pruned, min_res, witnesses
            xs = x_lo + np.flatnonzero(covered)
            Vx, t_ov = ctx.V[xs], ctx.t_ov[xs]

    proj = SpanProjection(ctx.V[list(suffix)], ctx.t, ctx.tnorm2)
    res2 = np.empty(len(t_ov))
    for lo in range(0, len(t_ov), _SCORE_ROWS):
        hi = lo + _SCORE_ROWS
        res2[lo:hi] = proj.residual2(Vx[lo:hi], t_ov[lo:hi])

    # exact re-score below the projection floating-point floor
    cand = np.flatnonzero(res2 <= CANDIDATE_RES2)
    for row in cand:
        x = x_lo + int(row) if xs is None else int(xs[row])
        A = np.column_stack([ctx.V[x]] + [ctx.V[s] for s in suffix])
        _, res = best_fit(A, ctx.t)
        if res <= tol:
            witnesses.append((x, *suffix))
            res2[row] = math.inf  # exclude from the non-witness minimum
        else:
            res2[row] = res**2
    finite = res2[np.isfinite(res2)]
    if finite.size:
        min_res = min(min_res, float(np.sqrt(finite.min())))
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
    """Stream ranks [lo, hi) through the run screen and the block scorer.

    At a block boundary the whole blocks of the current run that fit in the
    range are screened by ``_ruled_out``.  A block ruled out has no x whose
    support, joined with the suffix's, covers the target's support, so all
    its s1 tuples are pruned and each residual is at least ``prune_bound``:
    exactly what ``_score_block`` returns for it.  The blocks that are not
    ruled out, and the partial blocks at the range edges, are scored by
    ``_score_block``.  ``progress`` is called after each run and each
    partial block.
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
            blocks = [(0, s, (s, *tail)) for s in (s1 + np.flatnonzero(~ruled)).tolist()]
            done += math.comb(b, 2) - math.comb(s1, 2)
            last = (b - 1, *tail)
        else:  # a partial block, or the one block of r = 1
            x_hi = min(s1, x_lo + (hi - done))
            blocks = [(x_lo, x_hi, suffix)]
            done += x_hi - x_lo
            last = suffix
        for x_a, x_b, suf in blocks:
            p, m, w = _score_block(ctx, x_a, x_b, suf, tol)
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


def merge_certificates(certs: list[Certificate]) -> Certificate:
    """Union of disjoint shards of one search into a single certificate."""
    if not certs:
        raise ValueError("nothing to merge")
    head = certs[0]
    for c in certs[1:]:
        same = (
            c.target_name == head.target_name
            and c.copies == head.copies
            and c.r == head.r
            and c.tol == head.tol
            and c.target_hash == head.target_hash
            and c.catalog_hash == head.catalog_hash
            and c.catalog_count == head.catalog_count
            and c.total_tuples == head.total_tuples
            and c.version == head.version
        )
        if not same:
            raise ValueError("certificates describe different searches")
    ordered = sorted(certs, key=lambda c: c.shard.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.shard.lo < a.shard.hi:
            raise ValueError("overlapping shards")
        if b.shard.lo != a.shard.hi:
            # a gapped union could not be audited from a single rank range
            raise ValueError("shards do not tile a contiguous range")
    tiles = ordered[0].shard.lo == 0 and ordered[-1].shard.hi == head.total_tuples
    return Certificate(
        target_name=head.target_name,
        copies=head.copies,
        p=head.p,
        n=head.n,
        r=head.r,
        tol=head.tol,
        target_hash=head.target_hash,
        catalog_hash=head.catalog_hash,
        catalog_count=head.catalog_count,
        total_tuples=head.total_tuples,
        shard=ShardSpec(lo=ordered[0].shard.lo, hi=ordered[-1].shard.hi),
        tuples_tested=sum(c.tuples_tested for c in ordered),
        tuples_pruned=sum(c.tuples_pruned for c in ordered),
        witnesses=sorted(w for c in ordered for w in c.witnesses),
        min_nonwitness_residual=min(c.min_nonwitness_residual for c in ordered),
        wall_time=sum(c.wall_time for c in ordered),
        full_coverage=tiles,
        version=head.version,
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
    (one that is not r increasing catalog indices fails the replay),
    re-scores a random sample of non-witness tuples with the exact fitter,
    and checks the coverage arithmetic and the residual-gap invariant.

    Witnesses and samples are deliberately re-decoded one state at a time
    through :class:`CanonicalStabilizer`, independently of the block decoder
    (``Catalog.vectors``) that ``certify_rank`` scores with.  Each distinct
    index is re-decoded once, the first time a witness or sample holds it,
    and its vector is then compared bit for bit with the block decoder's, so
    a mismatch is reported at the first tuple that holds the index.
    """
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
        or cert.tuples_pruned > cert.tuples_tested
        or cert.full_coverage != (cert.shard.lo == 0 and cert.shard.hi == total)
    ):
        failures.append("coverage-arithmetic")

    if cert.min_nonwitness_residual < cert.tol * 1e3:
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

    if not failures:
        for w in cert.witnesses:
            if not _is_witness(w, cert.r, cert.catalog_count) or residual_of(w) > cert.tol:
                failures.append("witness-replay")
                break

    witness_ranks = set() if failures else {rank_tuple(w) for w in cert.witnesses}
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
