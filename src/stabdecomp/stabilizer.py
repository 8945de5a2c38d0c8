"""Canonical stabilizer states, enumerated catalogs, and magic-state targets.

A canonical stabilizer state on n qudits (p = 2 or 3) is

    p^(-k/2) * sum_{y in F_p^k}  phase(y) * |x0 + W y>

where W is an n x k reduced column-echelon matrix over F_p, x0 is the
canonical coset representative (zero at the pivot rows of W), and phase is a
:class:`~stabdecomp.algebra.QuadraticForm` (no constant term), whose
values are powers of omega (qutrits) or of i (qubits).  One tuple
(k, W, x0, phase) per projective stabilizer state; the catalog enumerates
them in a fixed lexicographic order so that integer indices are stable
across runs and machines.

Basis indexing is big-endian: qudit 0 is the most significant digit, matching
``numpy.kron`` composition order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from bisect import bisect_right
from itertools import combinations

import numpy as np

from .algebra import (
    CycloNumber,
    QuadraticForm,
    inv_sqrt,
    omega9,
    sqrt2,
    sqrt3,
    sqrt6,
)

# ---------------------------------------------------------------------------
# the normalization N = sqrt(3 - sqrt 3)
# ---------------------------------------------------------------------------

# N itself generates a non-abelian extension and is *not* cyclotomic, but
# N^2 = 3 - sqrt 3 is.  An exact vector (a target, or a decomposition's
# coefficients) is a list of cyclotomic numerators over one power N^npow, so
# two vectors whose powers share a parity compare in pure cyclotomic
# arithmetic once both are put over the larger power.

_N_SQUARED = CycloNumber.from_rational(3) - sqrt3()
_N_FLOAT = float(np.sqrt(3.0 - np.sqrt(3.0)))


def n_squared_factor(npow: int, d: int) -> CycloNumber:
    """(N^2)^((d - npow)/2), which puts a numerator over N^npow over N^d.

    The power difference must be even and non-negative.
    """
    diff = d - npow
    if diff < 0 or diff % 2:
        raise ValueError("cannot clear N power %d to N power %d" % (npow, d))
    return _N_SQUARED ** (diff // 2)


def n_scaled_complex(nums: list[CycloNumber], npow: int) -> np.ndarray:
    """The complex values num / N^npow of numerators over one N power."""
    scale = _N_FLOAT**npow
    return np.array([a.to_complex() / scale for a in nums], dtype=np.complex128)


# ---------------------------------------------------------------------------
# canonical stabilizer states
# ---------------------------------------------------------------------------


def basis_index(x: np.ndarray, p: int) -> int:
    """Big-endian index of a digit string (qudit 0 most significant)."""
    idx = 0
    for d in np.asarray(x).flat:
        idx = idx * p + int(d)
    return idx


@functools.cache
def _all_points(p: int, k: int) -> np.ndarray:
    """All of F_p^k as a (p^k, k) array in lexicographic order (y_0 most significant).

    Built once per (p, k) and shared by every caller, so it is read-only.
    """
    if k == 0:
        Y = np.zeros((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*[np.arange(p, dtype=np.int64)] * k, indexing="ij")
        Y = np.stack([g.ravel() for g in grids], axis=1)
    Y.flags.writeable = False
    return Y


class CanonicalStabilizer:
    """One canonical stabilizer state; immutable once constructed.

    With ``check=False`` the caller vouches that x0 and W are canonical int64
    arrays of shapes (n,) and (n, k), and they are taken as they are.
    """

    __slots__ = ("p", "n", "k", "x0", "W", "phase")

    def __init__(self, p: int, n: int, x0, W, phase, check: bool = True) -> None:
        self.p = int(p)
        self.n = int(n)
        if check:
            x0 = np.asarray(x0, dtype=np.int64).reshape(n) % p
            W = np.asarray(W, dtype=np.int64) % p
            W = W.reshape(n, W.size // n if n else 0)
        self.x0, self.W, self.k = x0, W, W.shape[1]
        self.phase = phase
        if check:
            self._validate()

    def _validate(self) -> None:
        """W is reduced column-echelon exactly when each column's first nonzero
        row (its pivot) lies strictly below the previous column's and the pivot
        rows of W are the identity; x0 is then canonical when it is zero there."""
        if self.p not in (2, 3):
            raise ValueError("p must be 2 or 3")
        pivots = (self.W != 0).argmax(axis=0) if self.k else []
        if (np.diff(pivots) <= 0).any() or not np.array_equal(self.W[pivots], np.eye(self.k, dtype=np.int64)):
            raise ValueError("W must be a reduced column-echelon basis")
        if self.x0[pivots].any():
            raise ValueError("x0 must be the canonical coset representative")
        if not isinstance(self.phase, QuadraticForm) or (self.phase.p, self.phase.k) != (self.p, self.k):
            raise ValueError("the phase must be a QuadraticForm over F_p on k variables")

    # -- support and amplitudes ------------------------------------------------

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis indices, phase exponents) over the support, in y-lex order."""
        Y = _all_points(self.p, self.k)
        X = (self.x0[None, :] + Y @ self.W.T) % self.p
        weights = self.p ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return X @ weights, self.phase.eval_batch(Y)

    def state_vector(self) -> list[CycloNumber]:
        """Dense exact amplitude vector of length p^n."""
        dim = self.p**self.n
        vec = [CycloNumber.zero() for _ in range(dim)]
        scale = inv_sqrt(self.p) ** self.k
        order = self.phase.phase_order
        roots = [CycloNumber.root_of_unity(order, e) for e in range(order)]
        idx, exps = self.points()
        for i, e in zip(idx, exps):
            vec[int(i)] = scale * roots[int(e)]
        return vec

    def complex_vector(self) -> np.ndarray:
        vec = np.zeros(self.p**self.n, dtype=np.complex128)
        idx, exps = self.points()
        order = self.phase.phase_order
        vec[idx] = np.exp(2j * np.pi * exps / order) * self.p ** (-self.k / 2)
        return vec

    # -- composition and identity ----------------------------------------------

    def tensor(self, other: "CanonicalStabilizer") -> "CanonicalStabilizer":
        if self.p != other.p:
            raise ValueError("tensor factors must share p")
        n = self.n + other.n
        x0 = np.concatenate([self.x0, other.x0])
        W = np.zeros((n, self.k + other.k), dtype=np.int64)
        W[: self.n, : self.k] = self.W
        W[self.n :, self.k :] = other.W
        A = np.zeros((self.k + other.k,) * 2, dtype=np.int64)
        A[: self.k, : self.k] = self.phase.A
        A[self.k :, self.k :] = other.phase.A
        b = np.concatenate([self.phase.b, other.phase.b])
        phase = QuadraticForm(self.p, self.k + other.k, A, b)
        return CanonicalStabilizer(self.p, n, x0, W, phase, check=False)

    def record(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "x0": self.x0.tolist(),
            "W": self.W.tolist(),
            "phase": self.phase.to_payload(),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "CanonicalStabilizer":
        p, n, k = rec["p"], rec["n"], rec["k"]
        phase = QuadraticForm.from_payload(p, k, rec["phase"])
        W = np.asarray(rec["W"], dtype=np.int64).reshape(n, k)
        return cls(p, n, rec["x0"], W, phase)

    def __repr__(self) -> str:
        return "CanonicalStabilizer(p=%d, n=%d, k=%d, x0=%s)" % (
            self.p,
            self.n,
            self.k,
            self.x0.tolist(),
        )


def ket(p: int, digits) -> CanonicalStabilizer:
    """Computational basis state |digits>."""
    digits = np.asarray(digits, dtype=np.int64)
    n = len(digits)
    return CanonicalStabilizer(p, n, digits, np.zeros((n, 0), dtype=np.int64), QuadraticForm.zero(p, 0))


def plus_state(p: int, n: int = 1) -> CanonicalStabilizer:
    """Uniform superposition |+>^n."""
    return CanonicalStabilizer(p, n, np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64), QuadraticForm.zero(p, n))


# ---------------------------------------------------------------------------
# the catalog: all canonical states on (p, n), decoded on demand from blocks
# ---------------------------------------------------------------------------


def _echelon_bases(p: int, n: int, k: int):
    """All n x k reduced column-echelon matrices, lexicographic in
    (pivot rows, free entries)."""
    for pivots in combinations(range(n), k):
        free = [(r, j) for j in range(k) for r in range(pivots[j] + 1, n) if r not in pivots]
        rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
        base = np.zeros((n, k), dtype=np.int64)
        base[list(pivots), range(k)] = 1
        for entries in _all_points(p, len(free)):
            W = base.copy()
            W[rows, cols] = entries
            yield pivots, W


class _Block:
    """A contiguous catalog range sharing (k, W, x0); forms vary within.

    ``points`` is the support x0 + span(W) as basis indices, in the y-lex
    order of the phase function, which is ascending: x's digit at W's j-th
    pivot row is y_j, and its digits above that row depend only on earlier y.
    The arrays are read-only: every state that ``Catalog.get`` decodes from
    the block shares its W and x0.
    """

    __slots__ = ("start", "nforms", "k", "W", "x0", "points")

    def __init__(self, start: int, nforms: int, W: np.ndarray, x0: np.ndarray, points: np.ndarray) -> None:
        self.start = start
        self.nforms = nforms
        self.k = W.shape[1]
        self.W = W
        self.x0 = x0
        self.points = points
        for array in (W, x0, points):
            array.flags.writeable = False


# relative tolerance on amplitudes when ``Catalog.index_of`` reads a vector
_INDEX_TOL = 1e-6

# forms decoded at once by the block decoder; bounds its temporaries
_FORM_CHUNK = 256

# the catalog's name in every artifact: the catalog JSONL header ("mode"), and
# the search and certificate payloads ("catalog_mode")
CATALOG_LABEL = "raw"

# the most qudits a catalog is counted for: p^64 is above every size limit, and n = 10,000 ran past 30 s
_COUNT_MAX_QUDITS = 64


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payload(kind: str, /, **fields) -> dict:
    """The payload of a ``stabdecomp-<kind>`` artifact: its format and version, then fields."""
    return {"format": "stabdecomp-" + kind, "version": 1, **fields}


class _FormTables:
    """Phase-function tables for one k: the one place that knows the form-index layout.

    A form index is a big-endian mixed-radix number: digit t of form f is
    ``f // place[t] % radix[t]``, where ``place[t]`` is the product of the
    later radices, and ``nforms`` is the product of them all.
    ``tuple(digits[slots])`` fills the ``%d`` fields of ``template``, the JSON
    of the form's phase payload as ``record`` gives it; ``Catalog.get`` reads
    the same coefficients off ``digits[slots]``: the quadratic ones (A, or
    B's upper entries) go to the flat positions ``cells`` of the form's A and
    to their mirror images ``mirror``, and the last k are b.  ``decode`` maps
    the exponents at every y (y-lex order) to the form digits once divided by
    ``scale``; it reads only y = e_i, 2 e_i (qutrits) and e_i + e_j.
    ``monomials`` maps digits back to the exponents at every y, which
    ``Catalog._codes_of`` reduces mod ``order`` into amplitude codes.
    """

    __slots__ = ("nforms", "order", "decode", "scale", "monomials", "place", "radix",
                 "template", "slots", "cells", "mirror")

    def __init__(self, p: int, k: int) -> None:
        Y = _all_points(p, k)
        unit = np.eye(k, dtype=np.int64)

        def row(*terms):
            out = np.zeros(len(Y), dtype=np.int64)
            for coeff, y in terms:
                out[basis_index(y, p)] += coeff
            return out

        dec, mono = [], []
        digit = {}  # (i, j) -> index of the digit of that quadratic coefficient
        if p == 3:
            # Q(y) = sum_i A_ii y_i^2 + sum_{i<j} 2 A_ij y_i y_j + b.y; digits A (i <= j), then b
            for i in range(k):
                digit[i, i] = len(dec)
                dec.append(row((2, unit[i]), (-1, 2 * unit[i])))
                mono.append(Y[:, i] ** 2)
                for j in range(i + 1, k):
                    digit[i, j] = digit[j, i] = len(dec)
                    dec.append(row((2, unit[i] + unit[j]), (-2, unit[i]), (-2, unit[j])))
                    mono.append(2 * Y[:, i] * Y[:, j])
            for i in range(k):
                dec.append(row((1, 2 * unit[i]), (-1, unit[i])))
                mono.append(Y[:, i])
            order = 3
            scale = [1] * len(dec)
            payload = {"A": [["%d"] * k] * k, "b": ["%d"] * k, "c": 0}
            cells = [(i, j) for i in range(k) for j in range(k)]
            slots = [digit[i, j] for i, j in cells] + [len(dec) - k + i for i in range(k)]
        else:
            # e(y) = a.y + 2 y^T B y mod 4; digits a (Z_4), then B (i < j, F_2)
            cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
            for i in range(k):
                dec.append(row((1, unit[i])))
                mono.append(Y[:, i])
            for i, j in cells:
                digit[i, j] = len(dec)
                dec.append(row((1, unit[i] + unit[j]), (-1, unit[i]), (-1, unit[j])))
                mono.append(2 * Y[:, i] * Y[:, j])
            order = 4
            scale = [1] * k + [2] * len(cells)
            payload = {"B": [["%d" if j > i else 0 for j in range(k)] for i in range(k)], "a": ["%d"] * k, "c": 0}
            slots = [digit[i, j] for i, j in cells] + list(range(k))
        # the two maps hold small integers as floats: exact, and products run through BLAS
        ndig = len(dec)
        radix = [order // s for s in scale]
        self.nforms = math.prod(radix)
        self.order = order
        self.decode = np.array(dec, dtype=np.float64).reshape(ndig, len(Y))
        self.scale = np.array(scale, dtype=np.int64)
        self.monomials = np.array(mono, dtype=np.float64).reshape(ndig, len(Y)).T.copy()
        self.place = np.array([math.prod(radix[t + 1 :]) for t in range(ndig)], dtype=np.int64)
        self.radix = np.array(radix, dtype=np.int64)
        self.template = _json(payload).replace('"%d"', "%d")
        self.slots = np.array(slots, dtype=np.int64)
        self.cells = np.array([i * k + j for i, j in cells], dtype=np.intp)
        self.mirror = np.array([j * k + i for i, j in cells], dtype=np.intp)


class Catalog:
    """All canonical stabilizer states on (p, n) in a fixed order.

    There is one entry per projective stabilizer state, ``expected_count(p, n)``
    of them: distinct canonical tuples are distinct states, so the enumeration
    needs no deduplication pass.  Construction lays out the blocks (one per
    (k, W, x0), with its support points), the coset lookup of ``index_of``,
    one ``_FormTables`` per k and the amplitude table; entries are decoded on
    demand from (block, form index), so the 4-qutrit catalog (7,439,040
    states) costs no more memory than its ~2500 blocks.  Order: k ascending,
    then pivot rows, W free entries, x0, phase coefficients, each lexicographic.
    """

    def __init__(self, p: int, n: int) -> None:
        self.p = p
        self.n = n
        self._forms = [_FormTables(p, k) for k in range(n + 1)]
        self._blocks: list[_Block] = []
        self._starts: list[int] = []
        # a block's support x0 + span(W), ascending, determines the block
        self._cosets: dict[bytes, _Block] = {}
        weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
        total = 0
        for k, tables in enumerate(self._forms):
            for pivots, W in _echelon_bases(p, n, k):
                span = _all_points(p, k) @ W.T
                free_rows = [r for r in range(n) if r not in pivots]
                for coset in _all_points(p, len(free_rows)):
                    x0 = np.zeros(n, dtype=np.int64)
                    x0[free_rows] = coset
                    blk = _Block(total, tables.nforms, W, x0, ((x0 + span) % p) @ weights)
                    self._blocks.append(blk)
                    self._starts.append(total)
                    self._cosets[blk.points.tobytes()] = blk
                    total += tables.nforms
        self._total = total
        amps = [np.exp(2j * np.pi * np.arange(t.order) / t.order) * p ** (-k / 2) for k, t in enumerate(self._forms)]
        self._table = np.concatenate(amps + [np.zeros(1, dtype=np.complex128)])
        self._table.flags.writeable = False
        self._hash: str | None = None

    # -- sizing -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    @staticmethod
    def expected_count(p: int, n: int) -> int:
        """Number of projective stabilizer states: p^n * prod_{j<=n} (p^j + 1), for n up to _COUNT_MAX_QUDITS."""
        if n > _COUNT_MAX_QUDITS:
            raise ValueError("the p=%d n=%d catalog is too large to count (n above %d)" % (p, n, _COUNT_MAX_QUDITS))
        out = p**n
        for j in range(1, n + 1):
            out *= p**j + 1
        return out

    # -- decoding -----------------------------------------------------------------

    def _block_of(self, i: int) -> _Block:
        if not 0 <= i < self._total:
            raise IndexError(i)
        return self._blocks[bisect_right(self._starts, i) - 1]

    def get(self, i: int) -> CanonicalStabilizer:
        blk = self._block_of(i)
        k = blk.k
        tables = self._forms[k]
        coeffs = self._digits(blk, i - blk.start)[tables.slots]
        A = np.zeros(k * k, dtype=np.int64)
        A[tables.cells] = A[tables.mirror] = coeffs[: coeffs.size - k]
        # the digits lay A out symmetric and reduced, with a zero qubit diagonal, and b reduced
        phase = QuadraticForm._trusted(self.p, k, A.reshape(k, k), coeffs[coeffs.size - k :])
        return CanonicalStabilizer(self.p, self.n, blk.x0, blk.W, phase, check=False)

    def _block_forms(self, start: int = 0, stop: int | None = None):
        """(block, form indices as a column) for the entries start <= i < stop in catalog order,
        at most ``_FORM_CHUNK`` forms at a time, each block's chunks at multiples of it from ``start``."""
        stop = self._total if stop is None else stop
        for b in range(bisect_right(self._starts, start) - 1, len(self._blocks)):
            blk = self._blocks[b]
            if blk.start >= stop:
                break
            hi = min(stop - blk.start, blk.nforms)
            for lo in range(max(start - blk.start, 0), hi, _FORM_CHUNK):
                yield blk, np.arange(lo, min(lo + _FORM_CHUNK, hi), dtype=np.int64)[:, None]

    def _digits(self, blk: _Block, forms) -> np.ndarray:
        """Form digits of the block: one row per form for a column of form indices, one 1-D row for an int."""
        tables = self._forms[blk.k]
        return forms // tables.place % tables.radix

    def _codes_of(self, blk: _Block, forms) -> np.ndarray:
        """The code formula of :meth:`codes` and :meth:`vector`: k * order + (phase exponent mod order)
        at each support point, one row per form for a column of form indices, one 1-D row for an int."""
        tables = self._forms[blk.k]
        exps = self._digits(blk, forms).dot(tables.monomials.T).astype(np.intp)
        return exps % tables.order + blk.k * tables.order

    def vector(self, i: int) -> np.ndarray:
        """The complex amplitude vector of entry i: bitwise ``get(i).complex_vector()``.

        Entry i's codes, by the formula :meth:`codes` uses, expanded through
        :meth:`amplitude_table`: one 1-D row of digits costs a few small calls
        and no more memory than the vector.
        """
        blk = self._block_of(i)
        out = np.zeros(self.p**self.n, dtype=np.complex128)
        out[blk.points] = self._table[self._codes_of(blk, i - blk.start)]
        return out

    def amplitude_table(self) -> np.ndarray:
        """The amplitude of each code of :meth:`codes` and :meth:`vector`, built once and read-only:
        p^(-k/2) w^e (as ``complex_vector`` computes it) at code k * order + e for each support
        dimension k and phase exponent e < order, then 0 at the last code."""
        return self._table

    def codes(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The entries start <= i < stop (to the catalog's end when stop is
        None), one row each, as uint8 codes into :meth:`amplitude_table`.

        ``amplitude_table()[codes(start, stop)]`` is bitwise the rows
        ``get(i).complex_vector()``, in 1/16 of their memory: the table has
        (n + 1) * order + 1 entries, at most 256 for every catalog small enough
        to enumerate.  The decode takes a block at a time: a block's support
        points are computed once, and the codes of its forms come from one
        product with the monomials (``_codes_of``, shared with :meth:`vector`).
        Codes are exact integers, so a range is the same bytes however it is split.
        """
        if stop is None:
            stop = len(self)
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                "codes(start=%d, stop=%d) is not a range of the %d catalog entries" % (start, stop, len(self))
            )
        out = np.full((stop - start, self.p**self.n), len(self._table) - 1, dtype=np.uint8)
        row = 0
        for blk, forms in self._block_forms(start, stop):
            out[row : row + forms.size, blk.points] = self._codes_of(blk, forms)
            row += forms.size
        return out

    # -- inverse lookup ------------------------------------------------------------

    def index_of(self, vec) -> int:
        """The catalog index of an amplitude vector: the inverse of :meth:`get`.

        ``vec`` has length p^n and is taken up to norm and global phase.
        Table-driven; raises ``ValueError`` for a vector that is not a catalog
        entry's.
        """
        p = self.p
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if vec.size != p**self.n:
            raise ValueError("expected a vector of length %d" % p**self.n)
        mag = np.abs(vec)
        top = float(mag.max())
        if not 0.0 < top < math.inf:
            raise ValueError("not a nonzero finite vector")
        support = np.flatnonzero(mag > top * _INDEX_TOL).astype(np.int64, copy=False)
        blk = self._cosets.get(support.tobytes())
        if blk is None:
            raise ValueError("support is not a coset of a subspace of F_%d^%d" % (p, self.n))
        forms = self._forms[blk.k]
        order = forms.order
        amps = vec[blk.points]
        turns = np.angle(amps * amps[0].conjugate()) * (order / (2 * np.pi))
        exps = np.rint(turns)
        digits = (forms.decode @ exps).astype(np.int64) % order // forms.scale
        if (
            mag[support].min() < top * (1.0 - _INDEX_TOL)
            or np.abs(turns - exps).max() > _INDEX_TOL
            or ((forms.monomials @ digits - exps).astype(np.int64) % order).any()
        ):
            raise ValueError("amplitudes are not those of a stabilizer state")
        return blk.start + int(digits @ forms.place)

    # -- hashing / export --------------------------------------------------------

    def _text_chunks(self):
        """The serialization of every entry in index order as ASCII bytes, one
        line each, joined per ``_block_forms`` step: entry i's line is
        ``_json(get(i).record())``.

        Every field that varies within a block is one form digit, so a block's
        lines share one layout: its line is formatted once with those digits
        at 0, and each step tiles it once per form and writes the digits of
        all its forms into their columns at once.
        """
        last = None
        for blk, forms in self._block_forms():
            tables = self._forms[blk.k]
            if blk is not last:
                last = blk
                parts = ('{"W":%s,"k":%d,"n":%d,"p":%d,"phase":%s,"x0":%s}\n' % (
                    _json(blk.W.tolist()), blk.k, self.n, self.p, tables.template, _json(blk.x0.tolist()),
                )).split("%d")
                line = np.frombuffer("0".join(parts).encode(), dtype=np.uint8)
                columns = np.cumsum([len(part) + 1 for part in parts[:-1]], dtype=np.intp) - 1
            text = np.tile(line, (forms.size, 1))
            text[:, columns] += self._digits(blk, forms)[:, tables.slots].astype(np.uint8)
            yield text.tobytes()

    def content_hash(self) -> str:
        """SHA-256 of the bytes of ``_text_chunks``: every entry's line, in order (computed lazily)."""
        if self._hash is None:
            h = hashlib.sha256()
            for text in self._text_chunks():
                h.update(text)
            self._hash = h.hexdigest()
        return self._hash

    def jsonl_chunks(self):
        """The catalog's JSONL text: a header line with the content hash, then ``_text_chunks``."""
        header = _payload("catalog", p=self.p, n=self.n, mode=CATALOG_LABEL, count=len(self), sha256=self.content_hash())
        yield json.dumps(header) + "\n"
        for text in self._text_chunks():
            yield text.decode("ascii")


def build_catalog(p: int, n: int) -> Catalog:
    """Enumerate all canonical stabilizer states on n qudits of dimension p."""
    return Catalog(p, n)


# ---------------------------------------------------------------------------
# magic-state targets
# ---------------------------------------------------------------------------


def _magic_states() -> dict[str, tuple[int, int, int, tuple[CycloNumber, ...]]]:
    """name -> (p, copies, npow, numerators over N^npow) of the state's fewest copies with
    cyclotomic amplitudes: one, but two for the qubit T state cos(beta)|0> + e^{i pi/4} sin(beta)|1>,
    cos^2(beta) = 1/2 + sqrt3/6, whose cos and sin are cyclotomic only in products of two."""
    one = CycloNumber.one()
    r2, r6, c = sqrt2() / 2, sqrt6() / 6, (sqrt3() - one) / 2
    r3, w9 = (sqrt3() / 3).lift(72), omega9()
    cos2, sin2 = one / 2 + sqrt3() / 6, one / 2 - sqrt3() / 6
    e8 = CycloNumber.zeta_pow(24, 3)  # e^{i pi/4}
    return {
        "S": (3, 1, 0, (CycloNumber.zero(), r2, -r2)),
        "N": (3, 1, 0, (r6, r6, -2 * r6)),
        "H3": (3, 1, 1, (one, c, c)),
        "T3": (3, 1, 0, (r3, r3 * w9, r3 * w9 * w9)),
        "H": (2, 1, 0, (r2, r2 * e8)),
        "T": (2, 2, 0, (cos2, r6 * e8, r6 * e8, sin2 * e8 * e8)),
    }


MAGIC_STATES = _magic_states()


def magic_p(name: str) -> int:
    """The qudit dimension p of a named magic state: the one place an unknown name is refused."""
    if name not in MAGIC_STATES:
        raise ValueError("unknown magic state %r (choose from %s)" % (name, ", ".join(MAGIC_STATES)))
    return MAGIC_STATES[name][0]


class TargetState:
    """An m-fold magic-state tensor power: exact amplitudes amps / N^npow, and their floats."""

    __slots__ = ("name", "p", "n", "amps", "npow")

    def __init__(self, name: str, p: int, n: int, amps: list[CycloNumber], npow: int = 0) -> None:
        self.name = name
        self.p = p
        self.n = n
        self.amps = amps
        self.npow = npow

    def complex_vector(self) -> np.ndarray:
        return n_scaled_complex(self.amps, self.npow)

    def __repr__(self) -> str:
        return "TargetState(%s, p=%d, n=%d)" % (self.name, self.p, self.n)


def check_target(name: str, m: int, label: str) -> int:
    """The p of a request for m copies of the named magic state, without building them.

    A ValueError refuses an unknown name (``magic_p``), an m below 1, named
    label in the message, or an m that is not a whole number of the state's
    ``MAGIC_STATES`` block of copies: odd powers of the qubit T state are
    refused, not approximated.
    """
    p = magic_p(name)
    if m < 1:
        raise ValueError("%s must be at least 1 copy, got %d" % (label, m))
    if m % MAGIC_STATES[name][1]:
        raise ValueError("qubit T tensor powers are exact only for even m")
    return p


def magic_power(name: str, m: int) -> TargetState:
    """The m-fold tensor power of a named magic state, exact amplitudes.

    ``check_target`` refuses the request first: an unknown name, an m below 1,
    or an m that is not a whole number of the state's ``MAGIC_STATES`` block
    of copies.
    """
    p = check_target(name, m, "m")
    _, copies, npow, block = MAGIC_STATES[name]
    amps = [CycloNumber.one()]
    for _ in range(m // copies):
        amps = [a * b for a in amps for b in block]
    return TargetState(name, p, m, amps, npow * m // copies)


def magic_state(name: str) -> TargetState:
    return magic_power(name, 1)
