"""Simulated-annealing search for small stabilizer decompositions.

The search space is r-subsets of a state catalog; the energy of a subset
is its least-squares residual against the target, so the coefficients are
always optimal and only the membership is annealed.  A move replaces one
member, half the time by a uniform draw from the catalog and half the time by
a neighbour: the member's projection onto an eigenspace of a random Weyl
operator, the move used in stabilizer-rank searches (Bravyi, Smith & Smolin,
PRX 6, 021043 (2016); Bravyi et al., Quantum 3, 181 (2019)).  Chains are
independent, seeded from one master seed, and the first chain to reach
``WITNESS_TOL`` short-circuits the rest.  A successful subset is
snapped to exact cyclotomic coefficients when possible; search output is a
candidate only and is always replayed through the independent verifiers.

A step solves no linear system.  For each position the chain keeps the
:class:`~stabdecomp.decomposition.SpanProjection` of the other r - 1
members, the projection certify scores its blocks with, and scores a
proposal there in closed form; a residual below its floating-point floor is
re-scored exactly with ``best_fit``.  An accepted move at one position
invalidates the projections of the others only.  A Weyl neighbour is
computed from two small tables (the index of x + a, and omega^(b.x - c)),
and whether it is already a member is read from its overlaps with the
members: 1 for the same state, at most 1/sqrt(p) between distinct ones.
``Catalog.index_of`` locates, and so validates, a neighbour only once its
move is accepted.

A step is a few dozen calls on vectors of p^n entries, so the per-call
overhead, not the arithmetic, sets its cost, and each call is kept
cheap: one-vector scoring that ends in Python floats, Weyl table
indices as Python ints, ``ndarray.dot`` rather than the ``@`` ufunc, and
``Catalog.vector`` for the one state a uniform move draws, so no search
holds a dense copy of its catalog.  Its random numbers make no numpy call:
after the start draw, :class:`_Draws` computes each ``integers(high)`` and
``random()`` of the chain's ``Generator`` in Python from blocks of the bit
generator's raw words, the same numbers at about 0.3 us each against numpy's
2.6 us a call.  The arithmetic is the batched forms' own, operation for
operation, so seeded search results are pinned in the tests to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import CANDIDATE_RES2, WITNESS_TOL, Decomposition, SpanProjection, best_fit, exact_coefficients
from .stabilizer import Catalog, TargetState, _all_points

__all__ = ["AnnealConfig", "AnnealResult", "anneal_search", "check_search"]


@dataclass(frozen=True)
class AnnealConfig:
    target: TargetState
    rank: int
    catalog: Catalog
    steps: int = 20_000
    chains: int = 32
    seed: int = 0

    def __post_init__(self):
        check_search(self.rank, self.catalog.p, self.catalog.n, self.steps, self.chains)


# every chain calibrates its start temperature from its first moves, then
# multiplies it by this factor after each step
_COOLING = 0.995


# the largest p^n a search lays out its catalog for: (3,5) has 53,968 blocks and
# (2,7) 387,987, while (3,6) has 1,996,024 and ran out of memory under 1.5 GB
SEARCH_MAX_DIM = 3**5


def check_search(rank: int, p: int, n: int, steps: int, chains: int) -> None:
    """Raise ValueError for a search of rank ``rank`` over the (p, n) catalog
    that the chains cannot run.

    Needs no catalog and no target, so callers can refuse before building either.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if rank >= Catalog.expected_count(p, n):  # first: it refuses an n whose p^n has too many digits to print
        raise ValueError("rank must be smaller than the catalog")
    if p**n > SEARCH_MAX_DIM:
        raise ValueError("%d basis states exceed the %d of the largest search catalog" % (p**n, SEARCH_MAX_DIM))


@dataclass
class AnnealResult:
    subset: tuple[int, ...]
    residual: float
    success: bool
    decomposition: Decomposition | None
    chain_traces: list[dict]


_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1
_MASK64 = (1 << 64) - 1


class _Draws:
    """A chain's ``Generator.integers(high)`` and ``Generator.random()``, bit
    for bit, computed from the raw 64-bit words of its PCG64 bit generator.

    numpy's bounded integers are Lemire's (ACM TOMACS 29(1), 2019): up to
    2**32 a 32-bit draw over half-words, the low half of a word first and its
    high half kept for the next, and above 2**32 a 64-bit draw over whole
    words, which leaves a kept half alone; ``random()`` is
    (word >> 11) * 2**-53.  Blocks of words from ``random_raw`` save numpy's
    per-call overhead, 2.6 us for ``integers(2)``.  The object takes the
    generator over: its state is read once, for the kept half-word, and the
    generator must not draw again.
    """

    _BLOCK = 1024

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._raw = bitgen.random_raw
        self._words = iter(())

    def _word(self) -> int:
        w = next(self._words, None)
        if w is None:
            self._words = iter(self._raw(self._BLOCK).tolist())
            w = next(self._words)
        return w

    def _word32(self) -> int:
        u = self._half
        if u is None:
            w = self._word()
            self._half = w >> 32
            return w & _MASK32
        self._half = None
        return u

    def integers(self, high: int) -> int:
        """``Generator.integers(high)`` for a Python int high >= 1; high == 1 draws nothing."""
        if high <= _TWO32:
            if high == 1:
                return 0
            m = self._word32() * high
            if m & _MASK32 < high:  # reject the low products that bias the draw
                floor = _TWO32 % high
                while m & _MASK32 < floor:
                    m = self._word32() * high
            return m >> 32
        m = self._word() * high
        if m & _MASK64 < high:
            floor = (1 << 64) % high
            while m & _MASK64 < floor:
                m = self._word() * high
        return m >> 64

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53


class _WeylNeighbours:
    """Neighbour moves: v -> Pi_c v / |Pi_c v| for a random Weyl operator.

    P = tau^(a.b) X^a Z^b with (a, b) != 0 and tau = -exp(i pi / p) has order
    p for p = 2 and 3 alike, and Pi_c = (1/p) sum_t (omega^-c P)^t projects
    onto its omega^c eigenspace.  For a stabilizer state v the projection is
    zero, v itself, or a stabilizer state at overlap 1/sqrt(p) with v; only
    the last is a move.  The new vector is the projection itself, so nothing
    is decoded; it is located in the catalog only once the move is accepted.
    """

    def __init__(self, catalog: Catalog):
        p, n = catalog.p, catalog.n
        self._catalog = catalog
        self._p = p
        self._n = n
        digits = _all_points(p, n)
        weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # tables indexed by basis indices: sub[a, x] is the index of x - a, and
        # phases[c, b, x] = omega^(b.x - c), the phase at x
        self._sub = ((digits[None, :, :] - digits[:, None, :]) % p) @ weights
        exps = ((digits @ digits.T)[None] - np.arange(p)[:, None, None]) % p
        self._phases = np.exp(2j * np.pi * np.arange(p) / p)[exps]
        tau = -np.exp(1j * np.pi / p)
        self._tau_pows = [tau**k for k in range(n * (p - 1) ** 2 + 1)]  # a.b runs over 0..n(p-1)^2

    def project(self, v: np.ndarray, ab, c: int) -> np.ndarray:
        """Pi_c v for the Weyl operator with exponent vector ab = (a, b), 2n ints."""
        p, n = self._p, self._n
        # the basis indices of a and b, and a.b, in integer arithmetic
        ia = ib = adotb = 0
        for ai, bi in zip(ab[:n], ab[n:]):
            ia = ia * p + ai
            ib = ib * p + bi
            adotb += ai * bi
        src = self._sub[ia]
        # P |x> = tau^(a.b) omega^(b.x) |x + a>, times omega^-c: (P v)[y] = (phase v)[y - a]
        phase = self._tau_pows[adotb] * self._phases[c, ib]
        term = (phase * v)[src]
        out = v + term
        for _ in range(p - 2):
            term = (phase * term)[src]
            out += term
        out /= p
        return out

    def propose(self, draws, subset: "_Subset"):
        """(position, vector) of a neighbour of a random member that is not a member.

        ``draws`` is a :class:`_Draws` or a numpy ``Generator``: only scalar
        ``integers`` calls are made, the digits of (a, b) one at a time.
        """
        p, n = self._p, self._n
        integers = draws.integers
        while True:
            pos = integers(len(subset.indices))
            ab = [integers(p) for _ in range(2 * n)]
            c = integers(p)
            if not any(ab):
                continue
            u = self.project(subset.V[pos], ab, c)
            norm2 = float(np.vdot(u, u).real)
            if norm2 < 1e-9 or norm2 > 1.0 - 1e-9:
                continue
            u /= math.sqrt(norm2)
            if not subset.holds(u):
                return pos, u

    def locate(self, u: np.ndarray, members: set[int]) -> int:
        """The catalog index of an accepted neighbour, validated by ``Catalog.index_of``."""
        j = self._catalog.index_of(u)
        if j in members:
            raise RuntimeError("neighbour %d is already a member; the overlap test missed it" % j)
        return j


# |<member, u>|^2 is 1 when u is that member and at most 1/2 between distinct
# stabilizer states, so a proposal above this overlap with a member is that member
_MEMBER_OVERLAP = math.sqrt(0.75)


class _Subset:
    """One chain's members and the projections that score a swap into them.

    ``_proj[pos]`` is the :class:`SpanProjection` of the members other than
    ``pos``; it is built when ``pos`` is first scored after a swap elsewhere,
    so an accepted move costs at most r - 1 SVDs and a rejected one none.
    """

    def __init__(self, indices: list[int], V: np.ndarray, t: np.ndarray):
        self.indices = indices
        self.members = set(indices)
        self.V = V  # (r, dim), one member per row
        self.t = t
        self._tnorm2 = float(np.linalg.norm(t) ** 2)
        self._proj: list[SpanProjection | None] = [None] * len(indices)

    def holds(self, u: np.ndarray) -> bool:
        """Whether the unit stabilizer vector u is a member, up to phase."""
        return max(map(abs, self.V.dot(u.conj()).tolist())) > _MEMBER_OVERLAP

    def energy(self, pos: int, v: np.ndarray) -> float:
        """The residual of the subset with member ``pos`` replaced by the unit vector v.

        Scored in closed form; below the projection's floating-point floor
        it is re-scored exactly with ``best_fit``.
        """
        proj = self._proj[pos]
        if proj is None:
            proj = self._proj[pos] = SpanProjection(np.delete(self.V, pos, axis=0), self.t, self._tnorm2)
        res2 = proj.residual2(v, np.vdot(v, self.t))
        if res2 > CANDIDATE_RES2:
            return math.sqrt(res2)
        A = self.V.T.copy()
        A[:, pos] = v
        return best_fit(A, self.t)[1]

    def swap(self, pos: int, j: int, v: np.ndarray) -> None:
        self.members.discard(self.indices[pos])
        self.members.add(j)
        self.indices[pos] = j
        self.V[pos] = v
        # only the projection that leaves out pos still spans the right members
        kept = self._proj[pos]
        self._proj = [None] * len(self.indices)
        self._proj[pos] = kept


_MOVES = ("uniform", "weyl")


def _run_chain(cfg: AnnealConfig, neighbours, target_vec, rng):
    r = cfg.rank
    vec_of, count = cfg.catalog.vector, len(cfg.catalog)
    start = [int(i) for i in rng.choice(count, size=r, replace=False)]
    draws = _Draws(rng)
    subset = _Subset(start, np.array([vec_of(i) for i in start]), target_vec)
    energy = subset.energy(0, subset.V[0])
    best_subset = tuple(start)
    best_energy = energy
    trace = [energy]

    integers = draws.integers
    members = subset.members
    energy_of = subset.energy

    def propose():
        # the two moves in a fixed 1:1 mix, as their index in _MOVES; a
        # neighbour's catalog index is found on acceptance
        if integers(2):
            pos, u = neighbours.propose(draws, subset)
            return 1, pos, None, u
        pos = integers(r)
        while True:
            j = integers(count)
            if j not in members:
                return 0, pos, j, vec_of(j)

    # calibrate so the median uphill move is accepted with probability 1/2
    uphill = []
    for _ in range(100):
        _, pos, _, vec = propose()
        delta = energy_of(pos, vec) - energy
        if delta > 0:
            uphill.append(delta)
    temp = 0.1
    if uphill:
        # np.median's value; np.median imports numpy.ma, and statistics is
        # one more module for every command that imports this one
        uphill.sort()
        mid = len(uphill) // 2
        temp = (uphill[mid] if len(uphill) % 2 else (uphill[mid - 1] + uphill[mid]) / 2) / math.log(2)

    temp_at_best = temp
    proposed = [0] * len(_MOVES)
    taken = [0] * len(_MOVES)
    random = draws.random
    for steps_run in range(1, cfg.steps + 1):
        move, pos, j, vec = propose()
        proposed[move] += 1
        new_energy = energy_of(pos, vec)
        delta = new_energy - energy
        if delta <= 0 or (temp > 0 and random() < math.exp(max(-delta / temp, -745.0))):
            if j is None:
                j = neighbours.locate(vec, members)
            subset.swap(pos, j, vec)
            energy = new_energy
            taken[move] += 1
            if energy < best_energy:
                best_energy = energy
                best_subset = tuple(subset.indices)
                temp_at_best = temp
                trace.append(energy)
                if best_energy <= WITNESS_TOL:
                    break
        temp *= _COOLING
    moves = {kind: {"proposed": proposed[m], "accepted": taken[m]} for m, kind in enumerate(_MOVES)}
    return best_subset, best_energy, temp_at_best, trace, steps_run, moves


def anneal_search(cfg: AnnealConfig) -> AnnealResult:
    """Run independent annealing chains and report the best subset found.

    Deterministic given (config, seed, catalog); stops early once a chain
    reaches ``WITNESS_TOL``.  The reported residual is recomputed
    with the least-squares fitter on the final subset.
    """
    catalog = cfg.catalog
    neighbours = _WeylNeighbours(catalog)
    target_vec = cfg.target.complex_vector()
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)

    best_subset: tuple[int, ...] | None = None
    best_energy = math.inf
    traces: list[dict] = []
    for c in range(cfg.chains):
        rng = np.random.default_rng(seeds[c])
        subset, energy, temp_at_best, trace, steps_run, moves = _run_chain(cfg, neighbours, target_vec, rng)
        traces.append(
            {
                "chain": c,
                "best_residual": energy,
                "temperature_at_best": temp_at_best,
                "accepted": sum(m["accepted"] for m in moves.values()),
                "steps": steps_run,
                "moves": moves,
                "trace": trace,
            }
        )
        if energy < best_energy:
            best_energy = energy
            best_subset = subset
        if best_energy <= WITNESS_TOL:
            break

    subset = tuple(sorted(best_subset))
    states = [catalog.get(i) for i in subset]
    A = np.column_stack([catalog.vector(i) for i in subset])
    _, residual = best_fit(A, target_vec)
    success = residual <= WITNESS_TOL

    decomposition = None
    if success:
        exact = exact_coefficients(states, cfg.target)
        if exact is not None:
            candidate = Decomposition(cfg.target, states, exact, cfg.target.npow)
            if not candidate.verify_exact():
                decomposition = candidate
    return AnnealResult(
        subset=subset,
        residual=residual,
        success=success,
        decomposition=decomposition,
        chain_traces=traces,
    )
