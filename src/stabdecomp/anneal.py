"""Simulated-annealing search for small stabilizer decompositions.

The search space is r-subsets of a state catalog; the energy of a subset
is its least-squares residual against the target, so the coefficients are
always optimal and only the membership is annealed.  A move replaces one
member, half the time by a uniform draw from the catalog and half the time by
a neighbour: the member's projection onto an eigenspace of a random Weyl
operator, the move used in stabilizer-rank searches (Bravyi, Smith & Smolin,
PRX 6, 021043 (2016); Bravyi et al., Quantum 3, 181 (2019)).  Chains are
independent, seeded from one master seed, and the first chain to reach the
residual tolerance short-circuits the rest.  A successful subset is
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
overhead, not the arithmetic, sets its cost, and the step is written for
few calls: one-vector scoring that ends in Python floats, Weyl table
indices as Python ints, ``ndarray.dot`` rather than the ``@`` ufunc, and a
one-index catalog decode for uniform moves above the dense limit.  The
arithmetic is the batched forms' own, operation for operation, so seeded
search results are pinned in the tests to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import CANDIDATE_RES2, WITNESS_TOL, Decomposition, SpanProjection, best_fit, check_tol, exact_coefficients
from .stabilizer import Catalog, TargetState, _all_points

__all__ = ["AnnealConfig", "AnnealResult", "anneal_search", "check_search"]


@dataclass(frozen=True)
class AnnealConfig:
    target: TargetState
    rank: int
    catalog: Catalog
    steps: int = 20_000
    chains: int = 32
    t_initial: float | None = None
    cooling: float = 0.995
    tol: float = WITNESS_TOL
    seed: int = 0

    def __post_init__(self):
        p, n = self.catalog.p, self.catalog.n
        check_search(self.rank, p, n, self.steps, self.chains, self.cooling, self.t_initial, self.tol)


# the largest p^n a search lays out its catalog for: (3,5) has 53,968 blocks and
# (2,7) 387,987, while (3,6) has 1,996,024 and ran out of memory under 1.5 GB
SEARCH_MAX_DIM = 3**5


def check_search(rank: int, p: int, n: int, steps: int, chains: int, cooling: float, t_initial, tol: float) -> None:
    """Raise ValueError for a search of rank ``rank`` over the (p, n) catalog
    that the chains cannot run.

    Needs no catalog and no target, so callers can refuse before building either.
    A tol outside the range ``check_tol`` allows is refused as certify refuses
    it: a chain re-scores exactly only below sqrt(CANDIDATE_RES2).  A
    ``t_initial`` of None is calibrated from the chain's first moves.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if not 0.0 < cooling < 1.0:
        raise ValueError("cooling factor must lie in (0, 1)")
    if t_initial is not None and not 0.0 < t_initial < math.inf:  # NaN too
        raise ValueError("initial temperature must be finite and above 0, got %g" % t_initial)
    check_tol(tol, "tol")
    if p**n > SEARCH_MAX_DIM:
        raise ValueError("%d basis states exceed the %d of the largest search catalog" % (p**n, SEARCH_MAX_DIM))
    if rank >= Catalog.expected_count(p, n):
        raise ValueError("rank must be smaller than the catalog")


# catalogs up to this size are decoded once, densely; larger ones one state per use
_DENSE_LIMIT = 100_000


@dataclass
class AnnealResult:
    subset: tuple[int, ...]
    residual: float
    success: bool
    decomposition: Decomposition | None
    chain_traces: list[dict]


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

    def propose(self, rng, subset: "_Subset"):
        """(position, vector) of a neighbour of a random member that is not a member."""
        p, n = self._p, self._n
        while True:
            pos = int(rng.integers(len(subset.indices)))
            ab = rng.integers(p, size=2 * n).tolist()
            c = int(rng.integers(p))
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


def _run_chain(cfg: AnnealConfig, vec_of, neighbours, target_vec, rng, count):
    r = cfg.rank
    start = [int(i) for i in rng.choice(count, size=r, replace=False)]
    subset = _Subset(start, np.array([vec_of(i) for i in start]), target_vec)
    energy = subset.energy(0, subset.V[0])
    best_subset = tuple(start)
    best_energy = energy
    trace = [energy]

    integers = rng.integers
    members = subset.members
    energy_of = subset.energy

    def propose():
        # the two moves in a fixed 1:1 mix, as their index in _MOVES; a
        # neighbour's catalog index is found on acceptance
        if integers(2):
            pos, u = neighbours.propose(rng, subset)
            return 1, pos, None, u
        pos = int(integers(r))
        while True:
            j = int(integers(count))
            if j not in members:
                return 0, pos, j, vec_of(j)

    if cfg.t_initial is not None:
        temp = cfg.t_initial
    else:
        # calibrate so the median uphill move is accepted with probability 1/2
        uphill = []
        for _ in range(100):
            _, pos, _, vec = propose()
            delta = energy_of(pos, vec) - energy
            if delta > 0:
                uphill.append(delta)
        temp = float(np.median(uphill)) / math.log(2) if uphill else 0.1

    temp_at_best = temp
    proposed = [0] * len(_MOVES)
    taken = [0] * len(_MOVES)
    random, cooling, tol = rng.random, cfg.cooling, cfg.tol
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
                if best_energy <= tol:
                    break
        temp *= cooling
    moves = {kind: {"proposed": proposed[m], "accepted": taken[m]} for m, kind in enumerate(_MOVES)}
    return best_subset, best_energy, temp_at_best, trace, steps_run, moves


def anneal_search(cfg: AnnealConfig) -> AnnealResult:
    """Run independent annealing chains and report the best subset found.

    Deterministic given (config, seed, catalog); stops early once a chain
    reaches the residual tolerance.  The reported residual is recomputed
    with the least-squares fitter on the final subset.
    """
    catalog = cfg.catalog
    count = len(catalog)
    if count <= _DENSE_LIMIT:
        vec_of = catalog.vectors().__getitem__
    else:
        def vec_of(i):
            return catalog.vectors([i])[0]
    neighbours = _WeylNeighbours(catalog)
    target_vec = cfg.target.complex_vector()
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)

    best_subset: tuple[int, ...] | None = None
    best_energy = math.inf
    traces: list[dict] = []
    for c in range(cfg.chains):
        rng = np.random.default_rng(seeds[c])
        subset, energy, temp_at_best, trace, steps_run, moves = _run_chain(
            cfg, vec_of, neighbours, target_vec, rng, count
        )
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
        if best_energy <= cfg.tol:
            break

    subset = tuple(sorted(best_subset))
    states = [catalog.get(i) for i in subset]
    A = np.column_stack([vec_of(i) for i in subset])
    _, residual = best_fit(A, target_vec)
    success = residual <= cfg.tol

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
