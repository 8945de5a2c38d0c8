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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, best_fit, exact_coefficients
from .stabilizer import Catalog, TargetState, _all_points

__all__ = ["AnnealConfig", "AnnealResult", "anneal_search"]


@dataclass(frozen=True)
class AnnealConfig:
    target: TargetState
    rank: int
    catalog: Catalog
    steps: int = 20_000
    chains: int = 32
    t_initial: float | None = None
    cooling: float = 0.995
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling factor must lie in (0, 1)")
        if self.rank >= len(self.catalog):
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
    the last is a move.  The new vector is the projection itself, located in
    the catalog by ``Catalog.index_of``, so nothing is decoded.
    """

    def __init__(self, catalog: Catalog):
        p, n = catalog.p, catalog.n
        self._catalog = catalog
        self._p = p
        self._n = n
        self._digits = _all_points(p, n)
        self._weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._roots = np.exp(2j * np.pi * np.arange(p) / p)
        self._tau = -np.exp(1j * np.pi / p)

    def project(self, v: np.ndarray, ab: np.ndarray, c: int) -> np.ndarray:
        """Pi_c v for the Weyl operator with exponent vector ab = (a, b)."""
        p, n = self._p, self._n
        a, b = ab[:n], ab[n:]
        dest = ((self._digits + a) % p) @ self._weights
        # P |x> = tau^(a.b) omega^(b.x) |x + a>, times omega^-c
        phase = self._tau ** int(a @ b) * self._roots[(self._digits @ b - c) % p]
        out = v.copy()
        term = v
        for _ in range(p - 1):
            nxt = np.empty_like(term)
            nxt[dest] = phase * term
            term = nxt
            out += term
        return out / p

    def propose(self, rng, vecs: list[np.ndarray], members: set[int]):
        """(position, catalog index, vector) of a neighbour of a random member."""
        p, n = self._p, self._n
        while True:
            pos = int(rng.integers(len(vecs)))
            ab = rng.integers(p, size=2 * n)
            c = int(rng.integers(p))
            if not ab.any():
                continue
            u = self.project(vecs[pos], ab, c)
            norm2 = float(np.vdot(u, u).real)
            if norm2 < 1e-9 or norm2 > 1.0 - 1e-9:
                continue
            u /= math.sqrt(norm2)
            j = self._catalog.index_of(u)
            if j not in members:
                return pos, j, u


def _residual(vecs: list[np.ndarray], target_vec: np.ndarray) -> float:
    A = np.column_stack(vecs)
    G = A.conj().T @ A
    b = A.conj().T @ target_vec
    try:
        c = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        c, _, _, _ = np.linalg.lstsq(A, target_vec, rcond=None)
    return float(np.linalg.norm(A @ c - target_vec))


_MOVES = ("uniform", "weyl")


def _run_chain(cfg: AnnealConfig, vec_of, neighbours, target_vec, rng, count):
    r = cfg.rank
    subset = [int(i) for i in rng.choice(count, size=r, replace=False)]
    members = set(subset)
    vecs = [vec_of(i) for i in subset]
    energy = _residual(vecs, target_vec)
    best_subset = tuple(subset)
    best_energy = energy
    trace = [energy]

    def propose():
        # the two moves in a fixed 1:1 mix
        if rng.integers(2):
            return ("weyl",) + neighbours.propose(rng, vecs, members)
        pos = int(rng.integers(r))
        while True:
            j = int(rng.integers(count))
            if j not in members:
                return "uniform", pos, j, vec_of(j)

    if cfg.t_initial is not None:
        temp = cfg.t_initial
    else:
        # calibrate so the median uphill move is accepted with probability 1/2
        uphill = []
        for _ in range(100):
            _, pos, _, vec = propose()
            held = vecs[pos]
            vecs[pos] = vec
            delta = _residual(vecs, target_vec) - energy
            vecs[pos] = held
            if delta > 0:
                uphill.append(delta)
        temp = float(np.median(uphill)) / math.log(2) if uphill else 0.1

    proposed = dict.fromkeys(_MOVES, 0)
    taken = dict.fromkeys(_MOVES, 0)
    steps_run = 0
    for _ in range(cfg.steps):
        steps_run += 1
        kind, pos, j, vec = propose()
        proposed[kind] += 1
        held_idx, held_vec = subset[pos], vecs[pos]
        vecs[pos] = vec
        new_energy = _residual(vecs, target_vec)
        delta = new_energy - energy
        if delta <= 0 or (temp > 0 and rng.random() < math.exp(max(-delta / temp, -745.0))):
            subset[pos] = j
            members.discard(held_idx)
            members.add(j)
            energy = new_energy
            taken[kind] += 1
            if energy < best_energy:
                best_energy = energy
                best_subset = tuple(subset)
                trace.append(energy)
                if best_energy <= cfg.tol:
                    break
        else:
            vecs[pos] = held_vec
        temp *= cfg.cooling
    moves = {kind: {"proposed": proposed[kind], "accepted": taken[kind]} for kind in _MOVES}
    return best_subset, best_energy, trace, steps_run, moves


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
        subset, energy, trace, steps_run, moves = _run_chain(
            cfg, vec_of, neighbours, target_vec, rng, count
        )
        traces.append(
            {
                "chain": c,
                "best_residual": energy,
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
            candidate = Decomposition(cfg.target, states, exact)
            if not candidate.verify_exact():
                decomposition = candidate
    return AnnealResult(
        subset=subset,
        residual=residual,
        success=success,
        decomposition=decomposition,
        chain_traces=traces,
    )
