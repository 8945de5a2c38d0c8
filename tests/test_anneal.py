import hashlib
import json

import numpy as np
import pytest

from stabdecomp.anneal import AnnealConfig, _Subset, _WeylNeighbours, anneal_search
from stabdecomp.clifford import weyl_matrix
from stabdecomp.decomposition import CANDIDATE_RES2, best_fit
from stabdecomp.stabilizer import build_catalog, magic_power


@pytest.fixture(scope="module")
def cat2():
    return build_catalog(3, 2)


def test_config_validation(cat2):
    t = magic_power("S", 2)
    with pytest.raises(ValueError):
        AnnealConfig(target=t, rank=0, catalog=cat2)
    with pytest.raises(ValueError):
        AnnealConfig(target=t, rank=2, catalog=cat2, steps=0)
    with pytest.raises(ValueError):
        AnnealConfig(target=t, rank=2, catalog=cat2, cooling=1.0)
    with pytest.raises(ValueError):
        AnnealConfig(target=t, rank=len(cat2), catalog=cat2)
    # below 1e-12 an exact witness can miss; above sqrt(CANDIDATE_RES2) no exact re-score runs
    for tol in (0.0, 1e-13, 2e-6, 0.9, float("nan")):
        with pytest.raises(ValueError, match="exact re-score threshold"):
            AnnealConfig(target=t, rank=2, catalog=cat2, tol=tol)
    for tol in (1e-12, np.sqrt(CANDIDATE_RES2)):
        assert AnnealConfig(target=t, rank=2, catalog=cat2, tol=tol).tol == tol
    for t0 in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError, match="initial temperature must be finite and above 0"):
            AnnealConfig(target=t, rank=2, catalog=cat2, t_initial=t0)
    assert AnnealConfig(target=t, rank=2, catalog=cat2, t_initial=0.5).t_initial == 0.5


def test_rediscovers_strange_m2(cat2):
    cfg = AnnealConfig(target=magic_power("S", 2), rank=2, catalog=cat2, seed=0)
    res = anneal_search(cfg)
    assert res.success
    assert res.residual <= 1e-10
    assert len(res.subset) == 2 and list(res.subset) == sorted(res.subset)
    # snapped to exact coefficients and replayed through both verifiers
    assert res.decomposition is not None
    assert res.decomposition.verify_exact() == []
    assert res.decomposition.verify_numeric() <= 1e-10


@pytest.mark.parametrize("name", ["H3", "N"])
def test_rediscovers_rank3_two_copies(cat2, name):
    cfg = AnnealConfig(target=magic_power(name, 2), rank=3, catalog=cat2, seed=0)
    res = anneal_search(cfg)
    assert res.success and res.residual <= 1e-10
    assert res.decomposition is not None and res.decomposition.verify_exact() == []


def test_rediscovers_strange_m3():
    cat3 = build_catalog(3, 3)
    cfg = AnnealConfig(target=magic_power("S", 3), rank=4, catalog=cat3, seed=0)
    res = anneal_search(cfg)
    assert res.success and res.residual <= 1e-10
    assert res.decomposition is not None and res.decomposition.verify_numeric() <= 1e-10


def test_failure_is_a_valid_result(cat2):
    # two copies of H3 need three states; r=2 must come back unsuccessful
    cfg = AnnealConfig(target=magic_power("H3", 2), rank=2, catalog=cat2, seed=0, chains=2)
    res = anneal_search(cfg)
    assert not res.success
    assert res.residual > 0.1
    assert res.decomposition is None
    assert len(res.chain_traces) == 2


def test_deterministic_given_seed(cat2):
    cfg = AnnealConfig(target=magic_power("S", 2), rank=2, catalog=cat2, seed=7)
    a = anneal_search(cfg)
    b = anneal_search(cfg)
    assert a.subset == b.subset
    assert a.residual == b.residual
    assert [t["trace"] for t in a.chain_traces] == [t["trace"] for t in b.chain_traces]


def test_traces_nonincreasing_and_residual_recomputed(cat2):
    cfg = AnnealConfig(target=magic_power("N", 2), rank=3, catalog=cat2, seed=0, chains=3)
    res = anneal_search(cfg)
    for t in res.chain_traces:
        trace = t["trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert t["best_residual"] == trace[-1]
    A = np.column_stack([cat2.get(i).complex_vector() for i in res.subset])
    _, residual = best_fit(A, magic_power("N", 2).complex_vector())
    assert res.residual == pytest.approx(residual, abs=1e-12)


# -- the solve-free step: projection scorer, table-driven Weyl move, overlap membership


def _subset(cat, target, indices):
    return _Subset(list(indices), cat.vectors(indices), target.complex_vector())


def _fit(subset, pos, v):
    A = subset.V.T.copy()
    A[:, pos] = v
    return best_fit(A, subset.t)[1]


@pytest.mark.parametrize("p,n,name", [(3, 2, "N"), (3, 3, "H3"), (2, 4, "H")])
def test_scorer_energy_equals_best_fit(p, n, name):
    cat = build_catalog(p, n)
    target = magic_power(name, n)
    rng = np.random.default_rng(p * 10 + n)
    for r in (2, 3, 5):
        subset = _subset(cat, target, rng.choice(len(cat), size=r, replace=False))
        for _ in range(20):
            pos = int(rng.integers(r))
            j = int(rng.integers(len(cat)))
            v = cat.vectors([j])[0]
            assert subset.energy(pos, v) == pytest.approx(_fit(subset, pos, v), abs=1e-12)
            # a second score at the same position reuses the projection
            assert subset.energy(pos, subset.V[pos]) == pytest.approx(_fit(subset, pos, subset.V[pos]), abs=1e-12)
            if j not in subset.members and rng.integers(2):
                subset.swap(pos, j, v)  # every later score must see the new member


@pytest.mark.parametrize("p,n,name", [(3, 2, "N"), (2, 4, "H")])
def test_scorer_dependent_proposal_keeps_t_perp(p, n, name):
    # the other members are the basis states of a line {x0 + s d}; the uniform
    # superposition over the line is a catalog state in their span
    cat = build_catalog(p, n)
    target = magic_power(name, n)
    dim = p**n
    line = list(range(p))
    basis = [cat.index_of(np.eye(dim)[x]) for x in line]
    plus = cat.vectors([cat.index_of(np.eye(dim)[line].sum(axis=0))])[0]
    subset = _subset(cat, target, [*basis, len(cat) - 1])  # and one full-support state
    pos = len(basis)
    res = subset.energy(pos, plus)
    a = subset._proj[pos].Q_conj.T @ plus  # Q^dagger plus
    assert 1 - np.vdot(a, a).real < 1e-10  # the dependent branch, which keeps |t_perp|^2 as it is
    assert res == np.sqrt(subset._proj[pos].t_perp2)
    assert res == pytest.approx(_fit(subset, pos, plus), abs=1e-12)
    A = subset.V[:pos].T
    assert res == pytest.approx(best_fit(A, subset.t)[1], abs=1e-12)  # plus adds nothing


def test_scorer_witness_goes_through_the_exact_rescore(cat2):
    target = magic_power("S", 2)
    found = anneal_search(AnnealConfig(target=target, rank=2, catalog=cat2, seed=0))
    assert found.success
    subset = _subset(cat2, target, found.subset)
    subset.energy(0, subset.V[0])
    closed = subset._proj[0].residual2(subset.V[0], np.vdot(subset.V[0], subset.t))
    assert closed <= CANDIDATE_RES2  # the closed form alone sits at its rounding floor
    for pos in range(2):
        res = subset.energy(pos, subset.V[pos])
        assert res == _fit(subset, pos, subset.V[pos])  # the best_fit value itself
        assert res <= 1e-10


def _weyl_projector(p, n, a, b, c):
    """Pi_c = (1/p) sum_t (omega^-c P)^t with P = tau^(a.b) X^a Z^b, from dense matrices."""
    if p == 3:
        W = weyl_matrix(n, a, b)
    else:
        X, Z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex)
        W = np.eye(1, dtype=complex)
        for ai, bi in zip(a, b):
            W = np.kron(W, np.linalg.matrix_power(X, int(ai)) @ np.linalg.matrix_power(Z, int(bi)))
    omega = np.exp(2j * np.pi / p)
    P = (-np.exp(1j * np.pi / p)) ** int(np.dot(a, b)) * W
    step = omega ** (-c) * P
    return sum(np.linalg.matrix_power(step, t) for t in range(p)) / p


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_table_weyl_projection_equals_the_matrix_projector(p, n):
    moves = _WeylNeighbours(build_catalog(p, n))
    rng = np.random.default_rng(17)
    for _ in range(100):
        ab = rng.integers(p, size=2 * n)
        c = int(rng.integers(p))
        v = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
        want = _weyl_projector(p, n, ab[:n], ab[n:], c) @ v
        assert np.allclose(moves.project(v, ab, c), want, atol=1e-12)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_overlap_membership_agrees_with_index_of(p, n):
    cat = build_catalog(p, n)
    moves = _WeylNeighbours(cat)
    target = magic_power("N" if p == 3 else "H", n)
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(40):
        # a member, one of its neighbours, and two random states
        src = int(rng.integers(len(cat)))
        _, u = moves.propose(rng, _Subset([src], cat.vectors([src]), target.complex_vector()))
        nb = moves.locate(u, {src})
        others = [int(i) for i in rng.choice(len(cat), size=4) if int(i) not in (src, nb)][:2]
        subset = _subset(cat, target, [src, nb, *others])
        for _ in range(30):
            ab = rng.integers(p, size=2 * n)
            pos = int(rng.integers(len(subset.indices)))
            u = moves.project(subset.V[pos], ab, int(rng.integers(p)))
            norm2 = float(np.vdot(u, u).real)
            if norm2 < 1e-9:
                continue
            u = u / np.sqrt(norm2)
            held = cat.index_of(u) in subset.members
            assert subset.holds(u) == held
            seen.add(held)
    assert seen == {True, False}


def test_large_catalog_chain_is_deterministic():
    # (3,4) is above the dense-decode limit: uniform moves decode one state at
    # a time, and every accepted neighbour is located with index_of
    cat = build_catalog(3, 4)
    cfg = AnnealConfig(target=magic_power("N", 4), rank=7, catalog=cat, seed=4, chains=2, steps=200)
    a, b = anneal_search(cfg), anneal_search(cfg)
    assert a.chain_traces == b.chain_traces
    assert a.subset == b.subset and a.residual == b.residual
    assert all(t["moves"]["weyl"]["accepted"] > 0 for t in a.chain_traces)
    assert all(t["moves"]["uniform"]["accepted"] > 0 for t in a.chain_traces)


def test_temperature_at_best_is_the_temperature_of_the_last_improvement(cat2):
    t0, cooling = 0.5, 0.99
    target = magic_power("H3", 2)
    cfg = AnnealConfig(target=target, rank=2, catalog=cat2, seed=1, chains=1, t_initial=t0, cooling=cooling)
    (chain,) = anneal_search(cfg).chain_traces
    assert len(chain["trace"]) > 1
    # the temperature after k cooling steps: the last improvement was made at step k
    k = round(np.log(chain["temperature_at_best"] / t0) / np.log(cooling))
    assert k > 0 and chain["temperature_at_best"] == pytest.approx(t0 * cooling**k, rel=1e-9)
    for steps, trace in ((k, chain["trace"][:-1]), (k + 1, chain["trace"])):
        cut = AnnealConfig(target=target, rank=2, catalog=cat2, seed=1, chains=1, t_initial=t0, cooling=cooling, steps=steps)
        assert anneal_search(cut).chain_traces[0]["trace"] == trace


# sha256 of json.dumps({subset, residual, chain_traces, decomposition payload},
# sort_keys=True) per search spec: every RNG draw and every float a chain
# produces, pinned so that a change to the step's arithmetic must keep them
SEARCH_PINS = [
    # the benchmark's witness search: N⊗3 at rank 4, seed 18, default chains (2,163 steps)
    (("N", 3, 4, dict(seed=18)), "46c185886e3057d98c6ceceb017a55e1c2cee4053e5a8fd0a3cc323f59dbd187"),
    # the benchmark's large-catalog chain: (3,4) decoded one state at a time, witness at step 14,046
    (("N", 4, 7, dict(seed=0, chains=1, steps=20_000)), "fb8b6e657f2d03fa0c29caf82da8dedb45e391722d14c9cac58438a004f871cf"),
    (("H", 4, 3, dict(seed=0, chains=2, steps=2_000)), "d2d967f02e22328ee88ed97b2dd56d721274e8589078cd588e51c253f0f414a5"),
    (("T3", 2, 2, dict(seed=1, chains=2, steps=2_000)), "317e275abb235a2701c9d70b5093d09919367962a6058581ac0acbafde5e7ee4"),
]


@pytest.mark.parametrize("spec,digest", SEARCH_PINS, ids=["N3-r4", "N4-r7", "H4-r3", "T3x2-r2"])
def test_search_results_are_pinned(spec, digest):
    name, m, r, kwargs = spec
    target = magic_power(name, m)
    res = anneal_search(AnnealConfig(target=target, rank=r, catalog=build_catalog(target.p, target.n), **kwargs))
    blob = {
        "subset": list(res.subset),
        "residual": res.residual,
        "chain_traces": res.chain_traces,
        "decomposition": res.decomposition.to_payload() if res.decomposition else None,
    }
    assert hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest() == digest
