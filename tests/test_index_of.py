"""Catalog.index_of, the inverse of Catalog.get, and the annealer's Weyl-projector
neighbour move, which locates an accepted neighbour with it."""

import numpy as np
import pytest

from stabdecomp.anneal import AnnealConfig, _Subset, _WeylNeighbours, anneal_search
from stabdecomp.stabilizer import build_catalog, magic_power


@pytest.mark.parametrize(
    "p,n",
    # the ids end in the catalog's artifact label, "raw"
    [pytest.param(p, n, id="%d-%d-raw" % (p, n)) for p, n in [(3, 1), (3, 2), (3, 3), (2, 1), (2, 2), (2, 3)]],
)
def test_index_of_round_trips_every_index(p, n):
    cat = build_catalog(p, n)
    phase = np.exp(0.7j) * 3.0  # any norm and global phase
    for i in range(len(cat)):
        assert cat.index_of(cat.get(i).complex_vector() * phase) == i


@pytest.mark.parametrize("p,n", [(3, 4), (2, 4)])
def test_index_of_round_trips_a_sample(p, n):
    cat = build_catalog(p, n)
    rng = np.random.default_rng(11)
    for i in rng.integers(0, len(cat), size=2000):
        assert cat.index_of(cat.get(int(i)).complex_vector()) == i
    assert cat.index_of(cat.get(len(cat) - 1).complex_vector()) == len(cat) - 1


def test_index_of_rejects_non_entries():
    cat = build_catalog(3, 2)
    v = cat.get(200).complex_vector()
    bad = [
        np.zeros(9),
        np.ones(8),
        np.array([1, 1, 0, 0, 0, 0, 0, 0, 1.0]),  # support is not a coset
        v * np.where(np.arange(9) == int(np.flatnonzero(v)[0]), 2.0, 1.0),  # unequal moduli
        v * np.exp(0.3j * np.arange(9)),  # phases off the grid of cube roots
        cat.get(20).complex_vector() + cat.get(21).complex_vector(),  # a sum of two entries
        build_catalog(3, 1).get(0).complex_vector(),  # wrong dimension
    ]
    for vec in bad:
        with pytest.raises(ValueError):
            cat.index_of(vec)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (2, 3), (2, 4)])
def test_neighbour_is_a_catalog_state_at_overlap_one_over_root_p(p, n):
    cat = build_catalog(p, n)
    moves = _WeylNeighbours(cat)
    rng = np.random.default_rng(5)
    for _ in range(200):
        src = int(rng.integers(len(cat)))
        v = cat.get(src).complex_vector()
        pos, u = moves.propose(rng, _Subset([src], v[None].copy(), v))
        j = moves.locate(u, {src})
        assert pos == 0 and j != src
        w = cat.get(j).complex_vector()
        assert abs(np.vdot(u, u) - 1) < 1e-12
        assert abs(abs(np.vdot(w, u)) - 1) < 1e-12  # u is entry j up to a global phase
        assert abs(abs(np.vdot(v, w)) - p**-0.5) < 1e-12


def test_chain_traces_count_each_move_kind():
    cat = build_catalog(3, 2)
    res = anneal_search(AnnealConfig(target=magic_power("H3", 2), rank=2, catalog=cat, seed=3, chains=2, steps=400))
    for t in res.chain_traces:
        moves = t["moves"]
        assert set(moves) == {"uniform", "weyl"}
        assert sum(m["proposed"] for m in moves.values()) == t["steps"] == 400
        assert sum(m["accepted"] for m in moves.values()) == t["accepted"]
        assert all(0 < m["accepted"] <= m["proposed"] for m in moves.values())
