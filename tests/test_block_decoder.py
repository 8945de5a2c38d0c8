"""The block decoder (``Catalog.vectors``), the block line generator behind
``content_hash`` and ``jsonl_chunks``, and the search context built from them,
each checked against the per-index reference path."""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from stabdecomp.algebra import QuadraticForm
from stabdecomp.certify import _SearchContext
from stabdecomp.stabilizer import CanonicalStabilizer, _FormTables, build_catalog, magic_power

# the ids end in the catalog's artifact label, "raw"
CASES = [
    pytest.param(p, n, id="%d-%d-raw" % (p, n))
    for p, n in [(3, 1), (3, 2), (3, 3), (2, 1), (2, 2), (2, 3), (2, 4)]
]


@lru_cache(maxsize=None)
def _catalog(p, n):
    return build_catalog(p, n)

# The catalog order: every entry's line, hashed in index order.  `get`, the
# block decoder and the JSONL text share one form-index layout (`_FormTables`),
# so these literals are what pins that layout, and the enumeration order of
# (k, W, x0), to the published catalogs.
CONTENT_HASHES = {
    (3, 1): "7ae3ca0150b69d39b6966368f3a76ab2e576a855a98f3a1efe401cab77dbb385",
    (3, 2): "5fefc1caa31c2075d8203b2efadf8b8bd8f41dee11f86afd7536b797fef307ea",
    (3, 3): "8e9432253b01984e4157309270782f6356f8cab2307dbfaeb6471393cfb3cf59",
    (2, 1): "5436b1f06601ddcf5178ab75484edcb2428b7876b987decc622d916d4cfde52f",
    (2, 2): "3e6274546601044c0ef58447f5798912472180575c46b493925d5f34f2ef23b9",
    (2, 3): "03327c4506fdc0baac6b342bf985b67cd3fdfbdfbfa66b8cd34435f03e1d03c2",
    (2, 4): "67a20efe74ca1f103d35af6d17409a5f8a10fd7fd362bc458935db4ca1246ca5",
}


@pytest.mark.parametrize("p,n", CASES)
def test_content_hash_is_pinned(p, n):
    assert _catalog(p, n).content_hash() == CONTENT_HASHES[p, n]


@pytest.mark.parametrize("k", range(6))
def test_form_count_is_the_number_of_phase_functions(k):
    # qutrits: A symmetric (k(k+1)/2 entries) and b over F_3; qubits: a over Z_4, B strictly upper over F_2
    assert _FormTables(3, k).nforms == 3 ** (k * (k + 1) // 2 + k)
    assert _FormTables(2, k).nforms == 4**k * 2 ** (k * (k - 1) // 2)


@pytest.mark.parametrize("p,n", CASES)
def test_vectors_bitwise_equal_to_complex_vector(p, n):
    cat = _catalog(p, n)
    ref = np.array([cat.get(i).complex_vector() for i in range(len(cat))])
    V = cat.vectors()
    assert V.shape == (len(cat), p**n)
    assert np.array_equal(V, ref)
    assert V.tobytes() == ref.tobytes()
    picks = np.random.default_rng(5).integers(0, len(cat), size=40)
    assert cat.vectors(picks).tobytes() == ref[picks].tobytes()


@pytest.mark.parametrize("p,n", CASES)
def test_block_lines_equal_entry_lines(p, n):
    cat = _catalog(p, n)
    # entry i's line, serialized from its record
    want = [json.dumps(cat.get(i).record(), sort_keys=True, separators=(",", ":")) for i in range(len(cat))]
    assert "".join(cat._text_chunks()).splitlines() == want
    h = hashlib.sha256()
    for line in want:
        h.update(line.encode())
        h.update(b"\n")
    assert cat.content_hash() == h.hexdigest()


def test_vectors_of_a_four_qutrit_sample():
    cat = build_catalog(3, 4)
    picks = np.random.default_rng(17).integers(0, len(cat), size=2000)
    ref = np.array([cat.get(int(i)).complex_vector() for i in picks])
    assert cat.vectors(picks).tobytes() == ref.tobytes()
    assert cat.vectors([len(cat) - 1]).tobytes() == cat.get(len(cat) - 1).complex_vector().tobytes()


@pytest.mark.parametrize("p,n", [(3, 4), (2, 5)])
def test_one_index_decode_at_every_k(p, n):
    # catalogs above the dense limit are only ever decoded one index at a time
    cat = build_catalog(p, n)
    firsts = {}
    for blk in cat._blocks:
        firsts.setdefault(blk.k, blk.start)
    bounds = [firsts[k] for k in range(n + 1)] + [len(cat)]
    rng = np.random.default_rng(29)
    for k in range(n + 1):
        lo, hi = bounds[k], bounds[k + 1]
        picks = [lo, hi - 1, *rng.integers(lo, hi, size=40).tolist()]
        ref = np.array([cat.get(i).complex_vector() for i in picks])
        assert {cat.get(i).k for i in picks} == {k}
        for i, want in zip(picks, ref):
            assert cat.vectors([i]).tobytes() == want[None].tobytes()
        assert cat.vectors(picks).tobytes() == ref.tobytes()


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4)])
def test_get_builds_what_the_checked_constructors_accept(p, n):
    # get builds its phase form unchecked and takes its block's x0 and W as they
    # are: the checked constructors must accept every such state and leave its
    # form, x0 and W as they are
    cat = _catalog(p, n)
    for i in np.random.default_rng(31).integers(0, len(cat), size=300).tolist():
        st = cat.get(i)
        form = QuadraticForm(p, st.k, st.phase.A, st.phase.b)
        for got, want in ((st.phase.A, form.A), (st.phase.b, form.b)):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        checked = CanonicalStabilizer(p, n, st.x0, st.W, st.phase)
        for got, want in ((st.x0, checked.x0), (st.W, checked.W)):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable  # shared by every state of the block


# sha256 of the dense decode's bytes: the one-index path shares its formula,
# so these pin that the dense decode itself stays as it was
DENSE_SHA256 = {
    (3, 3): "2facc1f24cc1293bd6621e25e84e92bf795217d0c65106c8b48a185d0a28c3d0",
    (2, 4): "68462d9f2be3f9cee7e8a951f70ddf1e6ca9b204a61532eb056a873d55248900",
}


@pytest.mark.parametrize("p,n", sorted(DENSE_SHA256))
def test_dense_decode_is_pinned(p, n):
    assert hashlib.sha256(_catalog(p, n).vectors().tobytes()).hexdigest() == DENSE_SHA256[p, n]


def test_vectors_rejects_out_of_range_indices():
    cat = build_catalog(3, 1)
    for bad in (-1, len(cat)):
        with pytest.raises(IndexError):
            cat.vectors([0, bad])
    assert cat.vectors([]).shape == (0, 3)


@pytest.mark.parametrize("name,m", [("S", 3), ("H", 4), ("T3", 2)])
def test_search_context_masks_match_support_bits(name, m):
    target = magic_power(name, m)
    cat = _catalog(target.p, target.n)
    ctx = _SearchContext(target, cat)
    want = np.empty(len(cat), dtype=np.int64)
    for i in range(len(cat)):
        bits = 0
        for idx in cat.get(i).points()[0]:
            bits |= 1 << int(idx)
        want[i] = bits
    assert np.array_equal(ctx.masks, want)
    assert np.array_equal(ctx.t_ov, ctx.V.conj() @ ctx.t)
