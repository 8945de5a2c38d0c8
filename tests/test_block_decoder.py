"""The block decoder (``Catalog.codes`` into ``Catalog.amplitude_table``),
the one-index decode (``Catalog.vector``), the block line generator behind
``content_hash`` and ``jsonl_chunks``, and the search context built from
them, each checked against the per-index reference path."""

import hashlib
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from stabdecomp.algebra import QuadraticForm
from stabdecomp.certify import _SearchContext, audit, certify_rank
from stabdecomp.stabilizer import Catalog, CanonicalStabilizer, _FormTables, build_catalog, magic_power

# the ids end in the catalog's artifact label, "raw"
CASES = [
    pytest.param(p, n, id="%d-%d-raw" % (p, n))
    for p, n in [(3, 1), (3, 2), (3, 3), (2, 1), (2, 2), (2, 3), (2, 4)]
]


@lru_cache(maxsize=None)
def _catalog(p, n):
    return build_catalog(p, n)


@lru_cache(maxsize=None)
def _reference(p, n):
    """Every entry's ``complex_vector``, one row each."""
    cat = _catalog(p, n)
    return np.array([cat.get(i).complex_vector() for i in range(len(cat))])


def _dense(cat, start=0, stop=None):
    """The complex rows the block decoder's codes stand for."""
    return cat.amplitude_table()[cat.codes(start, stop)]

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
    ref = _reference(p, n)
    codes = cat.codes()
    assert codes.dtype == np.uint8 and codes.shape == (len(cat), p**n)
    assert len(cat.amplitude_table()) == (n + 1) * {2: 4, 3: 3}[p] + 1
    V = _dense(cat)
    assert np.array_equal(V, ref)
    assert V.tobytes() == ref.tobytes()
    for i in np.random.default_rng(5).integers(0, len(cat), size=40).tolist():
        assert cat.codes(i, i + 1).tobytes() == codes[i : i + 1].tobytes()


@pytest.mark.parametrize("p,n", CASES)
def test_vector_is_the_dense_row(p, n):
    # bytes, not values: a lost sign bit on a zero amplitude shows
    cat = _catalog(p, n)
    V = _dense(cat)
    for i in range(len(cat)):
        assert cat.vector(i).tobytes() == V[i].tobytes()


def test_vector_and_the_audit_read_the_one_code_formula(monkeypatch):
    # the annealer (vector) and certify (codes) expand codes of one formula
    # through one table, and the audit's block-decoder check sees that formula
    target = magic_power("T3", 1)
    cat = build_catalog(3, 1)
    table = cat.amplitude_table()
    assert table is cat.amplitude_table()
    with pytest.raises(ValueError):
        table[0] = 0
    cert = certify_rank(target, 2, cat)
    assert audit(cert, cat, target).passed
    formula, order = Catalog._codes_of, 3

    def turned(self, blk, forms):
        # every phase turned by one step: code k * order + e becomes k * order + (e + 1) % order
        codes = formula(self, blk, forms)
        return codes - codes % order + (codes + 1) % order

    monkeypatch.setattr(Catalog, "_codes_of", turned)
    for i in range(len(cat)):
        assert cat.vector(i).tobytes() != cat.get(i).complex_vector().tobytes()
    assert audit(cert, cat, target).failures == ["block-decoder"]


@pytest.mark.parametrize("p,n", CASES)
def test_block_points_ascend(p, n):
    # y-lex order is basis-index order, so index_of finds a block by its support as flatnonzero gives it
    for blk in _catalog(p, n)._blocks:
        assert (np.diff(blk.points) > 0).all()


@pytest.mark.parametrize("p,n", [(3, 4), (2, 5)])
def test_vector_of_a_large_catalog_sample(p, n):
    cat = build_catalog(p, n)
    for i in np.random.default_rng(41).integers(0, len(cat), size=2000).tolist():
        assert cat.vector(i).tobytes() == cat.get(i).complex_vector().tobytes()


@pytest.mark.parametrize("p,n", CASES)
def test_block_lines_equal_entry_lines(p, n):
    cat = _catalog(p, n)
    # entry i's line, serialized from its record
    want = [json.dumps(cat.get(i).record(), sort_keys=True, separators=(",", ":")) for i in range(len(cat))]
    assert b"".join(cat._text_chunks()).decode("ascii").splitlines() == want
    h = hashlib.sha256()
    for line in want:
        h.update(line.encode())
        h.update(b"\n")
    assert cat.content_hash() == h.hexdigest()


def test_vectors_of_a_four_qutrit_sample():
    cat = build_catalog(3, 4)
    picks = np.random.default_rng(17).integers(0, len(cat), size=2000)
    ref = np.array([cat.get(int(i)).complex_vector() for i in picks])
    assert np.array([cat.vector(int(i)) for i in picks]).tobytes() == ref.tobytes()
    for i in picks[:200].tolist() + [len(cat) - 1]:
        assert _dense(cat, i, i + 1).tobytes() == cat.get(i).complex_vector()[None].tobytes()


@pytest.mark.parametrize("p,n", [(3, 4), (2, 5)])
def test_one_index_decode_at_every_k(p, n):
    # the annealer decodes every catalog one index at a time; here at every k of the largest
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
            assert cat.vector(i).tobytes() == want.tobytes()
            assert _dense(cat, i, i + 1).tobytes() == want[None].tobytes()


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


# sha256 of the bytes of the complex rows the codes stand for: the one-index
# path shares their formula, so these pin that the block decoder stays as it was
DENSE_SHA256 = {
    (3, 3): "2facc1f24cc1293bd6621e25e84e92bf795217d0c65106c8b48a185d0a28c3d0",
    (2, 4): "68462d9f2be3f9cee7e8a951f70ddf1e6ca9b204a61532eb056a873d55248900",
}


@pytest.mark.parametrize("p,n", sorted(DENSE_SHA256))
def test_dense_decode_is_pinned(p, n):
    assert hashlib.sha256(_dense(_catalog(p, n)).tobytes()).hexdigest() == DENSE_SHA256[p, n]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_vectors_prefix_is_the_dense_head(p, n):
    # certify decodes only the prefix its shard reaches: the same block
    # writer, stopped after stop rows, must give the reference rows
    cat = _catalog(p, n)
    ref = _reference(p, n)
    last = cat._blocks[-1]
    stops = [0, 1, last.start, last.start + last.nforms // 2, len(cat)]
    assert 0 < last.start < stops[3] < len(cat)  # a block boundary, then a point inside the block
    for stop in stops:
        head = _dense(cat, stop=stop)
        assert head.shape == (stop, p**n)
        assert head.tobytes() == ref[:stop].tobytes()
    # and a range that starts one past a block's first entry and stops inside the last block
    start = cat._blocks[-2].start + 1
    assert _dense(cat, start, stops[3]).tobytes() == ref[start : stops[3]].tobytes()


def test_vectors_refuses_a_stop_outside_the_catalog():
    cat = build_catalog(2, 1)
    for start, stop in ((0, -1), (0, len(cat) + 1), (-1, 2), (3, 2)):
        with pytest.raises(ValueError, match=r"^codes\(start=%d, stop=%d\) is not a range of the 6 catalog entries$"
                           % (start, stop)):
            cat.codes(start, stop)


def test_vectors_rejects_out_of_range_indices():
    cat = build_catalog(3, 1)
    for bad in (-1, len(cat)):
        with pytest.raises(IndexError):
            cat.vector(bad)
    assert cat.codes(len(cat)).shape == (0, 3)


@pytest.mark.parametrize("name,m", [("S", 3), ("H", 4), ("T3", 2)])
def test_search_context_masks_match_support_bits(name, m):
    target = magic_power(name, m)
    cat = _catalog(target.p, target.n)
    ctx = _SearchContext(target, cat)
    assert ctx.codes.dtype == np.uint8 and ctx.codes.shape == (len(cat), target.p**target.n)
    want = np.empty(len(cat), dtype=np.int64)
    for i in range(len(cat)):
        bits = 0
        for idx in cat.get(i).points()[0]:
            bits |= 1 << int(idx)
        want[i] = bits
    assert np.array_equal(ctx.masks, want)
    assert np.array_equal(ctx.t_ov, ctx.rows(slice(None)).conj() @ ctx.t)


def test_search_context_holds_codes_not_complex_rows():
    # the whole (2,4) catalog: 36,720 rows of 16 amplitudes are 9.4 MB as
    # complex vectors and 0.6 MB as codes
    target = magic_power("H", 4)
    cat = _catalog(2, 4)
    tracemalloc.start()
    try:
        ctx = _SearchContext(target, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.count == len(cat) == 36_720
    assert ctx.codes.dtype == np.uint8 and ctx.codes.shape == (36_720, 16)
    arrays = [value for value in vars(ctx).values() if isinstance(value, np.ndarray)]
    assert not [a for a in arrays if a.ndim == 2 and np.iscomplexobj(a)]
    assert peak < 3e6, peak
