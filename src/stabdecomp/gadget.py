"""Injection and two-copy conversion protocols on qutrit magic states.

A protocol entangles the data register with a magic-state ancilla via a
two-qutrit Clifford C and measures the ancilla; outcome k leaves the data in
the image of the branch operator

    E_k(C, M) = (1_data x <k|_anc) C (1_data x |M>)

with probability equal to the squared branch norm.  Weyl prefactors only
permute k and add phases (``check_reduction``), so exhaustive sweeps run
over the 51,840 symplectic classes of Sp(4, 3) with one synthesized unitary
per class.  The unitaries stream through the sweeps a chunk of rows at a time
(``_table_chunks``); no sweep holds the whole 67 MB table.

In a protocol word subscript 1 is the data leg (most significant tensor
factor) and subscript 2 the ancilla.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np

from .clifford import (
    GATE_ORDER,
    enumerate_symplectic,
    format_word,
    gate_matrix,
    generate_clifford_group,
    parse_word,
    synthesize,
    weyl_matrix,
    word_to_matrix,
)
from .stabilizer import _payload, magic_state

ATOL_UNITARY = 1e-8
ATOL_CLIFFORD = 1e-5

CLASS_NONCLIFFORD = "phase-state-nonclifford"
CLASS_CLIFFORD = "phase-state-clifford"
CLASS_NONE = "not-phase-state"


def branch_operator(C: np.ndarray, ancilla: np.ndarray, k: int) -> np.ndarray:
    """E_k(C, ancilla): 3x3 data-register operator for ancilla outcome k."""
    C = np.asarray(C)
    if C.shape != (9, 9):
        raise ValueError("C must be a two-qutrit unitary (9x9)")
    ancilla = np.asarray(ancilla, dtype=np.complex128)
    if ancilla.shape != (3,):
        raise ValueError("ancilla must be a single-qutrit vector")
    T = C.reshape(3, 3, 3, 3)  # [data_out, anc_out, data_in, anc_in]
    return np.einsum("ijm,m->ij", T[:, int(k) % 3], ancilla)


def check_reduction(D_data: np.ndarray, a: int, b: int, C: np.ndarray, ancilla: np.ndarray) -> bool:
    """Verify E_k((D x X^a Z^b) C) = w^{b(k-a)} D E_{k-a}(C) for all k, to 1e-12 entrywise."""
    omega = np.exp(2j * np.pi / 3)
    W = np.kron(D_data, weyl_matrix(1, [a], [b]))
    for k in range(3):
        lhs = branch_operator(W @ C, ancilla, k)
        rhs = omega ** (b * (k - a)) * (D_data @ branch_operator(C, ancilla, (k - a) % 3))
        if np.abs(lhs - rhs).max() > 1e-12:
            return False
    return True


def _classify(V: np.ndarray):
    """Classify the branch outputs V[e, k], a stack of shape (E, K, 3).

    A branch is a phase-state hit when its moduli agree within ATOL_UNITARY
    (and it is not zero); a hit is non-Clifford when one of its relative
    phases sits further than ATOL_CLIFFORD from every multiple of 2pi/3.
    Returns the (e, k) of every hit in row-major order, the hits' relative
    phases (n, 2) and non-Clifford mask (n,), and the squared norms (E, K)
    of all branches.  Phases are taken on the hits only.
    """
    mods = np.abs(V)
    norm2 = (mods**2).sum(axis=2)
    phase_mask = (mods.max(axis=2) - mods.min(axis=2) <= ATOL_UNITARY) & (
        mods.max(axis=2) > 10 * ATOL_UNITARY
    )
    third = 2 * np.pi / 3
    es, ks = np.nonzero(phase_mask)
    rel = np.angle(V[es, ks, 1:] / V[es, ks, :1])
    rem = rel % third
    noncliff = (np.minimum(rem, third - rem) > ATOL_CLIFFORD).any(axis=1)
    return es, ks, rel, noncliff, norm2


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class ProtocolReport:
    """One replayed protocol word on a magic state: the data state of one ancilla outcome."""

    __slots__ = ("magic", "clifford", "k", "vector", "probability", "phases", "classification")

    def __init__(self, magic, clifford, k, vector, probability, phases, classification):
        self.magic = magic
        self.clifford = clifford  # the gate word, formatted
        self.k = int(k)
        self.vector = np.asarray(vector, dtype=np.complex128)
        self.probability = float(probability)
        self.phases = phases
        self.classification = classification

    def __repr__(self) -> str:
        fields = (self.magic, self.clifford, self.k, self.probability, self.classification)
        return "ProtocolReport(%s, C=%s, k=%d, p=%.6f, %s)" % fields


class SweepResult:
    """Hits plus aggregate counts from an exhaustive protocol sweep.

    The hits are columns, one row per hit in sweep order; ``json_chunks``
    writes the artifact from them.  Injection columns: ``clifford`` and
    ``k_star`` (int), ``gate`` (n, 3, 3), ``diagonal_phases`` (n, 2) with the
    mask ``diagonal_known`` (False where the gate is not a Weyl operator times
    a diagonal, and the artifact writes null), and ``corrections`` (n, 3), -1
    marking a branch that never occurs (the k_star entry is not read).
    Two-copy columns: ``clifford`` and ``k`` (int), ``vector`` (n, 3),
    ``probability`` (n,), ``phases`` (n, 2) and ``nonclifford`` (bool).
    """

    def __init__(self, magic: str, kind: str, columns: dict, counts: dict, total: int):
        self.magic = magic
        self.kind = kind
        self.columns = columns
        self.counts = counts
        self.total = total

    def _header(self) -> dict:
        return _payload("sweep", magic=self.magic, kind=self.kind, total=self.total, counts=self.counts)

    def json_chunks(self, **extra):
        """The sweep artifact as ``json.dumps(payload, indent=1) + "\\n"`` writes
        it, straight from the columns, ``_HIT_CHUNK`` hits per chunk.

        The payload holds format, version, magic, kind, total and counts,
        then "hits", then ``extra``.  "hits" holds one object per hit row:
        magic, then the columns in the order above, complex entries as
        [re, im] pairs.  An injection hit writes its corrections as
        {branch: index or null} over the branches other than k_star; a
        two-copy hit writes ``nonclifford`` as its classification.  Each hit
        fills one template with the json text of its values, each distinct
        value formatted once per artifact (``_json_texts``).
        """
        head, tail = json.dumps({**self._header(), "hits": [], **extra}, indent=1).split('"hits": []')
        n = len(self.columns["clifford"])
        if not n:
            yield head + '"hits": []' + tail + "\n"
            return
        yield head + '"hits": ['
        proto, fill = self._hit_layout()
        template = ",\n  " + _template(proto, 2)
        for lo in range(0, n, _HIT_CHUNK):
            fields = fill(slice(lo, lo + _HIT_CHUNK))
            text = template * len(fields) % tuple(fields.ravel().tolist())
            yield text[1:] if lo == 0 else text
        yield "\n ]" + tail + "\n"

    def _hit_layout(self):
        """One hit's JSON object, "@" standing for each json value the columns
        fill, and the function giving the (rows, slots) object array of those
        values' text for a slice of the hits."""
        c = self.columns
        if self.kind == "injection":
            known = c["diagonal_known"]
            ints = _json_texts(np.concatenate([c["clifford"], c["k_star"], c["corrections"].ravel()]))
            gate, diagonal = _json_texts(_floats(c["gate"])), _json_texts(c["diagonal_phases"][known])
            # diagonal_phases is a list two levels below the hit, or null
            pre, mid, post = _template(["@", "@"], 3).split("%s")
            keys = np.array([json.dumps(str(k)) for k in range(3)], dtype=object)

            def fill(rows: slice) -> np.ndarray:
                k_star, is_known = c["k_star"][rows], known[rows]
                phases = np.full((len(k_star), 1), "null", dtype=object)
                texts = diagonal(c["diagonal_phases"][rows][is_known])
                phases[is_known, 0] = pre + texts[:, 0] + mid + texts[:, 1] + post
                # the corrections dict: the branches other than k_star, ascending
                others = _OTHER_BRANCHES[k_star]
                fixes = np.take_along_axis(c["corrections"][rows], others, axis=1)
                fix_text = np.where(fixes < 0, "null", ints(fixes))
                corrections = np.stack([keys[others[:, 0]], fix_text[:, 0], keys[others[:, 1]], fix_text[:, 1]], axis=1)
                ids = ints(np.column_stack([c["clifford"][rows], k_star]))
                return np.concatenate([ids, gate(_floats(c["gate"][rows])), phases, corrections], axis=1)

            proto = {
                "magic": self.magic,
                "clifford": "@",
                "k_star": "@",
                "gate": [[["@", "@"]] * 3] * 3,
                "diagonal_phases": "@",
                "corrections": {"@": "@", "@@": "@"},
            }
            return proto, fill
        ints = _json_texts(np.concatenate([c["clifford"], c["k"]]))
        values = np.concatenate([_floats(c["vector"]), c["probability"][:, None], c["phases"]], axis=1)
        floats = _json_texts(values)
        classes = np.array([json.dumps(CLASS_CLIFFORD), json.dumps(CLASS_NONCLIFFORD)], dtype=object)

        def fill(rows: slice) -> np.ndarray:
            ids = ints(np.column_stack([c["clifford"][rows], c["k"][rows]]))
            kinds = classes[c["nonclifford"][rows].astype(np.int64)][:, None]
            return np.concatenate([ids, floats(values[rows]), kinds], axis=1)

        proto = {
            "magic": self.magic,
            "clifford": "@",
            "k": "@",
            "vector": [["@", "@"]] * 3,
            "probability": "@",
            "phases": ["@", "@"],
            "classification": "@",
        }
        return proto, fill


# hits per template fill in SweepResult.json_chunks: a few MB of text per chunk
_HIT_CHUNK = 2048
# the branches other than k_star, in the order the corrections dict lists them
_OTHER_BRANCHES = np.array([[1, 2], [0, 2], [0, 1]])


def _floats(z: np.ndarray) -> np.ndarray:
    """The complex stack z as (rows, [re, im, re, im, ...]), a view where z allows one."""
    z = np.ascontiguousarray(z)
    return z.view(np.float64).reshape(len(z), -1)


def _bits(x: np.ndarray) -> np.ndarray:
    """x itself, or the bits of a float64 x."""
    return x.view(np.uint64) if x.dtype == np.float64 else x


def _json_texts(values: np.ndarray):
    """The function giving ``json.dumps`` of each element of an array of values
    drawn from ``values``, as an object array of its shape.

    Each distinct value of ``values`` is formatted once, all in one
    ``json.dumps`` of their list; floats are told apart by their bits, so
    -0.0 keeps its sign.  The writer makes one per column group (the
    integers; the floats, the injection gates and diagonal phases apart), so
    each chunk of hits only looks its values' text up.
    """
    values = np.asarray(values)
    flat = np.sort(_bits(values.ravel()))  # sorting beats np.unique's hash table here
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    uniq = flat[first]
    texts = np.array(json.dumps(uniq.view(values.dtype).tolist())[1:-1].split(", "), dtype=object)

    def lookup(x: np.ndarray) -> np.ndarray:
        distinct, at = np.unique(_bits(np.asarray(x)), return_inverse=True)
        return texts[np.searchsorted(uniq, distinct)][at.reshape(np.shape(x))]

    return lookup


def _template(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` as it reads ``depth`` levels into a
    document, each "@" or "@@" string in it (key or value) made a %s slot."""
    text = json.dumps(value, indent=1).replace("%", "%%").replace("\n", "\n" + " " * depth)
    return re.sub(r'"@@?"', "%s", text)


# ---------------------------------------------------------------------------
# the sweeps
# ---------------------------------------------------------------------------

# table rows built per step: small enough to keep the product temporaries at a few MB
_TABLE_CHUNK = 4096


@functools.cache
def _table_plan():
    """The Sp(4,3) gate words, each slot's gate powers as matrices, and the row
    order of the products: lexicographic in the slot powers (cached, ~2 MB)."""
    words = synthesize(enumerate_symplectic(2))
    gates = [[gate_matrix(name, 2, legs, p) for p in range(GATE_ORDER[name])] for name, legs in words.slots]
    return words, gates, np.lexsort(words.powers.T[::-1])  # slot 0 the primary key


def _table_chunks():
    """Yield (rows, U) over all of Sp(4,3), ``_TABLE_CHUNK`` rows at a time: U[i] is
    the operator product of word rows[i], left to right.  In each chunk every
    distinct word prefix is multiplied once, onto its parent prefix."""
    words, gates, order = _table_plan()
    for lo in range(0, len(order), _TABLE_CHUNK):
        rows = order[lo : lo + _TABLE_CHUNK]
        P = np.eye(9, dtype=np.complex128)[None]  # the distinct prefixes so far
        pid = np.zeros(len(rows), dtype=np.int64)  # each row's prefix in P
        for slot, mats in enumerate(gates):
            n = len(P)
            power = words.powers[rows, slot].astype(np.int64)
            keys, pid = np.unique(power * n + pid, return_inverse=True)
            P = P[keys % n]  # the parents, grouped by power
            for p in range(1, len(mats)):
                a, b = np.searchsorted(keys, [p * n, (p + 1) * n])
                P[a:b] = (P[a:b].reshape(-1, 9) @ mats[p]).reshape(-1, 9, 9)
        yield rows[np.argsort(pid)], P  # the rows are distinct words, so pid is a permutation


def sweep_two_copy(magic: str) -> SweepResult:
    """Classify E_k(C_sp, M)|M> over all of Sp(4,3) x F_3.

    Returns every phase-state hit; Weyl prefactors are quotiented out by the
    branch-reduction identity, so the symplectic classes are exhaustive.
    """
    m = magic_state(magic).complex_vector()
    V = np.empty((len(_table_plan()[2]), 3, 3), dtype=np.complex128)
    for rows, U in _table_chunks():
        # v[e, k, i] = sum_{j,m} C[(i,k),(j,m)] M_j M_m
        V[rows] = np.einsum("eikjm,j,m->eki", U.reshape(-1, 3, 3, 3, 3), m, m, optimize=True)
    es, ks, rel, noncliff, norm2 = _classify(V)
    counts = {
        CLASS_NONCLIFFORD: int(noncliff.sum()),
        CLASS_CLIFFORD: int(len(es) - noncliff.sum()),
        CLASS_NONE: int(V.shape[0] * 3 - len(es)),
    }
    columns = {
        "clifford": es,
        "k": ks,
        "vector": V[es, ks],
        "probability": norm2[es, ks],
        "phases": rel,
        "nonclifford": noncliff,
    }
    return SweepResult(magic, "two-copy", columns, counts, V.shape[0] * 3)


# operators keyed per step: keeps the key temporaries near 1 MB
_KEY_CHUNK = 4096
# normalised entries are rounded to multiples of 1/_KEY_GRID before they are keyed
_KEY_GRID = 8
# a rounded entry is at most sqrt(3) * _KEY_GRID < 14.5 in modulus: one balanced base-29 digit
_KEY_DIGITS = np.array([pow(29, j, 2**64) for j in range(18)], dtype=np.uint64)


def _projective_keys(M: np.ndarray) -> np.ndarray:
    """A uint64 key of each operator of the stack M, up to a scalar: each is
    divided by the phase of its first entry above ||M||_F / 6 and scaled to
    ||M||_F = sqrt(3), and its 18 reals, rounded to multiples of 1/_KEY_GRID,
    are read as balanced base-29 digits modulo 2^64.  Zero keys as 0."""
    flat = M.reshape(len(M), 9).astype(np.complex128, copy=False)
    fro = np.linalg.norm(flat, axis=1)
    pivot = flat[np.arange(len(flat)), (np.abs(flat) > fro[:, None] / 6).argmax(axis=1)]
    scale = np.zeros(len(flat), dtype=np.complex128)
    np.divide(np.sqrt(3) * pivot.conj(), np.abs(pivot) * fro, out=scale, where=fro > 0)
    z = flat * scale[:, None]
    grid = np.rint(np.concatenate([z.real, z.imag], axis=1) * _KEY_GRID).astype(np.int64)
    return grid.view(np.uint64) @ _KEY_DIGITS  # two's complement: the digits modulo 2^64


def _proportional_to_clifford(M: np.ndarray, group: np.ndarray) -> np.ndarray:
    """For each operator of the stack M, the index of a 216-group element G
    with M = scalar * G, or -1 when there is none.

    The one candidate is the element of M's key (``_projective_keys``), and
    it passes when |tr(G^dag M)| is within 1e-3 of sqrt(3) ||M||_F and M - mu G,
    mu = tr(G^dag M) / 3, is within ATOL_CLIFFORD * max(1, |mu|) entrywise.
    Distinct projective Cliffords overlap at most 1/sqrt(3), so at most one
    element passes, the one of largest |tr(G^dag M)|: the lookup can miss but
    never names another element.  It misses no M of ||M||_F > 7.3e-3, whose
    normalised entries sit nearer G's than the group's 0.01485 margin to a
    rounding boundary (``test_key_lookup_margin_covers_every_screened_norm``
    derives the bound); the sweeps screen norms of 1 or more.
    """
    keys = _projective_keys(group)
    order = np.argsort(keys)
    keys = keys[order]
    assert (np.diff(keys) > 0).all(), "the group's keys must be distinct"
    out = np.full(len(M), -1, dtype=np.int64)
    for lo in range(0, len(M), _KEY_CHUNK):
        Mc = M[lo : lo + _KEY_CHUNK]
        key = _projective_keys(Mc)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        gs = order[at]
        fc = np.linalg.norm(Mc, axis=(1, 2))
        top = np.einsum("eij,eij->e", group[gs].conj(), Mc)  # tr(G^dag M)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (keys[at] == key) & (np.abs(np.abs(top) / (np.sqrt(3) * fc) - 1) < 1e-3) & (fc >= 1e-12)
        mu = top / 3.0
        err = np.abs(Mc - mu[:, None, None] * group[gs]).max(axis=(1, 2))
        ok &= err <= ATOL_CLIFFORD * np.maximum(1.0, np.abs(mu))
        out[lo + np.flatnonzero(ok)] = gs[ok]
    return out


def _pauli_diagonal_phases(Ug: np.ndarray):
    """For each unitary of the stack Ug of the form phase * W_(a,b) D, the two
    relative diagonal phases of D, and the mask of the stack members of that form
    (their phases rows are the only ones to read)."""
    nz = np.abs(Ug) > ATOL_UNITARY
    rows = nz.argmax(axis=1)  # the first nonzero row of each column
    ok = (nz.sum(axis=1) == 1).all(axis=1) & (rows == (rows[:, :1] + np.arange(3)) % 3).all(axis=1)
    diag = np.take_along_axis(Ug, rows[:, None, :], axis=1)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.angle(diag[:, 1:] / diag[:, :1])
    return rel, ok


def sweep_injection(magic: str) -> SweepResult:
    """Find deterministic single-copy injection gadgets across Sp(4,3).

    A gadget needs one branch k* proportional to a non-Clifford unitary
    (atol 1e-8) with every other branch equal to a 216-group Clifford
    composed with that unitary (atol 1e-5).
    """
    m = magic_state(magic).complex_vector()
    parts, total = [], 0
    for rows, U in _table_chunks():
        E = np.einsum("eikjm,m->ekij", U.reshape(-1, 3, 3, 3, 3), m, optimize=True)  # E[e, k]: (rows, 3, 3, 3)
        G = np.einsum("ekji,ekjl->ekil", E.conj(), E, optimize=True)  # E^dag E
        tr = np.einsum("ekii->ek", G).real / 3.0
        unitary = (np.abs(G - tr[..., None, None] * np.eye(3)).max(axis=(2, 3)) <= ATOL_UNITARY) & (tr > 1e-12)
        kept = unitary.any(axis=1)  # only the rows with a unitary branch are kept
        parts.append((rows[kept], E[kept], tr[kept], unitary[kept]))
        total += 3 * len(rows)
    rows, E, tr, unitary_mask = (np.concatenate(col) for col in zip(*parts))
    del parts  # the chunk copies go before the screens
    group = generate_clifford_group()
    held, ks = np.nonzero(unitary_mask)  # (held row, k*) in table order
    Ug = E[held, ks] / np.sqrt(tr[held, ks])[:, None, None]
    # the injected gate must be non-Clifford
    keep = _proportional_to_clifford(Ug, group) < 0
    held, ks, Ug = held[keep], ks[keep], Ug[keep]
    # every other branch k must be a Clifford correction of Ug, or never occur
    absent = np.linalg.norm(E, axis=(2, 3)) < 1e-10
    fixes = np.full((len(held), 3), -1, dtype=np.int64)
    for k in range(3):
        sel = np.nonzero((ks != k) & ~absent[held, k])[0]
        fixes[sel, k] = _proportional_to_clifford(E[held[sel], k] @ Ug[sel].conj().transpose(0, 2, 1), group)
    ok = ((fixes >= 0) | absent[held] | (ks[:, None] == np.arange(3))).all(axis=1)
    gadgets = np.flatnonzero(ok)
    gadgets = gadgets[np.argsort(rows[held[gadgets]] * 3 + ks[gadgets], kind="stable")]  # (e, k*) order
    phases, known = _pauli_diagonal_phases(Ug[gadgets])
    columns = {
        "clifford": rows[held[gadgets]],
        "k_star": ks[gadgets],
        "gate": Ug[gadgets],
        "diagonal_phases": phases,
        "diagonal_known": known,
        "corrections": fixes[gadgets],  # -1 exactly where a branch k != k* never occurs
    }
    counts = {"unitary-branches": int(unitary_mask.sum()), "gadgets": len(gadgets)}
    return SweepResult(magic, "injection", columns, counts, total)


def replay_protocol(word, magic: str, k: int) -> ProtocolReport:
    """Run a protocol word on M x M and project ancilla outcome k; the word is
    an operator product, as ``word_to_matrix`` reads it."""
    parsed = parse_word(word, 2) if isinstance(word, str) else word
    C = word_to_matrix(parsed, 2)
    m = magic_state(magic).complex_vector()
    v = branch_operator(C, m, k) @ m
    hit, _, rel, noncliff, norm2 = _classify(v[None, None])
    phases = tuple(rel[0].tolist()) if len(hit) else None
    cls = (CLASS_NONCLIFFORD if noncliff[0] else CLASS_CLIFFORD) if len(hit) else CLASS_NONE
    return ProtocolReport(magic, format_word(parsed), k, v, norm2[0, 0], phases, cls)

