"""Injection and two-copy conversion protocols on qutrit magic states.

A protocol entangles the data register with a magic-state ancilla via a
two-qutrit Clifford C and measures the ancilla; outcome k leaves the data in
the image of the branch operator

    E_k(C, M) = (1_data x <k|_anc) C (1_data x |M>)

with probability equal to the squared branch norm.  Weyl prefactors only
permute k and add phases (``check_reduction``), so exhaustive sweeps run
over the 51,840 symplectic classes of Sp(4, 3) with one synthesized unitary
per class.

Protocol words (fixed by reproducing the published branch outputs):
subscript 1 is the data leg (most significant tensor factor), subscript 2
the ancilla, and a protocol word reads chronologically, leftmost gate
applied first.  ``replay_protocol`` reverses it into the one gate-word
convention of the library, the operator product of ``clifford.word_to_matrix``.
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
from .stabilizer import magic_state

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
# reports
# ---------------------------------------------------------------------------


class ProtocolReport:
    """One (Clifford, branch) outcome of a protocol on a magic state."""

    __slots__ = ("magic", "clifford", "k", "vector", "probability", "phases", "classification")

    def __init__(self, magic, clifford, k, vector, probability, phases, classification):
        self.magic = magic
        self.clifford = clifford  # symplectic index or gate-word string
        self.k = int(k)
        self.vector = np.asarray(vector, dtype=np.complex128)
        self.probability = float(probability)
        self.phases = phases
        self.classification = classification

    def __repr__(self) -> str:
        return "ProtocolReport(%s, C=%s, k=%d, p=%.6f, %s)" % (
            self.magic,
            self.clifford,
            self.k,
            self.probability,
            self.classification,
        )


class SweepResult:
    """Hits plus aggregate counts from an exhaustive protocol sweep.

    The hits are kept as columns, one row per hit in sweep order; ``hits``
    builds the report objects from them on first read.  Injection columns:
    ``clifford`` and ``k_star`` (int), ``gate`` (n, 3, 3), ``diagonal_phases``
    (n, 2) with the mask ``diagonal_known`` (False where the report holds
    None), and ``corrections`` (n, 3), -1 marking a branch that never occurs
    (the k_star entry is not read).  Two-copy columns: ``clifford`` and ``k``
    (int), ``vector`` (n, 3), ``probability`` (n,), ``phases`` (n, 2) and
    ``nonclifford`` (bool).
    """

    def __init__(self, magic: str, kind: str, columns: dict, counts: dict, total: int):
        self.magic = magic
        self.kind = kind
        self.columns = columns
        self.counts = counts
        self.total = total

    @functools.cached_property
    def hits(self) -> list:
        """GadgetReport or ProtocolReport objects, one per hit, built from the columns once."""
        return self._reports(slice(None))

    def nonclifford_hits(self) -> list:
        """The hits that give a non-Clifford gate, built from the columns: the
        ``nonclifford`` rows of a two-copy sweep, every gadget of an injection
        sweep (a gadget's gate is non-Clifford by construction)."""
        if self.kind == "injection":
            return self._reports(slice(None))
        return self._reports(np.flatnonzero(self.columns["nonclifford"]))

    def _reports(self, rows) -> list:
        """The report objects of the given hit rows (an index array or a slice), in order."""
        c = {key: col[rows] for key, col in self.columns.items()}
        if self.kind == "injection":
            return [
                GadgetReport(
                    self.magic,
                    e,
                    k_star,
                    gate,
                    tuple(phases) if known else None,
                    {k: (None if fix[k] < 0 else fix[k]) for k in range(3) if k != k_star},
                )
                for e, k_star, gate, phases, known, fix in zip(
                    c["clifford"].tolist(),
                    c["k_star"].tolist(),
                    c["gate"],
                    c["diagonal_phases"].tolist(),
                    c["diagonal_known"].tolist(),
                    c["corrections"].tolist(),
                )
            ]
        return [
            ProtocolReport(
                self.magic, e, k, vector, p, tuple(phases), CLASS_NONCLIFFORD if nc else CLASS_CLIFFORD
            )
            for e, k, vector, p, phases, nc in zip(
                c["clifford"].tolist(),
                c["k"].tolist(),
                c["vector"],
                c["probability"].tolist(),
                c["phases"].tolist(),
                c["nonclifford"].tolist(),
            )
        ]

    def _header(self) -> dict:
        return {"magic": self.magic, "kind": self.kind, "total": self.total, "counts": self.counts}

    def json_chunks(self, **extra):
        """The sweep artifact as ``json.dumps(payload, indent=1) + "\\n"`` writes
        it, straight from the columns, ``_HIT_CHUNK`` hits per chunk.

        The payload holds magic, kind, total and counts, then "hits", then
        ``extra``.  "hits" holds one object per report of ``hits``, with the
        report's fields in slot order and complex entries as [re, im] pairs.
        Each hit fills one template with the json text of its values; each
        distinct value is formatted once.
        """
        head, tail = json.dumps({**self._header(), "hits": [], **extra}, indent=1).split('"hits": []')
        proto, fields = self._hit_layout()
        if not len(fields):
            yield head + '"hits": []' + tail + "\n"
            return
        hit = ",\n  " + _template(proto, 2)
        yield head + '"hits": ['
        for lo in range(0, len(fields), _HIT_CHUNK):
            rows = fields[lo : lo + _HIT_CHUNK]
            text = hit * len(rows) % tuple(rows.ravel().tolist())
            yield text[1:] if lo == 0 else text
        yield "\n ]" + tail + "\n"

    def _hit_layout(self) -> tuple[dict, np.ndarray]:
        """One hit's JSON object, "@" standing for each json value the columns
        fill, and the (hits, slots) object array of those values' text."""
        c = self.columns
        n = len(c["clifford"])
        if self.kind == "injection":
            ints = _json_texts(np.column_stack([c["clifford"], c["k_star"]]))
            floats = _json_texts(np.concatenate([_re_im(c["gate"]).reshape(n, 18), c["diagonal_phases"]], axis=1))
            # diagonal_phases is a list two levels below the hit, or null
            pre, mid, post = _template(["@", "@"], 3).split("%s")
            phases = np.full((n, 1), "null", dtype=object)
            known = c["diagonal_known"]
            phases[known, 0] = pre + floats[known, 18] + mid + floats[known, 19] + post
            # the corrections dict: the branches other than k_star, ascending
            others = _OTHER_BRANCHES[c["k_star"]]
            fixes = np.take_along_axis(c["corrections"], others, axis=1)
            fix_text = np.where(fixes < 0, "null", _json_texts(fixes))
            keys = np.array([json.dumps(str(k)) for k in range(3)], dtype=object)[others]
            corrections = np.stack([keys[:, 0], fix_text[:, 0], keys[:, 1], fix_text[:, 1]], axis=1)
            proto = {
                "magic": self.magic,
                "clifford": "@",
                "k_star": "@",
                "gate": [[["@", "@"]] * 3] * 3,
                "diagonal_phases": "@",
                "corrections": {"@": "@", "@@": "@"},
            }
            return proto, np.concatenate([ints, floats[:, :18], phases, corrections], axis=1)
        ints = _json_texts(np.column_stack([c["clifford"], c["k"]]))
        floats = _json_texts(
            np.concatenate([_re_im(c["vector"]).reshape(n, 6), c["probability"][:, None], c["phases"]], axis=1)
        )
        classes = np.array([json.dumps(CLASS_CLIFFORD), json.dumps(CLASS_NONCLIFFORD)], dtype=object)
        proto = {
            "magic": self.magic,
            "clifford": "@",
            "k": "@",
            "vector": [["@", "@"]] * 3,
            "probability": "@",
            "phases": ["@", "@"],
            "classification": "@",
        }
        return proto, np.concatenate([ints, floats, classes[c["nonclifford"].astype(np.int64)][:, None]], axis=1)


# hits per template fill in SweepResult.json_chunks: a few MB of text per chunk
_HIT_CHUNK = 2048
# the branches other than k_star, in the order the corrections dict lists them
_OTHER_BRANCHES = np.array([[1, 2], [0, 2], [0, 1]])


def _re_im(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag], axis=-1)


def _json_texts(x: np.ndarray) -> np.ndarray:
    """``json.dumps`` of every element of x, as an object array of x's shape.

    Each distinct value is formatted once; floats are told apart by their
    bits, so -0.0 keeps its sign.
    """
    x = np.asarray(x)
    flat = x.ravel()
    keys = flat.view(np.uint64) if flat.dtype == np.float64 else flat
    uniq, inverse = np.unique(keys, return_inverse=True)
    texts = np.array([json.dumps(v) for v in uniq.view(flat.dtype).tolist()], dtype=object)
    return texts[inverse.reshape(-1)].reshape(x.shape)


def _template(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` as it reads ``depth`` levels into a
    document, each "@" or "@@" string in it (key or value) made a %s slot."""
    text = json.dumps(value, indent=1).replace("%", "%%").replace("\n", "\n" + " " * depth)
    return re.sub(r'"@@?"', "%s", text)


class GadgetReport:
    """A deterministic injection gadget: one non-Clifford unitary branch,
    every other branch a Clifford correction of it."""

    __slots__ = ("magic", "clifford", "k_star", "gate", "diagonal_phases", "corrections")

    def __init__(self, magic, clifford, k_star, gate, diagonal_phases, corrections):
        self.magic = magic
        self.clifford = clifford
        self.k_star = int(k_star)
        self.gate = np.asarray(gate, dtype=np.complex128)
        self.diagonal_phases = diagonal_phases  # set when gate is Pauli x diagonal
        self.corrections = corrections  # branch -> index into the 216 group


# ---------------------------------------------------------------------------
# the sweeps
# ---------------------------------------------------------------------------

# table rows built per step: small enough to keep the product temporaries at a few MB
_TABLE_CHUNK = 4096


@functools.cache
def _symplectic_unitaries():
    """All Sp(4,3) elements with one synthesized unitary each (cached, ~67 MB).

    Row e is the operator product of word e, left to right.  Rows are taken
    in lexicographic order of their slot powers, and in each chunk every
    distinct word prefix is multiplied once, onto its parent prefix.
    """
    sp = enumerate_symplectic(2)
    words = synthesize(sp)
    gates = [
        [gate_matrix(name, 2, legs, p) for p in range(GATE_ORDER[name])]
        for name, legs in words.slots
    ]
    U = np.empty((len(sp), 9, 9), dtype=np.complex128)
    order = np.lexsort(words.powers.T[::-1])  # slot 0 the primary key
    for lo in range(0, len(sp), _TABLE_CHUNK):
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
        U[rows] = P[pid]
    return sp, U


def sweep_two_copy(magic: str) -> SweepResult:
    """Classify E_k(C_sp, M)|M> over all of Sp(4,3) x F_3.

    Returns every phase-state hit; Weyl prefactors are quotiented out by the
    branch-reduction identity, so the symplectic classes are exhaustive.
    """
    m = magic_state(magic).complex_vector()
    sp, U = _symplectic_unitaries()
    T = U.reshape(-1, 3, 3, 3, 3)
    # v[e, k, i] = sum_{j,m} C[(i,k),(j,m)] M_j M_m
    V = np.einsum("eikjm,j,m->eki", T, m, m, optimize=True)
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


# operators screened against the 216 group per product: keeps the overlaps at ~3.5 MB
_OVERLAP_CHUNK = 1024


def _proportional_to_clifford(M: np.ndarray, group: np.ndarray) -> np.ndarray:
    """For each operator of the stack M, the index of a 216-group element G
    with M = scalar * G, or -1 when there is none."""
    out = np.full(len(M), -1, dtype=np.int64)
    fro = np.linalg.norm(M, axis=(1, 2))
    group_dag = group.reshape(len(group), -1).conj().T
    for lo in range(0, len(M), _OVERLAP_CHUNK):
        Mc, fc = M[lo : lo + _OVERLAP_CHUNK], fro[lo : lo + _OVERLAP_CHUNK]
        # |tr(G^dag M)| = sqrt(3) * ||M||_F exactly when M is proportional to G
        overlaps = Mc.reshape(len(Mc), -1) @ group_dag
        with np.errstate(divide="ignore", invalid="ignore"):
            screen = np.abs(np.abs(overlaps) / (np.sqrt(3) * fc[:, None]) - 1) < 1e-3
        screen &= (fc >= 1e-12)[:, None]
        ks, gs = np.nonzero(screen)  # ascending g within each k
        mu = overlaps[ks, gs] / 3.0
        err = np.abs(Mc[ks] - mu[:, None, None] * group[gs]).max(axis=(1, 2))
        ok = err <= ATOL_CLIFFORD * np.maximum(1.0, np.abs(mu))
        hit, first = np.unique(ks[ok], return_index=True)  # the lowest matching g per k
        out[lo + hit] = gs[ok][first]
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
    sp, U = _symplectic_unitaries()
    T = U.reshape(-1, 3, 3, 3, 3)
    # E[e, k] = branch operator, shape (E, 3, 3, 3)
    E = np.einsum("eikjm,m->ekij", T, m, optimize=True)
    G = np.einsum("ekji,ekjl->ekil", E.conj(), E, optimize=True)  # E^dag E
    tr = np.einsum("ekii->ek", G).real / 3.0
    dev = G - tr[..., None, None] * np.eye(3)
    unitary_mask = (np.abs(dev).max(axis=(2, 3)) <= ATOL_UNITARY) & (tr > 1e-12)
    group = generate_clifford_group()
    es, ks = np.nonzero(unitary_mask)  # (e, k*) in sweep order
    Ug = E[es, ks] / np.sqrt(tr[es, ks])[:, None, None]
    # the injected gate must be non-Clifford
    keep = _proportional_to_clifford(Ug, group) < 0
    es, ks, Ug = es[keep], ks[keep], Ug[keep]
    # every other branch k must be a Clifford correction of Ug, or never occur
    absent = np.linalg.norm(E, axis=(2, 3)) < 1e-10
    fixes = np.full((len(es), 3), -1, dtype=np.int64)
    for k in range(3):
        rows = np.nonzero((ks != k) & ~absent[es, k])[0]
        fixes[rows, k] = _proportional_to_clifford(
            E[es[rows], k] @ Ug[rows].conj().transpose(0, 2, 1), group
        )
    ok = ((fixes >= 0) | absent[es] | (ks[:, None] == np.arange(3))).all(axis=1)
    phases, known = _pauli_diagonal_phases(Ug[ok])
    columns = {
        "clifford": es[ok],
        "k_star": ks[ok],
        "gate": Ug[ok],
        "diagonal_phases": phases,
        "diagonal_known": known,
        "corrections": fixes[ok],  # -1 exactly where a branch k != k* never occurs
    }
    counts = {"unitary-branches": int(unitary_mask.sum()), "gadgets": int(ok.sum())}
    return SweepResult(magic, "injection", columns, counts, E.shape[0] * 3)


def replay_protocol(word, magic: str, k: int) -> ProtocolReport:
    """Run a named protocol word on M x M and project ancilla outcome k."""
    parsed = parse_word(word, 2) if isinstance(word, str) else word
    C = word_to_matrix(parsed[::-1], 2)
    m = magic_state(magic).complex_vector()
    v = branch_operator(C, m, k) @ m
    hit, _, rel, noncliff, norm2 = _classify(v[None, None])
    phases = tuple(rel[0].tolist()) if len(hit) else None
    cls = (CLASS_NONCLIFFORD if noncliff[0] else CLASS_CLIFFORD) if len(hit) else CLASS_NONE
    return ProtocolReport(magic, format_word(parsed), k, v, norm2[0, 0], phases, cls)

