"""The benchmark's workloads: fixed stabdecomp CLI command sequences and their output checks.

Each workload has a main sequence (what ``wall_s`` times) and a set-up probe:
the same main command with its work cut to one unit (what ``setup_s`` times).
Every command writes its artifact with ``--out`` into the run directory, and a
check reads it back.  A check returns a list of problems; an empty list means
the command's output is correct.  The workload seed picks the unpruned
certify shard, the audit sample seed and the N⊗4 annealing chain seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# S⊗3 at r=3: the (3,3) catalog has 30,240 states; the last 19,683 of them
# (indices >= 10,557) have k=3, i.e. full support, so a tuple whose largest
# index is there cannot be pruned.  In colex order the tuples (x, s1, s2) with
# fixed (s1, s2) form one scoring block of s1 tuples.  The seed picks the
# largest index s2; the shard is the one holding the tuple (0, S3_BLOCK, s2),
# so every seeded shard scores about 227 blocks of about 20,340 tuples: the
# same kernel work and peak memory, with nothing pruned.
S3_TOTAL = math.comb(30240, 3)
S3_FULL_SUPPORT = 10557
S3_SHARDS = 1_000_000  # about 4.6e6 tuples per shard
S3_BLOCK = 20340
S3_S2_RANGE = (21000, 30239)
S3_DEFAULT_S2 = 24001  # seed 0: shard 500000/1000000
S3_DEFAULT_MIN_RESIDUAL = 0.6997023176561112

# H⊗4 at r=3 over the 36,720 four-qubit states: shard 0/200000 (41,256,396
# tuples) holds only low-k states that cannot cover the target's support, so
# all of it is pruned.
H4_TOTAL = math.comb(36720, 3)
H4_SHARDS = 200_000
H4_PRUNE_BOUND = 0.25

AUDIT_SAMPLES = 1000
N4_STEPS = 20_000
FIXTURE_COUNT = 8
SWEEP_BRANCHES = 155_520
T3_UNITARY_BRANCHES = 46_656
T3_GADGETS = 31_104
T3_PHASES = (2 * math.pi / 9, 4 * math.pi / 9)


def shard_span(index: int, count: int, total: int) -> tuple[int, int]:
    """The [lo, hi) rank range of shard index/count, as ``certify --shard`` defines it."""
    return index * total // count, (index + 1) * total // count


def unpruned_shard(seed: int) -> int:
    """Shard index of the ``certify-unpruned`` run (see S3_BLOCK)."""
    lo, hi = S3_S2_RANGE
    s2 = lo + (S3_DEFAULT_S2 - lo + seed * 7919) % (hi - lo + 1)
    rank = math.comb(s2, 3) + math.comb(S3_BLOCK, 2)
    index = rank * S3_SHARDS // S3_TOTAL
    if shard_span(index, S3_SHARDS, S3_TOTAL)[1] <= rank:
        index += 1
    return index


def _largest_index(rank: int) -> int:
    """The largest index of the colex 3-tuple of this rank (the s with C(s,3) <= rank < C(s+1,3))."""
    s = round((6 * rank) ** (1 / 3))
    while math.comb(s, 3) > rank:
        s -= 1
    while math.comb(s + 1, 3) <= rank:
        s += 1
    return s


class BenchmarkError(Exception):
    """The benchmark itself is wrong (not the program under test)."""


@dataclass
class Outcome:
    """What one finished command left behind."""

    code: int
    stdout: str
    artifact: str
    _payload: dict | None = field(default=None, repr=False)

    def payload(self) -> dict:
        if self._payload is None:
            with open(self.artifact) as fh:
                self._payload = json.load(fh)
        return self._payload


@dataclass
class Step:
    """One CLI command: its arguments, the artifact it writes (``--out`` is added) and its check."""

    argv: list[str]
    artifact: str
    check: Callable[[Outcome], list[str]]
    # extra commands that verify an outcome further (run right after, checked too)
    followup: Callable[[Outcome, str], list["Step"]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    main: Callable[[int, str], list[Step]]
    probe: Callable[[int, str], list[Step]]


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_certificate(out: Outcome, span: tuple[int, int], pruned_all: bool, min_residual=None) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "certify exit %d" % out.code)
    if problems:
        return problems
    cert = out.payload()
    tested = cert["tuples_tested"]
    _expect(problems, (cert["shard"]["lo"], cert["shard"]["hi"]) == span, "shard %r is not %r" % (cert["shard"], span))
    _expect(problems, tested == span[1] - span[0], "tested %d of a %d-tuple shard" % (tested, span[1] - span[0]))
    expected_pruned = tested if pruned_all else 0
    _expect(problems, cert["tuples_pruned"] == expected_pruned, "pruned %d, expected %d" % (cert["tuples_pruned"], expected_pruned))
    _expect(problems, cert["witnesses"] == [], "unexpected witnesses %r" % cert["witnesses"][:3])
    res = cert["min_nonwitness_residual"]
    if min_residual is not None:
        _expect(problems, _close(res, min_residual, 1e-9), "min residual %r, expected %r" % (res, min_residual))
    else:
        _expect(problems, isinstance(res, float) and 1e-7 <= res <= 1.0, "min residual %r outside [1e-7, 1]" % res)
    return problems


def _check_probe_certificate(out: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "certify exit %d" % out.code)
    if not problems:
        _expect(problems, out.payload()["tuples_tested"] == 1, "probe tested %r tuples" % out.payload()["tuples_tested"])
    return problems


def _check_audit(out: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "audit exit %d" % out.code)
    if not problems:
        report = out.payload()
        _expect(problems, report["passed"] is True, "audit failed: %r" % report["failures"])
        _expect(problems, report["samples_tested"] == AUDIT_SAMPLES, "audit sampled %r" % report["samples_tested"])
    return problems


def _check_witness_search(out: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "search exit %d" % out.code)
    if not problems:
        res = out.payload()
        _expect(problems, res["success"] is True, "search found no witness")
        _expect(problems, res["residual"] <= 1e-10, "witness residual %r" % res["residual"])
        _expect(problems, bool(res["decomposition"]), "success without a decomposition payload")
    return problems


def _check_long_search(out: Outcome) -> list[str]:
    """N⊗4 r=7: "no witness" (exit 1) is the expected outcome; a success must carry a decomposition."""
    problems: list[str] = []
    _expect(problems, out.code in (0, 1), "search exit %d" % out.code)
    if problems:
        return problems
    res = out.payload()
    _expect(problems, res["success"] is (out.code == 0), "exit %d with success=%r" % (out.code, res["success"]))
    _expect(problems, res["chains_run"] == 1, "ran %r chains" % res["chains_run"])
    if res["success"]:
        _expect(problems, bool(res["decomposition"]), "success without a decomposition payload")
    else:
        _expect(problems, "no witness" in out.stdout, "exit 1 without a 'no witness' summary")
        steps = res["chain_traces"][0]["steps"]
        _expect(problems, steps == N4_STEPS, "chain ran %r of %d steps" % (steps, N4_STEPS))
    return problems


def _verify_found_decomposition(out: Outcome, run_dir: str) -> list[Step]:
    """A successful N⊗4 search is replayed exactly through ``verify --file``."""
    if out.code != 0 or not out.payload().get("decomposition"):
        return []
    path = os.path.join(run_dir, "found-decomposition.json")
    with open(path, "w") as fh:
        json.dump(out.payload()["decomposition"], fh)
    return [
        Step(
            ["verify", "--file", path, "--exact"],
            "verify-found.json",
            lambda o: _check_verify(o, 1),
        )
    ]


def _check_verify(out: Outcome, rows: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "verify exit %d" % out.code)
    if not problems:
        results = out.payload()["results"]
        _expect(problems, len(results) == rows, "verified %d rows, expected %d" % (len(results), rows))
        bad = [r["name"] for r in results if not (r["passed"] and r.get("exact_mismatches") == [])]
        _expect(problems, not bad, "rows failing: %r" % bad)
    return problems


def _check_probe_search(out: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code in (0, 1), "search exit %d" % out.code)
    if not problems:
        _expect(problems, out.payload()["chains_run"] == 1, "probe ran %r chains" % out.payload()["chains_run"])
    return problems


def _check_sweep(out: Outcome, unitary: int, gadgets: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, out.code == 0, "sweep exit %d" % out.code)
    if problems:
        return problems
    res = out.payload()
    _expect(problems, res["total"] == SWEEP_BRANCHES, "%r branches" % res["total"])
    if unitary is not None:
        _expect(problems, res["counts"].get("unitary-branches") == unitary, "unitary branches %r" % res["counts"])
    _expect(problems, res["counts"].get("gadgets") == gadgets, "gadgets %r" % res["counts"])
    _expect(problems, len(res["hits"]) == gadgets, "%d gadget reports" % len(res["hits"]))
    if gadgets:
        found = any(
            h["diagonal_phases"] is not None
            and all(_close(a, b, 1e-8) for a, b in zip(h["diagonal_phases"], T3_PHASES))
            for h in res["hits"]
        )
        _expect(problems, found, "no gadget with diagonal phases (2pi/9, 4pi/9)")
    return problems


# ---------------------------------------------------------------------------
# command sequences
# ---------------------------------------------------------------------------


def _certify_steps(target: str, m: int, shard: tuple[int, int], seed: int, run_dir: str, check) -> list[Step]:
    """certify one shard, then audit the certificate with samples drawn from the seed."""
    cert = os.path.join(run_dir, "cert.json")
    return [
        Step(
            ["certify", "--target", target, "--m", str(m), "--r", "3", "--shard", "%d/%d" % shard],
            "cert.json",
            check,
        ),
        Step(
            ["audit", "--cert", cert, "--samples", str(AUDIT_SAMPLES), "--seed", str(seed % 2**32)],
            "audit.json",
            _check_audit,
        ),
    ]


def _probe_certify(target: str, m: int, total: int) -> list[Step]:
    # shard 0 of `total` shards is exactly the first tuple
    return [
        Step(
            ["certify", "--target", target, "--m", str(m), "--r", "3", "--shard", "0/%d" % total],
            "probe-cert.json",
            _check_probe_certificate,
        )
    ]


def certify_unpruned_main(seed: int, run_dir: str) -> list[Step]:
    index = unpruned_shard(seed)
    span = shard_span(index, S3_SHARDS, S3_TOTAL)
    if _largest_index(span[0]) < S3_FULL_SUPPORT:
        raise BenchmarkError("seed %d picked shard %d, which holds prunable tuples" % (seed, index))
    expected = S3_DEFAULT_MIN_RESIDUAL if index == unpruned_shard(0) else None
    return _certify_steps(
        "S", 3, (index, S3_SHARDS), seed, run_dir,
        lambda o: _check_certificate(o, span, pruned_all=False, min_residual=expected),
    )


def certify_pruned_main(seed: int, run_dir: str) -> list[Step]:
    span = shard_span(0, H4_SHARDS, H4_TOTAL)
    return _certify_steps(
        "H", 4, (0, H4_SHARDS), seed, run_dir,
        lambda o: _check_certificate(o, span, pruned_all=True, min_residual=H4_PRUNE_BOUND),
    )


def anneal_main(seed: int, run_dir: str) -> list[Step]:
    return [
        # the documented seed for N⊗3 at rank 4: time to a witness, then exact snapping
        Step(
            ["search", "--target", "N", "--m", "3", "--r", "4", "--seed", "18"],
            "search-n3.json",
            _check_witness_search,
        ),
        Step(
            ["search", "--target", "N", "--m", "4", "--r", "7", "--chains", "1", "--steps", str(N4_STEPS),
             "--seed", str(seed % 2**32)],
            "search-n4.json",
            _check_long_search,
            followup=_verify_found_decomposition,
        ),
        Step(
            ["verify", "--all-fixtures", "--exact"],
            "verify.json",
            lambda o: _check_verify(o, FIXTURE_COUNT),
        ),
    ]


def anneal_probe(seed: int, run_dir: str) -> list[Step]:
    return [
        Step(
            ["search", "--target", "N", "--m", "3", "--r", "4", "--chains", "1", "--steps", "1"],
            "probe-search.json",
            _check_probe_search,
        )
    ]


def sweep_main(seed: int, run_dir: str) -> list[Step]:
    return [
        Step(
            ["sweep", "injection", "--state", "T3"],
            "sweep-t3.json",
            lambda o: _check_sweep(o, T3_UNITARY_BRANCHES, T3_GADGETS),
        )
    ]


def sweep_probe(seed: int, run_dir: str) -> list[Step]:
    # S admits no gadget: the same Sp(4,3) table, a tiny artifact
    return [
        Step(
            ["sweep", "injection", "--state", "S"],
            "probe-sweep.json",
            lambda o: _check_sweep(o, None, 0),
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-unpruned",
            certify_unpruned_main,
            lambda seed, d: _probe_certify("S", 3, S3_TOTAL),
        ),
        Workload(
            "certify-pruned",
            certify_pruned_main,
            lambda seed, d: _probe_certify("H", 4, H4_TOTAL),
        ),
        Workload(
            "anneal",
            anneal_main,
            anneal_probe,
        ),
        Workload(
            "sweep",
            sweep_main,
            sweep_probe,
        ),
    )
}
