"""Traced execution of one stabdecomp CLI command, and the per-layer metrics its spans give.

Run as ``python3 bench/tracer.py SPANS.json ARGV...``: it wraps the public
functions of each layer under the names their callers look up, runs
``stabdecomp.cli.main(ARGV)`` in this process, keeps one span per wrapped
call in memory (name, start, end, parent, extra) and writes them to
SPANS.json at the end.  A hook whose name no longer exists is listed as
absent instead of failing the run.

``layer_metrics`` turns span files into the per-layer metrics, using self
time (a span minus the spans nested in it) where a layer calls another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import types
from time import perf_counter

# (module, attribute path as the caller looks it up, span name)
HOOKS = (
    ("stabdecomp.cli", "build_catalog", "build_catalog"),
    ("stabdecomp.cli", "certify_rank", "certify_rank"),
    ("stabdecomp.cli", "audit", "audit"),
    ("stabdecomp.cli", "anneal_search", "anneal_search"),
    ("stabdecomp.cli", "sweep_injection", "sweep"),
    ("stabdecomp.cli", "sweep_two_copy", "sweep"),
    ("stabdecomp.stabilizer", "Catalog.get", "decode_get"),
    ("stabdecomp.stabilizer", "CanonicalStabilizer.complex_vector", "decode_vector"),
    ("stabdecomp.stabilizer", "Catalog.content_hash", "content_hash"),
    ("stabdecomp.certify", "best_fit", "best_fit"),
    ("stabdecomp.anneal", "best_fit", "best_fit"),
    ("stabdecomp.decomposition", "best_fit", "best_fit"),
    ("stabdecomp.anneal", "exact_coefficients", "exact_coefficients"),
    ("stabdecomp.decomposition", "exact_coefficients", "exact_coefficients"),
    ("stabdecomp.decomposition", "Decomposition.verify_exact", "verify_exact"),
    ("stabdecomp.decomposition", "cyclo_solve", "cyclo_solve"),
    ("stabdecomp.known", "FIXTURES[*]", "fixture_build"),
    ("stabdecomp.gadget", "enumerate_symplectic", "enumerate_symplectic"),
    ("stabdecomp.gadget", "synthesize", "synthesize"),
    ("stabdecomp.gadget", "generate_clifford_group", "group_build"),
    ("stabdecomp.gadget", "SweepResult.to_json", "sweep_to_json"),
)


class Recorder:
    """Spans of one process, as (name, start, end, parent index, extra)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.open: list[int] = [-1]  # the innermost open span is last; -1 is the root


# -- what a wrapped call records besides its span ------------------------------


def _watch_progress(kwargs: dict, extra: dict) -> None:
    """certify_rank: time the first and last progress callbacks (context, then kernel)."""
    progress = kwargs.get("progress")
    if progress is None:
        return

    def seen(done, *args, **kw):
        mark = (perf_counter(), done)
        extra.setdefault("first", mark)
        extra["last"] = mark
        return progress(done, *args, **kw)

    kwargs["progress"] = seen


def _certificate(result, extra: dict) -> None:
    extra["tuples"] = getattr(result, "tuples_tested", 0)
    extra["pruned"] = getattr(result, "tuples_pruned", 0)


def _audit_report(result, extra: dict) -> None:
    extra["samples"] = getattr(result, "samples_tested", 0)


def _anneal_result(result, extra: dict) -> None:
    traces = getattr(result, "chain_traces", None) or []
    extra["chains"] = len(traces)
    extra["steps"] = sum(t.get("steps", 0) for t in traces)
    extra["accepted"] = sum(t.get("accepted", 0) for t in traces)
    extra["residual"] = getattr(result, "residual", 0.0)


def _sweep_result(result, extra: dict) -> None:
    counts = getattr(result, "counts", None) or {}
    extra["branches"] = getattr(result, "total", 0)
    extra["unitary"] = counts.get("unitary-branches", 0)
    extra["gadgets"] = counts.get("gadgets", 0)


BEFORE = {"certify_rank": _watch_progress}
AFTER = {
    "certify_rank": _certificate,
    "audit": _audit_report,
    "anneal_search": _anneal_result,
    "sweep": _sweep_result,
}


def _wrap(fn, name: str, rec: Recorder):
    before, after = BEFORE.get(name), AFTER.get(name)
    spans, open_spans = rec.spans, rec.open

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        extra = {} if (before or after) else None
        if before:
            before(kwargs, extra)
        parent = open_spans[-1]
        sid = len(spans)
        spans.append(None)
        open_spans.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if after:
                try:
                    after(result, extra)
                except (AttributeError, TypeError, KeyError):
                    extra["unreadable"] = True  # the result changed shape: its counts read as 0
            return result
        finally:
            spans[sid] = (name, start, perf_counter(), parent, extra)
            open_spans.pop()

    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every hook that exists; return the ones that do not."""
    absent = []
    for module_name, path, name in HOOKS:
        label = "%s.%s" % (module_name, path)
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(label)
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if attr.endswith("[*]"):
            table = getattr(owner, attr[:-3], None)
            if not isinstance(table, dict):
                absent.append(label)
                continue
            for key, fn in table.items():
                table[key] = _wrap(fn, name, rec)
            continue
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if not isinstance(raw, types.FunctionType):
            absent.append(label)
            continue
        setattr(owner, attr, _wrap(raw, name, rec))
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    absent = install(rec)
    code = 2
    try:
        from stabdecomp import cli

        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"absent": absent, "spans": rec.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

# every per-layer metric the traced run reports (0 where the layer is idle)
LAYER_METRICS = {
    "stabilizer.build_catalog_s": "s",
    "stabilizer.states_decoded": "count",
    "stabilizer.decode_s": "s",
    "stabilizer.decode_states_per_s": "1/s",
    "stabilizer.content_hash_s": "s",
    "certify.context_s": "s",
    "certify.kernel_s": "s",
    "certify.tuples": "count",
    "certify.tuples_pruned": "count",
    "certify.pruned_share": "ratio",
    "certify.kernel_tuples_per_s": "1/s",
    "certify.rescored": "count",
    "certify.audit_s": "s",
    "certify.audit_samples": "count",
    "decomposition.best_fit_calls": "count",
    "decomposition.best_fit_s": "s",
    "decomposition.exact_coefficients_s": "s",
    "decomposition.verify_exact_s": "s",
    "algebra.cyclo_solve_calls": "count",
    "algebra.cyclo_solve_s": "s",
    "known.fixture_build_s": "s",
    "clifford.enumerate_symplectic_s": "s",
    "clifford.synthesize_calls": "count",
    "clifford.synthesize_s": "s",
    "clifford.group_build_s": "s",
    "gadget.sweep_s": "s",
    "gadget.branches": "count",
    "gadget.branches_per_s": "1/s",
    "gadget.unitary_branches": "count",
    "gadget.gadgets": "count",
    "gadget.to_json_s": "s",
    "anneal.search_s": "s",
    "anneal.chains_run": "count",
    "anneal.steps": "count",
    "anneal.accepted": "count",
    "anneal.accept_share": "ratio",
    "anneal.steps_per_s": "1/s",
    "anneal.best_residual": "norm",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(span_files: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the span files of one traced command sequence."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    extras: dict[str, list[dict]] = {}
    rescored = 0
    context_s = kernel_s = 0.0
    kernel_tuples = 0
    absent: set[str] = set()
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        absent.update(data["absent"])
        spans = data["spans"]
        nested = [0.0] * len(spans)
        for name, start, end, parent, extra in spans:
            if parent >= 0:
                nested[parent] += end - start
        for sid, (name, start, end, parent, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - nested[sid]
            if extra is not None:
                extras.setdefault(name, []).append(extra)
                if "first" in extra:  # certify_rank: call -> first callback -> last callback
                    context_s += extra["first"][0] - start
                    kernel_s += extra["last"][0] - extra["first"][0]
                    kernel_tuples += extra["last"][1] - extra["first"][1]
            if name == "best_fit":
                up = parent
                while up >= 0 and spans[up][0] != "certify_rank":
                    up = spans[up][3]
                rescored += up >= 0

    def add(name: str, key: str) -> float:
        return sum(e.get(key, 0) for e in extras.get(name, []))

    decode_s = total.get("decode_get", 0.0) + total.get("decode_vector", 0.0)
    states = calls.get("decode_get", 0)
    tuples, pruned = add("certify_rank", "tuples"), add("certify_rank", "pruned")
    steps, accepted = add("anneal_search", "steps"), add("anneal_search", "accepted")
    search_s, sweep_s = own.get("anneal_search", 0.0), own.get("sweep", 0.0)
    branches = add("sweep", "branches")
    metrics = {
        "stabilizer.build_catalog_s": total.get("build_catalog", 0.0),
        "stabilizer.states_decoded": states,
        "stabilizer.decode_s": decode_s,
        "stabilizer.decode_states_per_s": _ratio(states, decode_s),
        "stabilizer.content_hash_s": own.get("content_hash", 0.0),
        "certify.context_s": context_s,
        "certify.kernel_s": kernel_s,
        "certify.tuples": tuples,
        "certify.tuples_pruned": pruned,
        "certify.pruned_share": _ratio(pruned, tuples),
        "certify.kernel_tuples_per_s": _ratio(kernel_tuples, kernel_s),
        "certify.rescored": rescored,
        "certify.audit_s": total.get("audit", 0.0),
        "certify.audit_samples": add("audit", "samples"),
        "decomposition.best_fit_calls": calls.get("best_fit", 0),
        "decomposition.best_fit_s": total.get("best_fit", 0.0),
        "decomposition.exact_coefficients_s": total.get("exact_coefficients", 0.0),
        "decomposition.verify_exact_s": total.get("verify_exact", 0.0),
        "algebra.cyclo_solve_calls": calls.get("cyclo_solve", 0),
        "algebra.cyclo_solve_s": total.get("cyclo_solve", 0.0),
        "known.fixture_build_s": total.get("fixture_build", 0.0),
        "clifford.enumerate_symplectic_s": total.get("enumerate_symplectic", 0.0),
        "clifford.synthesize_calls": calls.get("synthesize", 0),
        "clifford.synthesize_s": total.get("synthesize", 0.0),
        "clifford.group_build_s": total.get("group_build", 0.0),
        "gadget.sweep_s": sweep_s,
        "gadget.branches": branches,
        "gadget.branches_per_s": _ratio(branches, sweep_s),
        "gadget.unitary_branches": add("sweep", "unitary"),
        "gadget.gadgets": add("sweep", "gadgets"),
        "gadget.to_json_s": total.get("sweep_to_json", 0.0),
        "anneal.search_s": search_s,
        "anneal.chains_run": add("anneal_search", "chains"),
        "anneal.steps": steps,
        "anneal.accepted": accepted,
        "anneal.accept_share": _ratio(accepted, steps),
        "anneal.steps_per_s": _ratio(steps, search_s),
        "anneal.best_residual": max((e.get("residual", 0.0) for e in extras.get("anneal_search", [])), default=0.0),
    }
    return metrics, sorted(absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
