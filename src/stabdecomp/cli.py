"""Command-line interface for catalogs, verification, search, and certificates.

Every subcommand writes a JSON artifact (stable field order, one schema
version per artifact type) through ``_write`` to a path from ``_out_path``,
which creates the output directory, and prints a short human summary to
stdout; progress goes to stderr.  Exit codes: 0 success/pass, 1 verification
or audit failure (including an unsuccessful search), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .anneal import AnnealConfig, anneal_search, check_search
from .asymptotics import exp_subsequence, find_ratio_witness, moulton_bound
from .certify import Certificate, ShardSpec, audit, certify_rank, check_request, merge_certificates
from .clifford import generate_clifford_group, orbit_closure
from .decomposition import WITNESS_TOL, Decomposition, exponent_from_bound
from .gadget import CLASS_NONCLIFFORD, sweep_injection, sweep_two_copy
from . import known
from .stabilizer import CATALOG_LABEL, MAGIC_STATES, Catalog, build_catalog, magic_p, magic_power, magic_state

VERIFY_TOL = 1e-13
# the largest catalog `catalog` writes: (3,4) has 7,439,040 states, (3,5) 5.4e9
CATALOG_MAX_STATES = 10**7
# the most digits `bound --state` writes: m+1 coordinates of m digits, about 7 MB at m = 999
SUBSEQUENCE_MAX_DIGITS = 10**6


def _payload(kind: str, **fields) -> dict:
    """The payload of a ``stabdecomp-<kind>`` artifact: its format and version, then fields."""
    return {"format": "stabdecomp-" + kind, "version": 1, **fields}


def _out_path(args, default_name: str) -> str:
    """``--out``, else default_name in ``$STABDECOMP_OUTDIR`` (else the working directory),
    with its directory made; a path that cannot be written is a usage error."""
    path = args.out or os.path.join(os.environ.get("STABDECOMP_OUTDIR", "."), default_name)
    if os.path.isdir(path):
        raise ValueError("cannot write %s: Is a directory" % path)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc)) from None
    return path


def _write(path: str, body) -> None:
    """Write an artifact to path (from ``_out_path``).

    body is a payload, written as indented JSON, or the text chunks of the file.
    """
    if isinstance(body, dict):
        body = (json.dumps(body, indent=1), "\n")
    try:
        with open(path, "w") as fh:
            fh.writelines(body)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def _check_target(name: str, m: int) -> int:
    """Check a magic-state name and a copy count m without building the m copies; return their qudit dimension p."""
    p = magic_p(name)
    if m < 1:
        raise ValueError("--m must be at least 1 copy, got %d" % m)
    return p


def _check_qutrit(state: str, what: str) -> None:
    qutrits = [name for name in MAGIC_STATES if magic_p(name) == 3]
    if state not in qutrits:
        raise ValueError("%s the qutrit states: %s" % (what, ", ".join(qutrits)))


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        i, n = text.split("/")
        return int(i), int(n)
    except ValueError:
        raise ValueError("--shard expects i/N, e.g. 0/100") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1 qudit, got %d" % args.n)
    count = Catalog.expected_count(args.p, args.n)
    if count > CATALOG_MAX_STATES:
        raise ValueError(
            "catalog p=%d n=%d has %d states, above the %d that catalog writes"
            % (args.p, args.n, count, CATALOG_MAX_STATES)
        )
    path = _out_path(args, "catalog-p%dn%d-%s.jsonl" % (args.p, args.n, CATALOG_LABEL))
    cat = build_catalog(args.p, args.n)
    _write(path, cat.jsonl_chunks())
    print("catalog p=%d n=%d: %d states" % (args.p, args.n, len(cat)))
    print("sha256 %s" % cat.content_hash())
    print("wrote %s" % path)
    return 0


def cmd_verify(args) -> int:
    jobs = []
    if args.all_fixtures:
        jobs = sorted(known.FIXTURES)
    elif args.fixture:
        if args.fixture not in known.FIXTURES:
            raise ValueError("unknown fixture %r (choose from %s)" % (args.fixture, ", ".join(sorted(known.FIXTURES))))
        jobs = [args.fixture]
    elif not args.file:
        raise ValueError("need --fixture, --all-fixtures, or --file")
    if not args.tol >= 0:  # NaN too
        raise ValueError("--tol must be at least 0, got %g" % args.tol)
    # read before any fixture runs: an unreadable file is a usage error
    loaded = Decomposition.load(args.file) if args.file else None
    path = _out_path(args, "verify-report.json")

    rows = [_verify_one(name, known.FIXTURES[name](), args.exact, args.tol) for name in jobs]
    if args.file:
        rows.append(_verify_one(os.path.basename(args.file), loaded, args.exact, args.tol))

    _write(path, _payload("verify", tol=args.tol, exact=args.exact, results=rows))
    for row in rows:
        print(
            "%-14s rank %-2d residual %.2e %s"
            % (row["name"], row["rank"], row["residual"], "ok" if row["passed"] else "FAIL")
        )
    print("wrote %s" % path)
    return 0 if all(row["passed"] for row in rows) else 1


def _verify_one(name, dec, exact, tol) -> dict:
    residual = dec.verify_numeric()
    row = {
        "name": name,
        "target": dec.target.name,
        "rank": dec.rank,
        "residual": residual,
        "passed": residual <= tol,
    }
    if exact:
        mismatches = dec.verify_exact()
        row["exact_mismatches"] = mismatches
        row["passed"] = row["passed"] and not mismatches
    return row


def cmd_search(args) -> int:
    p = _check_target(args.target, args.m)
    # before the p^m amplitudes of the target and the catalog are built
    check_search(args.r, p, args.m, args.steps, args.chains, args.cooling, args.t0, args.tol)
    target = magic_power(args.target, args.m)
    catalog = build_catalog(target.p, target.n)
    cfg = AnnealConfig(
        target=target,
        rank=args.r,
        catalog=catalog,
        steps=args.steps,
        chains=args.chains,
        t_initial=args.t0,
        cooling=args.cooling,
        tol=args.tol,
        seed=args.seed,
    )
    path = _out_path(args, "search-%s-r%d-seed%d.json" % (target.name, args.r, args.seed))
    t0 = time.perf_counter()
    res = anneal_search(cfg)
    wall = time.perf_counter() - t0
    payload = _payload(
        "search",
        target=target.name,
        p=target.p,
        r=args.r,
        catalog_count=len(catalog),
        catalog_mode=CATALOG_LABEL,
        steps=args.steps,
        chains=args.chains,
        cooling=args.cooling,
        t0=args.t0,  # null when calibrated
        tol=args.tol,
        seed=args.seed,
        success=res.success,
        residual=res.residual,
        subset=list(res.subset),
        chains_run=len(res.chain_traces),
        chain_traces=res.chain_traces,
        decomposition=res.decomposition.to_payload() if res.decomposition else None,
        wall_time=wall,
    )
    _write(path, payload)
    steps = sum(t["steps"] for t in res.chain_traces)
    print(
        "search %s r=%d: %s (residual %.2e, %d chains, %d steps, %.0f steps/s, %.1fs)"
        % (
            target.name,
            args.r,
            "success" if res.success else "no witness",
            res.residual,
            len(res.chain_traces),
            steps,
            steps / max(wall, 1e-9),
            wall,
        )
    )
    print("wrote %s" % path)
    return 0 if res.success else 1


def _progress_printer(total: int):
    state = {"t": time.perf_counter(), "start": time.perf_counter()}

    def cb(done: int):
        now = time.perf_counter()
        if done and now - state["t"] >= 2.0:  # certify calls back at 0 before its walk
            state["t"] = now
            rate = done / max(now - state["start"], 1e-9)
            print(
                "  %d / %d tuples (%.1f%%, %.2fM/s)"
                % (done, total, 100.0 * done / max(total, 1), rate / 1e6),
                file=sys.stderr,
            )

    return cb


def cmd_certify(args) -> int:
    p = _check_target(args.target, args.m)
    check_request(p, args.m, args.r, args.tol)  # before the p^m amplitudes of the target are built
    idx, cnt = _parse_shard(args.shard)
    shard = ShardSpec.of(idx, cnt, math.comb(Catalog.expected_count(p, args.m), args.r))
    path = _out_path(args, "cert-%s-r%d-shard%dof%d.json" % (args.target, args.r, idx, cnt))
    target = magic_power(args.target, args.m)
    catalog = build_catalog(p, args.m)
    cert = certify_rank(
        target,
        args.r,
        catalog,
        shard=shard,
        tol=args.tol,
        progress=_progress_printer(shard.hi - shard.lo),
    )
    _write(path, cert.to_payload())
    print(
        "certify %s r=%d shard %d/%d: %d tuples (%d pruned), %d witnesses, min residual %.3g"
        % (target.name, args.r, idx, cnt, cert.tuples_tested, cert.tuples_pruned, len(cert.witnesses), cert.min_nonwitness_residual)
    )
    if cert.rules_out():
        print("rank %d ruled out over the full tuple space" % args.r)
    print("wrote %s" % path)
    return 0


def cmd_merge(args) -> int:
    try:
        certs = [Certificate.load(p) for p in args.certs]
    except ValueError as exc:
        raise ValueError("merge failed: %s" % exc) from None
    path = _out_path(args, "cert-merged.json")
    try:
        merged = merge_certificates(certs)
    except ValueError as exc:
        raise ValueError("merge failed: %s" % exc) from None
    _write(path, merged.to_payload())
    print(
        "merged %d certificates: %d tuples, %d witnesses, coverage %s"
        % (len(certs), merged.tuples_tested, len(merged.witnesses), "full" if merged.full_coverage else "partial")
    )
    print("wrote %s" % path)
    return 0


def cmd_audit(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be at least 0, got %d" % args.samples)
    cert = Certificate.load(args.cert)
    p = _check_target(cert.target_name, cert.copies)
    if (cert.p, cert.n) != (p, cert.copies):
        raise ValueError(
            "certificate p=%d n=%d does not match its target %s (p=%d n=%d)"
            % (cert.p, cert.n, cert.target_name, p, cert.copies)
        )
    check_request(p, cert.n, cert.r, cert.tol)  # before the p^n amplitudes of the target are built
    path = _out_path(args, "audit-report.json")
    target = magic_power(cert.target_name, cert.copies)
    catalog = build_catalog(cert.p, cert.n)
    report = audit(cert, catalog, target, samples=args.samples, seed=args.seed)
    payload = _payload(
        "audit",
        certificate=os.path.basename(args.cert),
        passed=report.passed,
        failures=report.failures,
        samples_tested=report.samples_tested,
        min_sample_residual=report.min_sample_residual if math.isfinite(report.min_sample_residual) else None,
    )
    _write(path, payload)
    if report.passed:
        print("audit passed (%d samples, min sample residual %.3g)" % (report.samples_tested, report.min_sample_residual))
    else:
        print("audit FAILED: %s" % ", ".join(report.failures))
    print("wrote %s" % path)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    _check_qutrit(args.state, "sweeps cover")
    path = _out_path(args, "sweep-%s-%s.json" % (args.kind, args.state))
    t0 = time.perf_counter()
    if args.kind == "twocopy":
        res = sweep_two_copy(args.state)
    else:
        res = sweep_injection(args.state)
    wall = time.perf_counter() - t0
    _write(path, res.json_chunks(wall_time=wall))
    print("sweep %s %s: %d branches" % (args.kind, args.state, res.total))
    for key in sorted(res.counts):
        print("  %-24s %d" % (key, res.counts[key]))
    if args.kind == "twocopy":
        print("  non-Clifford conversion hits: %d" % res.counts[CLASS_NONCLIFFORD])
    else:
        print("  deterministic gadgets: %d" % res.counts["gadgets"])
    print("wrote %s" % path)
    return 0


def cmd_orbit(args) -> int:
    _check_qutrit(args.state, "orbits cover")
    path = _out_path(args, "orbit-%s.json" % args.state)
    vec = magic_state(args.state).complex_vector()
    group = generate_clifford_group()
    orbit = orbit_closure(vec, group)
    elements = [[[float(z.real), float(z.imag)] for z in v] for v in orbit]
    payload = _payload("orbit", state=args.state, group_order=len(group), size=len(orbit), elements=elements)
    _write(path, payload)
    print("orbit of %s under the single-qutrit Clifford group: %d states" % (args.state, len(orbit)))
    print("wrote %s" % path)
    return 0


def cmd_bound(args) -> int:
    if args.state and args.m * (args.m + 1) > SUBSEQUENCE_MAX_DIGITS:
        raise ValueError(
            "--m %d needs a subsequence of %d digits, above the %d that bound --state writes"
            % (args.m, args.m * (args.m + 1), SUBSEQUENCE_MAX_DIGITS)
        )
    payload = _payload("bound", m=args.m, value=moulton_bound(args.m))
    if args.state:
        _check_qutrit(args.state, "witness check covers")
    path = _out_path(args, "bound-m%d.json" % args.m)
    if args.state:
        vec = magic_state(args.state).complex_vector()
        wit = find_ratio_witness(vec)
        payload["state"] = args.state
        payload["applicable"] = wit is not None
        payload["witness"] = (
            {"i_a": wit.i_a, "i_b": wit.i_b, "a": wit.a, "b": wit.b, "ratio": wit.ratio}
            if wit
            else None
        )
        if wit:
            seq = exp_subsequence(vec, args.m)
            payload["subsequence"] = [
                {"coordinate": list(c), "modulus": mod} for c, mod in seq
            ]
    _write(path, payload)
    print("counting bound at m=%d copies: %.6f" % (args.m, payload["value"]))
    if args.state:
        print(
            "ratio witness for %s: %s"
            % (args.state, "ratio %.4f" % payload["witness"]["ratio"] if payload["applicable"] else "none (bound inapplicable)")
        )
    print("wrote %s" % path)
    return 0


def cmd_exponent(args) -> int:
    value = exponent_from_bound(args.r, args.m, args.p)
    path = _out_path(args, "exponent-r%dm%dp%d.json" % (args.r, args.m, args.p))
    _write(path, _payload("exponent", r=args.r, m=args.m, p=args.p, exponent=value))
    print("rank %d at %d copies (p=%d) gives exponent %.6f" % (args.r, args.m, args.p, value))
    print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabdecomp",
        description="Stabilizer-rank decompositions, certificates, and Clifford protocol sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="enumerate canonical stabilizer states to JSONL")
    p.add_argument("--p", type=int, default=3, choices=(2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="verify bundled or saved decompositions")
    p.add_argument("--fixture")
    p.add_argument("--all-fixtures", action="store_true")
    p.add_argument("--file")
    p.add_argument("--exact", action="store_true", help="also run the exact cyclotomic check")
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="simulated-annealing decomposition search")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--chains", type=int, default=32)
    p.add_argument("--cooling", type=float, default=0.995)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--tol", type=float, default=WITNESS_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("certify", help="exhaustive tuple certificate for a rank bound")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shard", default="0/1", help="shard i/N of the tuple space")
    p.add_argument("--tol", type=float, default=WITNESS_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("merge", help="merge shard certificates")
    p.add_argument("certs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("audit", help="independently re-check a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="exhaustive two-qutrit Clifford protocol sweeps")
    p.add_argument("kind", choices=("twocopy", "injection"))
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("orbit", help="projective Clifford orbit of a magic state")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("bound", help="counting lower bound and ratio-witness check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--state")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exponent", help="asymptotic exponent from a finite rank bound")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, default=3, choices=(2, 3))
    p.add_argument("--out")
    p.set_defaults(func=cmd_exponent)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
