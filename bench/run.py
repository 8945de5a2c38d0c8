"""Benchmark of the stabdecomp CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from ``src``).
This script runs each CLI command as its own child process, one at a time,
and times it from outside; ``os.wait4`` gives its CPU time and peak RSS.
Every artifact is checked for correctness, measured, then deleted.

``--trace 0`` repeats cycles of (set-up probe, main sequence) until the next
cycle would end after S seconds, and reports the end-to-end metrics: the
median main-sequence wall time, the median probe wall time and the largest
peak RSS.  ``--trace 1`` runs the main sequence untraced and then traced
(each command through ``bench/tracer.py``) and reports the per-layer metrics
plus ``trace.overhead_s``, the traced minus the untraced wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A command whose exit status or output check fails counts in
``failed``; it does not stop the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import tracer
from workloads import WORKLOADS, BenchmarkError, Outcome, Step

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 150.0
# one BLAS/OpenMP thread per child: on a small shared host extra threads add
# CPU time and noise without cutting the wall time of these commands
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("certify", "audit", "search", "verify", "sweep")
CLI_METRICS = dict({"cli.%s_s" % c: "s" for c in CLI_COMMANDS}, **{"cli.cpu_s": "s", "cli.artifact_bytes": "B"})


@dataclass
class Timed:
    """One command as measured from outside."""

    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    artifact_bytes: int
    spans: str | None  # the span file of a traced command


class Runner:
    """Runs CLI commands as child processes of this one, and checks what they leave."""

    def __init__(self, root: str, run_dir: str) -> None:
        self.root = root
        self.run_dir = run_dir
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["STABDECOMP_OUTDIR"] = run_dir
        env.update(CHILD_ENV)
        self.env = env
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], log: str):
        """Run argv to completion; return (exit code, wall s, CPU s, peak RSS MB)."""
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def run(self, steps: list[Step], traced: bool = False) -> list[Timed]:
        """Run a command sequence (and any follow-ups its checks ask for), then delete its artifacts."""
        done: list[Timed] = []
        queue = list(steps)
        try:
            while queue:
                step = queue.pop(0)
                self.attempted += 1
                log = os.path.join(self.run_dir, "log-%d" % self.attempted)
                if traced:
                    spans = log + ".spans.json"
                    argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans, *step.argv]
                else:
                    spans = None
                    argv = [sys.executable, "-m", "stabdecomp.cli", *step.argv]
                artifact = os.path.join(self.run_dir, step.artifact)
                argv += ["--out", artifact]
                code, wall, cpu, rss = self.spawn(argv, log)
                with open(log + ".out", errors="replace") as fh:
                    outcome = Outcome(code, fh.read(), artifact)
                try:
                    problems = step.check(outcome)
                    if step.followup and not problems:
                        queue[:0] = step.followup(outcome, self.run_dir)
                except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                    problems = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
                size = os.path.getsize(outcome.artifact) if os.path.exists(outcome.artifact) else 0
                if problems:
                    self.failed += 1
                    with open(log + ".err", errors="replace") as fh:
                        tail = fh.read()[-2000:]
                    print("FAILED %s: %s\n%s" % (" ".join(step.argv), "; ".join(problems), tail), file=sys.stderr)
                done.append(Timed(step.argv[0], wall, cpu, rss, size, spans))
        finally:
            for name in os.listdir(self.run_dir):
                if name.endswith(".json") and not name.endswith(".spans.json"):
                    os.remove(os.path.join(self.run_dir, name))
        return done


def _wall(timed: list[Timed]) -> float:
    return sum(t.wall_s for t in timed)


def end_to_end(runner: Runner, workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Cycles of (probe, main) until the next one would overrun; medians over cycles."""
    walls, setups, rss = [], [], []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        probe = runner.run(workload.probe(seed, runner.run_dir))
        main = runner.run(workload.main(seed, runner.run_dir))
        setups.append(_wall(probe))
        walls.append(_wall(main))
        rss.extend(t.rss_mb for t in probe + main)
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    samples = {
        "wall_s": "median of %d cycles" % len(walls),
        "setup_s": "median of %d probes" % len(setups),
        "peak_rss_mb": "largest of %d commands" % len(rss),
    }
    return values, samples


def per_layer(runner: Runner, workload, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Pairs of (untraced main, traced main) until the next would overrun; medians over pairs."""
    rows: list[dict] = []
    absent: set[str] = set()
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        plain = runner.run(workload.main(seed, runner.run_dir))
        traced = runner.run(workload.main(seed, runner.run_dir), traced=True)
        span_files = [t.spans for t in traced if os.path.exists(t.spans)]
        row, missing = tracer.layer_metrics(span_files)
        for path in span_files:
            os.remove(path)
        absent.update(missing)
        for command in CLI_COMMANDS:
            row["cli.%s_s" % command] = sum(t.wall_s for t in plain if t.command == command)
        row["cli.cpu_s"] = sum(t.cpu_s for t in plain)
        row["cli.artifact_bytes"] = sum(t.artifact_bytes for t in plain)
        row["trace.overhead_s"] = _wall(traced) - _wall(plain)
        rows.append(row)
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    return values, {name: "median of %d traced runs" % len(rows) for name in values}, sorted(absent)


def host() -> dict:
    """The machine and libraries the numbers were taken on."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy"] = "unavailable (%s)" % exc
    for key, name in (("l2_bytes", "LEVEL2_CACHE_SIZE"), ("l3_bytes", "LEVEL3_CACHE_SIZE")):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        info[key] = int(out) if out.isdigit() else None
    info.update(CHILD_ENV)
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stabdecomp", "cli.py")):
        print("no stabdecomp source under %s/src: run from the root of a checkout" % root, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(root, ".bench_run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(run_dir)
    runner = Runner(root, run_dir)
    try:
        # untimed: compiles bytecode and warms the file cache before the first probe
        runner.spawn([sys.executable, "-m", "stabdecomp.cli", "exponent", "--r", "4", "--m", "3",
                       "--out", os.path.join(run_dir, "warmup.json")], os.path.join(run_dir, "warmup"))
        if args.trace:
            values, samples, absent = per_layer(runner, workload, args.seed, args.seconds)
            units = dict(tracer.LAYER_METRICS, **CLI_METRICS, **{"trace.overhead_s": "s"})
        else:
            values, samples = end_to_end(runner, workload, args.seed, args.seconds)
            absent, units = [], END_TO_END
    except BenchmarkError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    print("host %s" % json.dumps(host(), sort_keys=True))
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("  failed_share %.6g (%d of %d commands failed)" % (runner.failed / runner.attempted, runner.failed, runner.attempted))
    for hook in absent:
        print("absent hook %s" % hook)
    for name in units:
        print("  %-36s %16.6g %-6s (%s)" % (name, values[name], units[name], samples[name]))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
