"""Cold-process benchmark of c1atlas: one client, closed loop, golden-checked.

    python3 perfbench/run.py --workload sweep|shape|algebra --seed N \
        --seconds S --trace 0|1 [--dry-run]

Run it from anywhere inside a checkout that holds ``src/c1atlas``.  The seed
picks a batch of requests from the workload's recorded domain (see
``workloads.py``); every request runs in a fresh ``python`` child and the
driver waits for it before starting the next, so at most one child runs at a
time.  Every child's exit code and stdout are checked against the golden
result recorded in ``golden/<workload>.json``.

The run first times a few probe processes (interpreter start, ``import
c1atlas.cli`` and ``default_catalog()``) for ``setup_s``, then repeats the
batch while another batch still fits in ``--seconds`` (at least once).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median batch
wall time), ``latency_p50_s``, ``setup_s`` and ``peak_rss_mb``; the tail
latency and the failed fraction are printed in the table above the result.
With ``--trace 1`` it alternates untraced and traced batches and reports the
per-layer table of ``spans.layer_metrics`` (medians over the traced batches)
and ``trace.overhead_s``.  ``--dry-run`` prints the batch's argv list and
runs nothing.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# -- statistics -------------------------------------------------------------------

def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n sorted samples."""
    return max(1, math.ceil(n * Fraction(str(p)) / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    return sorted(values)[_rank(len(values), p) - 1]


def tail_percentile(n: int):
    """The highest ladder percentile that leaves at least 10 of n samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n and n - _rank(n, p) >= 10]
    return max(fitting) if fitting else None


# -- requests -----------------------------------------------------------------------

def child_argv(request, trace_path=None) -> list:
    trace = ["--trace", str(trace_path)] if trace_path else []
    return [sys.executable, str(CHILD), *trace, *request["argv"]]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("C1_ATLAS_CATALOG", None)  # always the shipped catalog
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline(Exception):
    pass


def run_child(argv, env, deadline):
    """Run one child to completion; returns (exit code, stdout bytes, wall seconds)."""
    start = time.perf_counter()
    with open(OUT / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Deadline(f"{shlex.join(argv)} did not finish before the run's deadline")
    return proc.returncode, stdout, time.perf_counter() - start


def check_output(expect, rc, stdout):
    """None if the output matches the golden record, else the reason it does not."""
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    if "sha256" in expect and hashlib.sha256(stdout).hexdigest() != expect["sha256"]:
        return "stdout sha256 differs from the golden output"
    if "last_line" in expect:
        lines = stdout.decode("utf-8", "replace").splitlines()
        if not lines or lines[-1] != expect["last_line"]:
            return f"last line is not {expect['last_line']!r}"
    if "json" in expect:
        try:
            value = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if value != expect["json"]:
            return "stdout JSON differs from the golden result"
    return None


class Tally:
    """Latencies, failures and output bytes of the requests a run made."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.cli_bytes = 0

    def run_batch(self, batch, env, deadline, trace_dir=None) -> float:
        start = time.perf_counter()
        for i, request in enumerate(batch):
            trace_path = trace_dir / f"{i:03d}.json" if trace_dir else None
            rc, stdout, wall = run_child(child_argv(request, trace_path), env, deadline)
            self.attempted += 1
            reason = check_output(request["expect"], rc, stdout)
            if reason:
                self.failures.append(f"{request['id']}: {reason}")
            if trace_dir is None:
                self.latencies.append(wall)
            elif request["argv"][0] == "cli":
                self.cli_bytes += len(stdout)
        return time.perf_counter() - start


def read_summaries(trace_dir) -> list:
    summaries = []
    for path in sorted(trace_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    return summaries


# -- the run ------------------------------------------------------------------------

def measure_setup(env, deadline) -> list:
    probe = {"argv": ["probe"]}
    run_child(child_argv(probe), env, deadline)  # warm-up: byte-compiles the package
    walls = []
    for _ in range(SETUP_PROBES):
        rc, _, wall = run_child(child_argv(probe), env, deadline)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {(OUT / 'stderr.txt').read_text()[-2000:]}")
        walls.append(wall)
    return walls


def fits(walls, began, seconds) -> bool:
    return time.perf_counter() - began + statistics.median(walls) <= seconds


def run_untraced(batch, seconds, env, deadline):
    tally = Tally()
    walls = []
    began = time.perf_counter()
    while not walls or fits(walls, began, seconds):
        walls.append(tally.run_batch(batch, env, deadline))
    return tally, walls


def run_traced(batch, seconds, env, deadline, trace_root):
    tally = Tally()
    plain, traced, tables = [], [], []
    began = time.perf_counter()
    while not traced or fits([a + b for a, b in zip(plain, traced)], began, seconds):
        plain.append(tally.run_batch(batch, env, deadline))
        trace_dir = trace_root / f"batch{len(traced)}"
        trace_dir.mkdir(parents=True)
        bytes_before = tally.cli_bytes
        traced.append(tally.run_batch(batch, env, deadline, trace_dir))
        tables.append(
            spans.layer_metrics(read_summaries(trace_dir), output_bytes=tally.cli_bytes - bytes_before)
        )
    overhead = statistics.median(traced) - statistics.median(plain)
    table = {name: statistics.median(t[name] for t in tables) for name in spans.LAYER_METRICS}
    table["trace.overhead_s"] = overhead
    return tally, table, len(tables)


def print_table(rows):
    print(f"{'metric':32s} {'value':>14s} {'unit':6s} {'n':>5s}  note")
    for name, value, unit, n, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:32s} {shown:>14s} {unit:6s} {n:>5}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dry-run", action="store_true", help="print the batch's argv list and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "c1atlas" / "cli.py").is_file():
        print(f"error: no c1atlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    batch = workloads.make_batch(args.workload, args.seed)
    if args.dry_run:
        print(f"# workload {args.workload}, seed {args.seed}: {len(batch)} requests per batch")
        for request in batch:
            print(shlex.join(child_argv(request)))
        return 0

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    try:
        setup = measure_setup(env, deadline)
        if args.trace:
            trace_root = OUT / "trace" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(trace_root, ignore_errors=True)
            tally, table, batches = run_traced(batch, args.seconds, env, deadline, trace_root)
        else:
            tally, walls = run_untraced(batch, args.seconds, env, deadline)
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  {len(batch)} requests per batch"
    )
    if args.trace:
        notes = {"trace.overhead_s": "median traced minus median untraced batch wall"}
        rows = [(name, table[name], unit, batches, notes.get(name, "median over traced batches"))
                for name, unit in spans.LAYER_METRICS.items()]
        metrics = {name: {"value": table[name], "unit": unit} for name, unit in spans.LAYER_METRICS.items()}
    else:
        n = len(tally.latencies)
        tail_p = tail_percentile(n)
        tail = percentile(tally.latencies, tail_p) if tail_p else None
        end_to_end = {
            "wall_s": (statistics.median(walls), "s", len(walls), "median batch wall time"),
            "latency_p50_s": (statistics.median(tally.latencies), "s", n, "median request wall time"),
            "setup_s": (statistics.median(setup), "s", len(setup), "median probe process wall time"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB", n,
                "largest max-RSS of any child",
            ),
        }
        rows = [(name, *fields) for name, fields in end_to_end.items()]
        rows.append(("latency_tail_s", tail if tail is not None else "n/a", "s", n,
                     f"p{tail_p:g}" if tail_p else "no ladder percentile leaves 10 requests beyond it"))
        rows.append(("failed_frac", failed / tally.attempted, "ratio", tally.attempted, "wrong exit code or output"))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in end_to_end.items()}
    print_table(rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
