"""Benchmark of the jigroup CLI: end-to-end cost per workload, or a layer trace.

    python3 bench/run.py --workload wreath|chartab|lattice|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The inputs of the workload are written for
the seed under `.bench_work/`, then the invocations of the workload run in
turn, round after round, as long as the next one is expected to end within
S seconds; the first round always runs whole.  Each CLI invocation runs in a
fresh Python process (`child.py`), one process at a time, and its verdict
fields are checked against the expected ones.

With `--trace 0` the metrics are the end-to-end ones: the summed medians,
per invocation over the run, of the `run_command` wall and CPU time, the
median set-up time of the processes and their largest max-RSS.  With
`--trace 1` untraced and traced rounds alternate, and the metrics are the
medians of the per-layer ones over the whole traced rounds (see
`layertrace.py`), plus the ratio of traced to untraced wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import SAMPLING_SEED, WORKLOADS, build_workload  # noqa: E402
from layertrace import LAYERS, OUTSIDE  # noqa: E402

WORK = ROOT / ".bench_work"
# Every run, all its rounds included, ends well inside three minutes.
RUN_LIMIT_S = 170.0

_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}


def tail_percentile(samples):
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


class Run:
    """The invocations of one workload at one seed, run and checked."""

    def __init__(self, workload, seed, deadline):
        self.workdir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.invocations = build_workload(workload, seed, self.workdir)
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.samples = {inv.label: [] for inv in self.invocations}  # untraced results
        self.traced = []  # whole traced rounds
        self.cost = {}  # label -> seconds its last process took, start to end

    def invoke(self, inv, trace_path=None):
        cmd = [sys.executable, str(BENCH / "child.py")]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", "--report", "machine", "--seed", str(SAMPLING_SEED), *inv.argv]
        self.attempted += 1
        t0 = time.perf_counter()
        timeout = max(1.0, self.deadline - t0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(inv, f"no result within {timeout:.0f} s")
        self.cost[inv.label] = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self.fail(inv, f"child exited {proc.returncode}: {proc.stderr[-400:]}")
        result = json.loads(lines[-1])
        if "error" in result:
            return self.fail(inv, result["error"])
        if result["status"] != 0:
            return self.fail(inv, f"exit status {result['status']}, expected 0")
        if result["summary"] != inv.expect:
            return self.fail(inv, f"report {result['summary']}, expected {inv.expect}")
        return result

    def fail(self, inv, reason):
        self.failures.append(f"{inv.label}: {reason}")
        return None

    def round(self, traced=False, until=None):
        """Run the invocations in turn; True if every one ran and passed.

        With `until`, an invocation runs only if its last process is expected
        to end by then; untraced results count even if the round stops early.
        """
        results = []
        for inv in self.invocations:
            if until is not None and time.perf_counter() + self.cost[inv.label] > until:
                return False
            trace_path = None
            if traced:
                trace_dir = self.workdir / "trace" / f"round{len(self.traced)}"
                trace_dir.mkdir(parents=True, exist_ok=True)
                trace_path = trace_dir / f"{inv.label.replace(' ', '_')}.json"
            result = self.invoke(inv, trace_path)
            if result is None:
                return False
            if not traced:
                self.samples[inv.label].append(result)
            results.append(result)
        if traced:
            self.traced.append(results)
        return True

    def median_sum(self, key):
        """Sum over the invocations of the median of their untraced `key`."""
        return sum(statistics.median(r[key] for r in rs) for rs in self.samples.values())


def end_to_end(run):
    counts = sorted(len(rs) for rs in run.samples.values())
    processes = [r for rs in run.samples.values() for r in rs]
    setups = [r["setup_s"] for r in processes]
    metrics = {"wall_s": run.median_sum("wall_s"), "cpu_s": run.median_sum("cpu_s"),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": max(r["rss_mb"] for r in processes)}
    for name in ("wall_s", "cpu_s"):
        print(f"  {name:<12} {metrics[name]:10.4f} s   sum over {len(counts)} invocations "
              f"of the median of {counts[0]}-{counts[-1]} samples each")
    tail = tail_percentile(setups)
    tail = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
            else "no percentile has 10 samples above it")
    print(f"  {'setup_s':<12} {metrics['setup_s']:10.4f} s   median of {len(setups)} "
          f"processes; {tail}")
    print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:10.2f} MB  largest child max-RSS")
    return metrics


def per_layer(run):
    per_rep = []
    for rep in run.traced:
        total, counts = Counter(), Counter()
        for r in rep:
            total.update(r["layers"])
            counts.update(r["counts"])
        calls = counts["smallgrp.small_table_calls"]
        hits = counts["smallgrp.small_table_hits"]
        total["smallgrp.table_hit_ratio"] = hits / calls if calls else 0.0
        per_rep.append(total)
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    traced_wall = statistics.median(sum(r["wall_s"] for r in rep) for rep in run.traced)
    untraced_wall = run.median_sum("wall_s")
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    print(f"  traced wall {traced_wall:.4f} s, median of {len(run.traced)} rounds; "
          f"untraced {untraced_wall:.4f} s, summed medians per invocation")
    layers = sorted(list(LAYERS) + [OUTSIDE], key=lambda L: -metrics[f"{L}.self_s"])
    for layer in layers:
        self_s = metrics[f"{layer}.self_s"]
        calls = metrics.get(f"{layer}.calls")
        calls = f"{calls:>10.0f} calls" if calls is not None else ""
        print(f"  {layer:<11} self {self_s:9.4f} s {100 * self_s / traced_wall:6.1f}%  {calls}")
    for name, value in metrics.items():
        if not name.endswith((".self_s", ".calls")):
            print(f"  {name:<26} {value:.4f}")
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Run rounds of the workload until the next invocation would end after
    `seconds`; the first round, traced and untraced, always runs whole."""
    start = time.perf_counter()
    until = start + seconds
    run = Run(workload, seed, start + RUN_LIMIT_S)
    ok = run.round() and (not trace or run.round(traced=True))
    while ok:
        ok = run.round(until=until) and (not trace or run.round(traced=True, until=until))
    failed = len(run.failures)
    rounds = min(len(rs) for rs in run.samples.values())
    print(f"workload {workload}  seed {seed}  {rounds}+ untraced and "
          f"{len(run.traced)} traced rounds of {len(run.invocations)} invocations")
    for line in run.failures:
        print(f"  FAILED {line}")
    print(f"  fail_ratio   {failed / run.attempted:.4f}     {failed} of {run.attempted} invocations")
    metrics = {}
    if not failed:
        metrics = per_layer(run) if trace else end_to_end(run)
    return {
        "correct": not failed,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jigroup" / "cli.py").is_file():
        sys.exit(f"no jigroup sources under {ROOT / 'src'}; run from a checkout")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{name}": m for w, p in parts.items()
                        for name, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
