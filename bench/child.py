"""Run one jigroup CLI invocation in this fresh process and report its cost.

    python3 bench/child.py [--trace PATH] -- <jigroup CLI arguments>

Run from the root of a checkout; `jigroup` is imported from its `src/`.
The last line of standard output is one JSON object:

- `setup_s`: from before `import jigroup.cli` to a built argument parser;
- `wall_s`, `cpu_s`: wall and process CPU time of `run_command` alone;
- `rss_mb`: the largest resident set this process reached;
- `status` and `summary`: the exit status and the verdict fields of the
  report `run_command` returned, or `error` if it raised;
- `layers` and `counts`: with `--trace`, the layer metrics and the raw
  counters of the traced call, whose trace (see `layertrace.py`) is written
  to PATH as JSON.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def summarize(report):
    """The verdict fields of a run_command report that the benchmark checks."""
    command = report.get("command")
    if command == "shadow":
        v = report["verdicts"]
        return {"order": report["order"], "G": v["G"].status, "H": v["H"].status,
                "M": v["M"].status, "M_unique_over_H": report["M_unique_over_H"],
                "H_index": report["H_index"],
                "all_agree": all(row["agree"] for row in report["normal_equivalence"])}
    if command == "chartab":
        return {k: report[k] for k in ("order", "classes", "degrees", "min_faithful_degree")}
    if command == "verify-paper":
        return {"claims": len(report["claims"]),
                "all_passed": all(c["passed"] for c in report["claims"])}
    if command == "analyze":
        hereditary = report.get("hereditary_check")
        return {"valid": report["validation"]["valid"],
                "just_infinite": report["just_infinite"].status,
                "maximal_scan": sorted([r["index"], r["verdict"].status]
                                       for r in report["maximal_scan"]),
                "quaternionic": report["quaternionic_type"]["is_quaternionic"],
                "hereditary": hereditary.status if hereditary else None}
    return {"error": report.get("error")}


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: child.py [--trace PATH] -- <jigroup arguments>")
    cli_argv = argv[1:]

    t0 = time.perf_counter()
    import jigroup.cli as cli

    cli._build_parser()
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace_path:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"setup_s": setup_s}
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        status, report = cli.run_command(cli_argv, out=io.StringIO())
    except Exception:
        result["error"] = traceback.format_exc()
    else:
        result["status"] = status
        result["summary"] = summarize(report)
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - c0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from layertrace import layer_metrics

        trace = tracer.snapshot()
        with open(trace_path, "w") as fh:
            json.dump(trace, fh)
        result["layers"] = layer_metrics(trace, result["wall_s"])
        result["counts"] = trace["counts"]
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
