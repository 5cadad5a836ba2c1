"""The dist-engine benchmark.

One workload, one kind of metric — the form ``BENCHMARK.json``'s command
takes; its last output line is one JSON object::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in fresh subprocesses, into one report::

    python3 perf/run.py [--seed N] [--workload NAME] [--out FILE]

Two reports against the bounds in ``BENCHMARK.json``::

    python3 perf/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

import env

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit("perf/run.py: no src/repro beside perf/ - run it from a whole checkout")

import report
from harness import Ledger
from protocol import MeasurementFailed, Session, end_to_end, layers
from spans import Spans
from workloads import WORKERS, WORKLOADS

#: What the whole-report mode asks of each subprocess: k = 7 timed runs,
#: 3 runs of each comparison, and room for both.
REPORT_MIN_RUNS = 7
REPORT_REPS = 3
SUBPROCESS_TIMEOUT = 900.0


def measure(args: argparse.Namespace) -> int:
    """One workload, end-to-end (``--trace 0``) or per-layer (``--trace 1``)."""
    manifest = report.load_manifest()
    workload = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    notes: Dict[str, str] = {}
    detail: Dict[str, Any] = {"workload": workload.name, "seed": args.seed, "kind": kind}
    with env.TempRoot() as temp:
        host = dict(env.host(temp), workers=WORKERS)
        ledger = Ledger(temp)
        spans = Spans(f"{workload.name}-seed{args.seed}", enabled=bool(args.trace))
        session = Session(workload, args.seed, ledger, spans)
        try:
            if args.trace:
                samples, notes = layers(session, args.reps)
            else:
                samples = end_to_end(session, args.seconds, args.min_runs)
        except MeasurementFailed as failure:
            print(f"perf/run.py: {workload.name}: {failure}", file=sys.stderr)
            return 1
        if args.trace:
            os.makedirs(env.OUT_DIR, exist_ok=True)
            trace_file = os.path.join(
                env.OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json"
            )
            spans.tracer.write_chrome(trace_file)
            detail["trace_file"] = os.path.relpath(trace_file, env.ROOT)
            detail["self_time_s"] = spans.self_times()
        host["loadavg_end"] = list(os.getloadavg())
    specs = report.metric_specs(manifest, kind)
    rows = {
        name: report.summarize(samples[name], spec["unit"])
        for name, spec in specs.items()
    }
    report.print_table(f"{workload.name} (seed {args.seed}, {kind})", rows, notes)
    for name, seconds in detail.get("self_time_s", {}).items():
        print(f"  self time {name:<28} {seconds:10.4f} s")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(
        f"  host: nproc {host['nproc']}, {host['workers']} workers, Python {host['python']}, "
        f"{host['platform']}; load {host['loadavg'][0]:.2f} -> {host['loadavg_end'][0]:.2f}; "
        f"temp dir on {host['temp_dir_filesystem']}"
    )
    detail.update(
        metrics=rows,
        notes=notes,
        host=host,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures,
    )
    if args.out:
        with open(args.out, "w") as out:
            json.dump(detail, out, indent=1)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in rows.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both kinds, each in a fresh subprocess: one report."""
    manifest = report.load_manifest()
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    os.makedirs(env.OUT_DIR, exist_ok=True)
    out_path = args.out or os.path.join(env.OUT_DIR, f"report-seed{args.seed}.json")
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    workloads: Dict[str, Dict[str, Any]] = {}
    for name in names:
        entry: Dict[str, Any] = {"note": WORKLOADS[name].note, "failures": []}
        attempted = failed = 0
        for trace, extra in ((0, ["--min-runs", str(REPORT_MIN_RUNS)]),
                             (1, ["--reps", str(REPORT_REPS)])):
            detail_path = os.path.join(env.OUT_DIR, f"detail-{os.getpid()}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", detail_path, *extra,
            ]
            done = subprocess.run(command, timeout=SUBPROCESS_TIMEOUT)
            if done.returncode != 0:
                print(f"perf/run.py: {name} --trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return 1
            with open(detail_path) as detail_file:
                detail = json.load(detail_file)
            os.unlink(detail_path)
            entry[detail["kind"]] = detail["metrics"]
            entry.setdefault("notes", {}).update(detail["notes"])
            entry.setdefault("host", detail["host"])
            entry["failures"] += detail["failures"]
            attempted += detail["attempted"]
            failed += detail["failed"]
            for key in ("trace_file", "self_time_s"):
                if key in detail:
                    entry[key] = detail[key]
        entry["failed_share"] = report.ratio(
            failed, attempted, f"{failed} failed of {attempted} attempted"
        )
        workloads[name] = entry
        if entry["note"]:
            print(f"  note: {entry['note']}")
    derived = report.derived(workloads)
    print("\nderived (unbounded)")
    for name, value in derived.items():
        print(f"  {name:<40} {value['value']:.4f}  (base: {value['base']})")
    with open(out_path, "w") as out:
        json.dump(
            {"seed": args.seed, "run_seconds": seconds, "workloads": workloads,
             "derived": derived},
            out, indent=1,
        )
    print(f"\nwrote {os.path.relpath(out_path)}")
    return 0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="the only source of randomness")
    parser.add_argument("--seconds", type=float,
                        help="how long --trace 0 keeps timing runs (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--min-runs", type=int, default=3,
                        help="timed runs --trace 0 makes at least (default: %(default)s)")
    parser.add_argument("--reps", type=int, default=1,
                        help="runs per comparison under --trace 1 (default: %(default)s)")
    parser.add_argument("--out", help="where to write the report (or one run's detail)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.trace is not None and (args.workload is None or args.seconds is None):
        parser.error("--trace needs --workload and --seconds")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        return report.compare(*args.compare)
    if args.trace is not None:
        return measure(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
