"""Summaries, the printed table, and ``--compare``.

``BENCHMARK.json`` is the one place metric names, units, directions and
regression bounds are written down; everything here reads them from it.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List

from env import MANIFEST


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST) as manifest:
        return json.load(manifest)


def metric_specs(manifest: Dict[str, Any], kind: str) -> Dict[str, Dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` entries of the manifest, by name."""
    return {spec["name"]: spec for spec in manifest[kind]}


def summarize(samples: List[float], unit: str) -> Dict[str, Any]:
    """Median, extremes, interquartile range and count of one metric."""
    iqr = 0.0
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "iqr": iqr,
        "n": len(samples),
    }


def print_table(title: str, rows: Dict[str, Dict[str, Any]], notes: Dict[str, str]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<40} {'unit':<10} {'median':>13} {'min':>13} {'max':>13} {'iqr':>12} {'n':>3}")
    for name, row in rows.items():
        print(
            f"  {name:<40} {row['unit']:<10} {row['median']:>13.6g} {row['min']:>13.6g} "
            f"{row['max']:>13.6g} {row['iqr']:>12.4g} {row['n']:>3}"
            + (f"  {notes[name]}" if name in notes else "")
        )


def ratio(numerator: float, denominator: float, base: str) -> Dict[str, Any]:
    """A ratio that carries its base, as every printed ratio must."""
    return {"value": numerator / denominator, "base": base}


def _worse_by(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload and end-to-end metric; 1 on a regression."""
    with open(path_a) as file_a, open(path_b) as file_b:
        report_a, report_b = json.load(file_a), json.load(file_b)
    specs = metric_specs(load_manifest(), "end_to_end")
    regressed = False
    print(f"A = {path_a} (seed {report_a['seed']})   B = {path_b} (seed {report_b['seed']})")
    for workload, side_a in report_a["workloads"].items():
        side_b = report_b["workloads"].get(workload)
        if side_b is None:
            print(f"\n{workload}: missing from B")
            regressed = True
            continue
        print(f"\n{workload}")
        for name, spec in specs.items():
            a, b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            bound = spec["bound"]
            worse = _worse_by(a["median"], b["median"], spec["better"])
            spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
            if worse > bound:
                verdict = "REGRESSION"
                regressed = True
            elif spread > bound:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(
                f"  {name:<16} A {a['median']:>12.6g} {spec['unit']:<10} B {b['median']:>12.6g}  "
                f"{worse:+8.2%} worse of A (bound {bound:.0%}, iqr/median {spread:.2%})  {verdict}"
            )
        share_a, share_b = side_a["failed_share"], side_b["failed_share"]
        verdict = "unchanged"
        if share_b["value"] > share_a["value"]:
            verdict = "REGRESSION"
            regressed = True
        print(
            f"  {'failed_share':<16} A {share_a['value']:>12.6g} ({share_a['base']})"
            f"  B {share_b['value']:>12.6g} ({share_b['base']})  {verdict}"
        )
    return 1 if regressed else 0


def derived(workloads: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The two unbounded ratios the report prints beside the metrics."""
    out = {}
    skew, uniform = workloads.get("clicklog_skew"), workloads.get("clicklog_uniform")
    if skew and uniform:
        base = uniform["end_to_end"]["job_s"]["median"]
        out["skew_slowdown"] = ratio(
            skew["end_to_end"]["job_s"]["median"], base,
            f"job_s[clicklog_uniform] = {base:.4g} s",
        )
    for name, entry in workloads.items():
        base = entry["end_to_end"]["job_s"]["median"]
        out[f"speedup_vs_local[{name}]"] = ratio(
            entry["per_layer"]["local.job_s"]["median"], base,
            f"job_s[{name}] = {base:.4g} s",
        )
    return out
