"""Self-test of the benchmark: ``python -m pytest perf -q``.

What must hold for the numbers to mean anything: each way an operation
can go wrong costs exactly one failed operation, the manifest and the
code name the same metrics, and ``--compare`` tells a regression from
noise.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import tempfile
import time

import pytest

import env
import report
from harness import Ledger
from protocol import Session, layers
from spans import Spans
from workloads import WORKLOADS

from repro.errors import SchedulingError


@pytest.fixture
def ledger():
    with env.TempRoot() as temp:
        yield Ledger(temp)
    assert multiprocessing.active_children() == []


def _tiny_session(ledger: Ledger, spans: Spans) -> Session:
    """calibration_cpu cut to 480 records: a real fleet in well under a second."""
    full = WORKLOADS["calibration_cpu"]
    tiny = dataclasses.replace(
        full, generate=lambda seed: {"seeds": full.generate(seed)["seeds"][:480]}
    )
    session = Session(tiny, 7, ledger, spans)
    session.setup()
    assert (ledger.attempted, ledger.failed) == (1, 0)  # the warm-up run
    return session


def test_a_verified_run_is_not_a_failure(ledger):
    session = _tiny_session(ledger, Spans("t", enabled=False))
    run = session.dist("dist.run")
    assert run is not None and run.seconds > 0
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_a_tampered_sink_is_one_failed_operation(ledger):
    session = _tiny_session(ledger, Spans("t", enabled=False))
    assert session.dist("dist.run", session.inputs, session.reference.expected ^ 1) is None
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "sinks differ" in ledger.failures[0]


def test_a_raised_repro_error_is_one_failed_operation(ledger):
    def operation():
        raise SchedulingError("distributed run exceeded its timeout")

    assert ledger.run("dist.run", operation) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "SchedulingError" in ledger.failures[0]


def test_a_timeout_is_one_failed_operation(ledger):
    started = time.perf_counter()
    assert ledger.run("dist.run", lambda: time.sleep(30), timeout=0.2) is None
    assert time.perf_counter() - started < 5
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "still running" in ledger.failures[0]


def test_a_surviving_child_is_one_failed_operation_and_is_reaped(ledger):
    def operation():
        multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,)).start()
        return "finished"

    assert ledger.run("dist.run", operation) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "child process" in ledger.failures[0]
    assert multiprocessing.active_children() == []


def test_a_leftover_temp_directory_is_one_failed_operation(ledger):
    assert ledger.run("dist.run", lambda: tempfile.mkdtemp(prefix="repro-dist-")) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.temp.leftovers() == []


def test_layers_emit_exactly_the_manifests_per_layer_metrics(ledger):
    spans = Spans("t", enabled=True)
    session = _tiny_session(ledger, spans)
    samples, _notes = layers(session, reps=1)
    manifest = report.load_manifest()
    assert set(samples) == set(report.metric_specs(manifest, "per_layer"))
    assert ledger.failed == 0
    # Self time: the workload span minus its children is what is left over.
    self_times = spans.self_times()
    assert 0 <= self_times["workload"] < spans.last("workload")["dur"]
    assert json.dumps(spans.tracer.to_chrome())


def test_the_manifest_names_the_workloads_and_end_to_end_metrics():
    manifest = report.load_manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert list(report.metric_specs(manifest, "end_to_end")) == [
        "job_s", "records_per_s", "setup_s", "peak_rss_mb",
    ]
    assert manifest["paths"] == ["perf"]


def _report(tmp_path, name, job_s, iqr=0.01, failed=0):
    specs = report.metric_specs(report.load_manifest(), "end_to_end")
    rows = {
        metric: {"unit": spec["unit"], "median": 1.0, "min": 1.0, "max": 1.0, "iqr": 0.0, "n": 7}
        for metric, spec in specs.items()
    }
    rows["job_s"].update(median=job_s, iqr=iqr)
    path = tmp_path / name
    path.write_text(json.dumps({
        "seed": 1,
        "workloads": {"clicklog_skew": {
            "end_to_end": rows,
            "failed_share": report.ratio(failed, 20, f"{failed} failed of 20 attempted"),
        }},
    }))
    return str(path)


def test_compare_tells_regression_noise_and_failures_apart(tmp_path, capsys):
    bound = report.metric_specs(report.load_manifest(), "end_to_end")["job_s"]["bound"]
    base = _report(tmp_path, "a.json", 4.0)
    assert report.compare(base, _report(tmp_path, "same.json", 4.1)) == 0
    assert "unchanged" in capsys.readouterr().out
    assert report.compare(base, _report(tmp_path, "slow.json", 4.0 * (1.1 + bound))) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert report.compare(base, _report(tmp_path, "noisy.json", 4.1, iqr=8.2 * bound)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert report.compare(base, _report(tmp_path, "broken.json", 4.0, failed=1)) == 1
