"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The end-to-end tests run each workload once at the smallest scale
(``--seconds 1``); ``service_mix`` still sends its minimum of 100 jobs, so
the whole file takes a couple of minutes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import facts  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_result_line(line: str, metrics) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for metric in metrics:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    return result


@pytest.fixture(scope="module")
def traced_runs():
    return {workload: _run(workload, trace=1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, traced_runs):
    done = traced_runs[workload]
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[0])
    assert report["workload"] == workload and len(report["result_digest"]) == 64
    assert report["fingerprint"]["nproc"] >= 1
    # The traced run prints every end-to-end metric as a text line ...
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for metric in SPEC["end_to_end"]:
        assert printed[metric["name"]] == metric["unit"]
    # ... and ends with every per-layer metric.
    _check_result_line(lines[-1], SPEC["per_layer"])


def test_untraced_result_line_carries_end_to_end_metrics():
    done = _run("paper_figures", trace=0)
    assert done.returncode == 0, done.stderr
    result = _check_result_line(done.stdout.strip().splitlines()[-1], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_self_times_fit_in_the_traced_wall_clock(traced_runs):
    for workload in ("paper_figures", "physics_sweep"):
        layers = json.loads(traced_runs[workload].stdout.strip().splitlines()[-1])["metrics"]
        assert layers["trace.wall_s"]["value"] > 0
        # unattributed = traced wall-clock - sum of every layer's self time
        assert layers["trace.unattributed_s"]["value"] >= 0
        assert layers["sim.timing_s"]["value"] > 0


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("outer", "cell-1")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    (_, o_start, o_end, _, _), (_, i_start, i_end, parent, ident) = tracer.spans
    assert parent == 0 and ident == "cell-1"
    own = tracer.self_seconds()
    assert own["inner"] == pytest.approx((i_end - i_start) / 1e9)
    assert own["outer"] + own["inner"] == pytest.approx((o_end - o_start) / 1e9)


def test_fastest_units_takes_each_unit_at_its_fastest():
    from perfbench.local import PassResult, fastest_units

    def one_pass(wall, units):
        return PassResult(wall, [], units, {}, [], [])

    # Units 0.4 + 0.3, plus the rest of a pass at its fastest, 0.2.
    assert fastest_units([one_pass(1.0, [0.5, 0.3]), one_pass(1.3, [0.4, 0.6])]) == pytest.approx(0.9)
    # Passes that ran different units fall back to the fastest whole pass.
    assert fastest_units([one_pass(1.0, [0.5]), one_pass(0.8, [0.4, 0.1])]) == 0.8


def test_host_speed_scales_to_the_reference_loop():
    host = facts.HostSpeed()
    host.samples = [3 * facts.REFERENCE_LOOP_S, 2 * facts.REFERENCE_LOOP_S]
    assert host.scale(1.0) == pytest.approx(0.5)


def test_tampered_result_document_trips_the_digest_check():
    from repro.campaign import Campaign, ExperimentSettings, run_campaign
    from repro.core.presets import baseline_config
    from repro.sim.serialization import result_to_dict

    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=600)
    outcome = run_campaign(Campaign([baseline_config()], settings))
    document = result_to_dict(outcome.summaries["baseline"].results["gzip"])
    digest = facts.combined_digest([("gzip", facts.document_digest(document))])
    tampered = copy.deepcopy(document)
    block = next(iter(tampered["intervals"][0]["temperature"]))
    tampered["intervals"][0]["temperature"][block] += 1e-9
    tampered_digest = facts.combined_digest([("gzip", facts.document_digest(tampered))])
    assert tampered_digest != digest

    recorded = {"w": {"platform": "p", "digests": {"1/1": digest}}}
    assert facts.check_digest(recorded, "w", 1, 1, "p", digest) == "match"
    assert facts.check_digest(recorded, "w", 1, 1, "p", tampered_digest) == "mismatch"
    assert facts.check_digest(recorded, "w", 1, 2, "p", digest) == "unrecorded"
    assert facts.check_digest(recorded, "w", 1, 1, "other", digest) == "unrecorded"


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    target = tmp_path / "perfbench"
    target.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (target / path.name).write_text(path.read_text())
    done = _run("paper_figures", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_sloc_counts_every_subpackage():
    counts = facts.sloc(ROOT)
    declared = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("sloc.")}
    assert set(counts) == declared
    assert counts["sloc.total"] == sum(v for k, v in counts.items() if k != "sloc.total")
