#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 20 --trace 0

Workloads: ``paper_figures``, ``physics_sweep``, ``service_mix`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries every
per-layer metric from a separate traced pass.  The lines before it give the
full report: host fingerprint, result digest and its check, path facts and
error rate.

The run builds the native timing core into ``.bench_build/`` on first use,
then measures set-up time in fresh interpreters: several set-up-only
processes plus the measuring process itself, reported as their median.
``--record-digest`` stores this run's result digest in
``perfbench/digests.json`` for its seed and run length.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT))

WORKLOADS = ("paper_figures", "physics_sweep", "service_mix")
#: Set-up samples per run: this many set-up-only processes plus the run's own.
SETUP_ONLY_SAMPLES = 4
BUILD_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    """The program's environment: sources, build and temp dirs in the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_NATIVE_CACHE"] = str(build / "native")
    env["TMPDIR"] = str(build / "tmp")
    return env


def _child(args, timeout: float, env: dict) -> dict:
    """Run ``perfbench.harness`` in a fresh interpreter; returns its report."""
    command = [sys.executable, "-m", "perfbench.harness", *args]
    if args[0] != "build":
        command += ["--t0", repr(time.monotonic())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} (expected one of {WORKLOADS})")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail("run from the repository root: src/repro is missing")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench import facts

    env = _child_env()
    try:
        _child(["build"], BUILD_TIMEOUT_S, env)
        setups = [
            _child(["setup", "--workload", args.workload], SETUP_TIMEOUT_S, env)["setup_s"]
            for _ in range(SETUP_ONLY_SAMPLES)
        ]
        report = _child(
            ["run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            RUN_TIMEOUT_S,
            env,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
        return _fail(str(error))

    setups.append(report["setup_s"])
    report["setup_s"] = statistics.median(setups)
    report["setup_samples_s"] = setups
    fingerprint = report["fingerprint"]
    recorded = facts.load_recorded()
    platform_id = facts.numeric_platform(fingerprint)
    status = facts.check_digest(
        recorded, args.workload, args.seconds, args.seed, platform_id, report["digest"]
    )
    attempted, failed = report["attempted"], report["failed"]
    if status != "unrecorded":
        attempted += 1
        if status == "mismatch":
            failed += 1
            report["checks"].append("result digest differs from the recorded one")
    if args.record_digest and status == "unrecorded":
        entry = recorded.setdefault(args.workload, {"platform": platform_id, "digests": {}})
        if entry["platform"] == platform_id:
            entry["digests"][f"{args.seconds}/{args.seed}"] = report["digest"]
            facts.DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    layers = report.get("layers", {})
    layers.update(facts.sloc(ROOT))
    layers["sim.native_load_s"] = report["native_load_s"]
    layers["experiments.paper_gap_pp"] = report.get("paper_gap_pp", 0.0)
    layers["latency.job_p50_s"] = report["job_p50_s"]
    layers["latency.job_p90_s"] = report["job_p90_s"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "result_digest": report["digest"],
        "digest_check": status,
        "error_rate": failed / attempted,
        "checks": report["checks"],
        "paper_gap_pp": report.get("paper_gap_pp"),
        "job_latency_s": {"p50": report["job_p50_s"], "p90": report["job_p90_s"]},
        "path_facts": {"split": report["path_split"], "engines": report.get("engines")},
        "latency_by_kind_s": report.get("latency_by_kind_s"),
        "setup_samples_s": report["setup_samples_s"],
        "host_loop_s": report.get("host_loop_s"),
        "unscaled_s": report.get("unscaled_s"),
        "fingerprint": fingerprint,
        "spans_file": report.get("spans_file"),
    }))
    for metric in spec["end_to_end"]:
        print(f"{metric['name']:<24} {report[metric['name']]:.6g} {metric['unit']}")
    if args.trace:
        for metric in spec["per_layer"]:
            print(f"{metric['name']:<32} {layers.get(metric['name'], 0.0):.6g} {metric['unit']}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else report
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
