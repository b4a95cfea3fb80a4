"""End-to-end campaign throughput: coupled vs two-stage capture+replay.

The two-stage simulation core exists for exactly one workload shape — the
paper's own: sweeping physics-side parameters (package, leakage, frequency)
over identical instruction streams.  This benchmark times that shape both
ways through the real :func:`repro.campaign.run_campaign` path and emits a
machine-readable ``benchmarks/output/BENCH_campaign.json`` (cells/s coupled,
cells/s with replay, speedup) next to the in-file baseline semantics, so the
campaign-level performance trajectory is tracked from PR to PR (the CI
workflow uploads the file as an artifact).

The sweep: one benchmark trace, :data:`SWEEP_CELLS` configurations that
differ only in leakage fraction and package convection resistance.  Coupled,
every cell pays the per-uop timing simulation; with replay, exactly one cell
does and the rest ride the captured activity trace through the array-backed
physics stage.  The acceptance floor (>= 3x cells/s) is asserted directly
on the best of :data:`TIMING_ROUNDS` alternating coupled/replayed runs, so
one slow moment under load cannot fail it: a ratio of two single-shot
timings would.

Schema v2 adds the ``replay_batched`` section: the replay *phase itself*
timed in isolation (one captured trace, :func:`execute_replay_group` over
the same 8-cell sweep) in sequential-exact versus batched mode.  The trace
is longer here (:data:`BATCHED_TRACE_UOPS`) so the interval chain — the
part the batched engine vectorizes — dominates the one-time per-cell setup,
matching the paper-scale campaigns the engine targets.  The sweep spans two
convection values, so the group splits into two thermal sub-groups and each
interval costs exactly two batched advances (``solves_per_interval``).
``REPRO_BENCH_STRICT=1`` asserts the batched engine's >= 3x floor.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Tuple

from repro.campaign import (
    Campaign,
    ExperimentSettings,
    SerialExecutor,
    run_campaign,
    scale_paper_intervals,
)
from repro.campaign.executors import execute_cell_capture, execute_replay_group
from repro.campaign.spec import RunSpec
from repro.core.presets import baseline_config

#: Cells in the physics sweep (one timing key shared by all of them).
SWEEP_CELLS = 8
#: Trace length per cell; long enough that the timing stage dominates a
#: coupled cell, short enough to keep the coupled baseline measurement fast.
SWEEP_TRACE_UOPS = 4_000
#: Acceptance floor for the two-stage path on this sweep.
MIN_SPEEDUP = 3.0
#: Alternating coupled/replayed runs; each side is taken at its fastest.
TIMING_ROUNDS = 5

#: Trace length for the batched-replay phase measurement (~100 thermal
#: intervals at the paper's interval scaling): interval-chain-dominated,
#: the regime batched replay exists for.
BATCHED_TRACE_UOPS = 64_000
#: Nominal thermal-interval length of the batched measurement's capture.
BATCHED_INTERVAL_CYCLES = 800
#: Acceptance floor (batched vs sequential-exact replay, strict mode).
MIN_BATCHED_SPEEDUP = 3.0
#: Repo commit whose bench output these floors were calibrated against.
BASELINE_COMMIT = "9d731dd"


def _sweep_configs():
    """The leakage x package grid over one shared instruction stream."""
    base = baseline_config()
    configs = []
    for i in range(SWEEP_CELLS):
        configs.append(
            dataclasses.replace(
                base,
                name=f"phys_{i}",
                power=dataclasses.replace(
                    base.power,
                    leakage_fraction_at_ambient=0.20 + 0.04 * (i % 4),
                ),
                thermal=dataclasses.replace(
                    base.thermal,
                    convection_resistance_k_per_w=0.14 + 0.04 * (i // 4),
                ),
            )
        )
    return configs


def _physics_sweep() -> Campaign:
    settings = ExperimentSettings(
        benchmarks=("gzip",), uops_per_benchmark=SWEEP_TRACE_UOPS, seed=7
    )
    return Campaign(_sweep_configs(), settings, name="bench_physics_sweep")


def _timed_run(campaign: Campaign, replay: bool) -> dict:
    start = time.perf_counter()
    outcome = run_campaign(campaign, executor=SerialExecutor(), replay=replay)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "cells": outcome.total_cells,
        "cells_per_second": outcome.total_cells / elapsed,
        "cells_executed": outcome.cells_executed,
        "cells_replayed": outcome.cells_replayed,
        "traces_captured": outcome.traces_captured,
    }


def _timed_replay_phase(trace, specs, mode: str, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time of the replay phase alone."""
    mode_specs = [dataclasses.replace(s, replay_mode=mode) for s in specs]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = execute_replay_group((trace, mode_specs))
        best = min(best, time.perf_counter() - start)
    assert len(results) == len(specs)
    return {
        "seconds": best,
        "cells": len(specs),
        "cells_per_second": len(specs) / best,
    }


def _batched_replay_section() -> dict:
    """Time the replay phase sequential-exact vs batched on the 8-cell sweep."""
    configs = [
        scale_paper_intervals(config, BATCHED_INTERVAL_CYCLES)
        for config in _sweep_configs()
    ]
    specs = [
        RunSpec(
            config=config,
            benchmark="gzip",
            trace_uops=BATCHED_TRACE_UOPS,
            interval_cycles=BATCHED_INTERVAL_CYCLES,
            seed=7,
        )
        for config in configs
    ]
    _, trace = execute_cell_capture(specs[0])
    sequential = _timed_replay_phase(trace, specs, "exact")
    batched = _timed_replay_phase(trace, specs, "batched")
    # Two convection values -> two thermal sub-groups -> two batched
    # advances per interval for the whole 8-cell sweep.
    thermal_groups = len(
        {config.thermal.convection_resistance_k_per_w for config in configs}
    )
    return {
        "trace_uops": BATCHED_TRACE_UOPS,
        "intervals": len(trace),
        "sweep_cells": len(specs),
        "thermal_subgroups": thermal_groups,
        "solves_per_interval": thermal_groups,
        "sequential": sequential,
        "batched": batched,
        "speedup_cells_per_second": (
            batched["cells_per_second"] / sequential["cells_per_second"]
        ),
        "min_speedup": MIN_BATCHED_SPEEDUP,
    }


def _best_alternating(campaign: Campaign) -> Tuple[dict, dict]:
    """Best-of-:data:`TIMING_ROUNDS` coupled and replayed runs, interleaved.

    Alternating the two sides exposes both to the same load drift, and each
    side's fastest run is its least disturbed one.
    """
    coupled = replayed = None
    for _ in range(TIMING_ROUNDS):
        run = _timed_run(campaign, replay=False)
        if coupled is None or run["seconds"] < coupled["seconds"]:
            coupled = run
        run = _timed_run(campaign, replay=True)
        if replayed is None or run["seconds"] < replayed["seconds"]:
            replayed = run
    return coupled, replayed


def test_bench_campaign_replay_throughput_json(report_writer):
    """Measure the physics sweep both ways and emit ``BENCH_campaign.json``."""
    campaign = _physics_sweep()
    coupled, replayed = _best_alternating(campaign)
    assert coupled["cells_executed"] == SWEEP_CELLS
    assert replayed["cells_executed"] == 1
    assert replayed["cells_replayed"] == SWEEP_CELLS - 1

    speedup = replayed["cells_per_second"] / coupled["cells_per_second"]
    replay_batched = _batched_replay_section()
    batched_speedup = replay_batched["speedup_cells_per_second"]
    payload = {
        "schema_version": 2,
        "baseline_commit": BASELINE_COMMIT,
        "parameters": {
            "benchmark": "gzip",
            "sweep_cells": SWEEP_CELLS,
            "trace_uops": SWEEP_TRACE_UOPS,
            "executor": "SerialExecutor",
            "timing_rounds": TIMING_ROUNDS,
        },
        "coupled": coupled,
        "replay": replayed,
        "replay_batched": replay_batched,
        "speedup_cells_per_second": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    output_path = Path(__file__).parent / "output" / "BENCH_campaign.json"
    output_path.parent.mkdir(exist_ok=True)
    output_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report_writer(
        "BENCH_campaign",
        f"physics sweep ({SWEEP_CELLS} cells x {SWEEP_TRACE_UOPS} uops): "
        f"coupled {coupled['cells_per_second']:.2f} cells/s, "
        f"capture+replay {replayed['cells_per_second']:.2f} cells/s "
        f"({replayed['cells_executed']} simulated + "
        f"{replayed['cells_replayed']} replayed), "
        f"{speedup:.1f}x; replay phase "
        f"({replay_batched['intervals']} intervals, "
        f"{replay_batched['solves_per_interval']} solves/interval): "
        f"sequential {replay_batched['sequential']['cells_per_second']:.0f} "
        f"cells/s, batched "
        f"{replay_batched['batched']['cells_per_second']:.0f} cells/s, "
        f"{batched_speedup:.1f}x [JSON: {output_path}]",
    )

    assert speedup >= MIN_SPEEDUP, (
        f"two-stage replay is only {speedup:.2f}x the coupled baseline on a "
        f"physics-only sweep (acceptance floor: {MIN_SPEEDUP}x)"
    )
    assert batched_speedup > 1.0
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert batched_speedup >= MIN_BATCHED_SPEEDUP, (
            f"batched group replay is only {batched_speedup:.2f}x the "
            f"sequential-exact replay phase on the {SWEEP_CELLS}-cell physics "
            f"sweep (acceptance floor: {MIN_BATCHED_SPEEDUP}x, calibrated at "
            f"{BASELINE_COMMIT})"
        )
