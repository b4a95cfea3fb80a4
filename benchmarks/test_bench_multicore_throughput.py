"""Multi-core campaign throughput: per-core trace reuse across a physics sweep.

The chip layer's performance claim mirrors the single-core two-stage core,
one level up: a physics-side sweep over an N-core die should pay the per-uop
timing cost once per *distinct thread workload* — not once per (cell x
core).  This benchmark runs a 4-core physics-only sweep (configurations
differing only in leakage fraction) at two grid sizes and emits
``benchmarks/output/BENCH_multicore.json`` (cells/s, captures, replays),
asserting the structural property directly: ``cells_executed`` (coupled
timing simulations, captures included) stays flat — 4, one per thread
scenario — as the physics grid grows, while every added cell is a pure
composite-die physics replay.

A second section measures the thermal solver's dense-vs-sparse scaling on
4/16/64-core composite Laplacians (factorization time, solve time, peak
resident memory of the factorization; each backend's best of
:data:`SOLVER_TIMING_ROUNDS` alternating rounds) and folds it into the same
JSON payload.  ``REPRO_BENCH_STRICT=1`` asserts that the sparse SuperLU backend
beats the dense LAPACK factorization by at least 3x end-to-end at 16 cores
and above — the scaling claim the ``solver_backend="auto"`` threshold rests
on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.campaign import Campaign, ExperimentSettings, SerialExecutor, run_campaign
from repro.chip import build_chip_physics
from repro.core.presets import baseline_config
from repro.thermal import ThermalSolver, sparse_backend_available

#: Threads of the 4-core mix (one per core, mixed intensity).
MIX = ("hot_loop", "thermal_virus", "memory_bound", "idle_crawl")
#: Physics-grid sizes compared by the flatness assertion.
SMALL_CELLS = 2
LARGE_CELLS = 6
#: Trace length per thread.
TRACE_UOPS = 2_500

#: Die sizes of the solver-scaling section: below, at, and far beyond the
#: ``auto`` backend's sparse threshold (4 cores = 194 nodes, 16 = 770,
#: 64 = 3074).
SOLVER_CORE_COUNTS = (4, 16, 64)
#: Single-RHS steady-state solves timed per backend (the post-factorization
#: hot path of warmup and every transient interval).
SOLVER_STEADY_SOLVES = 64
#: Columns of the timed multi-RHS batch solve (the campaign replay shape).
SOLVER_BATCH_CELLS = 32
#: Alternating dense/sparse rounds per die; each backend reports its
#: fastest round (one round is 10-40 ms at 16 cores, so a single sample
#: lets one slow moment decide the strict floor).
SOLVER_TIMING_ROUNDS = 5


def _physics_sweep(cells: int) -> Campaign:
    """``cells`` leakage variants of one 4-core chip mix (one timing set)."""
    base = baseline_config()
    configs = [
        dataclasses.replace(
            base,
            name=f"chip_phys_{i}",
            power=dataclasses.replace(
                base.power, leakage_fraction_at_ambient=0.20 + 0.02 * i
            ),
        )
        for i in range(cells)
    ]
    settings = ExperimentSettings(
        benchmarks=MIX,
        uops_per_benchmark=TRACE_UOPS,
        seed=7,
        honor_relative_length=False,
    )
    return Campaign(
        configs,
        settings,
        name=f"bench_multicore_{cells}",
        cores=len(MIX),
        per_core_scenarios=(MIX,),
    )


def _timed_run(cells: int) -> dict:
    campaign = _physics_sweep(cells)
    start = time.perf_counter()
    outcome = run_campaign(campaign, executor=SerialExecutor())
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "cells": outcome.total_cells,
        "cells_per_second": outcome.total_cells / elapsed,
        "cells_executed": outcome.cells_executed,
        "cells_replayed": outcome.cells_replayed,
        "traces_captured": outcome.traces_captured,
    }


def _timed_backend(network, backend: str) -> dict:
    """Factorize + solve with one backend; time it and track peak memory.

    ``peak_alloc_bytes`` is the factorization's tracemalloc high-water mark
    (per-backend, comparable across backends); ``ru_maxrss_kb`` is the
    process-wide resident high-water mark after this backend ran (monotone
    across the whole pytest process — an upper bound, not a per-backend
    delta).
    """
    tracemalloc.start()
    start = time.perf_counter()
    solver = ThermalSolver(network, backend=backend)
    factor_seconds = time.perf_counter() - start
    _, peak_alloc = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    rng = np.random.default_rng(1905)
    singles = rng.uniform(0.0, 5.0, size=(network.num_nodes, SOLVER_STEADY_SOLVES))
    start = time.perf_counter()
    for i in range(SOLVER_STEADY_SOLVES):
        solver.steady_state_nodes(singles[:, i])
    solve_seconds = time.perf_counter() - start

    batch = rng.uniform(0.0, 5.0, size=(network.num_nodes, SOLVER_BATCH_CELLS))
    start = time.perf_counter()
    solver.steady_state_nodes_batch(batch)
    batch_seconds = time.perf_counter() - start

    return {
        "backend": solver.backend,
        "factor_seconds": factor_seconds,
        "solve_seconds": solve_seconds,
        "batch_seconds": batch_seconds,
        "total_seconds": factor_seconds + solve_seconds + batch_seconds,
        "peak_alloc_bytes": peak_alloc,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _best_alternating_backends(network) -> dict:
    """Best-of-:data:`SOLVER_TIMING_ROUNDS` dense and sparse runs, interleaved.

    Both backends do the same operations in every round; alternating them
    exposes both to the same load drift, and each backend's fastest round
    (by ``total_seconds``) is its least disturbed one.
    """
    best: dict = {}
    for _ in range(SOLVER_TIMING_ROUNDS):
        for backend in ("dense", "sparse"):
            run = _timed_backend(network, backend)
            if backend not in best or run["total_seconds"] < best[backend]["total_seconds"]:
                best[backend] = run
    return best


def _solver_scaling() -> dict:
    """Dense-vs-sparse factorization/solve scaling over composite dies."""
    config = baseline_config()
    rows = []
    for cores in SOLVER_CORE_COUNTS:
        physics, _, _ = build_chip_physics(config, cores=cores)
        network = physics.network
        g_sparse = network.conductance_sparse()
        row = {
            "cores": cores,
            "nodes": network.num_nodes,
            "nnz": int(g_sparse.nnz),
            "density": g_sparse.nnz / network.num_nodes**2,
            **_best_alternating_backends(network),
        }
        row["speedup_total"] = (
            row["dense"]["total_seconds"] / row["sparse"]["total_seconds"]
        )
        rows.append(row)
    return {
        "steady_solves": SOLVER_STEADY_SOLVES,
        "batch_cells": SOLVER_BATCH_CELLS,
        "timing_rounds": SOLVER_TIMING_ROUNDS,
        "rows": rows,
    }


def test_bench_multicore_throughput_json(report_writer):
    """Time the 4-core physics sweep and emit ``BENCH_multicore.json``."""
    small = _timed_run(SMALL_CELLS)
    large = _timed_run(LARGE_CELLS)

    # The structural claim: timing work is per-scenario, not per-cell.
    assert small["cells_executed"] == len(MIX)
    assert large["cells_executed"] == len(MIX)
    assert small["cells_replayed"] == SMALL_CELLS
    assert large["cells_replayed"] == LARGE_CELLS

    solver = (
        _solver_scaling()
        if sparse_backend_available()
        else {"skipped": "scipy unavailable"}
    )

    payload = {
        "schema_version": 2,
        "parameters": {
            "mix": list(MIX),
            "cores": len(MIX),
            "trace_uops": TRACE_UOPS,
            "small_cells": SMALL_CELLS,
            "large_cells": LARGE_CELLS,
            "solver_core_counts": list(SOLVER_CORE_COUNTS),
            "executor": "SerialExecutor",
        },
        "small": small,
        "large": large,
        "solver": solver,
    }
    output_path = Path(__file__).parent / "output" / "BENCH_multicore.json"
    output_path.parent.mkdir(exist_ok=True)
    output_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    solver_note = ""
    if "rows" in solver:
        largest = solver["rows"][-1]
        solver_note = (
            f"; solver at {largest['cores']} cores ({largest['nodes']} nodes, "
            f"{largest['density']:.1%} dense): sparse "
            f"{largest['speedup_total']:.1f}x faster end-to-end"
        )
    report_writer(
        "BENCH_multicore",
        f"4-core physics sweep ({TRACE_UOPS} uops/thread): "
        f"{SMALL_CELLS} cells at {small['cells_per_second']:.2f} cells/s, "
        f"{LARGE_CELLS} cells at {large['cells_per_second']:.2f} cells/s; "
        f"captures flat at {large['cells_executed']} "
        f"(one per thread scenario){solver_note} [JSON: {output_path}]",
    )

    if "rows" in solver and os.environ.get("REPRO_BENCH_STRICT") == "1":
        for row in solver["rows"]:
            if row["nodes"] < 256:  # below the auto threshold, no claim
                continue
            assert (
                row["sparse"]["total_seconds"] * 3.0
                <= row["dense"]["total_seconds"]
            ), (
                f"sparse backend is only {row['speedup_total']:.2f}x the dense "
                f"one at {row['cores']} cores / {row['nodes']} nodes "
                "(expected >= 3x on comparable hardware — the "
                "solver's auto threshold rests on this)"
            )
