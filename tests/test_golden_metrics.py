"""Golden end-to-end regression fixtures (the fast-path equivalence lock).

Three small fixed-seed campaigns — one centralized (the paper's baseline
frontend), one distributed + bank-hopping + biased-mapping frontend, and one
baseline frontend under two closed-loop DTM policies (stop-go clock gating
and hybrid throttling/DVFS) — are digested into JSON fixtures under
``tests/golden/``.  The digests capture everything a campaign produces: the
integer timing statistics, the warm-up temperatures, the full per-interval
per-block temperature trace, the per-interval dynamic/leakage power totals,
the paper's three temperature metrics for every block group and, on DTM
cells, the policy telemetry.

The fixtures were generated with the original dict-per-block power/thermal
pipeline (before the array-backed fast path landed), so a passing run proves
the fast path is *metric-identical* to the reference implementation.  Any
drift — a solver change, a power-model tweak, an interval-accounting bug —
fails these tests.

Regenerating (only when an intentional modelling change lands)::

    PYTHONPATH=src python -m pytest tests/test_golden_metrics.py --regen

Comparison is exact by default (the fixtures round-trip through ``repr``-level
JSON floats).  On platforms whose BLAS produces different last-ulp rounding,
set ``REPRO_GOLDEN_RELTOL`` (e.g. ``1e-9``) to compare with a relative
tolerance still far below any genuine metric drift.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.core.presets import baseline_config, distributed_frontend_config
from repro.sim.results import SimulationResult

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Scale of the golden campaigns: tiny but large enough to span several
#: thermal intervals, bank hops and remap events per benchmark.
GOLDEN_SETTINGS = ExperimentSettings(
    benchmarks=("gzip", "swim"),
    uops_per_benchmark=3_000,
    seed=7,
)


#: The DTM campaign's policies: stop-go gating (whole-interval clock gating,
#: the leakage-only interval path) and hybrid fetch throttling + DVFS.
GOLDEN_DTM_POLICIES = ("clock_gate:trigger=45", "hybrid:target=45,emergency=50")


def _golden_campaigns():
    """The locked campaigns: centralized, distributed+bank-hopping and DTM."""
    return {
        "centralized": Campaign.single(
            baseline_config(), GOLDEN_SETTINGS, name="golden_centralized"
        ),
        "distributed_hopping": Campaign.single(
            distributed_frontend_config(), GOLDEN_SETTINGS, name="golden_distributed"
        ),
        "dtm": Campaign(
            [baseline_config()],
            GOLDEN_SETTINGS,
            name="golden_dtm",
            dtm_policies=GOLDEN_DTM_POLICIES,
        ),
    }


def _digest_result(result: SimulationResult) -> dict:
    """Everything worth locking about one simulated cell, JSON-ready."""
    digest = {
        "stats": {
            "cycles": result.stats.cycles,
            "fetched_uops": result.stats.fetched_uops,
            "committed_uops": result.stats.committed_uops,
            "committed_copies": result.stats.committed_copies,
            "branches": result.stats.branches,
            "mispredicted_branches": result.stats.mispredicted_branches,
            "trace_cache_hits": result.stats.trace_cache_hits,
            "trace_cache_misses": result.stats.trace_cache_misses,
            "trace_cache_hop_flushes": result.stats.trace_cache_hop_flushes,
            "dcache_hits": result.stats.dcache_hits,
            "dcache_misses": result.stats.dcache_misses,
            "ul2_hits": result.stats.ul2_hits,
            "ul2_misses": result.stats.ul2_misses,
        },
        "warmup_temperature": dict(result.warmup_temperature),
        "intervals": [
            {
                "cycle": record.cycle,
                "seconds": record.seconds,
                "total_dynamic_w": sum(record.dynamic_power.values()),
                "total_leakage_w": sum(record.leakage_power.values()),
                "temperature": dict(record.temperature),
            }
            for record in result.intervals
        ],
        "metrics": result.all_temperature_metrics(),
    }
    if result.dtm:
        digest["dtm"] = result.dtm
    return digest


def _digest_campaign(name: str, campaign: Campaign) -> dict:
    outcome = run_campaign(campaign)
    cells = {}
    for config_name, summary in outcome.summaries.items():
        for benchmark, result in summary.results.items():
            cells[f"{config_name}/{benchmark}"] = _digest_result(result)
    return {
        "campaign": name,
        "settings": {
            "benchmarks": list(GOLDEN_SETTINGS.benchmarks),
            "uops_per_benchmark": GOLDEN_SETTINGS.uops_per_benchmark,
            "seed": GOLDEN_SETTINGS.seed,
        },
        "cells": cells,
    }


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _compare(expected, actual, path: str, reltol: float) -> list:
    """Recursively diff two digests; returns human-readable mismatch lines."""
    problems = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected mapping, got {type(actual).__name__}"]
        for key in expected:
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                problems.extend(
                    _compare(expected[key], actual[key], f"{path}.{key}", reltol)
                )
        for key in actual:
            if key not in expected:
                problems.append(f"{path}.{key}: unexpected extra entry")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            problems.append(
                f"{path}: length {len(actual) if isinstance(actual, list) else '?'}"
                f" != {len(expected)}"
            )
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                problems.extend(_compare(e, a, f"{path}[{i}]", reltol))
    elif isinstance(expected, float) or isinstance(actual, float):
        if reltol > 0:
            ok = math.isclose(expected, actual, rel_tol=reltol, abs_tol=reltol)
        else:
            ok = expected == actual
        if not ok:
            problems.append(f"{path}: {actual!r} != {expected!r}")
    elif expected != actual:
        problems.append(f"{path}: {actual!r} != {expected!r}")
    return problems


@pytest.mark.parametrize("name", sorted(_golden_campaigns()))
def test_golden_campaign_metrics(name, request):
    """Re-simulate a locked campaign and fail on any metric drift."""
    campaign = _golden_campaigns()[name]
    digest = _digest_campaign(name, campaign)
    path = _fixture_path(name)

    if request.config.getoption("--regen"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")

    assert path.exists(), (
        f"golden fixture {path} is missing; regenerate with "
        f"`pytest {__file__} --regen`"
    )
    expected = json.loads(path.read_text())
    reltol = float(os.environ.get("REPRO_GOLDEN_RELTOL", "0") or 0)
    problems = _compare(expected, digest, name, reltol)
    assert not problems, (
        "golden metric drift detected (regenerate only if the modelling "
        "change is intentional):\n  " + "\n  ".join(problems[:40])
    )


def test_golden_dtm_fixture_pins_stop_go():
    """The clock-gating cells of the DTM fixture really gate whole intervals."""
    cells = json.loads(_fixture_path("dtm").read_text())["cells"]
    gated = {
        name: cell["dtm"]["gated_intervals"]
        for name, cell in cells.items()
        if "@clock_gate" in name
    }
    assert len(gated) == len(GOLDEN_SETTINGS.benchmarks)
    assert all(count > 0 for count in gated.values()), gated
