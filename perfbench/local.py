"""The in-process workloads: ``paper_figures`` and ``physics_sweep``.

Both drive the program through its public campaign entry points with a
serial executor and an on-disk result cache that starts empty.  A *pass*
runs every campaign of the workload once; the cold pass fills the cache and
later passes re-run against it.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import ResultCache, SerialExecutor

from perfbench import facts
from perfbench.tracing import Patcher, Tracer, instrument

#: The four open-loop SPEC workloads of the physics sweep.
SWEEP_BENCHMARKS = ("gzip", "mcf", "swim", "equake")
#: Leakage fraction at ambient and heat-sink convection resistance (K/W).
SWEEP_LEAKAGE = (0.20, 0.25, 0.30, 0.35)
SWEEP_CONVECTION = (0.14, 0.17, 0.20, 0.23)
CHIP_LEAKAGE = (0.20, 0.30, 0.40)
#: Cold passes per run, each from an empty cache (see ``fastest_units``).
COLD_PASSES = 3
#: Warm re-runs of each workload after every cold pass.
WARM_PASSES = {"paper_figures": 14, "physics_sweep": 4}


def _task_label(task) -> str:
    """A short, stable id for one executor task (a cell or a replay group)."""
    if isinstance(task, tuple) and len(task) == 2 and isinstance(task[0], str):
        task = task[1]
    if isinstance(task, tuple) and len(task) == 2:
        specs = task[1]
        return f"replay:{specs[0].variant}/{specs[0].benchmark}+{len(specs) - 1}"
    return f"{task.variant}/{task.benchmark}"


class TimedExecutor(SerialExecutor):
    """A serial executor that times every task, inside a span when traced.

    Each task's seconds go to ``task_seconds`` and to ``units``, the list of
    timed units of work of the pass.
    """

    def __init__(self, units: List[float], tracer: Optional[Tracer] = None) -> None:
        super().__init__()
        self.tracer = tracer
        self.task_seconds: List[float] = []
        self.units = units

    def run_tasks(self, fn, tasks):
        results = []
        for task in tasks:
            start = time.perf_counter()
            if self.tracer is None:
                results.append(fn(task))
            else:
                with self.tracer.span("campaign.task_s", _task_label(task)):
                    results.append(fn(task))
            self.task_seconds.append(time.perf_counter() - start)
            self.units.append(self.task_seconds[-1])
        return results


class TimedCache(ResultCache):
    """A result cache that adds the seconds of each call to ``units``.

    Result and trace loads and stores run in the campaign driver, outside
    the executor's tasks, so the cache times them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.units: List[float] = []

    def _timed(self, method, *args):
        start = time.perf_counter()
        try:
            return method(*args)
        finally:
            self.units.append(time.perf_counter() - start)

    def load(self, spec):
        return self._timed(super().load, spec)

    def store(self, spec, result):
        return self._timed(super().store, spec, result)

    def load_trace(self, timing_key):
        return self._timed(super().load_trace, timing_key)

    def store_trace(self, timing_key, trace):
        return self._timed(super().store_trace, timing_key, trace)


@dataclass
class PassResult:
    """What one pass leaves behind (outcomes are digested, then dropped)."""

    wall_s: float
    task_seconds: List[float]
    #: Seconds of each executor task and cache call, in the order they ran.
    units: List[float]
    split: Dict[str, int]
    labels: List[str]
    cell_digests: List[str]
    value: object = None

    @property
    def digest(self) -> str:
        return facts.combined_digest(zip(self.labels, self.cell_digests))


def _digest_outcomes(outcomes) -> Tuple[List[str], List[str]]:
    """Per-cell labels and sha256 of each canonical ``result_to_dict``."""
    from repro.sim.serialization import result_to_dict

    labels, digests = [], []
    for outcome in outcomes:
        for spec in outcome.campaign.cells():
            result = outcome.summaries[spec.variant].results[spec.benchmark]
            labels.append(f"{outcome.campaign.name}/{spec.variant}/{spec.benchmark}")
            digests.append(facts.document_digest(result_to_dict(result)))
    return labels, digests


class OutcomeRecorder:
    """Captures every ``CampaignOutcome`` the figure drivers produce.

    ``run_fig14`` and ``run_dtm_comparison`` return figure objects, not the
    campaign outcomes, so the recorder wraps the public ``run_campaign`` in
    every module that imported it.
    """

    def __init__(self) -> None:
        from repro.campaign import core

        self.outcomes: list = []
        self.tracer: Optional[Tracer] = None
        original = core.run_campaign

        def recording_run_campaign(*args, **kwargs):
            if self.tracer is None:
                outcome = original(*args, **kwargs)
            else:
                with self.tracer.span("campaign.run_s", "campaign"):
                    outcome = original(*args, **kwargs)
            self.outcomes.append(outcome)
            return outcome

        self._patch = Patcher()
        self._patch.replace_function(original, recording_run_campaign)

    def close(self) -> None:
        self._patch.restore()


# ----------------------------------------------------------------------
# Workload plans: each returns ``run(executor, cache) -> value``
# ----------------------------------------------------------------------
def paper_figures_plan(seed: int, seconds: int) -> Callable:
    """Figure 14 over the 8 quick SPEC benchmarks, then the DTM comparison."""
    from repro.campaign import ExperimentSettings
    from repro.experiments.fig14_combined import run_fig14
    from repro.experiments.fig_dtm_comparison import dtm_settings, run_dtm_comparison

    fig_settings = replace(ExperimentSettings.quick(80 * seconds), seed=seed)
    scenario_settings = dtm_settings(uops_per_scenario=55 * seconds, seed=seed)

    def run(executor, cache):
        figure = run_fig14(fig_settings, executor, cache)
        run_dtm_comparison(scenario_settings, executor=executor, cache=cache)
        return figure

    return run


def physics_sweep_plan(seed: int, seconds: int) -> Callable:
    """Open-loop configs x leakage x convection, plus a 16-core leakage sweep."""
    from repro.campaign import Campaign, ConfigBuilder, ExperimentSettings, run_campaign
    from repro.core.presets import bank_hopping_config, baseline_config

    settings = ExperimentSettings(
        benchmarks=SWEEP_BENCHMARKS, uops_per_benchmark=2500 * seconds, seed=seed
    )
    configs = [
        ConfigBuilder.from_config(base)
        .power(leakage_fraction_at_ambient=leakage)
        .thermal(convection_resistance_k_per_w=convection)
        .named(f"{base.name}-lk{leakage}-cv{convection}")
        .build()
        for base in (baseline_config(), bank_hopping_config())
        for leakage in SWEEP_LEAKAGE
        for convection in SWEEP_CONVECTION
    ]
    chip_configs = [
        ConfigBuilder.baseline()
        .power(leakage_fraction_at_ambient=leakage)
        .named(f"chip16-lk{leakage}")
        .build()
        for leakage in CHIP_LEAKAGE
    ]
    sweep = Campaign(configs, settings, name="physics_sweep")
    chip = Campaign(
        chip_configs,
        settings,
        name="chip16_leakage",
        cores=16,
        per_core_scenarios=[SWEEP_BENCHMARKS * 4],
    )

    def run(executor, cache):
        run_campaign(sweep, executor, cache)
        run_campaign(chip, executor, cache)
        return None

    return run


PLANS = {"paper_figures": paper_figures_plan, "physics_sweep": physics_sweep_plan}


def paper_gap_pp(figure) -> float:
    """Mean |measured - paper| of the combined frontend's reductions, in pp."""
    from repro.experiments.fig14_combined import CONFIG_LABELS, PAPER_COMBINED

    measured = figure.reductions[CONFIG_LABELS["distributed_frontend"]]
    gaps = [
        abs(measured[group][metric] - paper)
        for group, metrics in PAPER_COMBINED.items()
        for metric, paper in metrics.items()
    ]
    return 100.0 * sum(gaps) / len(gaps)


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
def _one_pass(run: Callable, recorder: OutcomeRecorder, cache, tracer=None) -> PassResult:
    units: List[float] = []
    executor = TimedExecutor(units, tracer)
    if isinstance(cache, TimedCache):
        cache.units = units
    recorder.outcomes = []
    recorder.tracer = tracer
    start = time.perf_counter()
    value = run(executor, cache)
    wall = time.perf_counter() - start
    labels, digests = _digest_outcomes(recorder.outcomes)
    split = _split(recorder.outcomes)
    recorder.outcomes = []
    return PassResult(wall, executor.task_seconds, units, split, labels, digests, value)


def fastest_units(passes: List[PassResult]) -> float:
    """Wall-clock of a pass with each unit of work at its fastest.

    A unit is one executor task or one cache call; the passes run the same
    units in the same order.  The rest of a pass (planning, digesting the
    figure, orchestration) counts at its fastest too.  The 2-vCPU reference
    host switches between a fast and a slow speed every few seconds, longer
    than a unit lasts, so a unit's fastest run over passes made seconds
    apart is the fast host's time; the median of whole passes is not.
    """
    if len({len(p.units) for p in passes}) != 1:
        return min(p.wall_s for p in passes)
    units = sum(min(column) for column in zip(*(p.units for p in passes)))
    return units + min(p.wall_s - sum(p.units) for p in passes)


def _split(outcomes) -> Dict[str, int]:
    """Coupled / captured / replayed / cache-hit cell counts of a pass."""
    split = {"cells": 0, "coupled": 0, "captured": 0, "replayed": 0, "cache_hits": 0}
    for outcome in outcomes:
        split["cells"] += outcome.total_cells
        split["coupled"] += outcome.cells_executed - outcome.traces_captured
        split["captured"] += outcome.traces_captured
        split["replayed"] += outcome.cells_replayed
        split["cache_hits"] += outcome.cache_hits
    return split


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cold_cache(workdir: Path, cache_class=TimedCache):
    """An empty result cache, and an empty in-process warm cache.

    The measured cold pass runs first in a fresh process; a later cold pass
    clears the solver/trace warm cache so it starts from the same state.
    """
    from repro.sim.warmcache import warm_cache

    warm_cache().clear()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    return cache_dir, cache_class(cache_dir)


def _traced_passes(run, recorder, cold: PassResult, compare, workdir: Path) -> Dict:
    """A cold and a warm pass with every layer instrumented.

    The overhead is measured against ``cold``, the last untraced cold pass,
    made in the same process state (imports done, caches empty).
    """
    from repro.sim.warmcache import warm_snapshot

    tracer = Tracer()
    # A plain cache: the spans wrap ResultCache itself.
    cache_dir, cache = _cold_cache(workdir, ResultCache)
    warm_before = warm_snapshot()
    with instrument(tracer):
        traced = _one_pass(run, recorder, cache, tracer)
        traced_warm = _one_pass(run, recorder, cache, tracer)
    warm_after = warm_snapshot()
    compare(cold, traced, "traced cold pass")
    compare(cold, traced_warm, "traced warm pass")
    traced_bytes = _dir_bytes(cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "tracer": tracer,
        "wall_s": traced.wall_s + traced_warm.wall_s,
        "overhead_s": traced.wall_s - cold.wall_s,
        "cache_bytes": traced_bytes,
        "split": {k: traced.split[k] + traced_warm.split[k] for k in traced.split},
        "warm": {k: warm_after[k] - warm_before.get(k, 0) for k in warm_after},
    }


def run_local(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Dict:
    """Run one in-process workload; returns raw metrics and checks."""
    # The recorder goes in first: plans bind ``run_campaign`` when built.
    recorder = OutcomeRecorder()
    run = PLANS[workload](seed, seconds)
    checks: List[str] = []
    attempted = failed = 0

    def compare(reference: PassResult, other: PassResult, what: str) -> None:
        nonlocal attempted, failed
        attempted += len(reference.cell_digests)
        bad = sum(a != b for a, b in zip(reference.cell_digests, other.cell_digests))
        bad += abs(len(reference.cell_digests) - len(other.cell_digests))
        if bad:
            failed += bad
            checks.append(f"{what}: {bad} cell(s) differ from the cold pass")

    try:
        # Warm passes follow each cold pass, and host speed is sampled after
        # every pass, so all three are spread over the whole run.
        colds, warm = [], []
        host = facts.HostSpeed()
        for _ in range(COLD_PASSES):
            if colds:
                shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir, cache = _cold_cache(workdir)
            colds.append(_one_pass(run, recorder, cache))
            host.sample()
            for _ in range(WARM_PASSES[workload]):
                warm.append(_one_pass(run, recorder, cache))
                host.sample()
        cold = colds[0]
        attempted += len(cold.cell_digests)
        for index, again in enumerate(colds[1:]):
            compare(cold, again, f"cold pass {index + 2}")
        for index, again in enumerate(warm):
            compare(cold, again, f"warm pass {index + 1}")
        unscaled = {"campaign_s": fastest_units(colds), "warm_campaign_s": fastest_units(warm)}
        campaign_s = host.scale(unscaled["campaign_s"])
        report = {
            "campaign_s": campaign_s,
            "warm_campaign_s": host.scale(unscaled["warm_campaign_s"]),
            "unscaled_s": unscaled,
            "host_loop_s": host.loop_s,
            "task_seconds": [t for p in colds for t in p.task_seconds],
            "goodput_jobs_per_s": len(cold.cell_digests) / campaign_s,
            "path_split": {"cold": cold.split, "warm": warm[-1].split},
            "digest": cold.digest,
        }
        if workload == "paper_figures":
            report["paper_gap_pp"] = paper_gap_pp(cold.value)
        shutil.rmtree(cache_dir, ignore_errors=True)

        if trace:
            report["trace"] = _traced_passes(run, recorder, colds[-1], compare, workdir)
    finally:
        recorder.close()
    report.update(attempted=attempted, failed=failed, checks=checks)
    return report
