"""``repro-campaign`` — command-line front door of the campaign API.

Subcommands:

* ``list-presets`` — the named frontend organizations of the paper;
* ``list-benchmarks`` — the synthetic SPEC2000-like workloads;
* ``list-scenarios`` — the named workload scenarios (:mod:`repro.scenarios`);
* ``list-policies`` — the dynamic-thermal-management policies (:mod:`repro.dtm`);
* ``run`` — run a paper figure (``--figure fig01|fig12|fig13|fig14``), the
  DTM policy x scenario comparison (``--figure dtm``), the multi-core
  scaling sweep (``--figure multicore``) or an ad-hoc campaign
  (``--configs``/``--benchmarks``/``--dtm``), optionally in parallel
  (``--jobs N``) and with a result cache (``--cache-dir DIR``), printing the
  figure tables and/or writing a JSON summary (``--output FILE``).
  ``--cores N`` composes every configuration into an N-core chip
  (:mod:`repro.chip`); ``--per-core-scenarios "virus+idle;gzip+gzip"``
  names explicit per-core workload mixes (``+`` separates cores, ``;`` or
  ``,`` separates mixes), and ``--dtm`` then sweeps *chip-level* policies
  (``none``, ``core_migration``, ``chip_dvfs``).  ``--timing-mode
  auto|fast|reference`` selects the engine timing path (the native fast
  path is byte-identical to the per-uop golden reference wherever
  ``auto`` picks it) and ``--replay-mode exact|batched`` the physics
  replay path; both travel as the executor's ``ExecutionOptions``;
* ``cache`` — housekeeping for an on-disk result cache, which since the
  two-stage simulation core also holds activity-trace artifacts:
  ``cache stats --cache-dir DIR`` prints entry/byte counts by kind, and
  ``cache prune --cache-dir DIR --max-bytes N`` deletes the oldest entries
  until the directory fits the budget;
* ``floorplan`` — print the floorplan of a named preset;
* ``serve`` — run the campaign service (:mod:`repro.service`): an HTTP job
  server with a persistent worker pool and an optional shared sharded
  result cache (``--cache-dir``/``--cache-max-bytes`` turn on LRU budget
  enforcement via a background janitor).  Ctrl-C drains in-flight jobs
  and exits 130;
* ``submit`` — submit an ad-hoc campaign to a running service
  (``--server URL``) using the same axes flags as ``run``.  If the server
  is unreachable the campaign runs locally instead, with a warning;
  ``--wait`` polls the job to completion and ``--output`` writes its
  results payload;
* ``status`` — list a service's jobs, or show one job (``--job N``,
  ``--results`` embeds the results payload, ``--metrics`` prints server
  metrics);
* ``watch`` — follow one job's NDJSON progress event stream to stdout.

Benchmark lists accept scenario names everywhere (``--benchmarks
thermal_virus,gzip`` is a valid mix), and ``--benchmarks scenarios`` expands
to the whole scenario library.  ``--dtm`` adds a DTM policy axis to an
ad-hoc campaign: policies are separated by ``;`` or ``,`` — a bare
``key=value`` token continues the previous policy's parameter list, so
``none,dvfs:target=85`` parses as two policies.

Examples::

    repro-campaign run --figure fig12 --scale smoke --jobs 4
    repro-campaign run --figure dtm --jobs 4 --output dtm.json
    repro-campaign run --configs baseline --benchmarks scenarios \\
        --dtm "none;dvfs;fetch_throttle:trigger=80,duty=0.25" --uops 6000
    repro-campaign run --configs baseline,bank_hopping \\
        --benchmarks gzip,swim --uops 3000 --cache-dir /tmp/repro-cache \\
        --output summary.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.core import CampaignOutcome, run_campaign
from repro.campaign.executors import Executor, ExecutorTaskError, make_executor
from repro.campaign.spec import (
    Campaign,
    ExecutionOptions,
    ExperimentSettings,
    available_benchmarks,
)
from repro.campaign.summary import ConfigurationSummary
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable

#: Block groups included in JSON summaries (the groups the paper reports on).
SUMMARY_GROUPS = (
    "Processor",
    "Frontend",
    "Backend",
    "UL2",
    "ReorderBuffer",
    "RenameTable",
    "TraceCache",
)

_SCALES = {
    "smoke": ExperimentSettings.smoke,
    "quick": ExperimentSettings.quick,
    "full": ExperimentSettings.full,
}


def _benchmarks_from_arg(text: str) -> tuple:
    """Expand a ``--benchmarks`` value; ``scenarios`` means the whole library."""
    names = []
    for name in text.split(","):
        name = name.strip()
        if name == "scenarios":
            from repro.scenarios import SCENARIO_NAMES

            names.extend(SCENARIO_NAMES)
        elif name:
            names.append(name)
    return tuple(names)


def _mixes_from_arg(text: str) -> tuple:
    """Split a ``--per-core-scenarios`` value into per-core workload mixes.

    ``;`` and ``,`` separate mixes; ``+`` separates the cores within one
    mix, so ``"thermal_virus+idle_crawl;gzip+gzip"`` is two 2-core mixes.
    """
    mixes = []
    for piece in text.replace(";", ",").split(","):
        piece = piece.strip()
        if not piece:
            continue
        mix = tuple(name.strip() for name in piece.split("+") if name.strip())
        if not mix:
            raise ValueError(f"empty per-core scenario mix in {text!r}")
        mixes.append(mix)
    if not mixes:
        raise ValueError(f"no per-core scenario mixes in {text!r}")
    return tuple(mixes)


def _policies_from_arg(text: str) -> tuple:
    """Split a ``--dtm`` value into policy specs.

    ``;`` always separates policies.  A comma separates them too, except
    that a ``key=value`` token (no ``:``) continues the previous policy's
    parameter list — so both ``none,dvfs:target=85`` and
    ``fetch_throttle:trigger=80,duty=0.25,none`` parse as intended.
    """
    policies = []
    for piece in text.split(";"):
        current = []
        for token in piece.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token and ":" not in token:
                # A bare key=value continues the previous spec's parameters
                # (":" opens the parameter list, "," extends it) — but only
                # within one ";"-delimited piece, since ";" always starts a
                # new policy.
                if not current:
                    raise ValueError(
                        f"misplaced DTM policy parameter {token!r} in "
                        f"{text!r}: a key=value token must follow the "
                        "policy it parameterizes"
                    )
                joiner = "," if ":" in current[-1] else ":"
                current[-1] = f"{current[-1]}{joiner}{token}"
            else:
                current.append(token)
        policies.extend(current)
    return tuple(policies)


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    settings = _SCALES[args.scale or "smoke"]()
    changes: Dict[str, object] = {}
    if args.benchmarks:
        changes["benchmarks"] = _benchmarks_from_arg(args.benchmarks)
        # Scenario sweeps run every workload at full length; the SPEC
        # relative-length table only applies to the paper's benchmarks.
        if all(b not in _spec_names() for b in changes["benchmarks"]):
            changes["honor_relative_length"] = False
    if args.uops is not None:
        changes["uops_per_benchmark"] = args.uops
    if args.seed is not None:
        changes["seed"] = args.seed
    if changes:
        from dataclasses import replace

        settings = replace(settings, **changes)
    return settings


def _spec_names() -> tuple:
    from repro.workloads.profiles import SPEC2000_PROFILES

    return tuple(SPEC2000_PROFILES)


def _summary_payload(summary: ConfigurationSummary) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "benchmarks": sorted(summary.results),
        "mean_ipc": summary.mean_ipc(),
        "mean_power_watts": summary.mean_power(),
        "mean_trace_cache_hit_rate": summary.mean_trace_cache_hit_rate(),
        "temperature_metrics": {
            group: summary.mean_metrics(group) for group in SUMMARY_GROUPS
        },
    }
    if any(r.dtm for r in summary.results.values()):
        payload["dtm"] = {
            "mean_throttle_ratio": summary.mean_dtm("throttle_ratio"),
            "mean_gated_intervals": summary.mean_dtm("gated_intervals"),
            "mean_freq_ratio": summary.mean_dtm("mean_freq_ratio", default=1.0),
        }
    return payload


def _outcome_payload(outcome: CampaignOutcome) -> Dict[str, object]:
    return {
        "campaign": outcome.campaign.name,
        "total_cells": outcome.total_cells,
        "cells_executed": outcome.cells_executed,
        "cache_hits": outcome.cache_hits,
        "executor": outcome.executor_description,
        "runtime": outcome.runtime,
        "configurations": {
            name: _summary_payload(summary)
            for name, summary in outcome.summaries.items()
        },
    }


def _write_output(payload: Dict[str, object], output: Optional[str]) -> None:
    if output is None:
        return
    from pathlib import Path

    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[summary written to {path}]")


def _cmd_list_presets(_args: argparse.Namespace) -> int:
    from repro.core.presets import FrontendOrganization, config_for

    for organization in FrontendOrganization:
        config = config_for(organization)
        tc = config.frontend.trace_cache
        traits = []
        if config.frontend.num_frontends > 1:
            traits.append(f"{config.frontend.num_frontends} frontends")
        if tc.bank_hopping:
            traits.append("bank hopping")
        if tc.thermal_aware_mapping:
            traits.append("biased mapping")
        if tc.blank_silicon:
            traits.append("blank silicon")
        detail = ", ".join(traits) if traits else "paper baseline (Table 1)"
        print(f"{organization.value:<22} {detail}")
    return 0


def _cmd_list_benchmarks(_args: argparse.Namespace) -> int:
    from repro.workloads.profiles import get_profile

    for name in available_benchmarks():
        profile = get_profile(name)
        print(f"{name:<10} {profile.suite}")
    return 0


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS

    for scenario in SCENARIOS.values():
        print(f"{scenario.name:<22} {scenario.title}")
        print(f"{'':<22} stresses: {scenario.stresses}")
    return 0


def _cmd_list_policies(_args: argparse.Namespace) -> int:
    import inspect

    from repro.chip import CHIP_POLICIES
    from repro.dtm import POLICIES

    def show(registry) -> None:
        for name, factory in registry.items():
            defaults = ", ".join(
                f"{p.name}={p.default:g}"
                for p in inspect.signature(factory).parameters.values()
                if isinstance(p.default, (int, float)) and not isinstance(p.default, bool)
            )
            summary = ((inspect.getdoc(factory) or "").splitlines() or [""])[0]
            print(f"{name:<16} {summary}")
            if defaults:
                print(f"{'':<16} defaults: {defaults}")

    show(POLICIES)
    print()
    print("chip-level policies (--cores > 1):")
    show(CHIP_POLICIES)
    return 0


def _format_bytes(count: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{count} B"
        count /= 1024
    return f"{count} B"  # pragma: no cover - unreachable


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache directory: {cache.directory}")
        print(
            f"  results: {stats['results']} entries, "
            f"{_format_bytes(stats['result_bytes'])}"
        )
        print(
            f"  traces : {stats['traces']} artifacts, "
            f"{_format_bytes(stats['trace_bytes'])}"
        )
        print(f"  total  : {_format_bytes(stats['total_bytes'])}")
        return 0
    # prune
    if args.max_bytes is None:
        raise ValueError("cache prune requires --max-bytes")
    report = cache.prune(args.max_bytes)
    print(
        f"pruned {report['removed']} entries "
        f"({_format_bytes(report['removed_bytes'])}); "
        f"{_format_bytes(report['remaining_bytes'])} remain"
    )
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.experiments.floorplans import floorplan_report_for

    print(floorplan_report_for(args.preset).format_table())
    return 0


def _run_dtm_figure(
    args: argparse.Namespace,
    executor: Executor,
    cache: Optional[ResultCache],
) -> int:
    """``--figure dtm``: the policy x scenario comparison sweep."""
    from repro.experiments.fig_dtm_comparison import (
        DEFAULT_POLICIES,
        dtm_settings,
        run_dtm_comparison,
    )

    if args.scale is not None:
        raise ValueError(
            "--scale does not apply to --figure dtm (the sweep has its own "
            "scenario scale); use --benchmarks/--uops/--seed to adjust it"
        )
    config = None
    if args.configs:
        from repro.core.presets import FrontendOrganization, config_for

        names = args.configs.split(",")
        if len(names) != 1:
            raise ValueError(
                "--figure dtm compares policies on one configuration; give "
                f"a single --configs preset (got {names})"
            )
        config = config_for(FrontendOrganization(names[0]))
    settings = dtm_settings(
        scenarios=_benchmarks_from_arg(args.benchmarks) if args.benchmarks else None,
        uops_per_scenario=args.uops if args.uops is not None else 8_000,
        seed=args.seed if args.seed is not None else 7,
    )
    policies = _policies_from_arg(args.dtm) if args.dtm else DEFAULT_POLICIES
    result = run_dtm_comparison(
        settings, policies=policies, config=config, executor=executor, cache=cache
    )
    print(result.format_table())
    payload: Dict[str, object] = {
        "figure": "dtm",
        "config": result.config_name,
        "performance_loss_vs_peak_temp": result.performance_loss_vs_peak_temp(),
        "policies": {
            policy: _summary_payload(summary)
            for policy, summary in result.summaries.items()
        },
    }
    _write_output(payload, args.output)
    return 0


def _run_figure(
    figure: str,
    settings: ExperimentSettings,
    executor: Executor,
    cache: Optional[ResultCache],
    output: Optional[str],
) -> int:
    from repro.experiments import run_fig01, run_fig12, run_fig13, run_fig14

    drivers = {
        "fig01": run_fig01,
        "fig12": run_fig12,
        "fig13": run_fig13,
        "fig14": run_fig14,
    }
    result = drivers[figure](settings, executor=executor, cache=cache)
    print(result.format_table())
    # The figure results expose their ConfigurationSummary objects under
    # slightly different attributes; collect whichever are present.
    collected: Dict[str, ConfigurationSummary] = {}
    for attribute in ("baseline", "distributed", "summary"):
        summary = getattr(result, attribute, None)
        if summary is not None:
            collected[summary.config_name] = summary
    for summary in (getattr(result, "summaries", None) or {}).values():
        collected[summary.config_name] = summary
    payload: Dict[str, object] = {
        "figure": figure,
        "configurations": {
            name: _summary_payload(summary) for name, summary in collected.items()
        },
    }
    _write_output(payload, output)
    return 0


def _run_multicore_figure(
    args: argparse.Namespace,
    executor: Executor,
    cache: Optional[ResultCache],
) -> int:
    """``--figure multicore``: the core-count x mix scaling sweep."""
    from repro.experiments.fig_multicore_scaling import run_multicore_scaling

    config = None
    if args.configs:
        from repro.core.presets import FrontendOrganization, config_for

        names = args.configs.split(",")
        if len(names) != 1:
            raise ValueError(
                "--figure multicore scales one configuration across core "
                f"counts; give a single --configs preset (got {names})"
            )
        config = config_for(FrontendOrganization(names[0]))
    kwargs = {}
    if args.cores is not None:
        # Scale 1 -> N in powers of two (always anchored at the 1-core run,
        # which is bit-identical to the single-core engine).
        counts = [1]
        while counts[-1] * 2 <= args.cores:
            counts.append(counts[-1] * 2)
        if counts[-1] != args.cores:
            counts.append(args.cores)
        kwargs["core_counts"] = tuple(counts)
    result = run_multicore_scaling(
        config=config,
        uops_per_thread=args.uops if args.uops is not None else 2_500,
        seed=args.seed if args.seed is not None else 7,
        executor=executor,
        cache=cache,
        **kwargs,
    )
    print(result.format_table())
    payload: Dict[str, object] = {
        "figure": "multicore",
        "config": result.config_name,
        "rows": result.rows(),
    }
    _write_output(payload, args.output)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.figure and args.figure not in ("dtm",) and args.dtm:
        raise ValueError(
            f"--dtm does not apply to --figure {args.figure}; the paper "
            "figures simulate without DTM (use --figure dtm or an ad-hoc "
            "--configs campaign to sweep policies)"
        )
    if args.figure and args.per_core_scenarios:
        raise ValueError(
            f"--per-core-scenarios does not apply to --figure {args.figure}; "
            "use an ad-hoc --configs campaign for explicit workload mixes"
        )
    if args.figure and args.figure != "multicore" and args.cores is not None:
        raise ValueError(
            f"--cores does not apply to --figure {args.figure}; the paper "
            "figures are single-core (use --figure multicore or an ad-hoc "
            "--configs campaign for chip runs)"
        )
    if args.cores is not None and args.cores < 1:
        raise ValueError("--cores must be at least 1")
    options = ExecutionOptions(args.timing_mode, args.replay_mode)
    with make_executor(args.jobs, options) as executor:
        return _run(args, executor)


def _run(args: argparse.Namespace, executor: Executor) -> int:
    """The body of ``run``, on an executor carrying the execution modes."""
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    try:
        if args.figure == "dtm":
            status = _run_dtm_figure(args, executor, cache)
        elif args.figure == "multicore":
            status = _run_multicore_figure(args, executor, cache)
        elif args.figure:
            settings = _settings_from_args(args)
            status = _run_figure(args.figure, settings, executor, cache, args.output)
        else:
            from repro.core.presets import FrontendOrganization, config_for

            settings = _settings_from_args(args)
            names = args.configs.split(",") if args.configs else ["baseline"]
            configs = [config_for(FrontendOrganization(name)) for name in names]
            policies = _policies_from_arg(args.dtm) if args.dtm else ()
            mixes = (
                _mixes_from_arg(args.per_core_scenarios)
                if args.per_core_scenarios
                else ()
            )
            cores = args.cores if args.cores is not None else (
                max(len(mix) for mix in mixes) if mixes else 1
            )
            campaign = Campaign(
                configs,
                settings,
                name="cli",
                dtm_policies=policies,
                cores=cores,
                per_core_scenarios=mixes,
                contention=args.contention,
            )
            outcome = run_campaign(campaign, executor, cache)
            from repro.experiments.reporting import format_campaign_outcome

            print(format_campaign_outcome(outcome))
            _write_output(_outcome_payload(outcome), args.output)
            status = 0
    except KeyboardInterrupt:
        # Leaving the executor's ``with`` block in _cmd_run discards its
        # queued tasks and waits for the in-flight ones.
        print(
            f"repro-campaign: interrupted after {executor.cells_executed} "
            "simulated cell(s)"
            + ("; completed cells are in the cache" if cache is not None else ""),
            file=sys.stderr,
        )
        return 130
    if cache is not None:
        print(f"[cache] {cache!r}")
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the HTTP campaign service until interrupted."""
    from repro.service import (
        CampaignService,
        ShardedResultCache,
        WorkerPool,
        create_server,
    )

    cache = None
    if args.cache_dir:
        cache = ShardedResultCache(
            args.cache_dir,
            shards=args.cache_shards,
            max_bytes=args.cache_max_bytes,
        )
        if args.cache_max_bytes is not None:
            cache.start_janitor(args.janitor_interval)
    workers = args.workers if args.workers else (os.cpu_count() or 2)
    pool = WorkerPool(
        workers=workers,
        mode=args.worker_mode,
        task_timeout=args.task_timeout,
        retries=args.retries,
        keepalive=args.worker_keepalive,
    )
    service = CampaignService(
        pool=pool, cache=cache, max_concurrent_jobs=args.max_jobs
    )
    server = create_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    print(f"repro-campaign service listening on {server.address}")
    worker_kind = args.worker_mode
    if args.worker_mode == "process":
        worker_kind += (
            " (persistent, warm caches)" if pool.keepalive else " (fork-per-task)"
        )
    print(
        f"  {workers} {worker_kind} worker(s), "
        f"{args.max_jobs} concurrent job slot(s), "
        + (
            f"cache at {cache.directory}"
            if cache is not None  # an EMPTY cache is falsy (len == 0)
            else "no result cache"
        )
    )
    sys.stdout.flush()
    import signal

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    # SIGTERM (plain `kill`, container stop) drains like Ctrl-C.  SIGINT
    # alone would not be enough: processes backgrounded by non-interactive
    # shells start with SIGINT ignored, and Python leaves it ignored.
    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            "repro-campaign: interrupt — draining in-flight jobs ...",
            file=sys.stderr,
        )
        # serve_forever already exited via the interrupt; just release the
        # socket (server.shutdown() would wait on the serve loop).
        server.server_close()
        service.shutdown(drain=True, timeout=args.drain_timeout)
        counts = service.store.counts()
        print(
            f"repro-campaign: drained {counts['total']} job(s): "
            f"{counts['done']} done, {counts['failed']} failed, "
            f"{counts['cancelled']} cancelled",
            file=sys.stderr,
        )
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    return 0  # pragma: no cover - serve_forever only exits via interrupt


def _cmd_submit(args: argparse.Namespace) -> int:
    """``submit``: send a campaign to a service, or run locally if down."""
    from repro.service.codec import (
        campaign_from_payload,
        options_from_payload,
        payload_from_options,
    )

    payload = payload_from_options(
        configs=args.configs.split(",") if args.configs else None,
        scale=args.scale,
        benchmarks=list(_benchmarks_from_arg(args.benchmarks))
        if args.benchmarks
        else None,
        uops=args.uops,
        seed=args.seed,
        dtm_policies=_policies_from_arg(args.dtm) if args.dtm else None,
        cores=args.cores,
        per_core_scenarios=_mixes_from_arg(args.per_core_scenarios)
        if args.per_core_scenarios
        else None,
        name=args.name,
    )
    # Validate locally before going near the network: unknown presets or
    # benchmarks fail fast with the domain error (exit 2), and a validated
    # payload is what the local fallback runs.
    campaign = campaign_from_payload(payload)
    if args.tenant != "default":
        payload["tenant"] = args.tenant
    client = ServiceClient(args.server)
    try:
        job = client.submit(payload)
    except (ServiceUnavailable, ServiceError) as error:
        if isinstance(error, ServiceError):
            # 4xx means the submission itself was rejected (bad spec,
            # shutting down with a reason the operator should read) —
            # surface it.  A 5xx is the server failing, not the campaign:
            # fall back like an unreachable server.
            if error.status < 500:
                raise
            reason = f"server error: HTTP {error.status}"
        else:
            reason = error.reason
        print(f"repro-campaign: warning: {error}", file=sys.stderr)
        print(
            f"repro-campaign: falling back to local execution ({reason})",
            file=sys.stderr,
        )
        with make_executor(args.jobs, options_from_payload(payload)) as executor:
            outcome = run_campaign(campaign, executor)
        print(outcome.describe())
        _write_output(_outcome_payload(outcome), args.output)
        return 0
    print(
        f"job {job['id']} {job['state']} on {args.server} "
        f"({job['cells_total']} cells)"
    )
    if not (args.wait or args.output):
        return 0
    final = client.wait(job["id"], timeout=args.timeout)
    line = f"job {final['id']} {final['state']}"
    if final.get("description"):
        line += f": {final['description']}"
    print(line)
    if final.get("error"):
        print(f"repro-campaign: job error: {final['error']}", file=sys.stderr)
    _write_output(final, args.output)
    return 0 if final["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    """``status``: list a service's jobs, or show one job / the metrics."""
    client = ServiceClient(args.server)
    if args.metrics:
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    if args.job is None:
        jobs = client.jobs()
        if not jobs:
            print("no jobs submitted")
            return 0
        for job in jobs:
            line = (
                f"#{job['id']:<4} {job['state']:<10} "
                f"{job['campaign']:<16} "
                f"{job['cells_done']}/{job['cells_total']} cells"
            )
            if job.get("error"):
                line += f"  [{job['error']}]"
            print(line)
        return 0
    print(
        json.dumps(
            client.job(args.job, results=args.results), indent=2, sort_keys=True
        )
    )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``watch``: follow one job's NDJSON progress stream to stdout."""
    client = ServiceClient(args.server, timeout=args.timeout)
    state = None
    for event in client.events(args.job, since=args.since):
        if event.get("event") == "heartbeat":
            continue
        print(json.dumps(event, sort_keys=True))
        sys.stdout.flush()
        if event.get("event") == "state":
            state = event.get("state")
    return 0 if state in (None, "done") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run experiment campaigns of the HPCA 2005 distributed-"
        "frontend reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="list the named processor configurations")
    sub.add_parser("list-benchmarks", help="list the synthetic SPEC2000 workloads")
    sub.add_parser("list-scenarios", help="list the named workload scenarios")
    sub.add_parser("list-policies", help="list the DTM policies and their defaults")

    floorplan = sub.add_parser("floorplan", help="print the floorplan of a preset")
    floorplan.add_argument("preset", help="preset name, e.g. baseline")

    cache = sub.add_parser(
        "cache", help="inspect or prune an on-disk result/trace cache"
    )
    cache.add_argument(
        "action", choices=("stats", "prune"), help="what to do with the cache"
    )
    cache.add_argument(
        "--cache-dir", required=True, help="directory of the on-disk result cache"
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        help="prune: delete oldest entries until the cache fits this budget",
    )

    run = sub.add_parser("run", help="run a figure or an ad-hoc campaign")
    run.add_argument(
        "--figure",
        choices=("fig01", "fig12", "fig13", "fig14", "dtm", "multicore"),
        help="regenerate one paper figure (or the DTM policy x scenario "
        "comparison, or the multi-core scaling sweep) instead of an ad-hoc "
        "campaign",
    )
    run.add_argument(
        "--cores",
        type=int,
        help="compose each configuration into an N-core chip (repro.chip); "
        "defaults to the widest --per-core-scenarios mix, else 1.  With "
        "--figure multicore, sets the largest core count of the scaling "
        "sweep (1..N in powers of two)",
    )
    run.add_argument(
        "--per-core-scenarios",
        help="explicit per-core workload mixes for a chip campaign: '+' "
        "separates cores, ';' or ',' separates mixes "
        "(e.g. \"thermal_virus+idle_crawl;gzip+gzip\")",
    )
    run.add_argument(
        "--contention",
        default=None,
        help="shared-LLC contention model for chip campaigns: 'none' "
        "(default) or a repro.chip.make_contention spec such as "
        "'shared_llc' or 'shared_llc:service=64,max_extra=300'",
    )
    run.add_argument(
        "--configs",
        help="comma-separated preset names (default: baseline)",
    )
    run.add_argument(
        "--dtm",
        help="DTM policy axis: policy specs separated by ';' or ',' (a "
        "key=value token continues the previous policy's parameters, so "
        "\"none,dvfs:target=85\" and \"fetch_throttle:trigger=80,duty=0.25;none\" "
        "both work)",
    )
    run.add_argument(
        "--scale",
        choices=tuple(_SCALES),
        default=None,
        help="experiment scale (default: smoke; not applicable to --figure dtm)",
    )
    run.add_argument(
        "--benchmarks",
        help="comma-separated benchmark/scenario override "
        "('scenarios' expands to the whole scenario library)",
    )
    run.add_argument("--uops", type=int, help="micro-ops per benchmark override")
    run.add_argument("--seed", type=int, help="trace-generation seed override")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = all cores)",
    )
    run.add_argument("--cache-dir", help="directory of the on-disk result cache")
    run.add_argument("--output", help="write a JSON summary to this file")
    run.add_argument(
        "--timing-mode",
        choices=("auto", "fast", "reference"),
        default="auto",
        help="engine timing path: 'auto' (default) takes the native fast "
        "path, byte-identical to the per-uop reference, wherever it can "
        "run (closed-loop cells included) and falls back to the reference "
        "otherwise, 'reference' forces the golden per-uop loop, 'fast' "
        "demands the fast path and errors where it cannot run",
    )
    run.add_argument(
        "--replay-mode",
        choices=("exact", "batched"),
        default="exact",
        help="physics-sweep replay path: 'exact' (default) replays each "
        "cell alone, bit-identical to the coupled run; 'batched' advances "
        "whole thermally-identical sub-groups per interval in one "
        "multi-RHS solve (matches exact within rtol/atol 1e-8)",
    )

    serve = sub.add_parser(
        "serve", help="run the HTTP campaign service (repro.service)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8737, help="bind port (0 = pick a free one)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker pool size (0 = all cores)",
    )
    serve.add_argument(
        "--worker-mode",
        choices=("thread", "process"),
        default="process",
        help="run cells inline in worker threads, or in crash-contained "
        "subprocesses with timeout/retry (default: process)",
    )
    serve.add_argument(
        "--task-timeout",
        type=float,
        help="kill a cell that runs longer than this many seconds "
        "(process mode only)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for tasks whose worker process died (default: 1)",
    )
    serve.add_argument(
        "--worker-keepalive",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="process mode: keep worker processes alive across tasks so "
        "warm solver/trace caches persist (default); "
        "--no-worker-keepalive forks a fresh child per task for maximal "
        "crash isolation",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=4,
        help="jobs allowed to run concurrently; the rest queue as pending",
    )
    serve.add_argument(
        "--cache-dir", help="directory of the shared sharded result cache"
    )
    serve.add_argument(
        "--cache-shards",
        type=int,
        default=16,
        help="shard directories under --cache-dir (default: 16)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        help="LRU byte budget enforced by the background janitor",
    )
    serve.add_argument(
        "--janitor-interval",
        type=float,
        default=30.0,
        help="seconds between janitor budget-enforcement passes",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="bound on waiting for in-flight jobs at shutdown",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log HTTP requests to stderr"
    )

    submit = sub.add_parser(
        "submit",
        help="submit an ad-hoc campaign to a running service "
        "(falls back to a local run if unreachable)",
    )
    submit.add_argument(
        "--server",
        default="http://127.0.0.1:8737",
        help="base URL of the campaign service",
    )
    submit.add_argument("--tenant", default="default", help="cache tenant name")
    submit.add_argument("--name", help="campaign name (default: service)")
    submit.add_argument(
        "--configs", help="comma-separated preset names (default: baseline)"
    )
    submit.add_argument(
        "--scale", choices=tuple(_SCALES), help="experiment scale"
    )
    submit.add_argument(
        "--benchmarks",
        help="comma-separated benchmark/scenario override "
        "('scenarios' expands to the whole scenario library)",
    )
    submit.add_argument("--uops", type=int, help="micro-ops per benchmark")
    submit.add_argument("--seed", type=int, help="trace-generation seed")
    submit.add_argument(
        "--dtm", help="DTM policy axis (same syntax as 'run --dtm')"
    )
    submit.add_argument(
        "--cores", type=int, help="compose an N-core chip campaign"
    )
    submit.add_argument(
        "--per-core-scenarios",
        help="explicit per-core workload mixes (same syntax as 'run')",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the job to completion before exiting",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling deadline in seconds",
    )
    submit.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="local-fallback worker processes (1 = serial, 0 = all cores)",
    )
    submit.add_argument(
        "--output",
        help="write the finished job's payload (implies --wait) or, on "
        "local fallback, the campaign summary, to this file",
    )

    status = sub.add_parser(
        "status", help="list a service's jobs, or show one job"
    )
    status.add_argument(
        "--server",
        default="http://127.0.0.1:8737",
        help="base URL of the campaign service",
    )
    status.add_argument("--job", type=int, help="show this job id only")
    status.add_argument(
        "--results",
        action="store_true",
        help="embed the full results payload (with --job)",
    )
    status.add_argument(
        "--metrics", action="store_true", help="print server metrics instead"
    )

    watch = sub.add_parser(
        "watch", help="follow one job's NDJSON progress event stream"
    )
    watch.add_argument(
        "--server",
        default="http://127.0.0.1:8737",
        help="base URL of the campaign service",
    )
    watch.add_argument("--job", type=int, required=True, help="job id to follow")
    watch.add_argument(
        "--since", type=int, default=0, help="replay events from this sequence"
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="socket timeout for the event stream",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "list-presets": _cmd_list_presets,
        "list-benchmarks": _cmd_list_benchmarks,
        "list-scenarios": _cmd_list_scenarios,
        "list-policies": _cmd_list_policies,
        "floorplan": _cmd_floorplan,
        "cache": _cmd_cache,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
    }
    try:
        try:
            return commands[args.command](args)
        except ExecutorTaskError as error:
            # A domain error raised by a cell in a worker process (--jobs N)
            # reports exactly as it does on the serial path.
            if isinstance(error.__cause__, (ValueError, KeyError)):
                raise error.__cause__ from None
            raise
    except (ValueError, KeyError) as error:
        # Unknown preset/benchmark names and invalid settings raise from the
        # domain layer with self-explanatory messages; present them as CLI
        # errors rather than tracebacks.
        message = error.args[0] if error.args else error
        print(f"repro-campaign: error: {message}", file=sys.stderr)
        return 2
    except ExecutorTaskError as error:
        # Any other task failure in a worker process: the message carries
        # the worker's traceback, or names the cell whose worker died.
        print(f"repro-campaign: error: {error}", file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"repro-campaign: service error: {error}", file=sys.stderr)
        return 1
    except ServiceUnavailable as error:
        # submit has its own local fallback; status/watch just report it.
        print(f"repro-campaign: error: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # run and serve drain and report on their own; this covers the
        # remaining verbs (watch, submit --wait, ...).
        print("repro-campaign: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
