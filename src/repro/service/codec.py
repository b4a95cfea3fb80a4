"""JSON wire format for campaign specifications.

``POST /jobs`` accepts the same campaign description the ``repro-campaign
run`` command builds from its flags, as one JSON object::

    {
        "name": "sweep",                 # optional campaign name
        "configs": ["baseline"],         # preset names (default: baseline)
        "scale": "smoke",                # smoke | quick | full
        "benchmarks": ["gzip", "swim"],  # benchmark/scenario names;
                                         # "scenarios" expands the library
        "uops": 3000,                    # micro-ops per benchmark
        "seed": 1,
        "interval_cycles": null,         # explicit thermal interval
        "dtm_policies": ["none", "dvfs"],
        "cores": 1,
        "per_core_scenarios": [["thermal_virus", "idle_crawl"]],
        "replay_mode": "exact"           # exact | batched
    }

:func:`campaign_from_payload` builds the campaign and
:func:`options_from_payload` the job executor's
:class:`~repro.campaign.spec.ExecutionOptions` (the payload's
``replay_mode``).  Both validate eagerly — unknown presets,
benchmarks or policy specs raise ``ValueError``/``KeyError`` before any
simulation, which the HTTP layer maps to a 400 — and the CLI's ``submit``
verb builds exactly this payload from its flags (so a submission that
cannot reach the server can fall back to running the identical campaign
locally).  :func:`settings_from_payload` reuses the CLI's semantics: a
scenario-only benchmark list turns off the SPEC relative-length table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Tuple

from repro.campaign.spec import Campaign, ExecutionOptions, ExperimentSettings

_SCALES = ("smoke", "quick", "full")


def _benchmarks_from(names: Iterable[str]) -> Tuple[str, ...]:
    """Expand a benchmark list; ``"scenarios"`` means the whole library."""
    expanded = []
    for name in names:
        if name == "scenarios":
            from repro.scenarios import SCENARIO_NAMES

            expanded.extend(SCENARIO_NAMES)
        elif name:
            expanded.append(name)
    return tuple(expanded)


def settings_from_payload(payload: Dict) -> ExperimentSettings:
    """Build :class:`ExperimentSettings` from a campaign spec payload."""
    scale = payload.get("scale", "smoke")
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r} (expected one of {_SCALES})")
    settings = getattr(ExperimentSettings, scale)()
    changes: Dict[str, object] = {}
    if payload.get("benchmarks"):
        benchmarks = _benchmarks_from(payload["benchmarks"])
        changes["benchmarks"] = benchmarks
        from repro.workloads.profiles import SPEC2000_PROFILES

        if all(b not in SPEC2000_PROFILES for b in benchmarks):
            # Scenario sweeps run every workload at full length; the SPEC
            # relative-length table only applies to the paper's benchmarks.
            changes["honor_relative_length"] = False
    if payload.get("uops") is not None:
        changes["uops_per_benchmark"] = int(payload["uops"])
    if payload.get("seed") is not None:
        changes["seed"] = int(payload["seed"])
    if payload.get("interval_cycles") is not None:
        changes["interval_cycles"] = int(payload["interval_cycles"])
    if changes:
        settings = replace(settings, **changes)
    return settings


def campaign_from_payload(payload: Dict) -> Campaign:
    """Reconstruct a :class:`Campaign` from its JSON wire form.

    Raises ``ValueError``/``KeyError`` (the domain layer's own validation
    errors) for unknown presets, benchmarks, scenario mixes or policy
    specs; the server maps those to a 400 response.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"campaign spec must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {
        "name",
        "configs",
        "scale",
        "benchmarks",
        "uops",
        "seed",
        "interval_cycles",
        "dtm_policies",
        "cores",
        "per_core_scenarios",
        "replay_mode",
        "tenant",  # stripped by the server, tolerated here
    }
    if unknown:
        raise ValueError(f"unknown campaign spec field(s): {sorted(unknown)}")
    from repro.core.presets import FrontendOrganization, config_for

    names = payload.get("configs") or ["baseline"]
    if isinstance(names, str):
        names = [names]
    configs = [config_for(FrontendOrganization(name)) for name in names]
    settings = settings_from_payload(payload)
    mixes = tuple(tuple(mix) for mix in payload.get("per_core_scenarios") or ())
    cores = payload.get("cores")
    if cores is None:
        cores = max((len(mix) for mix in mixes), default=1)
    return Campaign(
        configs,
        settings,
        name=str(payload.get("name", "service")),
        dtm_policies=tuple(payload.get("dtm_policies") or ()),
        cores=int(cores),
        per_core_scenarios=mixes,
    )


def options_from_payload(payload: Dict) -> ExecutionOptions:
    """The execution options a campaign spec payload asks for."""
    return ExecutionOptions(replay_mode=str(payload.get("replay_mode") or "exact"))


def payload_from_options(
    configs: Optional[Iterable[str]] = None,
    scale: Optional[str] = None,
    benchmarks: Optional[Iterable[str]] = None,
    uops: Optional[int] = None,
    seed: Optional[int] = None,
    interval_cycles: Optional[int] = None,
    dtm_policies: Optional[Iterable[str]] = None,
    cores: Optional[int] = None,
    per_core_scenarios: Optional[Iterable] = None,
    name: Optional[str] = None,
    replay_mode: Optional[str] = None,
) -> Dict:
    """The wire payload for a set of CLI-style options (``None`` = omit)."""
    payload: Dict = {}
    if name is not None:
        payload["name"] = name
    if configs is not None:
        payload["configs"] = list(configs)
    if scale is not None:
        payload["scale"] = scale
    if benchmarks is not None:
        payload["benchmarks"] = list(benchmarks)
    if uops is not None:
        payload["uops"] = uops
    if seed is not None:
        payload["seed"] = seed
    if interval_cycles is not None:
        payload["interval_cycles"] = interval_cycles
    if dtm_policies:
        payload["dtm_policies"] = list(dtm_policies)
    if cores is not None:
        payload["cores"] = cores
    if per_core_scenarios:
        payload["per_core_scenarios"] = [list(mix) for mix in per_core_scenarios]
    if replay_mode is not None:
        payload["replay_mode"] = replay_mode
    return payload
