"""JSON wire format for campaign specifications.

``POST /jobs`` accepts the same campaign description the ``repro-campaign
run`` command builds from its axis flags, as one JSON object::

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
        "contention": "shared_llc",      # chip campaigns: shared-LLC model
        "replay_mode": "exact"           # exact | batched
    }

:func:`payload_from_options` builds it from CLI-style options,
:func:`campaign_from_payload` turns it into a campaign and
:func:`options_from_payload` into the job executor's
:class:`~repro.campaign.spec.ExecutionOptions` (the payload's
``replay_mode``).  Both validate eagerly — unknown presets, benchmarks,
policy or contention specs, and fields of the wrong JSON type (a number
where a list of names belongs, say) raise ``ValueError``/``KeyError``
before any simulation, which the HTTP layer maps to a 400.  The CLI builds every
campaign through this codec: ``run`` for an ad-hoc grid, ``submit`` for
the wire (so a submission that cannot reach the server can fall back to
running the identical campaign locally), and each figure of
:data:`repro.experiments.FIGURES` reads the same payload.
:func:`settings_from_payload` keeps the CLI's semantics: a scenario-only
benchmark list turns off the SPEC relative-length table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Tuple

from repro.campaign.spec import Campaign, ExecutionOptions, ExperimentSettings

SCALES = ("smoke", "quick", "full")

#: The campaign spec fields, in wire order.
FIELDS = (
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
    "contention",
    "replay_mode",
)


def benchmarks_from(names: Iterable[str]) -> Tuple[str, ...]:
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
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (expected one of {SCALES})")
    settings = getattr(ExperimentSettings, scale)()
    changes: Dict[str, object] = {}
    if payload.get("benchmarks"):
        benchmarks = benchmarks_from(_names(payload["benchmarks"], "benchmarks"))
        changes["benchmarks"] = benchmarks
        from repro.workloads.profiles import SPEC2000_PROFILES

        if all(b not in SPEC2000_PROFILES for b in benchmarks):
            # Scenario sweeps run every workload at full length; the SPEC
            # relative-length table only applies to the paper's benchmarks.
            changes["honor_relative_length"] = False
    for field, setting in (
        ("uops", "uops_per_benchmark"),
        ("seed", "seed"),
        ("interval_cycles", "interval_cycles"),
    ):
        if payload.get(field) is not None:
            changes[setting] = _integer(payload[field], field)
    if changes:
        settings = replace(settings, **changes)
    return settings


def _list(value, field: str) -> list:
    """A list-valued wire field (``None`` is empty); ``ValueError`` otherwise."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(
            f"campaign spec field {field!r} must be a JSON list, "
            f"got {type(value).__name__}"
        )
    return value


def _names(value, field: str) -> Tuple[str, ...]:
    """A wire list of names; ``ValueError`` for any other JSON type."""
    names = _list(value, field)
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"campaign spec field {field!r} must list names (strings)")
    return tuple(names)


def _integer(value, field: str) -> int:
    """An integer wire field (numeric strings too, as the CLI passes them).

    A boolean or a number with a fractional part is refused, not truncated:
    ``true`` is not seed 1 and ``1500.9`` is not 1500 uops.
    """
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"campaign spec field {field!r} must be an integer, got {value!r}"
        ) from None


def campaign_from_payload(payload: Dict) -> Campaign:
    """Reconstruct a :class:`Campaign` from its JSON wire form.

    Raises ``ValueError``/``KeyError`` (the domain layer's own validation
    errors) for unknown presets, benchmarks, scenario mixes, policy or
    contention specs, and ``ValueError`` for a field of the wrong JSON
    type; the server maps those to a 400 response.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"campaign spec must be a JSON object, got {type(payload).__name__}")
    # "tenant" is stripped by the server and tolerated here.
    unknown = set(payload) - set(FIELDS) - {"tenant"}
    if unknown:
        raise ValueError(f"unknown campaign spec field(s): {sorted(unknown)}")
    from repro.core.presets import FrontendOrganization, config_for

    names = payload.get("configs") or ["baseline"]
    if isinstance(names, str):
        names = [names]
    configs = [config_for(FrontendOrganization(name)) for name in _names(names, "configs")]
    settings = settings_from_payload(payload)
    mixes = tuple(
        _names(mix, "per_core_scenarios")
        for mix in _list(payload.get("per_core_scenarios"), "per_core_scenarios")
    )
    cores = payload.get("cores")
    if cores is None:
        cores = max((len(mix) for mix in mixes), default=1)
    contention = payload.get("contention")
    return Campaign(
        configs,
        settings,
        name=str(payload.get("name", "service")),
        dtm_policies=_names(payload.get("dtm_policies"), "dtm_policies"),
        cores=_integer(cores, "cores"),
        per_core_scenarios=mixes,
        contention=None if contention is None else str(contention),
    )


def options_from_payload(payload: Dict) -> ExecutionOptions:
    """The execution options a campaign spec payload asks for."""
    return ExecutionOptions(replay_mode=str(payload.get("replay_mode") or "exact"))


def payload_from_options(**options) -> Dict:
    """The wire payload for CLI-style options named by their spec fields.

    ``None`` values and empty policy or mix axes are omitted; sequences
    become JSON lists.
    """
    unknown = set(options) - set(FIELDS)
    if unknown:
        raise TypeError(f"unknown campaign spec option(s): {sorted(unknown)}")
    payload: Dict = {}
    for field in FIELDS:
        value = options.get(field)
        if value is None or (field in ("dtm_policies", "per_core_scenarios") and not value):
            continue
        if field == "per_core_scenarios":
            value = [list(mix) for mix in value]
        elif field in ("configs", "benchmarks", "dtm_policies"):
            value = list(value)
        payload[field] = value
    return payload
