"""Tables, JSON payloads and the figure declaration of the experiment drivers.

Each figure module declares one :class:`Figure`; :data:`repro.experiments.FIGURES`
collects them for ``repro-campaign run --figure``.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple


class Figure(NamedTuple):
    """One figure of ``repro-campaign run --figure NAME``.

    ``flags`` names the ``run`` axis flags the figure reads (their argparse
    destinations); every other axis flag is a usage error.  ``run(payload,
    executor, cache)`` runs the figure from a campaign payload (the dict
    :func:`repro.service.codec.payload_from_options` builds) and returns a
    result with ``format_table()`` and ``payload()``.
    """

    name: str
    flags: Tuple[str, ...]
    run: Callable


def settings_figure(name: str, driver: Callable) -> Figure:
    """A paper figure: ``driver(settings, executor, cache)`` over the
    payload's :func:`~repro.service.codec.settings_from_payload`."""

    def run(payload, executor, cache):
        from repro.service.codec import settings_from_payload

        return driver(settings_from_payload(payload), executor, cache)

    return Figure(name, ("scale", "benchmarks", "uops", "seed"), run)


def single_config(payload: Mapping, figure: str):
    """The one preset ``payload["configs"]`` names, or ``None`` for the
    figure's default configuration."""
    names = payload.get("configs") or []
    if len(names) > 1:
        raise ValueError(
            f"--figure {figure} runs one configuration; give a single "
            f"--configs preset (got {names})"
        )
    if not names:
        return None
    from repro.core.presets import FrontendOrganization, config_for

    return config_for(FrontendOrganization(names[0]))


def configurations_payload(*summaries) -> Dict[str, object]:
    """JSON payload of configuration summaries, keyed by configuration."""
    return {
        "configurations": {
            summary.config_name: summary.payload() for summary in summaries
        }
    }


def format_percentage_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    paper_reference: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """Format a table of fractional values as percentages.

    ``rows`` maps a row label (e.g. ``"ReorderBuffer"``) to a mapping of
    column name to fraction (0.32 renders as ``32.0%``).  When a
    ``paper_reference`` is given, the paper's value is printed next to the
    measured one so the reproduction gap is visible at a glance.
    """
    header = f"{'':<28}" + "".join(f"{column:>18}" for column in columns)
    lines = [title, header, "-" * len(header)]
    for row_label, row in rows.items():
        cells = []
        for column in columns:
            measured = row.get(column)
            cell = "-" if measured is None else f"{measured * 100:.1f}%"
            if paper_reference and column in paper_reference.get(row_label, {}):
                cell += f" (paper {paper_reference[row_label][column] * 100:.0f}%)"
            cells.append(f"{cell:>18}")
        lines.append(f"{row_label:<28}" + "".join(cells))
    return "\n".join(lines)


def format_value_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    unit: str = "",
    precision: int = 1,
) -> str:
    """Format a table of raw values (temperatures, watts, ...)."""
    header = f"{'':<28}" + "".join(f"{column:>14}" for column in columns)
    lines = [title, header, "-" * len(header)]
    for row_label, row in rows.items():
        cells = []
        for column in columns:
            value = row.get(column)
            cell = "-" if value is None else f"{value:.{precision}f}{unit}"
            cells.append(f"{cell:>14}")
        lines.append(f"{row_label:<28}" + "".join(cells))
    return "\n".join(lines)


def format_key_values(title: str, values: Mapping[str, object]) -> str:
    """Format a simple two-column key/value listing."""
    width = max(len(str(key)) for key in values) if values else 0
    lines = [title]
    for key, value in values.items():
        if isinstance(value, float):
            rendered = f"{value:.3f}"
        else:
            rendered = str(value)
        lines.append(f"  {str(key):<{width}}  {rendered}")
    return "\n".join(lines)


def format_campaign_outcome(outcome) -> str:
    """Per-configuration overview table of a finished campaign.

    Takes a :class:`repro.campaign.CampaignOutcome`; used by the
    ``repro-campaign`` CLI for ad-hoc (non-figure) campaigns.
    """
    rows = {
        name: {
            "IPC": summary.mean_ipc(),
            "power (W)": summary.mean_power(),
            "TC hit rate": summary.mean_trace_cache_hit_rate(),
            "FE peak (C)": summary.mean_metric("Frontend", "AbsMax"),
            "FE avg (C)": summary.mean_metric("Frontend", "Average"),
        }
        for name, summary in outcome.summaries.items()
    }
    return format_value_table(
        outcome.describe(),
        rows,
        columns=("IPC", "power (W)", "TC hit rate", "FE peak (C)", "FE avg (C)"),
        precision=2,
    )
