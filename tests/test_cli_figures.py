"""``repro-campaign run --figure``: one dispatch over the figure registry.

Every figure of :data:`repro.experiments.FIGURES` is locked by its printed
table and its ``--output`` JSON at tiny settings, in
``tests/golden/cli_figures/`` (captured before the registry replaced the
per-figure CLI runners).  Tables compare exactly; payloads compare as
``tests/test_golden_metrics.py`` does — keys and strings exactly, floats
within ``REPRO_GOLDEN_RELTOL`` (default 1e-9).

An axis flag a figure does not declare is a usage error, never silently
ignored.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign.cli import main
from repro.experiments import FIGURES
from test_golden_metrics import _compare

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli_figures"

#: The tiny settings each figure's fixture was captured at.
FIGURE_ARGS = {
    "fig01": ["--benchmarks", "gzip", "--uops", "1200"],
    "fig12": ["--benchmarks", "gzip", "--uops", "1200"],
    "fig13": ["--benchmarks", "gzip", "--uops", "1200"],
    "fig14": ["--benchmarks", "gzip", "--uops", "1200"],
    "dtm": ["--benchmarks", "thermal_virus", "--uops", "1500"],
    "multicore": ["--cores", "2", "--uops", "800"],
}

#: A valid value for every axis flag of ``run``.
AXIS_SAMPLES = {
    "configs": "distributed_rc",
    "scale": "full",
    "benchmarks": "gzip",
    "uops": "1200",
    "seed": "3",
    "dtm": "none",
    "cores": "2",
    "per_core_scenarios": "gzip+gzip",
    "contention": "shared_llc",
}


def test_every_figure_is_locked():
    assert set(FIGURE_ARGS) == set(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_table_and_payload_match_the_lock(name, tmp_path, capsys):
    output = tmp_path / f"{name}.json"
    argv = ["run", "--figure", name, *FIGURE_ARGS[name], "--output", str(output)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines(keepends=True)
    assert printed[-1] == f"[summary written to {output}]\n"
    assert "".join(printed[:-1]) == (GOLDEN_DIR / f"{name}.txt").read_text()

    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = json.loads(output.read_text())
    assert actual["figure"] == name
    reltol = float(os.environ.get("REPRO_GOLDEN_RELTOL", "1e-9") or 0)
    problems = _compare(expected, actual, name, reltol)
    assert not problems, "\n  ".join(problems[:40])


@pytest.mark.parametrize(
    "name, dest",
    [
        (name, dest)
        for name, figure in sorted(FIGURES.items())
        for dest in AXIS_SAMPLES
        if dest not in figure.flags
    ],
)
def test_undeclared_figure_flags_are_usage_errors(name, dest, capsys):
    flag = "--" + dest.replace("_", "-")
    assert main(["run", "--figure", name, flag, AXIS_SAMPLES[dest]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"repro-campaign: error: {flag} does not apply to --figure {name}")
    for other in FIGURES.values():
        assert (f"--figure {other.name}" in err.split(";", 1)[1]) == (dest in other.flags)


def test_samples_cover_every_axis_flag():
    from repro.campaign.cli import _AXIS_FLAGS

    assert set(AXIS_SAMPLES) == set(_AXIS_FLAGS)
    for figure in FIGURES.values():
        assert set(figure.flags) <= set(_AXIS_FLAGS), figure.name
