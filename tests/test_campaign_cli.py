"""Tests of the ``repro-campaign`` command-line interface."""

import json
import os

import pytest

from repro.campaign.cli import main


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("baseline", "distributed_rc", "bank_hopping", "distributed_frontend"):
        assert name in out


def test_list_benchmarks(capsys):
    assert main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out and "swim" in out
    assert len(out.strip().splitlines()) == 26


def test_floorplan_command(capsys):
    assert main(["floorplan", "baseline"]) == 0
    assert "Floorplan for configuration 'baseline'" in capsys.readouterr().out


def test_run_adhoc_campaign_with_cache_and_output(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    output = tmp_path / "summary.json"
    argv = [
        "run",
        "--configs", "baseline",
        "--benchmarks", "gzip",
        "--uops", "1200",
        "--cache-dir", str(cache_dir),
        "--output", str(output),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "1 simulated, 0 replayed, 0 from cache" in first

    payload = json.loads(output.read_text())
    assert payload["cells_executed"] == 1
    summary = payload["configurations"]["baseline"]
    assert summary["benchmarks"] == ["gzip"]
    assert summary["mean_ipc"] > 0
    assert "Frontend" in summary["temperature_metrics"]

    # Re-running the same campaign is served entirely from the cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 simulated, 0 replayed, 1 from cache" in second
    assert json.loads(output.read_text())["cells_executed"] == 0


def test_run_figure_writes_table_and_json(tmp_path, capsys):
    output = tmp_path / "fig01.json"
    argv = [
        "run",
        "--figure", "fig01",
        "--benchmarks", "gzip",
        "--uops", "1200",
        "--output", str(output),
    ]
    assert main(argv) == 0
    assert "Figure 1" in capsys.readouterr().out
    payload = json.loads(output.read_text())
    assert payload["figure"] == "fig01"
    assert "baseline" in payload["configurations"]


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_domain_errors_become_cli_errors(capsys):
    assert main(["run", "--configs", "notaconfig"]) == 2
    assert "not a valid FrontendOrganization" in capsys.readouterr().err
    assert main(["run", "--benchmarks", "gzip", "--uops", "0"]) == 2
    assert "uops_per_benchmark must be positive" in capsys.readouterr().err
    assert main(["run", "--benchmarks", "nosuchbench"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_cache_stats_and_prune_subcommands(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    # Populate the cache (results + trace artifacts) with a tiny campaign.
    assert main([
        "run", "--configs", "baseline", "--benchmarks", "gzip",
        "--uops", "1200", "--cache-dir", str(cache_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "results: 1 entries" in out
    assert "traces : 1 artifacts" in out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--max-bytes", "0",
    ]) == 0
    assert "pruned 2 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "results: 0 entries" in capsys.readouterr().out

    # prune without a budget is a usage error, reported CLI-style.
    assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 2
    assert "requires --max-bytes" in capsys.readouterr().err


def test_malformed_dtm_specs_become_one_line_errors(capsys):
    """Malformed --dtm policy specs exit 2 with a message, never a traceback."""
    argv = ["run", "--configs", "baseline", "--benchmarks", "gzip"]
    assert main(argv + ["--dtm", "dvfs:target"]) == 2
    err = capsys.readouterr().err
    assert "malformed DTM policy parameter 'target'" in err
    assert "Traceback" not in err

    assert main(argv + ["--dtm", "bogus_policy"]) == 2
    err = capsys.readouterr().err
    assert "unknown DTM policy 'bogus_policy'" in err
    assert "valid names:" in err

    assert main(argv + ["--dtm", "dvfs:target=hot"]) == 2
    assert "is not a number" in capsys.readouterr().err

    assert main(argv + ["--dtm", "duty=0.5"]) == 2
    assert "misplaced DTM policy parameter" in capsys.readouterr().err


def test_unknown_scenario_names_become_one_line_errors(capsys):
    assert main(["run", "--benchmarks", "not_a_scenario"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark or scenario 'not_a_scenario'" in err
    assert "valid names:" in err
    assert "Traceback" not in err

    # The same friendliness covers per-core scenario mixes.
    assert main(["run", "--per-core-scenarios", "gzip+nosuch"]) == 2
    assert "unknown benchmark or scenario 'nosuch'" in capsys.readouterr().err


def test_chip_options_are_validated(capsys):
    assert main(["run", "--cores", "0"]) == 2
    assert "--cores must be at least 1" in capsys.readouterr().err

    assert main(["run", "--cores", "2", "--per-core-scenarios", "gzip+swim+mcf"]) == 2
    assert "has 3 threads" in capsys.readouterr().err

    assert main(["run", "--figure", "fig01", "--cores", "2"]) == 2
    assert "--figure multicore" in capsys.readouterr().err

    assert main(
        ["run", "--cores", "2", "--benchmarks", "gzip", "--dtm", "fetch_throttle"]
    ) == 2
    assert "unknown chip DTM policy" in capsys.readouterr().err


def test_run_chip_campaign_from_cli(tmp_path, capsys):
    output = tmp_path / "chip.json"
    argv = [
        "run",
        "--configs", "baseline",
        "--per-core-scenarios", "thermal_virus+idle_crawl",
        "--uops", "1200",
        "--output", str(output),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 mixes on 2-core chips" in out
    assert "2 simulated, 1 replayed" in out
    payload = json.loads(output.read_text())
    summary = payload["configurations"]["baseline"]
    assert summary["benchmarks"] == ["thermal_virus+idle_crawl"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cell_domain_error_reports_alike_serial_and_parallel(jobs, monkeypatch, capsys):
    """A ValueError raised inside a cell is a domain error (exit 2) whether
    the cell ran in this process or in a worker process."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    argv = [
        "run", "--configs", "baseline", "--benchmarks", "gzip,swim",
        "--uops", "600", "--jobs", jobs, "--timing-mode", "fast",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-campaign: error: timing_mode='fast' is not applicable")


def test_run_passes_modes_as_executor_options(tmp_path, capsys):
    """``run --jobs 2 --timing-mode reference`` hands its modes to the
    executor, not to the environment, and echoes them in the runtime."""
    environment = dict(os.environ)
    output = tmp_path / "s.json"
    argv = [
        "run", "--configs", "baseline", "--benchmarks", "gzip,swim",
        "--uops", "800", "--jobs", "2", "--timing-mode", "reference",
        "--output", str(output),
    ]
    assert main(argv) == 0
    assert dict(os.environ) == environment
    runtime = json.loads(output.read_text())["runtime"]
    assert runtime["options"] == {"timing_mode": "reference", "replay_mode": "exact"}
    assert runtime["mode"] == "process" and runtime["workers"] == 2

    # A domain error raised mid-run leaves the environment untouched too.
    assert main(["run", "--configs", "no_such_preset", "--jobs", "2"]) == 2
    assert dict(os.environ) == environment
    capsys.readouterr()
