#!/usr/bin/env python
"""Render an ASCII thermal map of the die, like the paper's thermal plots.

Run with:  python examples/thermal_map.py [benchmark] [configuration]

``configuration`` is one of: baseline, distributed_rc, address_biasing,
blank_silicon, bank_hopping, hopping_biasing, distributed_frontend.

The script runs the chosen (configuration, workload) cell through the
campaign API, takes the hottest thermal interval and rasterizes the
floorplan onto a character grid where hotter blocks get "denser" glyphs
(:func:`repro.thermal.visualization.render_thermal_map`), so the effect of
distributing the frontend is directly visible: compare
`baseline` against `distributed_frontend`.
"""

from __future__ import annotations

import sys

from repro import Campaign, ExperimentSettings, run_campaign
from repro.core.presets import ALL_CONFIGURATIONS, FrontendOrganization, config_for
from repro.experiments.floorplans import build_report
from repro.thermal.visualization import render_thermal_map


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "swim"
    config_name = sys.argv[2] if len(sys.argv) > 2 else "baseline"
    organization = FrontendOrganization(config_name)
    config = config_for(organization)

    settings = ExperimentSettings(
        benchmarks=(benchmark,), uops_per_benchmark=8_000, honor_relative_length=False
    )
    campaign = Campaign.single(config, settings, name="thermal-map")
    outcome = run_campaign(campaign)
    result = outcome.summaries[config.name].results[benchmark]
    # The floorplan is derived from the configuration alone, so it can be
    # rebuilt for rendering without keeping the simulation engine around.
    floorplan = build_report(campaign.cells()[0].config).floorplan

    hottest = max(result.intervals, key=lambda record: max(record.temperature.values()))
    print(f"{benchmark} on {config.name}: hottest interval at cycle {hottest.cycle}, "
          f"total power {hottest.total_power():.1f} W")
    print(render_thermal_map(floorplan, hottest.temperature, height=30))
    print()
    hot_blocks = sorted(hottest.temperature.items(), key=lambda kv: -kv[1])[:8]
    print("hottest blocks: " + ", ".join(f"{name} {temp:.1f}C" for name, temp in hot_blocks))
    print(f"valid configurations: {[o.value for o in ALL_CONFIGURATIONS]}")


if __name__ == "__main__":
    main()
