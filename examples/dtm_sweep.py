#!/usr/bin/env python
"""DTM sweep: compare thermal-management policies over stress scenarios.

Run with:  python examples/dtm_sweep.py [uops] [jobs]

Declares one campaign with a DTM policy axis — the no-op baseline plus the
four mechanisms of ``repro.dtm`` — over a handful of scenarios from
``repro.scenarios``, runs it (optionally across worker processes), and
prints the classic DTM trade-off per policy: peak/average temperature
against wall-clock performance loss, with the actuator telemetry next to
it.  The full 5-policy x 11-scenario table is one command away::

    PYTHONPATH=src python -m repro.campaign.cli run --figure dtm --jobs 4

See docs/dtm.md for the policy and DVFS model documentation.
"""

from __future__ import annotations

import sys

from repro.campaign import make_executor
from repro.experiments import dtm_settings, run_dtm_comparison

SCENARIOS = ("thermal_virus", "hot_loop", "imbalanced_cluster", "idle_crawl")


def main() -> None:
    uops = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    settings = dtm_settings(scenarios=SCENARIOS, uops_per_scenario=uops)
    with make_executor(jobs) as executor:
        result = run_dtm_comparison(settings, executor=executor)
    print(result.format_table())
    print()
    print("Per-policy trade-off (fractions vs. the no-DTM baseline):")
    for policy, point in result.performance_loss_vs_peak_temp().items():
        print(f"  {policy:<16} peak -{point['peak_reduction'] * 100:5.1f}%  "
              f"time +{point['performance_loss'] * 100:6.1f}%")


if __name__ == "__main__":
    main()
