#!/usr/bin/env python
"""Compare the paper's frontend organizations on a small workload set.

Run with:  python examples/distributed_frontend_study.py [uops_per_benchmark] [jobs]

This is a miniature version of the paper's Figures 12-14: one declarative
campaign simulates the baseline, the distributed rename/commit frontend, the
thermal-aware bank-hopping trace cache and the full distributed frontend over
a handful of SPEC2000-like workloads, then prints the temperature reductions
(relative to the baseline's increase over ambient) together with the
slowdown.  Pass a second argument > 1 to fan the campaign's cells out over
that many worker processes.
"""

from __future__ import annotations

import sys

from repro import Campaign, ExperimentSettings, run_campaign
from repro.campaign import make_executor
from repro.core.presets import (
    bank_hopping_biasing_config,
    baseline_config,
    distributed_frontend_config,
    distributed_rename_commit_config,
)

GROUPS = ("ReorderBuffer", "RenameTable", "TraceCache")


def main() -> None:
    uops = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    settings = ExperimentSettings(
        benchmarks=("gzip", "gcc", "crafty", "swim", "equake", "mesa"),
        uops_per_benchmark=uops,
    )
    print(f"Workloads: {', '.join(settings.benchmarks)} "
          f"({settings.uops_per_benchmark} micro-ops each)\n")

    variants = (
        distributed_rename_commit_config(),
        bank_hopping_biasing_config(),
        distributed_frontend_config(),
    )
    campaign = Campaign(
        (baseline_config(),) + variants, settings, name="distributed-frontend-study"
    )
    with make_executor(jobs) as executor:
        outcome = run_campaign(campaign, executor=executor)
    print(outcome.describe() + "\n")

    baseline = outcome.summaries["baseline"]
    print("Baseline temperature increases over ambient (C):")
    for group in GROUPS:
        metrics = baseline.mean_metrics(group)
        print(f"  {group:<14} AbsMax {metrics['AbsMax']:6.1f}   "
              f"Average {metrics['Average']:6.1f}   AvgMax {metrics['AvgMax']:6.1f}")
    print()

    for config in variants:
        summary = outcome.summaries[config.name]
        slowdown = summary.mean_slowdown_vs(baseline)
        print(f"{config.name} (slowdown {slowdown * 100:+.1f}%):")
        for group in GROUPS:
            reductions = summary.mean_reductions_vs(baseline, group)
            print(f"  {group:<14} AbsMax {reductions['AbsMax'] * 100:5.1f}%   "
                  f"Average {reductions['Average'] * 100:5.1f}%   "
                  f"AvgMax {reductions['AvgMax'] * 100:5.1f}%")
        print()


if __name__ == "__main__":
    main()
