"""Out-of-tree benchmark of the repro simulator, campaign layer and service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints its
metrics; see ``perfbench/README.md`` for the workloads and metrics.
"""
