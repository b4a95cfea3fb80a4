"""Synthetic SPEC2000-like workloads.

The paper drives its simulator with traces of 26 SPEC2000 applications.  The
reproduction cannot redistribute SPEC binaries or Intel's internal traces, so
this package provides a deterministic synthetic trace generator with one
profile per SPEC2000 application.  Each profile captures the workload
characteristics that actually drive the paper's results: instruction mix,
branch behaviour, memory footprint and locality, inherent ILP (dependency
distances) and loop structure (which determines trace-cache hit behaviour).
"""

from repro.workloads.profiles import (
    SPEC2000_PROFILES,
    SPECINT_NAMES,
    SPECFP_NAMES,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.decode import DecodedWorkload, decode_workload
from repro.workloads.generator import TraceGenerator, WorkloadSpec
from repro.workloads.trace import Trace, TraceStatistics

__all__ = [
    "SPEC2000_PROFILES",
    "SPECINT_NAMES",
    "SPECFP_NAMES",
    "WorkloadProfile",
    "get_profile",
    "TraceGenerator",
    "WorkloadSpec",
    "Trace",
    "TraceStatistics",
    "DecodedWorkload",
    "decode_workload",
]
