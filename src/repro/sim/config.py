"""Processor configuration (Table 1 of the paper).

Every structural and timing parameter of the simulated processor lives in one
of the frozen dataclasses below.  :meth:`ProcessorConfig.baseline` reproduces
the paper's baseline: a quad-cluster backend with a monolithic (unified)
rename table and reorder buffer and a two-banked trace cache with a balanced
bank mapping function.  The configuration presets for the paper's proposed
techniques are built on top of this one in :mod:`repro.core.presets`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field, replace
from typing import Tuple


class SteeringPolicy(enum.Enum):
    """Policy used by the centralized steering unit to pick a backend cluster."""

    #: Prefer the cluster that already holds most of the source operands,
    #: falling back to the least-loaded cluster (paper-style dependence-based
    #: steering with load balancing).
    DEPENDENCE = "dependence"
    #: Round-robin over clusters (used for ablations).
    ROUND_ROBIN = "round_robin"
    #: Always pick the cluster with the fewest in-flight micro-ops.
    LOAD_BALANCE = "load_balance"


@dataclass(frozen=True)
class TraceCacheConfig:
    """Trace cache organization and the paper's banking/hopping knobs.

    The baseline trace cache stores 32 K micro-ops, is 4-way set associative
    and is split into two banks with non-overlapping contents.  Bank hopping
    adds one extra physical bank so that one bank can always be Vdd-gated
    without reducing the effective capacity (Section 3.2.1).
    """

    capacity_uops: int = 32 * 1024
    associativity: int = 4
    line_uops: int = 16
    #: Number of banks that concurrently hold content (determines effective
    #: capacity per bank).
    active_banks: int = 2
    #: Number of physical banks on the floorplan.  ``active_banks`` of them
    #: are powered at any time; the rest are Vdd-gated.
    physical_banks: int = 2
    fetch_to_dispatch_latency: int = 4
    #: Enable the rotating Vdd-gating of one bank (Section 3.2.1).
    bank_hopping: bool = False
    #: Cycles between hops.  The paper uses 10 M cycles; experiments scale
    #: this down together with the trace length.
    hop_interval_cycles: int = 10_000_000
    #: Enable the thermal-aware biased mapping function (Section 3.2.2).
    thermal_aware_mapping: bool = False
    #: Cycles between recomputations of the mapping table (paper: 10 M).
    remap_interval_cycles: int = 10_000_000
    #: Temperature difference (in Celsius) above the bank average that halves
    #: a bank's share of mapping-table entries (paper: 3 degrees).
    bias_threshold_celsius: float = 3.0
    #: Number of entries of the bank mapping table (indexed by a 5-bit hash).
    mapping_table_entries: int = 32
    #: Statically gate one bank (the "blank silicon" comparison of Fig. 13).
    blank_silicon: bool = False

    def __post_init__(self) -> None:
        if self.capacity_uops <= 0 or self.line_uops <= 0:
            raise ValueError("trace cache capacity and line size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.active_banks <= 0 or self.physical_banks < self.active_banks:
            raise ValueError(
                "physical_banks must be >= active_banks and both must be positive"
            )
        if self.bank_hopping and self.physical_banks <= self.active_banks:
            raise ValueError("bank hopping requires at least one spare physical bank")
        if self.blank_silicon and self.physical_banks <= self.active_banks:
            raise ValueError("blank silicon requires at least one gated physical bank")
        if self.mapping_table_entries < self.physical_banks:
            raise ValueError("mapping table must have at least one entry per bank")

    @property
    def total_lines(self) -> int:
        """Number of trace lines across all active banks."""
        return self.capacity_uops // self.line_uops

    @property
    def lines_per_bank(self) -> int:
        """Trace lines held by each active bank (non-overlapping contents)."""
        return max(1, self.total_lines // self.active_banks)

    @property
    def sets_per_bank(self) -> int:
        return max(1, self.lines_per_bank // self.associativity)


@dataclass(frozen=True)
class FrontendConfig:
    """Frontend organization: fetch, decode/rename/steer and the partitioning."""

    fetch_width: int = 8
    dispatch_width: int = 8
    #: Decode, rename and steer latency (cycles), regardless of destination
    #: cluster (Table 1).
    decode_rename_steer_latency: int = 8
    #: Number of frontend partitions. 1 reproduces the monolithic baseline;
    #: 2 reproduces the paper's bi-clustered frontend (each feeding two
    #: backends).
    num_frontends: int = 1
    #: Extra commit latency charged when commit is distributed (Section 3.1.2).
    distributed_commit_extra_latency: int = 1
    #: Total reorder buffer entries (split evenly across frontend partitions).
    rob_entries: int = 256
    commit_width: int = 8
    branch_predictor_entries: int = 4096
    #: Frontend refill penalty after a branch misprediction (cycles).
    misprediction_penalty: int = 12
    trace_cache: TraceCacheConfig = field(default_factory=TraceCacheConfig)

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.dispatch_width <= 0 or self.commit_width <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.num_frontends <= 0:
            raise ValueError("num_frontends must be positive")
        if self.rob_entries < self.num_frontends:
            raise ValueError("rob_entries must be at least num_frontends")
        if self.rob_entries % self.num_frontends != 0:
            raise ValueError("rob_entries must divide evenly across frontends")

    @property
    def is_distributed(self) -> bool:
        """Whether rename and commit are distributed (the paper's proposal)."""
        return self.num_frontends > 1

    @property
    def rob_entries_per_frontend(self) -> int:
        return self.rob_entries // self.num_frontends


@dataclass(frozen=True)
class BackendConfig:
    """Per-cluster backend resources (Table 1, "Each backend")."""

    num_clusters: int = 4
    int_queue_entries: int = 40
    fp_queue_entries: int = 40
    copy_queue_entries: int = 40
    mem_queue_entries: int = 96
    #: Issue bandwidth of each queue (instructions per cycle).
    issue_width_per_queue: int = 1
    dispatch_latency: int = 10
    prescheduler_entries: int = 20
    int_registers: int = 160
    fp_registers: int = 160
    int_rf_read_ports: int = 6
    int_rf_write_ports: int = 3
    fp_rf_read_ports: int = 5
    fp_rf_write_ports: int = 3
    dcache_kb: int = 16
    dcache_associativity: int = 2
    dcache_hit_latency: int = 1
    dcache_line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        for name in (
            "int_queue_entries", "fp_queue_entries", "copy_queue_entries",
            "mem_queue_entries", "int_registers", "fp_registers",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Unified L2 and main memory (Table 1)."""

    ul2_kb: int = 2 * 1024
    ul2_associativity: int = 8
    ul2_hit_latency: int = 12
    ul2_miss_latency: int = 500
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.ul2_kb <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.ul2_hit_latency <= 0 or self.ul2_miss_latency <= 0:
            raise ValueError("latencies must be positive")


@dataclass(frozen=True)
class InterconnectConfig:
    """Buses and point-to-point links between the frontend and the clusters."""

    num_memory_buses: int = 2
    num_disambiguation_buses: int = 2
    bus_latency: int = 4
    bus_arbitration_latency: int = 1
    num_p2p_links: int = 2
    p2p_hop_latency: int = 1

    def __post_init__(self) -> None:
        if self.num_memory_buses <= 0 or self.num_disambiguation_buses <= 0:
            raise ValueError("bus counts must be positive")
        if self.bus_latency <= 0 or self.p2p_hop_latency <= 0:
            raise ValueError("latencies must be positive")


@dataclass(frozen=True)
class PowerConfig:
    """Design point and power-model constants (Section 2.1 and Section 4)."""

    technology_nm: int = 65
    frequency_ghz: float = 10.0
    vdd: float = 1.1
    #: Leakage power as a fraction of average dynamic power at ambient,
    #: inside-box temperature (paper: roughly 30% at 45 C).
    leakage_fraction_at_ambient: float = 0.30
    #: Exponential coefficient of leakage with temperature (per Celsius).
    leakage_temperature_coefficient: float = 0.014
    ambient_celsius: float = 45.0

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.vdd <= 0:
            raise ValueError("frequency and Vdd must be positive")
        if not 0.0 <= self.leakage_fraction_at_ambient <= 2.0:
            raise ValueError("leakage fraction out of range")


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal model constants: package geometry and simulation intervals."""

    ambient_celsius: float = 45.0
    #: Thermal emergency limit (paper: 381 K).
    emergency_limit_kelvin: float = 381.0
    #: Cycles between temperature updates (paper: 10 M cycles).  Experiments
    #: scale this value together with the trace length so that each run still
    #: spans a comparable number of thermal intervals.
    interval_cycles: int = 10_000_000
    #: Wall-clock time represented by one thermal interval.  The paper's
    #: interval is 10 M cycles at 10 GHz = 1 ms; keeping this constant while
    #: scaling ``interval_cycles`` preserves the heating dynamics when the
    #: simulated traces are shorter than the paper's 200 M instructions.
    interval_seconds: float = 1.0e-3
    #: Copper heat spreader: 3.1 x 3.1 x 0.23 cm (paper, Pentium 4 Northwood).
    spreader_side_m: float = 0.031
    spreader_thickness_m: float = 0.0023
    #: Copper heat sink: 7 x 8.3 x 4.11 cm (paper).
    sink_width_m: float = 0.07
    sink_depth_m: float = 0.083
    sink_thickness_m: float = 0.0411
    #: Convection resistance from sink to ambient air (K/W).
    convection_resistance_k_per_w: float = 0.18
    #: Silicon die thickness (m).
    die_thickness_m: float = 0.0005
    #: Thermal interface material thickness (m).
    tim_thickness_m: float = 5.0e-5

    def __post_init__(self) -> None:
        if self.interval_cycles <= 0 or self.interval_seconds <= 0:
            raise ValueError("thermal interval must be positive")
        if self.emergency_limit_kelvin <= 273.15:
            raise ValueError("emergency limit must be above freezing")

    @property
    def emergency_limit_celsius(self) -> float:
        return self.emergency_limit_kelvin - 273.15


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete configuration of the simulated processor."""

    name: str = "baseline"
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    steering_policy: SteeringPolicy = SteeringPolicy.DEPENDENCE

    def __post_init__(self) -> None:
        if self.backend.num_clusters % self.frontend.num_frontends != 0:
            raise ValueError(
                "number of backend clusters must be a multiple of the number "
                "of frontend partitions"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "ProcessorConfig":
        """The paper's baseline configuration (Table 1).

        Quad-cluster backend, unified rename/commit, two-banked trace cache
        with a balanced (non thermal-aware) bank mapping function.
        """
        return cls(name="baseline")

    # ------------------------------------------------------------------
    # Derived quantities and convenience rewrites
    # ------------------------------------------------------------------
    @property
    def clusters_per_frontend(self) -> int:
        """Backend clusters fed by each frontend partition."""
        return self.backend.num_clusters // self.frontend.num_frontends

    def frontend_of_cluster(self, cluster: int) -> int:
        """Frontend partition that feeds backend cluster ``cluster``."""
        if not 0 <= cluster < self.backend.num_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        return cluster // self.clusters_per_frontend

    def clusters_of_frontend(self, frontend: int) -> Tuple[int, ...]:
        """Backend clusters fed by frontend partition ``frontend``."""
        if not 0 <= frontend < self.frontend.num_frontends:
            raise ValueError(f"frontend {frontend} out of range")
        per = self.clusters_per_frontend
        return tuple(range(frontend * per, (frontend + 1) * per))

    def with_intervals(self, interval_cycles: int) -> "ProcessorConfig":
        """Return a copy with all periodic intervals set to ``interval_cycles``.

        The thermal update interval, the bank-hop interval and the
        thermal-aware remap interval all use the paper's 10 M-cycle period;
        experiments call this helper to scale the three of them consistently
        for shorter runs.
        """
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        new_tc = replace(
            self.frontend.trace_cache,
            hop_interval_cycles=interval_cycles,
            remap_interval_cycles=interval_cycles,
        )
        return replace(
            self,
            frontend=replace(self.frontend, trace_cache=new_tc),
            thermal=replace(self.thermal, interval_cycles=interval_cycles),
        )

    def renamed(self, name: str) -> "ProcessorConfig":
        """Return a copy with a different configuration name."""
        return replace(self, name=name)

    def describe(self) -> str:
        """Multi-line, human-readable summary (mirrors Table 1)."""
        fe = self.frontend
        be = self.backend
        tc = fe.trace_cache
        lines = [
            f"Configuration: {self.name}",
            f"  Frontend   : {fe.num_frontends} partition(s), fetch width {fe.fetch_width}, "
            f"decode/rename/steer {fe.decode_rename_steer_latency} cycles, "
            f"ROB {fe.rob_entries} entries, commit width {fe.commit_width}",
            f"  Trace cache: {tc.capacity_uops} uops, {tc.associativity}-way, "
            f"{tc.active_banks} active / {tc.physical_banks} physical banks, "
            f"fetch-to-dispatch {tc.fetch_to_dispatch_latency} cycles"
            + (", bank hopping" if tc.bank_hopping else "")
            + (", thermal-aware mapping" if tc.thermal_aware_mapping else "")
            + (", blank silicon" if tc.blank_silicon else ""),
            f"  Backend    : {be.num_clusters} clusters, IQ {be.int_queue_entries}/"
            f"FPQ {be.fp_queue_entries}/CopyQ {be.copy_queue_entries}/"
            f"MemQ {be.mem_queue_entries}, dispatch latency {be.dispatch_latency} cycles, "
            f"{be.int_registers} int + {be.fp_registers} FP registers",
            f"  D-cache    : {be.dcache_kb} KB {be.dcache_associativity}-way, "
            f"{be.dcache_hit_latency} cycle hit",
            f"  UL2        : {self.memory.ul2_kb // 1024} MB {self.memory.ul2_associativity}-way, "
            f"{self.memory.ul2_hit_latency} cycle hit, {self.memory.ul2_miss_latency}+ miss",
            f"  Buses      : {self.interconnect.num_memory_buses} memory, "
            f"{self.interconnect.num_disambiguation_buses} disambiguation, "
            f"{self.interconnect.bus_latency}-cycle latency + "
            f"{self.interconnect.bus_arbitration_latency}-cycle arbiter; "
            f"{self.interconnect.num_p2p_links} bidirectional p2p links "
            f"({self.interconnect.p2p_hop_latency} cycle/hop)",
            f"  Design     : {self.power.technology_nm} nm, {self.power.frequency_ghz} GHz, "
            f"Vdd {self.power.vdd} V, steering {self.steering_policy.value}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Flatten the configuration to a plain dictionary (for reporting)."""
        return dataclasses.asdict(self)

    def __getstate__(self) -> dict:
        """Pickle the fields only: a memo cached on the instance (the
        campaign layer's canonical JSON, say) is rebuilt where it is used."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
