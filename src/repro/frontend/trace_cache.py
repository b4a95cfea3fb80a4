"""Sub-banked trace cache.

The trace cache stores decoded micro-op traces.  It is divided into banks
with non-overlapping contents; a mapping function (balanced or thermal-aware,
see :mod:`repro.core.thermal_mapping`) selects the bank a trace address maps
to.  Banks can be Vdd-gated (losing their contents) by the bank-hopping
controller or statically in the blank-silicon configuration.

Timing: a trace-cache hit delivers one trace line; a miss triggers a trace
build from the UL2 (charged with the UL2 access latency plus a fixed build
overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.thermal_mapping import BankMappingTable
from repro.sim.config import TraceCacheConfig


@dataclass
class TraceCacheLine:
    """One trace line: up to ``line_uops`` micro-ops starting at ``head_pc``."""

    head_pc: int
    num_uops: int


@dataclass
class FetchResult:
    """Outcome of a trace-cache lookup."""

    hit: bool
    bank: int
    #: Cycles until the line's micro-ops are available to the fetch buffer.
    latency: int
    #: Whether the miss required a UL2 access (trace build).
    ul2_access: bool


class _Bank:
    """One physical bank: a small set-associative tag store of trace lines."""

    __slots__ = ("sets", "associativity", "num_sets", "gated")

    def __init__(self, num_sets: int, associativity: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity
        # Each set is an LRU-ordered list of head PCs (most recent last).
        self.sets: List[List[int]] = [[] for _ in range(num_sets)]
        self.gated = False

    def _set_index(self, head_pc: int) -> int:
        return (head_pc >> 4) % self.num_sets

    def lookup(self, head_pc: int) -> bool:
        if self.gated:
            return False
        entries = self.sets[self._set_index(head_pc)]
        if head_pc in entries:
            entries.remove(head_pc)
            entries.append(head_pc)
            return True
        return False

    def insert(self, head_pc: int) -> None:
        if self.gated:
            return
        entries = self.sets[self._set_index(head_pc)]
        if head_pc in entries:
            entries.remove(head_pc)
        elif len(entries) >= self.associativity:
            entries.pop(0)
        entries.append(head_pc)

    def flush(self) -> int:
        """Drop all contents; return the number of lines lost."""
        lost = sum(len(entries) for entries in self.sets)
        self.sets = [[] for _ in range(self.num_sets)]
        return lost

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self.sets)


class TraceCache:
    """The sub-banked trace cache with a pluggable bank mapping table."""

    #: Extra cycles to rebuild a trace on a miss, on top of the UL2 latency
    #: (decode and trace-construction overhead).
    TRACE_BUILD_OVERHEAD = 4

    def __init__(self, config: TraceCacheConfig, ul2_hit_latency: int) -> None:
        self.config = config
        self.ul2_hit_latency = ul2_hit_latency
        self._banks = [
            _Bank(config.sets_per_bank, config.associativity)
            for _ in range(config.physical_banks)
        ]
        initial_enabled = list(range(config.physical_banks))
        self.mapping = BankMappingTable(config.mapping_table_entries, initial_enabled)
        self.hits = 0
        self.misses = 0
        self.hop_flushes = 0
        self.insertions = 0

    # ------------------------------------------------------------------
    # Gating control (driven by the bank hopping controller)
    # ------------------------------------------------------------------
    def set_enabled_banks(self, enabled_banks: Sequence[int]) -> None:
        """Gate every bank not in ``enabled_banks`` and flush newly gated ones."""
        enabled = set(enabled_banks)
        if not enabled:
            raise ValueError("at least one bank must stay enabled")
        for index, bank in enumerate(self._banks):
            should_gate = index not in enabled
            if should_gate and not bank.gated:
                self.hop_flushes += bank.flush()
            bank.gated = should_gate

    def enabled_banks(self) -> List[int]:
        return [i for i, bank in enumerate(self._banks) if not bank.gated]

    def gated_banks(self) -> List[int]:
        return [i for i, bank in enumerate(self._banks) if bank.gated]

    def set_mapping_shares(self, shares: Dict[int, int]) -> None:
        """Install a new combination-to-bank assignment (remap)."""
        for bank in shares:
            if not 0 <= bank < len(self._banks):
                raise ValueError(f"bank {bank} out of range")
            if self._banks[bank].gated and shares[bank] > 0:
                raise ValueError(f"cannot map accesses to gated bank {bank}")
        self.mapping.set_assignment(shares)

    def set_balanced_mapping(self) -> None:
        """Distribute the mapping evenly over the currently enabled banks."""
        self.mapping.set_balanced(self.enabled_banks())

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def bank_for(self, head_pc: int) -> int:
        """Bank the mapping function selects for a trace address."""
        return self.mapping.bank_for(head_pc)

    def access(self, head_pc: int) -> FetchResult:
        """Look up the trace starting at ``head_pc``; insert it on a miss."""
        bank_index = self.bank_for(head_pc)
        bank = self._banks[bank_index]
        if bank.gated:
            # The mapping table should never point at a gated bank; if it
            # does (e.g. right at a hop boundary) treat the access as a miss
            # into the first enabled bank.
            enabled = self.enabled_banks()
            bank_index = enabled[0]
            bank = self._banks[bank_index]
        if bank.lookup(head_pc):
            self.hits += 1
            return FetchResult(hit=True, bank=bank_index, latency=0, ul2_access=False)
        self.misses += 1
        self.insertions += 1
        bank.insert(head_pc)
        latency = self.ul2_hit_latency + self.TRACE_BUILD_OVERHEAD
        return FetchResult(hit=False, bank=bank_index, latency=latency, ul2_access=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def occupancy(self) -> Dict[int, int]:
        """Number of valid lines per physical bank."""
        return {i: bank.occupancy() for i, bank in enumerate(self._banks)}

    def accesses_per_bank_share(self) -> Dict[int, float]:
        """Fraction of mapping-table entries pointing at each bank."""
        return self.mapping.bank_shares(len(self._banks))
