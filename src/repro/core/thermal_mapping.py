"""Bank mapping functions for the sub-banked trace cache (Section 3.2.2).

Whenever the trace cache is accessed, a mapping function selects the bank
where the line lives.  The paper's selection policy performs a bitwise XOR of
two five-bit fields of the trace-cache address to obtain a five-bit number,
which indexes a 32-entry table holding the bank assigned to each combination.

Two policies populate that table:

* the **balanced** policy assigns ``1/N`` of the combinations to each of the
  ``N`` enabled banks (conventional banking);
* the **thermal-aware** policy biases the distribution towards colder banks:
  a bank's share of entries is halved for every
  ``bias_threshold_celsius`` (3 C in the paper) that its temperature exceeds
  the average temperature of all banks.  The table is recomputed at a fixed
  interval (10 M cycles in the paper) from the per-bank thermal sensors.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def trace_address_hash(address: int, bits: int = 5) -> int:
    """Hash a trace-cache address into a ``bits``-bit combination index.

    The paper XORs two five-bit fields of the trace-cache address (branch
    bits plus the PC of the first instruction of the trace); the fields were
    picked to spread addresses uniformly over combinations.  We XOR two
    disjoint PC fields above the instruction-alignment bits.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    mask = (1 << bits) - 1
    low = (address >> 2) & mask
    high = (address >> (2 + bits)) & mask
    return (low ^ high) & mask


class BankMappingTable:
    """The combination-to-bank table indexed by the trace-address hash."""

    def __init__(self, num_entries: int, enabled_banks: Sequence[int]) -> None:
        if num_entries <= 0:
            raise ValueError("mapping table needs at least one entry")
        if not enabled_banks:
            raise ValueError("mapping table needs at least one enabled bank")
        self.num_entries = num_entries
        self._entries: List[int] = [enabled_banks[0]] * num_entries
        self.set_balanced(enabled_banks)

    @property
    def entries(self) -> List[int]:
        """A copy of the current entry-to-bank assignment."""
        return list(self._entries)

    def bank_for(self, address: int) -> int:
        """Bank that ``address`` maps to under the current table."""
        index = trace_address_hash(address) % self.num_entries
        return self._entries[index]

    def bank_for_combination(self, combination: int) -> int:
        """Bank assigned to a raw combination index."""
        return self._entries[combination % self.num_entries]

    def entries_per_bank(self) -> Dict[int, int]:
        """Number of table entries currently assigned to each bank."""
        counts: Dict[int, int] = {}
        for bank in self._entries:
            counts[bank] = counts.get(bank, 0) + 1
        return counts

    def bank_shares(self, num_banks: int) -> Dict[int, float]:
        """Fraction of table entries pointing at each of ``num_banks`` banks."""
        counts = self.entries_per_bank()
        return {
            bank: counts.get(bank, 0) / self.num_entries for bank in range(num_banks)
        }

    def set_assignment(self, shares: Dict[int, int]) -> None:
        """Assign ``shares[bank]`` consecutive entries to each bank.

        The shares must sum to the table size.  Consecutive assignment
        mirrors the paper's Figure 9 ("entries from 0 to 15 point to bank 0,
        entries from 16 to 31 point to bank 1").
        """
        total = sum(shares.values())
        if total != self.num_entries:
            raise ValueError(
                f"shares sum to {total}, expected {self.num_entries}"
            )
        if any(count < 0 for count in shares.values()):
            raise ValueError("shares must be non-negative")
        entries: List[int] = []
        for bank in sorted(shares):
            entries.extend([bank] * shares[bank])
        self._entries = entries

    def set_balanced(self, enabled_banks: Sequence[int]) -> None:
        """Distribute entries evenly over ``enabled_banks`` (balanced policy)."""
        banks = list(enabled_banks)
        base = self.num_entries // len(banks)
        remainder = self.num_entries - base * len(banks)
        shares = {}
        for i, bank in enumerate(sorted(banks)):
            shares[bank] = base + (1 if i < remainder else 0)
        self.set_assignment(shares)


class BalancedMappingPolicy:
    """Conventional banking: accesses spread evenly over the enabled banks."""

    def __init__(self, num_entries: int = 32) -> None:
        self.num_entries = num_entries

    def compute_shares(
        self, enabled_banks: Sequence[int], temperatures: Dict[int, float]
    ) -> Dict[int, int]:
        """Return the per-bank entry counts (temperature is ignored)."""
        banks = sorted(enabled_banks)
        base = self.num_entries // len(banks)
        remainder = self.num_entries - base * len(banks)
        return {
            bank: base + (1 if i < remainder else 0) for i, bank in enumerate(banks)
        }


class ThermalAwareMappingPolicy:
    """The paper's biased mapping function.

    A bank's share of mapping-table entries (hence of accesses) is divided by
    two for every ``bias_threshold_celsius`` of difference between the bank's
    temperature and the average temperature of all enabled banks
    (Section 3.2.2: "the activity of a bank should be divided by a factor of
    two, for each 3 C of difference").
    """

    def __init__(self, num_entries: int = 32, bias_threshold_celsius: float = 3.0) -> None:
        if bias_threshold_celsius <= 0:
            raise ValueError("bias threshold must be positive")
        self.num_entries = num_entries
        self.bias_threshold_celsius = bias_threshold_celsius

    def compute_shares(
        self, enabled_banks: Sequence[int], temperatures: Dict[int, float]
    ) -> Dict[int, int]:
        """Compute the per-bank entry counts from current bank temperatures."""
        banks = sorted(enabled_banks)
        if not banks:
            raise ValueError("at least one bank must be enabled")
        temps = [temperatures[b] for b in banks]
        mean_temp = sum(temps) / len(temps)
        # Weight halves for every `threshold` degrees above the mean (and
        # doubles for every `threshold` degrees below it).
        weights = {
            bank: 2.0 ** (-(temperatures[bank] - mean_temp) / self.bias_threshold_celsius)
            for bank in banks
        }
        total_weight = sum(weights.values())
        # Largest-remainder apportionment of the table entries, but always at
        # least one entry per enabled bank so no bank is starved entirely.
        raw = {
            bank: self.num_entries * weights[bank] / total_weight for bank in banks
        }
        shares = {bank: max(1, int(math.floor(raw[bank]))) for bank in banks}
        assigned = sum(shares.values())
        remainders = sorted(
            banks, key=lambda b: raw[b] - math.floor(raw[b]), reverse=True
        )
        index = 0
        while assigned < self.num_entries:
            shares[remainders[index % len(remainders)]] += 1
            assigned += 1
            index += 1
        while assigned > self.num_entries:
            # Remove entries from the hottest banks first, never below one.
            for bank in sorted(banks, key=lambda b: temperatures[b], reverse=True):
                if shares[bank] > 1:
                    shares[bank] -= 1
                    assigned -= 1
                    break
            else:  # pragma: no cover - cannot happen with num_entries >= banks
                break
        return shares
