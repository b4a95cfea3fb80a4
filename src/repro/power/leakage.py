"""Temperature-dependent leakage power (Section 2.1 of the paper).

For each functional block, leakage power is modelled as the block's *average
dynamic power* multiplied by a factor that depends on temperature: roughly
30% at the ambient, inside-box temperature of 45 C, growing exponentially
with temperature (the paper establishes an exponential dependence between
temperature and leakage).

The "average dynamic power" of a block is tracked as a running average over
the simulation (the paper obtains it from a 50 M-instruction profiling run);
Vdd-gated blocks leak nothing.

The model is array-backed: the running dynamic-power average lives in a
NumPy vector laid out by a :class:`~repro.sim.block_index.BlockIndex`, and
the per-interval hot path (:meth:`LeakageModel.observe_dynamic_power_array`,
:meth:`LeakageModel.leakage_power_array`) never builds a per-block
dictionary.  The original mapping-based methods remain as thin wrappers for
the public boundary and the tests.

The per-block exponential is evaluated with :func:`math.exp` (not
``np.exp``) on purpose: the golden-metric equivalence suite locks the
simulator's output bit-for-bit against the original scalar implementation,
and the two exponentials can differ in the last ulp.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.sim.block_index import BlockIndex
from repro.sim.config import PowerConfig


class LeakageModel:
    """Per-block leakage as an exponential function of temperature."""

    def __init__(self, config: PowerConfig, block_names: Iterable[str]) -> None:
        self.config = config
        self.index = BlockIndex(block_names)
        self._blocks = self.index.names
        self._dynamic_power_sum = np.zeros(len(self.index))
        self._intervals = 0

    # ------------------------------------------------------------------
    # Running average of dynamic power
    # ------------------------------------------------------------------
    def observe_dynamic_power_array(self, dynamic_power: np.ndarray) -> None:
        """Update the running average from a block-index-ordered vector."""
        self._dynamic_power_sum += dynamic_power
        self._intervals += 1

    def observe_dynamic_power(self, dynamic_power: Mapping[str, float]) -> None:
        """Update the running average of per-block dynamic power."""
        self.observe_dynamic_power_array(self.index.array_from_mapping(dynamic_power))

    def nominal_dynamic_power(self, block: str) -> float:
        """Running-average dynamic power of ``block`` (W)."""
        if self._intervals == 0:
            return 0.0
        return float(self._dynamic_power_sum[self.index.position(block)]) / self._intervals

    def seed_nominal_power_array(self, dynamic_power: np.ndarray) -> None:
        """Seed the running average (used by the warm-up steady-state solve)."""
        self._dynamic_power_sum = np.array(dynamic_power, dtype=float)
        self._intervals = 1

    def seed_nominal_power(self, dynamic_power: Mapping[str, float]) -> None:
        """Seed the running average from a per-block mapping."""
        self.seed_nominal_power_array(self.index.array_from_mapping(dynamic_power))

    # ------------------------------------------------------------------
    #: Temperature rise over ambient beyond which the exponential is clamped.
    #: Real silicon would long have hit the thermal-emergency limit (381 K);
    #: the clamp only guards the solver against numerical runaway when no
    #: emergency mechanism is modelled (the paper disables them too).
    MAX_DELTA_CELSIUS = 120.0

    def leakage_factor(self, temperature_celsius: float) -> float:
        """Leakage as a fraction of nominal dynamic power at a temperature."""
        delta = temperature_celsius - self.config.ambient_celsius
        delta = min(delta, self.MAX_DELTA_CELSIUS)
        return self.config.leakage_fraction_at_ambient * math.exp(
            self.config.leakage_temperature_coefficient * delta
        )

    def leakage_power_array(
        self,
        temperatures: np.ndarray,
        gated_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-block leakage power (W) from a block-index-ordered temperature vector."""
        intervals = self._intervals
        if intervals == 0:
            return np.zeros(len(self._blocks))
        # Only the exponential runs element by element, as :func:`math.exp`
        # on plain Python floats; the difference, clamp, products and
        # quotient are single IEEE-rounded NumPy operations, bit-identical to
        # the same scalar expressions.
        config = self.config
        delta = np.minimum(
            np.asarray(temperatures, dtype=float) - config.ambient_celsius,
            self.MAX_DELTA_CELSIUS,
        )
        growth = np.array(
            list(map(math.exp, (config.leakage_temperature_coefficient * delta).tolist()))
        )
        out = (self._dynamic_power_sum / intervals) * (
            config.leakage_fraction_at_ambient * growth
        )
        if gated_mask is not None:
            out[np.asarray(gated_mask, dtype=bool)] = 0.0
        return out

    def leakage_power_batch(
        self,
        temperatures: np.ndarray,
        gated_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`leakage_power_array` over stacked temperature rows.

        ``temperatures`` is a ``(..., blocks)`` array whose trailing axis is
        block-index order; the result has the same shape.  Evaluates the
        exponential with :func:`np.exp` in one pass — the *documented-
        tolerance* kernel: each element matches the scalar :func:`math.exp`
        loop of :meth:`leakage_power_array` to within the last ulp of an
        IEEE double (the two libm paths may round differently), so callers
        that are tolerance-locked (batched trace replay, screening) use
        this, while the exact/coupled paths keep the scalar bit-exact
        kernel.  ``gated_mask`` broadcasts against the temperature shape.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        if self._intervals == 0:
            return np.zeros(temperatures.shape)
        nominal = self._dynamic_power_sum / self._intervals
        out = batched_leakage_kernel(
            nominal,
            temperatures,
            ambient_celsius=self.config.ambient_celsius,
            fraction_at_ambient=self.config.leakage_fraction_at_ambient,
            temperature_coefficient=self.config.leakage_temperature_coefficient,
        )
        if gated_mask is not None:
            out = np.where(gated_mask, 0.0, out)
        return out

    def leakage_power(
        self,
        temperatures: Mapping[str, float],
        gated_blocks: Optional[Iterable[str]] = None,
    ) -> Dict[str, float]:
        """Per-block leakage power (W) at the given block temperatures."""
        temps = self.index.array_from_mapping(
            temperatures, default=self.config.ambient_celsius
        )
        mask = self.index.mask(gated_blocks) if gated_blocks else None
        return self.index.mapping_from_array(self.leakage_power_array(temps, mask))


def batched_leakage_kernel(
    nominal_power: np.ndarray,
    temperatures: np.ndarray,
    *,
    ambient_celsius,
    fraction_at_ambient,
    temperature_coefficient,
    max_delta_celsius: float = LeakageModel.MAX_DELTA_CELSIUS,
) -> np.ndarray:
    """The ``np.exp`` leakage kernel over arbitrary stacked shapes.

    ``leakage = nominal * (fraction * exp(coefficient * min(T - ambient,
    max_delta)))`` — elementwise, with the same association order as the
    scalar loop in :meth:`LeakageModel.leakage_power_array`, so the only
    divergence from the bit-exact kernel is ``np.exp`` vs :func:`math.exp`
    (last-ulp rounding).  Every argument broadcasts: the batched group
    replay engine passes a ``(cells, blocks)`` temperature matrix with
    per-cell ``(cells, 1)`` column vectors for the three leakage
    parameters, evaluating a whole sweep's leakage in one pass.
    """
    delta = np.minimum(
        np.asarray(temperatures, dtype=float) - ambient_celsius,
        max_delta_celsius,
    )
    return nominal_power * (
        fraction_at_ambient * np.exp(temperature_coefficient * delta)
    )
