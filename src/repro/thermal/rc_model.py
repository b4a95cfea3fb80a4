"""Thermal RC network construction (the dynamic compact model).

Every floorplan block is a node.  The network contains:

* a vertical conduction path from each block through the remaining die
  silicon and the thermal interface material to the heat-spreader node;
* lateral conduction paths between blocks that share a floorplan edge;
* the spreader node, connected to the heat-sink node;
* the sink node, connected to the ambient through the convection resistance.

The node temperatures follow ``C dT/dt = P - G (T - T_ambient_vector)`` where
``G`` is the conductance (Laplacian) matrix, ``C`` the diagonal capacitance
matrix and ``P`` the per-node power injection (zero for package nodes).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from repro.sim.config import ThermalConfig
from repro.thermal.floorplan import Floorplan
from repro.thermal.package import (
    COPPER,
    PackageProperties,
    SILICON,
    TIM,
    VERTICAL_SPREADING_FACTOR,
)


class ThermalRCNetwork:
    """The compact RC model of the die plus its package."""

    def __init__(self, floorplan: Floorplan, config: ThermalConfig) -> None:
        self.floorplan = floorplan
        self.config = config
        self.block_names: List[str] = list(floorplan.block_names)
        self.num_blocks = len(self.block_names)
        #: Node ordering: blocks, then spreader, then sink.
        self.spreader_index = self.num_blocks
        self.sink_index = self.num_blocks + 1
        self.num_nodes = self.num_blocks + 2
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.block_names)
        }
        self.package = PackageProperties.from_config(config, floorplan.die_area)
        self.conductance = self._build_conductance()
        self.capacitance = self._build_capacitance()

    # ------------------------------------------------------------------
    def node_index(self, block_name: str) -> int:
        return self._index[block_name]

    def node_positions(self, block_names) -> np.ndarray:
        """Node indices of several blocks, as an integer array.

        The fast path keeps per-block vectors in the power model's block
        order, which need not match the floorplan's; this is the explicit
        permutation that scatters such a vector into node space (and gathers
        node temperatures back out).
        """
        return np.array([self._index[name] for name in block_names], dtype=np.intp)

    # ------------------------------------------------------------------
    # Matrix construction
    # ------------------------------------------------------------------
    def _vertical_conductance(self, area_m2: float) -> float:
        """Block-to-spreader conductance through die silicon and TIM."""
        effective_area = area_m2 * VERTICAL_SPREADING_FACTOR
        r_die = self.config.die_thickness_m / (SILICON.conductivity * effective_area)
        r_tim = self.config.tim_thickness_m / (TIM.conductivity * effective_area)
        return 1.0 / (r_die + r_tim)

    def _lateral_conductance(self, name_a: str, name_b: str, shared_edge: float) -> float:
        """Block-to-block conductance through the die silicon."""
        block_a = self.floorplan.block(name_a)
        block_b = self.floorplan.block(name_b)
        # Heat flows between block centres through a cross-section of the
        # shared edge length times the die thickness.
        ax, ay = block_a.center
        bx, by = block_b.center
        distance = max(1e-6, ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5)
        cross_section = shared_edge * self.config.die_thickness_m
        return SILICON.conductivity * cross_section / distance

    def _conductance_entries(self) -> Iterator[Tuple[int, int, float]]:
        """Every ``G[i, j] += value`` update of the conductance build, in order.

        This triplet stream is the single source of truth for the matrix:
        the dense build replays it with sequential ``+=`` (so its arithmetic
        — and therefore every golden fixture downstream — is unchanged by
        the sparse backend's existence), and :meth:`conductance_sparse`
        compresses the resulting dense matrix, inheriting the exact same
        entry values.
        """

        def coupling(i: int, j: int, value: float) -> Iterator[Tuple[int, int, float]]:
            yield (i, i, value)
            yield (j, j, value)
            yield (i, j, -value)
            yield (j, i, -value)

        # Vertical paths block -> spreader.
        for name in self.block_names:
            block = self.floorplan.block(name)
            yield from coupling(
                self._index[name], self.spreader_index, self._vertical_conductance(block.area)
            )
        # Lateral paths between adjacent blocks.
        for name_a, name_b, shared in self.floorplan.adjacency():
            yield from coupling(
                self._index[name_a],
                self._index[name_b],
                self._lateral_conductance(name_a, name_b, shared),
            )
        # Spreader -> sink -> ambient.
        yield from coupling(
            self.spreader_index,
            self.sink_index,
            1.0 / self.package.spreader_to_sink_resistance,
        )
        # The ambient is a fixed-temperature source: only the diagonal term
        # remains (the off-diagonal part is folded into the source vector).
        yield (
            self.sink_index,
            self.sink_index,
            1.0 / self.package.sink_to_ambient_resistance,
        )

    def _build_conductance(self) -> np.ndarray:
        g = np.zeros((self.num_nodes, self.num_nodes))
        for i, j, value in self._conductance_entries():
            g[i, j] += value
        return g

    def conductance_sparse(self):
        """The conductance matrix as a ``scipy.sparse`` CSC matrix.

        Compressed from the dense :attr:`conductance` the constructor
        already built (the floorplan adjacency walk is not repeated), so
        the stored nonzeros are *bit-identical* to the dense entries —
        the two assemblies differ only in what the zeros cost.  The
        nonzeros are found on a boolean mask scanned column by column, which
        yields CSC order directly (the same arrays ``csc_matrix(dense)``
        builds, at a fraction of its cost on a many-core die).  CSC is
        what ``scipy.sparse.linalg.splu`` factorizes without a conversion
        copy.

        Raises :class:`RuntimeError` when SciPy is not installed — callers
        gate on :func:`repro.thermal.solver.sparse_backend_available` (the
        ``auto`` solver backend falls back to dense instead of calling
        this).
        """
        try:
            from scipy import sparse
        except ImportError as error:  # pragma: no cover - scipy present in CI
            raise RuntimeError(
                "the sparse conductance assembly requires scipy"
            ) from error
        g = self.conductance
        n = self.num_nodes
        columns, rows = np.divmod(np.flatnonzero((g != 0.0).T), n)
        indptr = np.searchsorted(columns, np.arange(n + 1))
        return sparse.csc_matrix((g[rows, columns], rows, indptr), shape=g.shape)

    def _build_capacitance(self) -> np.ndarray:
        c = np.zeros(self.num_nodes)
        for name in self.block_names:
            block = self.floorplan.block(name)
            c[self._index[name]] = (
                SILICON.volumetric_heat_capacity * block.area * self.config.die_thickness_m
            )
        c[self.spreader_index] = self.package.spreader_capacitance
        c[self.sink_index] = self.package.sink_capacitance
        return c

    # ------------------------------------------------------------------
    # Source vector helpers
    # ------------------------------------------------------------------
    def ambient_source(self) -> np.ndarray:
        """Constant heat inflow equivalent of the fixed ambient temperature.

        Working in temperatures relative to ambient would make this zero; the
        solver works in absolute Celsius, so the ambient contributes
        ``T_ambient / R_convection`` at the sink node.
        """
        source = np.zeros(self.num_nodes)
        source[self.sink_index] = (
            self.config.ambient_celsius / self.package.sink_to_ambient_resistance
        )
        return source

    def power_vector(self, block_power: Mapping[str, float]) -> np.ndarray:
        """Per-node power injection vector from a per-block power mapping."""
        p = np.zeros(self.num_nodes)
        for name, power in block_power.items():
            if name not in self._index:
                raise KeyError(f"power specified for unknown block {name!r}")
            p[self._index[name]] = power
        return p

    def temperatures_by_block(self, state: np.ndarray) -> Dict[str, float]:
        """Convert a node-temperature vector to a per-block dictionary."""
        return {name: float(state[self._index[name]]) for name in self.block_names}

    def uniform_state(self, temperature_celsius: float) -> np.ndarray:
        """A node vector with every node at the same temperature."""
        return np.full(self.num_nodes, float(temperature_celsius))
