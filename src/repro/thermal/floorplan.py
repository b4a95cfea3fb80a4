"""Processor floorplans (Figures 10 and 11 of the paper).

The floorplan determines how heat spreads laterally between blocks, which is
what makes the paper's techniques work: distributing a hot structure spreads
its activity over a larger area, and a cooler neighbour absorbs part of a hot
block's heat.  The layout mirrors the paper's figures:

* a frontend strip at the top of the die: a row with the reorder buffer, a
  row with the rename table / ITLB / trace-cache bank 0 and a row with the
  decoder / branch predictor / trace-cache bank 1 (the three-bank floorplan
  used for bank hopping re-arranges these rows as in Figure 11);
* the four backend clusters side by side in the middle, each with the
  internal arrangement of Figure 10b (data cache and DTLB, functional units
  and memory order buffer, register files, schedulers);
* the UL2 across the bottom of the die.

Block sizes come from the power/area model; the layout solver simply slices
each region into rows whose heights are proportional to the row's total area
and then slices each row into blocks whose widths are proportional to the
block areas, which keeps every region exactly filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim import blocks
from repro.sim.config import ProcessorConfig

#: Two blocks closer than this (in metres) are considered touching.
_ADJACENCY_TOLERANCE_M = 1e-9
#: Blocks whose boxes :meth:`Floorplan.adjacency` tests against every later
#: block at once (bounds its boolean scratch to this many rows).
_ADJACENCY_CHUNK = 256


@dataclass(frozen=True)
class Block:
    """An axis-aligned rectangular floorplan block (dimensions in metres)."""

    name: str
    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"block {self.name} must have positive dimensions")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def area_mm2(self) -> float:
        return self.area * 1e6

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def renamed(self, name: str) -> "Block":
        """The same rectangle under a different name."""
        return Block(name=name, x=self.x, y=self.y, width=self.width, height=self.height)

    def translated(self, dx: float, dy: float) -> "Block":
        """The same rectangle shifted by ``(dx, dy)`` metres."""
        return Block(
            name=self.name, x=self.x + dx, y=self.y + dy, width=self.width, height=self.height
        )

    def shared_edge_length(self, other: "Block") -> float:
        """Length of the boundary shared with ``other`` (0 if not adjacent)."""
        tol = _ADJACENCY_TOLERANCE_M
        # Vertical adjacency (one block on top of the other).
        if (
            abs((self.y + self.height) - other.y) < tol
            or abs((other.y + other.height) - self.y) < tol
        ):
            overlap = min(self.x + self.width, other.x + other.width) - max(self.x, other.x)
            if overlap > tol:
                return overlap
        # Horizontal adjacency (side by side).
        if (
            abs((self.x + self.width) - other.x) < tol
            or abs((other.x + other.width) - self.x) < tol
        ):
            overlap = min(self.y + self.height, other.y + other.height) - max(self.y, other.y)
            if overlap > tol:
                return overlap
        return 0.0


class Floorplan:
    """A collection of non-overlapping blocks covering the die."""

    def __init__(self, blocks_: Sequence[Block]) -> None:
        if not blocks_:
            raise ValueError("a floorplan needs at least one block")
        names = [b.name for b in blocks_]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names in floorplan")
        self._blocks: Dict[str, Block] = {b.name: b for b in blocks_}
        #: Grown bounding boxes (x0, y0, x1, y1 rows), built on first use.
        self._boxes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def block_names(self) -> List[str]:
        return list(self._blocks)

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, name: str) -> Block:
        return self._blocks[name]

    def blocks(self) -> List[Block]:
        return list(self._blocks.values())

    @property
    def die_width(self) -> float:
        return max(b.x + b.width for b in self._blocks.values())

    @property
    def die_height(self) -> float:
        return max(b.y + b.height for b in self._blocks.values())

    @property
    def die_area(self) -> float:
        return sum(b.area for b in self._blocks.values())

    @property
    def die_area_mm2(self) -> float:
        return self.die_area * 1e6

    def adjacency(self) -> List[Tuple[str, str, float]]:
        """All pairs of adjacent blocks with their shared edge length (m).

        Pairs come in block order — ``(a, b)`` with ``a`` before ``b``,
        sorted by ``a`` then ``b``.  A vectorized bounding-box test (see
        :meth:`_touching`) picks the pairs worth measuring, so the list
        equals the all-pairs scan's entry for entry, with one
        :meth:`Block.shared_edge_length` call per touching pair instead of
        one per pair.
        """
        blocks_ = list(self._blocks.values())
        result: List[Tuple[str, str, float]] = []
        for start in range(0, len(blocks_), _ADJACENCY_CHUNK):
            rows, columns = self._touching(start, start + _ADJACENCY_CHUNK, start)
            later = columns > rows
            for i, j in zip(rows[later].tolist(), columns[later].tolist()):
                a, b = blocks_[i], blocks_[j]
                shared = a.shared_edge_length(b)
                if shared > 0.0:
                    result.append((a.name, b.name, shared))
        return result

    def neighbours(self, name: str) -> List[str]:
        """Blocks sharing an edge with ``name``, in block order."""
        blocks_ = list(self._blocks.values())
        index = list(self._blocks).index(name)
        target = blocks_[index]
        _, columns = self._touching(index, index + 1, 0)
        return [
            blocks_[j].name
            for j in columns.tolist()
            if j != index and target.shared_edge_length(blocks_[j]) > 0.0
        ]

    def _touching(self, start: int, stop: int, first: int) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs ``(i, j)``, ``start <= i < stop`` and ``j >= first``,
        whose boxes touch, in row-major order.

        Each block's bounding box is grown by the adjacency tolerance on
        every side; a pair with a nonzero :meth:`Block.shared_edge_length`
        always has overlapping grown boxes, so filtering on them drops only
        pairs that share no edge.
        """
        if self._boxes is None:
            tol = _ADJACENCY_TOLERANCE_M
            self._boxes = np.array(
                [
                    (b.x - tol, b.y - tol, b.x + b.width + tol, b.y + b.height + tol)
                    for b in self._blocks.values()
                ]
            ).T
        x0, y0, x1, y1 = self._boxes[:, first:]
        rows = self._boxes[:, start:stop, None]
        touch = (rows[0] <= x1) & (x0 <= rows[2]) & (rows[1] <= y1) & (y0 <= rows[3])
        i, j = np.nonzero(touch)
        return i + start, j + first

    def namespaced(self, prefix: str, separator: str = ".") -> "Floorplan":
        """This floorplan with every block renamed ``<prefix><separator><name>``.

        Geometry is untouched, and block order is preserved, so the renamed
        plan builds exactly the same conductance and capacitance matrices as
        the original — renaming is free in the physics.
        """
        if not prefix:
            raise ValueError("namespace prefix must be non-empty")
        return Floorplan(
            [b.renamed(f"{prefix}{separator}{b.name}") for b in self._blocks.values()]
        )

    def translated(self, dx: float, dy: float) -> "Floorplan":
        """This floorplan shifted by ``(dx, dy)`` metres (order preserved)."""
        return Floorplan([b.translated(dx, dy) for b in self._blocks.values()])

    def describe(self) -> str:
        """Tabular, human-readable description of the floorplan."""
        lines = [
            f"Die: {self.die_width * 1e3:.2f} x {self.die_height * 1e3:.2f} mm "
            f"({self.die_area_mm2:.1f} mm^2), {len(self)} blocks",
            f"{'block':<12} {'x (mm)':>8} {'y (mm)':>8} {'w (mm)':>8} {'h (mm)':>8} {'area':>9}",
        ]
        for block in sorted(self._blocks.values(), key=lambda b: (b.y, b.x)):
            lines.append(
                f"{block.name:<12} {block.x * 1e3:>8.3f} {block.y * 1e3:>8.3f} "
                f"{block.width * 1e3:>8.3f} {block.height * 1e3:>8.3f} "
                f"{block.area_mm2:>7.2f}mm2"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Multi-die composition (the chip-multiprocessor layer)
# ----------------------------------------------------------------------
def compose_floorplans(
    plans: Sequence[Floorplan],
    prefixes: Sequence[str],
    columns: int = 0,
    separator: str = ".",
) -> Floorplan:
    """Compose several floorplans into one die on a core grid.

    Each sub-floorplan is namespaced (``core0.ROB``, ``core1.ROB``, ...) and
    placed into a row-major grid of ``columns`` columns (default: the
    smallest square grid that fits, so 2 cores sit side by side and 4 cores
    form a 2x2 grid).  Grid cells are sized by the largest sub-die, and every
    sub-plan is anchored at its cell's origin, so identical dies abut exactly
    edge to edge — :meth:`Block.shared_edge_length` then reports the touching
    block pairs *across* core boundaries, and a
    :class:`~repro.thermal.rc_model.ThermalRCNetwork` built over the
    composite naturally produces cross-core lateral coupling in addition to
    the coupling through the shared spreader and sink.

    With a single floorplan the composition is a pure rename: the geometry —
    and therefore every conductance and capacitance — is bit-identical to the
    original, which is what keeps a 1-core chip equal to the single-core
    engine.
    """
    if not plans:
        raise ValueError("composition needs at least one floorplan")
    if len(prefixes) != len(plans):
        raise ValueError(
            f"{len(plans)} floorplans but {len(prefixes)} namespace prefixes"
        )
    if len(set(prefixes)) != len(prefixes):
        raise ValueError(f"namespace prefixes must be unique, got {list(prefixes)}")
    if columns <= 0:
        columns = int(len(plans) ** 0.5)
        while columns * columns < len(plans):
            columns += 1
    cell_width = max(plan.die_width for plan in plans)
    cell_height = max(plan.die_height for plan in plans)
    placed: List[Block] = []
    for i, (plan, prefix) in enumerate(zip(plans, prefixes)):
        row, col = divmod(i, columns)
        namespaced = plan.namespaced(prefix, separator=separator)
        if row or col:
            namespaced = namespaced.translated(col * cell_width, row * cell_height)
        placed.extend(namespaced.blocks())
    return Floorplan(placed)


# ----------------------------------------------------------------------
# Layout construction
# ----------------------------------------------------------------------
def _layout_rows(
    rows: Sequence[Sequence[str]],
    areas_m2: Mapping[str, float],
    origin_x: float,
    origin_y: float,
    region_width: float,
) -> List[Block]:
    """Slice a region into rows of blocks (row height follows row area)."""
    placed: List[Block] = []
    y = origin_y
    for row in rows:
        row_area = sum(areas_m2[name] for name in row)
        if row_area <= 0:
            continue
        height = row_area / region_width
        x = origin_x
        for name in row:
            width = areas_m2[name] / height
            placed.append(Block(name=name, x=x, y=y, width=width, height=height))
            x += width
        y += height
    return placed


def _frontend_rows(config: ProcessorConfig) -> List[List[str]]:
    """Frontend block rows following Figure 10a (2 banks) or Figure 11 (3 banks)."""
    num_frontends = config.frontend.num_frontends
    rob_row = [blocks.rob_block(i, num_frontends) for i in range(num_frontends)]
    rat_row = [blocks.rat_block(i, num_frontends) for i in range(num_frontends)]
    physical_banks = config.frontend.trace_cache.physical_banks
    bank = blocks.trace_cache_bank_block
    if physical_banks <= 2:
        return [
            rob_row,
            rat_row + [blocks.ITLB, bank(0)],
            [blocks.DECODER, blocks.BRANCH_PREDICTOR] + [bank(b) for b in range(1, physical_banks)],
        ]
    # Figure 11: ROB / DECO TC-0 ITLB / RAT TC-1 BP TC-2 (extra banks appended).
    return [
        rob_row,
        [blocks.DECODER, bank(0), blocks.ITLB],
        rat_row + [bank(1), blocks.BRANCH_PREDICTOR] + [bank(b) for b in range(2, physical_banks)],
    ]


def _cluster_rows(cluster: int) -> List[List[str]]:
    """Cluster-internal block rows following Figure 10b."""
    c = lambda suffix: blocks.cluster_block(cluster, suffix)  # noqa: E731
    return [
        [c(blocks.CLUSTER_DCACHE), c(blocks.CLUSTER_DTLB)],
        [c(blocks.CLUSTER_FP_FU), c(blocks.CLUSTER_INT_FU), c(blocks.CLUSTER_MOB)],
        [c(blocks.CLUSTER_FP_RF), c(blocks.CLUSTER_INT_RF)],
        [c(blocks.CLUSTER_FP_SCHED), c(blocks.CLUSTER_COPY_SCHED), c(blocks.CLUSTER_INT_SCHED)],
    ]


def build_floorplan(
    config: ProcessorConfig, block_areas_mm2: Mapping[str, float]
) -> Floorplan:
    """Build the processor floorplan for a configuration.

    Parameters
    ----------
    config:
        Processor configuration (determines which blocks exist and how the
        frontend strip is arranged).
    block_areas_mm2:
        Area of every block in mm^2 (typically from
        :func:`repro.power.energy.build_block_parameters`).
    """
    expected = blocks.all_blocks(config)
    missing = set(expected) - set(block_areas_mm2)
    if missing:
        raise ValueError(f"missing areas for blocks: {sorted(missing)}")

    # Iterate in canonical block order, NOT over a set: the total-area sum
    # below feeds the die width, and a hash-seed-dependent summation order
    # would perturb every floorplan coordinate (and hence every conductance
    # and temperature) in the last ulp from one process to the next.
    areas_m2 = {name: block_areas_mm2[name] * 1e-6 for name in expected}
    total_area = sum(areas_m2.values())
    die_width = total_area ** 0.5  # roughly square die

    placed: List[Block] = []

    # Frontend strip at the top of the die.
    frontend_rows = _frontend_rows(config)
    frontend_names = [name for row in frontend_rows for name in row]
    placed.extend(
        _layout_rows(frontend_rows, areas_m2, origin_x=0.0, origin_y=0.0, region_width=die_width)
    )
    frontend_height = sum(areas_m2[name] for name in frontend_names) / die_width

    # Backend clusters side by side below the frontend.
    num_clusters = config.backend.num_clusters
    cluster_area = sum(
        areas_m2[name]
        for c in range(num_clusters)
        for name in blocks.cluster_blocks(config, c)
    )
    cluster_strip_height = cluster_area / die_width
    cluster_width = die_width / num_clusters
    for c in range(num_clusters):
        placed.extend(
            _layout_rows(
                _cluster_rows(c),
                areas_m2,
                origin_x=c * cluster_width,
                origin_y=frontend_height,
                region_width=cluster_width,
            )
        )

    # UL2 across the bottom of the die.
    ul2_height = areas_m2[blocks.UL2] / die_width
    placed.append(
        Block(
            name=blocks.UL2,
            x=0.0,
            y=frontend_height + cluster_strip_height,
            width=die_width,
            height=ul2_height,
        )
    )
    return Floorplan(placed)
