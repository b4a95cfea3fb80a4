"""The replay path: physics-only replay of captured activity traces.

After the two-stage split, a physics sweep captures the timing stage once as
an :class:`~repro.sim.activity_trace.ActivityTrace` and replays only the
physics for every variant.  This module is the one implementation of that
replay, for single-core and chip cells alike:

* the input is one die-wide ``(intervals x blocks)`` activity layout
  stacked from N per-core traces (:func:`stack_traces`) — a single-core
  cell is simply the layout with one trace, a chip cell concatenates its
  threads' traces core by core;
* a cell (:class:`ReplayCell`, or :class:`repro.chip.engine.ChipReplayCell`)
  says how its die and power model are built and how its result is shaped;
  nothing else differs between the two;
* cells of one replay group are **sub-grouped by thermal key** (the
  ``thermal`` config section plus the block areas and core count —
  identical key means identical floorplan, RC network and factorization,
  so one die serves the whole sub-group);
* each cell either walks its interval chain alone on its own die (the exact
  walk) or advances with its whole sub-group at once (the batched walk):
  leakage via the :func:`~repro.power.leakage.batched_leakage_kernel`
  ``np.exp`` kernel over the ``(cells x blocks)`` temperature matrix, then
  one multi-RHS solve per interval for the entire sub-group.

The choice is ``replay_mode``, one of :data:`REPLAY_MODES`:

* ``"exact"`` — the per-cell walk, bit-identical to the coupled run and
  locked to the golden fixtures.  It is the default everywhere — here, in
  :func:`repro.chip.engine.replay_chip_group` and in the campaign's
  ``ExecutionOptions`` — so an unchanged campaign produces unchanged bytes.
* ``"batched"`` — the tensor walk.  Tolerance-locked, not bit-exact: the
  multi-RHS LAPACK kernels and ``np.exp`` may round the last ulp
  differently, and the nominal-power running average is reassociated into a
  cumulative sum.  ``tests/test_group_replay.py`` locks batched==exact at
  rtol/atol 1e-8.  Sub-groups of one cell still take the exact path — a
  batch of one is pure stacking overhead.

Per-cell *warm-up* stays on the exact scalar fixed point (shared
factorization, per-cell iteration): the warm-up convergence test stops at a
0.05 C tolerance, so running cells in lock-step until the *slowest*
converges would move early-converging cells by far more than the 1e-8
contract allows.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dtm.controls import DTMControls, DTMTelemetry
from repro.dtm.policies import DTMPolicy
from repro.power.leakage import batched_leakage_kernel
from repro.power.power_model import PowerModel
from repro.sim.activity_trace import ActivityTrace
from repro.sim.config import ProcessorConfig
from repro.sim.results import IntervalRecord, SimulationResult
from repro.sim.serialization import content_key
from repro.sim.warmcache import core_layout
from repro.thermal.solver import ThermalSolver

#: Accepted values of the ``replay_mode`` execution knob.
REPLAY_MODES = ("exact", "batched")

#: Equivalence contract of the batched path versus the exact per-cell path.
BATCHED_RTOL = 1e-8
BATCHED_ATOL = 1e-8


def validate_replay_mode(mode: str) -> str:
    """Normalize and validate a ``replay_mode`` value."""
    normalized = (mode or "exact").strip().lower()
    if normalized not in REPLAY_MODES:
        raise ValueError(
            f"replay_mode must be one of {', '.join(REPLAY_MODES)}, "
            f"not {mode!r}"
        )
    return normalized


def thermal_group_key(config: ProcessorConfig, block_areas: Dict[str, float]) -> str:
    """Hash of everything that shapes a cell's thermal network.

    Two configs of one timing-key group (same structure, same block names)
    with equal key here build the same floorplan, the same RC network and
    therefore the same factorization — the sharing unit of batched replay.
    The material is the ``thermal`` config section (R/C parameters, ambient,
    interval seconds, emergency limit) plus the block areas the floorplan is
    laid out from.
    """
    material = {
        "thermal": dataclasses.asdict(config.thermal),
        "areas": {name: float(area) for name, area in block_areas.items()},
    }
    return content_key(material)


# ----------------------------------------------------------------------
# The layout: N per-core traces stacked into one die-wide activity matrix
# ----------------------------------------------------------------------
class TraceStack(NamedTuple):
    """N per-core traces stacked into one die-wide ``(intervals x blocks)`` layout."""

    traces: Tuple[ActivityTrace, ...]
    #: Activity counts per interval, core ``t`` in the ``t``-th block slice.
    counts: np.ndarray
    #: Cycles each block's core ran per interval (same shape as ``counts``).
    cycles: np.ndarray
    #: Vdd-gated-bank masks (same shape), or ``None`` when no core gates.
    gated: Optional[np.ndarray]
    #: The die clock per interval: the longest any core ran.
    chip_cycles: np.ndarray

    @property
    def intervals(self) -> int:
        return len(self.chip_cycles)

    @property
    def benchmark(self) -> str:
        return "+".join(trace.benchmark for trace in self.traces)

    def gated_row(self, interval: int) -> Optional[np.ndarray]:
        return None if self.gated is None else self.gated[interval]


def check_traces(
    traces: Sequence[ActivityTrace], block_names: Sequence[str], interval_cycles: int
) -> None:
    """Refuse traces captured over another per-core block set or interval."""
    if not traces:
        raise ValueError("replay needs at least one activity trace")
    for t, trace in enumerate(traces):
        if list(trace.block_names) != list(block_names):
            raise ValueError(
                f"activity trace {t} was captured over a different block set; "
                "it cannot be replayed on this configuration"
            )
        if trace.interval_cycles != interval_cycles:
            raise ValueError(
                f"activity trace {t} was captured at interval_cycles="
                f"{trace.interval_cycles}, not {interval_cycles}"
            )


def stack_traces(
    traces: Sequence[ActivityTrace],
    cores: int,
    interval_cycles: int,
    max_intervals: Optional[int] = None,
) -> TraceStack:
    """Stack per-core traces into the die-wide layout of ``cores`` cores.

    Core ``t`` occupies the contiguous block slice ``t``.  A core whose
    trace has ended — or that has no trace at all — carries zero activity
    over a nominal interval, so it dissipates idle and leakage power only,
    exactly as the coupled chip loop leaves it.  Depends only on the traces
    and the core count, never on a physics variant: one stack serves every
    cell of a replay group.
    """
    if len(traces) > cores:
        raise ValueError(f"{len(traces)} traces do not fit on {cores} cores")
    width = len(traces[0].block_names)
    intervals = max(len(trace) for trace in traces)
    if max_intervals is not None:
        intervals = min(intervals, max_intervals)
    counts = np.zeros((intervals, cores * width))
    cycles = np.full((intervals, cores * width), interval_cycles, dtype=np.int64)
    any_gated = any(trace.gated_masks is not None for trace in traces)
    gated = np.zeros((intervals, cores * width), dtype=bool) if any_gated else None
    thread_cycles = np.zeros((len(traces), intervals), dtype=np.int64)
    for t, trace in enumerate(traces):
        seg = slice(t * width, (t + 1) * width)
        n = min(len(trace), intervals)
        counts[:n, seg] = trace.counts[:n]
        cycles[:n, seg] = trace.cycles[:n, None]
        thread_cycles[t, :n] = trace.cycles[:n]
        if gated is not None and trace.gated_masks is not None:
            gated[:n, seg] = trace.gated_masks[:n]
    return TraceStack(tuple(traces), counts, cycles, gated, thread_cycles.max(axis=0))


# ----------------------------------------------------------------------
# Cells: how a variant's die and power model are built, how its result looks
# ----------------------------------------------------------------------
class ReplayCell:
    """One physics variant of a replay, on the one-trace (single-core) layout.

    :class:`repro.chip.engine.ChipReplayCell` is the N-trace layout on a
    composite die; it overrides :meth:`die`, :meth:`power_model` and
    :meth:`finish` and nothing else.  ``policy`` may only be a non-feedback
    DTM policy (or spec string); its telemetry is reconstructed exactly as
    the coupled run records it.
    """

    cores = 1
    policy_kind = "DTM policy"

    def __init__(
        self,
        config: ProcessorConfig,
        policy: Union[DTMPolicy, str, None] = None,
        interval_cycles: Optional[int] = None,
    ) -> None:
        if isinstance(policy, str):
            from repro.dtm import make_policy

            policy = make_policy(policy)
        if policy is not None and policy.feedback:
            raise ValueError(
                f"{self.policy_kind} {policy.name!r} actuates on temperatures; "
                "its cells must be simulated coupled, not replayed"
            )
        self.config = config
        self.policy = policy
        self.interval_cycles = interval_cycles or config.thermal.interval_cycles

    @cached_property
    def core_parameters(self):
        """Block power parameters of one core, in trace block order."""
        return dict(core_layout(self.config)[0])

    def group_key(self) -> str:
        """Cells with equal keys share one die (floorplan, network, solver)."""
        areas = {name: p.area_mm2 for name, p in self.core_parameters.items()}
        key = thermal_group_key(self.config, areas)
        return f"{key}:{self.cores}"

    def die(self):
        """A fresh physics stage over this cell's die."""
        from repro.sim.stages import PhysicsStage

        return PhysicsStage(self.config, self.interval_cycles)

    def power_model(self) -> PowerModel:
        """This cell's power model over its die's block order."""
        return PowerModel(self.config.power, self.core_parameters)

    def finish(
        self, result: SimulationResult, die, stack: TraceStack, temperatures: np.ndarray
    ) -> SimulationResult:
        """Attach the stats and DTM telemetry of a replayed single-core run."""
        result.stats = stack.traces[0].stats_copy()
        if self.policy is not None:
            # A non-feedback policy never deviates from nominal, so its
            # telemetry is a pure function of the interval count — rebuild
            # it exactly as the coupled loop records it (interval 0's cycles
            # run before the policy can gate fetch).
            controls = DTMControls(die.block_index, table=self.policy.table)
            telemetry = DTMTelemetry(controls.table)
            for i in range(stack.intervals):
                telemetry.record_interval(controls, gated=False, fetch_actuated=i > 0)
            result.dtm = {"policy": self.policy.name, **telemetry.as_dict()}
        return result


# ----------------------------------------------------------------------
# The two walks
# ----------------------------------------------------------------------
def exact_warmup_state(
    solver: ThermalSolver,
    power_model: PowerModel,
    config: ProcessorConfig,
    activity_counts: np.ndarray,
    cycles,
    gated_mask: Optional[np.ndarray],
    node_positions: np.ndarray,
) -> np.ndarray:
    """One die's warm-up fixed point: the steady state of its nominal power.

    The first interval's dynamic power (constant across the fixed point)
    seeds the leakage model's nominal power; the iteration then couples
    leakage and temperature until convergence or the 381 K emergency limit.
    :meth:`~repro.sim.engine.PhysicsStage.warmup` and the batched walk's
    per-cell warm-up both run exactly this.  Returns the node-state vector.
    """
    leakage_model = power_model.leakage_model
    dynamic = power_model.dynamic_power_array(activity_counts, cycles, gated_mask)
    leakage_model.seed_nominal_power_array(dynamic)
    node_power = np.zeros(solver.network.num_nodes)

    def node_power_at(state: np.ndarray) -> np.ndarray:
        temperatures = state[node_positions]
        leakage = leakage_model.leakage_power_array(temperatures, gated_mask)
        node_power[:] = 0.0
        node_power[node_positions] = dynamic + leakage
        return node_power

    state, _ = solver.warmup_nodes(
        node_power_at,
        emergency_limit_celsius=config.thermal.emergency_limit_celsius,
    )
    return state


def _interval_dts(die, stack: TraceStack) -> List[float]:
    """Seconds the thermal network advances per interval (by the die clock)."""
    interval_seconds = die.config.thermal.interval_seconds
    return [
        interval_seconds * (int(cycles) / die.interval_cycles)
        for cycles in stack.chip_cycles
    ]


def _exact_walk(die, stack: TraceStack, warmup: bool):
    """One cell's interval chain alone on its own die: the bit-exact walk.

    The whole run's dynamic power comes from one vectorized pass (it never
    depends on temperature); the leakage/thermal chain is inherently
    sequential and walks the intervals with the scalar ``math.exp`` leakage
    loop — the same arithmetic, in the same order, as the coupled run.
    Returns the ``(intervals x blocks)`` dynamic, leakage and temperature
    trajectories.
    """
    leakage_model = die.power_model.leakage_model
    dynamic = die.power_model.dynamic_power_matrix(
        stack.counts, stack.cycles, stack.gated
    )
    leakage = np.empty_like(dynamic)
    temperatures = np.empty_like(dynamic)
    for i, dt in enumerate(_interval_dts(die, stack)):
        gated_row = stack.gated_row(i)
        if i == 0 and warmup:
            die.warmup(stack.counts[0], stack.cycles[0], gated_row)
        # Mirror PowerModel.compute_arrays: observe this interval's dynamic
        # power, then evaluate leakage at the current temperatures.
        leakage_model.observe_dynamic_power_array(dynamic[i])
        leakage[i] = leakage_model.leakage_power_array(die.temperature_array, gated_row)
        die.advance(dynamic[i], leakage[i], dt)
        temperatures[i] = die.temperature_array
    return dynamic, leakage, temperatures


def batched_interval_walk(
    solver: ThermalSolver,
    node_positions: np.ndarray,
    states: np.ndarray,
    dynamic_tensor: np.ndarray,
    nominal_tensor: np.ndarray,
    fraction_col: np.ndarray,
    coefficient_col: np.ndarray,
    ambient_col: np.ndarray,
    gated_masks: Optional[np.ndarray],
    dts: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance every cell of one sub-group through all intervals together.

    ``states`` is the ``(nodes x cells)`` warm node-state matrix (mutated
    into the final states); ``dynamic_tensor`` / ``nominal_tensor`` are the
    precomputed ``(cells x intervals x blocks)`` dynamic-power and
    nominal-average tensors; the three ``(cells x 1)`` columns carry each
    cell's leakage parameters.  Per interval this performs exactly two
    batched kernels — the ``np.exp`` leakage over the ``(cells x blocks)``
    temperature matrix and one multi-RHS
    :meth:`~repro.thermal.solver.ThermalSolver.advance_nodes_batch` — and
    returns the ``(cells x intervals x blocks)`` temperature and leakage
    trajectories.
    """
    cells, intervals, blocks_ = dynamic_tensor.shape
    # Work in (blocks x cells) orientation throughout: the solver's native
    # column-per-cell layout.  One up-front transpose of the two tensors
    # replaces the two per-interval ``.T`` temporaries of the naive loop,
    # and the trajectories are written contiguously then viewed back to the
    # caller's (cells x intervals x blocks) layout at the end.  Elementwise
    # arithmetic does not reassociate, so this is bit-identical to the
    # cell-major spelling.
    temps_traj = np.empty((intervals, blocks_, cells))
    leak_traj = np.empty((intervals, blocks_, cells))
    dyn_t = np.ascontiguousarray(dynamic_tensor.transpose(1, 2, 0))
    nom_t = np.ascontiguousarray(nominal_tensor.transpose(1, 2, 0))
    fraction_row = fraction_col.T  # (1 x cells) views
    coefficient_row = coefficient_col.T
    ambient_row = ambient_col.T
    node_power = np.zeros((states.shape[0], cells))
    power_buf = np.empty((blocks_, cells))
    # Die blocks usually occupy the leading node positions in index order;
    # when they do, plain slices replace the fancy-index gather/scatter.
    contiguous = bool(
        np.array_equal(node_positions, np.arange(blocks_, dtype=node_positions.dtype))
    )
    # Per distinct interval length (all intervals but a truncated final one
    # share a dt), fetch the solver's precomputed affine advance and
    # restrict its power map to the block rows once: the hot loop then runs
    # on two gemms per interval, no factorized solve.  ``None`` (sparse
    # backend) falls back to the per-interval ``advance_nodes_batch``.
    affine_maps: Dict[float, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    for dt in dts:
        if dt not in affine_maps:
            full = solver.interval_affine_map(dt)
            if full is None:
                affine_maps[dt] = None
            else:
                propagator, source_map, offset = full
                affine_maps[dt] = (
                    propagator,
                    np.ascontiguousarray(source_map[:, node_positions]),
                    offset,
                )
    temps = states[:blocks_] if contiguous else states[node_positions, :]
    for i in range(intervals):
        leakage = batched_leakage_kernel(
            nom_t[i],
            temps,
            ambient_celsius=ambient_row,
            fraction_at_ambient=fraction_row,
            temperature_coefficient=coefficient_row,
        )
        if gated_masks is not None:
            leakage[gated_masks[i], :] = 0.0
        np.add(dyn_t[i], leakage, out=power_buf)
        affine = affine_maps[dts[i]]
        if affine is not None:
            propagator, power_map, offset = affine
            states = propagator @ states
            states += power_map @ power_buf
            states += offset
        else:
            if contiguous:
                node_power[:blocks_] = power_buf
            else:
                node_power[node_positions, :] = power_buf
            states = solver.advance_nodes_batch(states, node_power, dts[i])
        temps = states[:blocks_] if contiguous else states[node_positions, :]
        temps_traj[i] = temps
        leak_traj[i] = leakage
    return temps_traj.transpose(2, 0, 1), leak_traj.transpose(2, 0, 1)


def nominal_power_tensor(
    dynamic_tensor: np.ndarray, seeded: bool
) -> np.ndarray:
    """The leakage model's running average, precomputed for every interval.

    The exact path updates ``sum/n`` incrementally (observe, then evaluate);
    over a whole trace that running average is a cumulative sum.  With a
    warm-up, the first interval's dynamic power seeds the average before
    interval 0 observes it again — hence the extra ``D[:, 0]`` term and the
    ``n = i + 2`` denominator.  The reassociation (cumsum versus repeated
    ``+=``) is one of the documented last-ulp divergences of batched mode.
    """
    csum = np.cumsum(dynamic_tensor, axis=1)
    intervals = dynamic_tensor.shape[1]
    if seeded:
        denominator = np.arange(2, intervals + 2, dtype=float)[None, :, None]
        return (dynamic_tensor[:, 0:1, :] + csum) / denominator
    denominator = np.arange(1, intervals + 1, dtype=float)[None, :, None]
    return csum / denominator


# ----------------------------------------------------------------------
# Results and dispatch
# ----------------------------------------------------------------------
def _replayed_result(
    cell: ReplayCell,
    die,
    stack: TraceStack,
    trajectories,
    warmup_temperature: Dict[str, float],
    **provenance,
) -> SimulationResult:
    """One cell's result from its dynamic/leakage/temperature trajectories."""
    dynamic, leakage, temperatures = trajectories
    result = die.new_result(stack.benchmark)
    result.config_name = cell.config.name
    result.provenance.update(replayed=True, **provenance)
    interval_seconds = die.config.thermal.interval_seconds
    for i, cycle in enumerate(np.cumsum(stack.chip_cycles)):
        result.intervals.append(
            IntervalRecord.from_arrays(
                cycle=int(cycle),
                seconds=(i + 1) * interval_seconds,
                block_names=die.block_index.names,
                dynamic_power=dynamic[i],
                leakage_power=leakage[i],
                temperature=temperatures[i],
            )
        )
    result.warmup_temperature = warmup_temperature
    return cell.finish(result, die, stack, temperatures)


def replay_exact(
    cell: ReplayCell, die, stack: TraceStack, warmup: bool = True
) -> SimulationResult:
    """Replay ``stack`` for ``cell`` on ``die`` — the bit-identical path."""
    trajectories = _exact_walk(die, stack, warmup)
    return _replayed_result(cell, die, stack, trajectories, die.warmup_temperatures)


def _replay_batched(
    cells: Sequence[ReplayCell], stack: TraceStack, warmup: bool
) -> List[SimulationResult]:
    """The tensor walk over one thermal sub-group (>= 2 cells, one die)."""
    die = cells[0].die()
    solver, node_positions = die.solver, die.node_positions
    power_models = [cell.power_model() for cell in cells]
    seeded = warmup and stack.intervals > 0
    # Warm every cell on the exact scalar fixed point (see module docstring),
    # against the one shared factorization.
    states = np.empty((die.network.num_nodes, len(cells)))
    for k, (cell, power_model) in enumerate(zip(cells, power_models)):
        if seeded:
            states[:, k] = exact_warmup_state(
                solver,
                power_model,
                cell.config,
                stack.counts[0],
                stack.cycles[0],
                stack.gated_row(0),
                node_positions,
            )
        else:
            states[:, k] = die.network.uniform_state(die.config.thermal.ambient_celsius)
    warmup_maps = [
        die.block_index.mapping_from_array(states[node_positions, k])
        for k in range(len(cells))
    ]

    # The whole sub-group's dynamic power: (cells x intervals x blocks).
    dynamic = np.stack(
        [
            power_model.dynamic_power_matrix(stack.counts, stack.cycles, stack.gated)
            for power_model in power_models
        ]
    )

    def column(field: str) -> np.ndarray:
        return np.array([getattr(cell.config.power, field) for cell in cells])[:, None]

    temperatures, leakage = batched_interval_walk(
        solver,
        node_positions,
        states,
        dynamic,
        nominal_power_tensor(dynamic, seeded),
        column("leakage_fraction_at_ambient"),
        column("leakage_temperature_coefficient"),
        column("ambient_celsius"),
        stack.gated,
        _interval_dts(die, stack),
    )
    return [
        _replayed_result(
            cell,
            die,
            stack,
            (dynamic[k], leakage[k], temperatures[k]),
            warmup_maps[k],
            replay_mode="batched",
        )
        for k, cell in enumerate(cells)
    ]


def replay_cells(
    cells: Sequence[ReplayCell],
    traces: Sequence[ActivityTrace],
    *,
    replay_mode: str = "exact",
    warmup: bool = True,
    max_intervals: Optional[int] = None,
) -> List[SimulationResult]:
    """Replay one trace layout under many physics variants; results in order.

    ``"exact"`` walks every cell alone on its own die; ``"batched"``
    sub-groups the cells by :meth:`ReplayCell.group_key` and advances each
    sub-group of two or more cells in one batched walk.
    """
    mode = validate_replay_mode(replay_mode)
    for cell in cells:
        check_traces(traces, list(cell.core_parameters), cell.interval_cycles)
    stacks: Dict[int, TraceStack] = {}
    subgroups: Dict[object, List[int]] = {}
    for position, cell in enumerate(cells):
        if cell.cores not in stacks:
            stacks[cell.cores] = stack_traces(
                traces, cell.cores, cell.interval_cycles, max_intervals
            )
        key = position if mode == "exact" else cell.group_key()
        subgroups.setdefault(key, []).append(position)

    results: List[Optional[SimulationResult]] = [None] * len(cells)
    for positions in subgroups.values():
        members = [cells[p] for p in positions]
        stack = stacks[members[0].cores]
        if len(members) >= 2:
            replayed = _replay_batched(members, stack, warmup)
        else:
            replayed = [replay_exact(c, c.die(), stack, warmup) for c in members]
        for position, result in zip(positions, replayed):
            results[position] = result
    return results  # type: ignore[return-value]


def replay_group(
    trace: ActivityTrace,
    configs: Sequence[ProcessorConfig],
    interval_cycles: Optional[int] = None,
    *,
    dtm_policies: Optional[Sequence[Union[DTMPolicy, str, None]]] = None,
    replay_mode: str = "exact",
    max_intervals: Optional[int] = None,
    warmup: bool = True,
) -> List[SimulationResult]:
    """Replay one captured trace under many physics variants at once.

    The group analogue of :meth:`~repro.sim.engine.PhysicsStage.replay`:
    ``configs`` are the physics variants of one timing-key group (same
    structure and block names — each is validated against the trace),
    ``dtm_policies`` optionally attaches a non-feedback policy per cell.
    Results come back in ``configs`` order, each equivalent to
    ``PhysicsStage(config).replay(trace, ...)`` — bit-identical in
    ``"exact"`` mode, within :data:`BATCHED_RTOL` / :data:`BATCHED_ATOL` in
    ``"batched"`` (see module docstring for the mode semantics and
    sub-grouping).
    """
    configs = list(configs)
    policies = [None] * len(configs) if dtm_policies is None else list(dtm_policies)
    if len(policies) != len(configs):
        raise ValueError(f"{len(policies)} DTM policies for {len(configs)} configs")
    cells = [
        ReplayCell(config, policy, interval_cycles)
        for config, policy in zip(configs, policies)
    ]
    return replay_cells(
        cells,
        [trace],
        replay_mode=replay_mode,
        warmup=warmup,
        max_intervals=max_intervals,
    )
