"""Deterministic synthetic micro-op trace generator.

The generator produces a micro-op stream with the statistical properties of a
:class:`~repro.workloads.profiles.WorkloadProfile`:

* a static *program* made of ``num_hot_loops`` loop bodies of
  ``loop_body_uops`` micro-ops each, laid out at consecutive PCs, so the
  trace cache observes realistic reuse and capacity pressure;
* a dynamic walk that stays in one hot loop for ``phase_length_uops``
  micro-ops before hopping to the next, which produces the phase behaviour
  and access bursts the paper's thermal-aware mapping reacts to;
* register dependencies drawn with a geometric distance distribution around
  ``mean_dependency_distance`` (controls achievable ILP);
* memory addresses with tunable spatial locality inside a working set of
  ``working_set_kb`` (controls L1/UL2 miss rates);
* branch outcomes and mispredictions at the profile's rates.

Everything is driven by :class:`random.Random` seeded from the benchmark name
and an explicit seed, so traces are fully reproducible.

This Python generator is the golden reference.  The native timing core
(:mod:`repro.sim.native`) carries a twin of it that generates and decodes a
workload in one pass, straight into
:class:`~repro.workloads.decode.DecodedWorkload` arrays: it starts from this
generator's Mersenne Twister state (:func:`native_inputs`), reads every
constant and every derived threshold from this module, and reproduces each
draw in the same order, so its arrays equal
``decode_workload(TraceGenerator(...).generate(n).uops)`` byte for byte
(``tests/test_native_workload.py`` locks that).  :class:`WorkloadSpec` names
a workload by what determines it; the engines' fast path decodes it
natively, the reference path expands it through this generator.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.isa.microops import MicroOp, UopClass
from repro.isa.registers import RegisterClass, RegisterSpace
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.trace import Trace

_INSTRUCTION_BYTES = 4
_CACHE_LINE_BYTES = 64
#: PC of the first hot loop, and the static slots left between loop bodies.
_CODE_BASE = 0x4000_0000
_LOOP_GAP_UOPS = 16
#: Base address of the data segment every loop array and random access uses.
_DATA_BASE = 0x1000_0000
#: Size of the per-loop hot region that sequential accesses sweep over; it
#: is capped so that hot-region accesses mostly hit in the 16 KB L1.
_HOT_SPAN_BYTES = 12 * 1024
#: Stride of a sequential access within the hot region.
_SEQUENTIAL_STRIDE = 8
#: Share of non-sequential accesses that stay inside the loop's own array.
_IRREGULAR_SHARE = 0.7
#: Probability that a phase change moves to the next region (else a random one).
_NEXT_REGION_PROBABILITY = 0.8
#: Share of long FP ops that are multiplies, and of long integer ops (the
#: rest are divides).
_FPMUL_SHARE = 0.8
_IMUL_SHARE = 0.85
#: Recent producers a source may depend on, and how many registers of each
#: class count as already produced when a trace starts.
_RECENT_WINDOW = 16
_RECENT_START = 4


class _Shape(NamedTuple):
    """Every number the generator derives from a profile, derived once."""

    num_loads: int
    num_stores: int
    num_branches: int
    num_compute: int
    working_set_bytes: int
    bytes_per_loop: int
    loop_pc_stride: int
    span: int
    hot_span: int
    dependency_p: float
    irregular_below: float


def _shape(profile: WorkloadProfile) -> _Shape:
    """Derive the program layout and walk thresholds of ``profile``.

    The per-body class counts match the profile's dynamic instruction mix so
    that repeated execution of the body reproduces the mix exactly.
    """
    body_size = profile.loop_body_uops
    num_loads = max(0, round(profile.load_fraction * body_size))
    num_stores = max(0, round(profile.store_fraction * body_size))
    num_branches = max(1, round(profile.branch_fraction * body_size))
    working_set_bytes = profile.working_set_kb * 1024
    span = max(_CACHE_LINE_BYTES * 4, working_set_bytes // profile.num_hot_loops)
    return _Shape(
        num_loads=num_loads,
        num_stores=num_stores,
        num_branches=num_branches,
        num_compute=max(1, body_size - num_loads - num_stores - num_branches),
        working_set_bytes=working_set_bytes,
        bytes_per_loop=max(_CACHE_LINE_BYTES, working_set_bytes // profile.num_hot_loops),
        loop_pc_stride=(body_size + _LOOP_GAP_UOPS) * _INSTRUCTION_BYTES,
        span=span,
        hot_span=min(span, _HOT_SPAN_BYTES),
        dependency_p=1.0 / max(1.0, profile.mean_dependency_distance),
        irregular_below=(
            profile.spatial_locality
            + (1.0 - profile.spatial_locality) * _IRREGULAR_SHARE
        ),
    )


def _seeded_rng(profile: WorkloadProfile, seed: int) -> random.Random:
    # ``zlib.crc32`` rather than ``hash()``: string hashing is randomized
    # per process (PYTHONHASHSEED), which would make traces — and every
    # downstream power/thermal number — differ between runs, between
    # spawn-based worker processes, and against cached campaign results.
    return random.Random(zlib.crc32(profile.name.encode("utf-8")) ^ seed)


def _resolve_profile(profile) -> WorkloadProfile:
    if isinstance(profile, str):
        profile = get_profile(profile)
    if not isinstance(profile, WorkloadProfile):
        raise TypeError(f"profile must be a WorkloadProfile or name, got {type(profile)}")
    return profile


class _StaticUop:
    """Template for one static micro-op slot of a loop body."""

    __slots__ = ("offset", "uop_class", "is_branch")

    def __init__(self, offset: int, uop_class: UopClass, is_branch: bool) -> None:
        self.offset = offset
        self.uop_class = uop_class
        self.is_branch = is_branch


class _LoopBody:
    """A static hot loop: a PC range plus a template micro-op sequence."""

    __slots__ = ("base_pc", "slots", "array_base")

    def __init__(self, base_pc: int, slots: List[_StaticUop], array_base: int) -> None:
        self.base_pc = base_pc
        self.slots = slots
        self.array_base = array_base


class TraceGenerator:
    """Generate synthetic micro-op traces for one benchmark profile.

    Parameters
    ----------
    profile:
        Workload profile, or a benchmark name resolved through
        :func:`repro.workloads.profiles.get_profile`.
    seed:
        Seed for the pseudo-random number generator.  Two generators built
        with the same profile and seed produce identical traces.
    register_space:
        Logical register namespace; defaults to the standard
        :class:`~repro.isa.registers.RegisterSpace`.
    """

    def __init__(
        self,
        profile,
        seed: int = 0,
        register_space: Optional[RegisterSpace] = None,
    ) -> None:
        self.profile = profile = _resolve_profile(profile)
        self.seed = seed
        self.registers = register_space or RegisterSpace()
        self._shape = _shape(profile)
        self._rng = _seeded_rng(profile, seed)
        self._loops = self._build_program()
        # Dynamic generation state.
        self._current_loop_index = 0
        self._uops_in_phase = 0
        self._recent_int_dests: List[int] = list(range(_RECENT_START))
        self._recent_fp_dests: List[int] = list(range(_RECENT_START))
        self._next_int_dest = _RECENT_START
        self._next_fp_dest = _RECENT_START
        self._sequential_addr = 0

    # ------------------------------------------------------------------
    # Static program construction
    # ------------------------------------------------------------------
    def _build_program(self) -> List[_LoopBody]:
        """Lay out the hot loops of the synthetic program in a PC space."""
        profile = self.profile
        shape = self._shape
        loops: List[_LoopBody] = []
        pc_cursor = _CODE_BASE
        for loop_index in range(profile.num_hot_loops):
            slots = self._build_loop_slots()
            loops.append(
                _LoopBody(
                    base_pc=pc_cursor,
                    slots=slots,
                    array_base=_DATA_BASE + loop_index * shape.bytes_per_loop,
                )
            )
            pc_cursor += shape.loop_pc_stride
        return loops

    def _build_loop_slots(self) -> List[_StaticUop]:
        """Assign a micro-op class to every static slot of one loop body."""
        shape = self._shape
        rng = self._rng
        classes: List[UopClass] = []
        classes.extend([UopClass.LOAD] * shape.num_loads)
        classes.extend([UopClass.STORE] * shape.num_stores)
        # The final branch of the body is the loop back-edge; intra-body
        # branches are the rest.
        classes.extend([UopClass.BRANCH] * (shape.num_branches - 1))
        for _ in range(shape.num_compute):
            classes.append(self._pick_compute_class(rng))
        rng.shuffle(classes)
        classes.append(UopClass.BRANCH)  # loop back-edge, always last

        slots = [
            _StaticUop(offset=i, uop_class=cls, is_branch=(cls is UopClass.BRANCH))
            for i, cls in enumerate(classes)
        ]
        return slots

    def _pick_compute_class(self, rng: random.Random) -> UopClass:
        profile = self.profile
        use_fp = rng.random() < profile.fp_fraction
        long_op = rng.random() < profile.long_op_fraction
        if use_fp:
            if not long_op:
                return UopClass.FPADD
            return UopClass.FPMUL if rng.random() < _FPMUL_SHARE else UopClass.FPDIV
        if not long_op:
            return UopClass.IALU
        return UopClass.IMUL if rng.random() < _IMUL_SHARE else UopClass.IDIV

    # ------------------------------------------------------------------
    # Dynamic trace generation
    # ------------------------------------------------------------------
    def generate(self, num_uops: int) -> Trace:
        """Materialize a :class:`~repro.workloads.trace.Trace` of ``num_uops``."""
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        return Trace(benchmark=self.profile.name, uops=list(self.stream(num_uops)))

    def stream(self, num_uops: int) -> Iterator[MicroOp]:
        """Yield ``num_uops`` micro-ops without materializing the full trace."""
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        produced = 0
        while produced < num_uops:
            loop = self._loops[self._current_loop_index]
            for slot in loop.slots:
                yield self._instantiate(loop, slot)
                produced += 1
                self._uops_in_phase += 1
                if produced >= num_uops:
                    return
            if self._uops_in_phase >= self.profile.phase_length_uops:
                self._advance_phase()

    def _advance_phase(self) -> None:
        """Move to another hot loop (phase change)."""
        self._uops_in_phase = 0
        if len(self._loops) == 1:
            return
        # Mostly move to the next region, occasionally jump to a random one
        # (models irregular control flow between phases).
        if self._rng.random() < _NEXT_REGION_PROBABILITY:
            self._current_loop_index = (self._current_loop_index + 1) % len(self._loops)
        else:
            self._current_loop_index = self._rng.randrange(len(self._loops))

    def _instantiate(self, loop: _LoopBody, slot: _StaticUop) -> MicroOp:
        """Create a dynamic micro-op instance from a static slot."""
        profile = self.profile
        rng = self._rng
        pc = loop.base_pc + slot.offset * _INSTRUCTION_BYTES
        uop_class = slot.uop_class

        dest = None
        sources = ()
        mem_addr = None
        is_branch = slot.is_branch
        branch_taken = False
        mispredicted = False

        if uop_class is UopClass.BRANCH:
            is_back_edge = slot.offset == len(loop.slots) - 1
            if is_back_edge:
                branch_taken = True
            else:
                branch_taken = rng.random() < profile.branch_taken_rate
            mispredicted = rng.random() < profile.branch_misprediction_rate
            sources = (self._pick_source(RegisterClass.INT),)
        elif uop_class is UopClass.LOAD:
            dest = self._allocate_dest(RegisterClass.INT)
            sources = (self._pick_source(RegisterClass.INT),)
            mem_addr = self._next_address(loop)
        elif uop_class is UopClass.STORE:
            sources = (
                self._pick_source(RegisterClass.INT),
                self._pick_source(RegisterClass.INT),
            )
            mem_addr = self._next_address(loop)
        else:
            reg_class = RegisterClass.FP if uop_class in (
                UopClass.FPADD, UopClass.FPMUL, UopClass.FPDIV,
            ) else RegisterClass.INT
            dest = self._allocate_dest(reg_class)
            sources = (
                self._pick_source(reg_class),
                self._pick_source(reg_class),
            )

        return MicroOp(
            pc=pc,
            uop_class=uop_class,
            dest=dest,
            sources=sources,
            mem_addr=mem_addr,
            is_branch=is_branch,
            branch_taken=branch_taken,
            mispredicted=mispredicted,
            end_of_trace=is_branch,
        )

    # ------------------------------------------------------------------
    # Register and address selection
    # ------------------------------------------------------------------
    def _allocate_dest(self, reg_class: RegisterClass):
        """Allocate the next destination register (round-robin over the space)."""
        if reg_class is RegisterClass.INT:
            index = self._next_int_dest % self.registers.num_int
            self._next_int_dest += 1
            self._recent_int_dests.append(index)
            if len(self._recent_int_dests) > _RECENT_WINDOW:
                self._recent_int_dests.pop(0)
            return self.registers.int_reg(index)
        index = self._next_fp_dest % self.registers.num_fp
        self._next_fp_dest += 1
        self._recent_fp_dests.append(index)
        if len(self._recent_fp_dests) > _RECENT_WINDOW:
            self._recent_fp_dests.pop(0)
        return self.registers.fp_reg(index)

    def _pick_source(self, reg_class: RegisterClass):
        """Pick a source register among recently produced values.

        The distance (in destinations) between producer and consumer follows
        a geometric distribution whose mean is the profile's
        ``mean_dependency_distance``.
        """
        recents = (
            self._recent_int_dests
            if reg_class is RegisterClass.INT
            else self._recent_fp_dests
        )
        p = self._shape.dependency_p
        distance = 1
        while self._rng.random() > p and distance < len(recents):
            distance += 1
        index = recents[-min(distance, len(recents))]
        if reg_class is RegisterClass.INT:
            return self.registers.int_reg(index)
        return self.registers.fp_reg(index)

    def _next_address(self, loop: _LoopBody) -> int:
        """Generate the next data address for a memory micro-op.

        With probability ``spatial_locality`` the access walks sequentially
        over the loop's hot region (mostly L1 hits); otherwise it touches the
        loop's full array or, occasionally, a random location of the whole
        working set (L1 misses that mostly hit in the UL2 once warm).
        """
        shape = self._shape
        roll = self._rng.random()
        if roll < self.profile.spatial_locality:
            # Sequential (stride ~ 8 bytes) access within the loop's hot region.
            self._sequential_addr = (
                self._sequential_addr + _SEQUENTIAL_STRIDE
            ) % shape.hot_span
            return loop.array_base + self._sequential_addr
        if roll < shape.irregular_below:
            # Strided / irregular access within the loop's own array.
            return loop.array_base + self._rng.randrange(shape.span)
        # Random access anywhere in the working set.
        return _DATA_BASE + self._rng.randrange(shape.working_set_bytes)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def static_footprint_uops(self) -> int:
        """Number of static micro-ops in the synthetic program."""
        return sum(len(loop.slots) for loop in self._loops)

    def describe(self) -> str:
        """One-line human-readable description of the generator's program."""
        return (
            f"{self.profile.name}: {len(self._loops)} hot loops x "
            f"{self.profile.loop_body_uops} uops, working set "
            f"{self.profile.working_set_kb} KB"
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A generated workload, named by what determines it.

    ``benchmark`` (a profile name or :class:`WorkloadProfile`), ``seed`` and
    ``uops`` fix every micro-op, so the engines take this small value in
    place of a materialized ``MicroOp`` list: the native timing path
    generates and decodes it in one pass
    (:func:`repro.sim.native.generate_decoded`), and the reference path
    expands it through the Python generator (:meth:`expand`).
    """

    benchmark: Union[str, WorkloadProfile]
    seed: int
    uops: int

    def __post_init__(self) -> None:
        if self.uops <= 0:
            raise ValueError("uops must be positive")

    def expand(self) -> List[MicroOp]:
        """The workload's micro-ops, from the golden Python generator."""
        return TraceGenerator(self.benchmark, seed=self.seed).generate(self.uops).uops


def native_inputs(
    profile, seed: int
) -> Tuple[Tuple[int, ...], Dict[str, int], Dict[str, float]]:
    """What the native twin of :class:`TraceGenerator` starts from.

    Returns the Mersenne Twister state right after seeding (the 624 state
    words plus the position, as :meth:`random.Random.getstate` gives them,
    so the twin never re-implements CPython's seeding) and every integer and
    float the generator reads, computed by the generator's own expressions.
    """
    profile = _resolve_profile(profile)
    shape = _shape(profile)
    _, state, _ = _seeded_rng(profile, seed).getstate()
    ints = {
        "num_hot_loops": profile.num_hot_loops,
        "phase_length_uops": profile.phase_length_uops,
        "num_loads": shape.num_loads,
        "num_stores": shape.num_stores,
        "num_branches": shape.num_branches,
        "num_compute": shape.num_compute,
        "code_base": _CODE_BASE,
        "loop_pc_stride": shape.loop_pc_stride,
        "instruction_bytes": _INSTRUCTION_BYTES,
        "data_base": _DATA_BASE,
        "bytes_per_loop": shape.bytes_per_loop,
        "span": shape.span,
        "hot_span": shape.hot_span,
        "working_set_bytes": shape.working_set_bytes,
        "sequential_stride": _SEQUENTIAL_STRIDE,
        "recent_window": _RECENT_WINDOW,
        "recent_start": _RECENT_START,
        # The default register space, as ``TraceGenerator`` builds it.
        "num_int": RegisterSpace.DEFAULT_INT,
        "num_fp": RegisterSpace.DEFAULT_FP,
    }
    floats = {
        "fp_fraction": profile.fp_fraction,
        "long_op_fraction": profile.long_op_fraction,
        "fpmul_share": _FPMUL_SHARE,
        "imul_share": _IMUL_SHARE,
        "branch_misprediction_rate": profile.branch_misprediction_rate,
        "dependency_p": shape.dependency_p,
        "spatial_locality": profile.spatial_locality,
        "irregular_below": shape.irregular_below,
        "next_region_probability": _NEXT_REGION_PROBABILITY,
    }
    return tuple(state), ints, floats


def generate_traces(
    benchmarks: Iterable[str],
    uops_per_benchmark: int,
    seed: int = 0,
    honor_relative_length: bool = True,
) -> List[Trace]:
    """Generate one trace per benchmark name.

    When ``honor_relative_length`` is set, each benchmark's length is scaled
    by its profile's ``relative_length``, mirroring the paper's shorter traces
    for eon, fma3d, mcf, perlbmk and swim.
    """
    traces = []
    for name in benchmarks:
        profile = get_profile(name)
        length = uops_per_benchmark
        if honor_relative_length:
            length = max(1, int(round(uops_per_benchmark * profile.relative_length)))
        traces.append(TraceGenerator(profile, seed=seed).generate(length))
    return traces
