"""In-memory span tracer that instruments the program from outside.

The traced run wraps public functions and methods of each ``src/repro``
layer with a span recorder.  Nothing under ``src/`` changes: the wrappers
are installed by :func:`instrument` and removed again when its context
exits.  Each span records its name, start and end (``perf_counter_ns``),
its parent span and the cell it ran for; spans stay in memory until the
run writes them out.

A layer's *self time* is the sum over its spans of the span's duration
minus the time covered by its direct children.  Spans nest strictly (the
traced workloads run serially in one thread), so the self times of all
layers add up to at most the wall-clock of the traced window.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

class Tracer:
    """Collects nested spans and named counters for one traced window."""

    def __init__(self) -> None:
        #: ``[name, start ns, end ns, parent index (-1 = root), cell id]``
        self.spans: List[List] = []
        self.counts: Counter = Counter()
        #: Timing mode and fallback reason of every engine built.
        self.engines: Counter = Counter()
        self._stack: List[int] = []

    def begin(self, name: str, ident: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if ident is None and parent >= 0:
            ident = self.spans[parent][4]
        self.spans.append([name, time.perf_counter_ns(), 0, parent, ident])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    @contextmanager
    def span(self, name: str, ident: Optional[str] = None) -> Iterator[None]:
        index = self.begin(name, ident)
        try:
            yield
        finally:
            self.end(index)

    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per-span-name self time in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start - child_ns[index]) / 1e9
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def records(self) -> List[Dict]:
        """Spans as plain dictionaries (for writing out after the run)."""
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "id": ident}
            for name, start, end, parent, ident in self.spans
        ]


def _span_wrapper(tracer: Tracer, fn: Callable, name: str, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        tracer.counts[name] += 1
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Replaces attributes and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        if attr in cls.__dict__:
            self.set(cls, attr, _span_wrapper(tracer, cls.__dict__[attr], name, after))

    def replace_function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind a module-level function in every ``repro`` module holding it.

        Modules bind imported functions by name (``from x import f``), so
        each binding must be replaced, not only the defining one.
        """
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, replacement)

    def function(self, tracer: Tracer, fn: Callable, name: str, after=None) -> None:
        """Wrap a module-level function with a span wherever it is bound."""
        self.replace_function(fn, _span_wrapper(tracer, fn, name, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _count_uops(tracer, args, kwargs, result) -> None:
    tracer.counts["workloads.uops"] += len(result.uops)


def _count_cache_load(kind: str):
    def after(tracer, args, kwargs, result) -> None:
        tracer.counts[f"campaign.{kind}_lookups"] += 1
        if result is not None:
            tracer.counts[f"campaign.{kind}_hits"] += 1

    return after


def _engine_init_hook(tracer, args, kwargs, result) -> None:
    engine = args[0]
    mode = getattr(engine, "resolved_timing_mode", "unknown")
    reason = getattr(engine, "timing_fallback_reason", None)
    tracer.engines[(mode, reason or "-")] += 1


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap each layer's public entry points with spans for the duration."""
    from repro.campaign.cache import ResultCache
    from repro.chip import engine as chip_engine
    from repro.chip.policies import ChipDTMPolicy
    from repro.dtm.policies import DTMPolicy
    from repro.power import leakage
    from repro.power.leakage import LeakageModel
    from repro.power.power_model import PowerModel
    from repro.sim import engine, group_replay
    from repro.thermal.solver import ThermalSolver
    from repro.workloads import decode
    from repro.workloads.generator import TraceGenerator

    patch = Patcher()
    try:
        # workloads: trace generation and batch decode
        patch.method(tracer, TraceGenerator, "generate", "workloads.generate_s", _count_uops)
        patch.function(tracer, decode.decode_workload, "workloads.decode_s")
        # sim timing
        patch.method(tracer, engine.TimingStage, "run_interval", "sim.timing_s")
        for cls in (engine.SimulationEngine, chip_engine.ChipEngine):
            patch.method(tracer, cls, "__init__", "sim.engine_init_s", _engine_init_hook)
            patch.method(tracer, cls, "run", "sim.engine_loop_s")
        # sim physics and replay
        patch.method(tracer, engine.PhysicsStage, "interval_pipeline", "sim.physics_s")
        patch.method(tracer, engine.PhysicsStage, "warmup", "sim.physics_s")
        patch.method(tracer, engine.PhysicsStage, "replay", "sim.replay_s")
        patch.function(tracer, group_replay.replay_group, "sim.replay_s")
        patch.function(tracer, chip_engine.replay_chip, "sim.replay_s")
        patch.function(tracer, chip_engine.replay_chip_group, "sim.replay_s")
        # thermal
        patch.method(tracer, ThermalSolver, "__init__", "thermal.factor_s")
        for attr in ("advance_nodes", "advance_nodes_batch", "warmup_nodes",
                     "steady_state_nodes", "steady_state_nodes_batch"):
            patch.method(tracer, ThermalSolver, attr, "thermal.solve_s")
        # power
        patch.method(tracer, LeakageModel, "leakage_power_array", "power.leakage_s")
        patch.method(tracer, LeakageModel, "leakage_power_batch", "power.leakage_s")
        patch.function(tracer, leakage.batched_leakage_kernel, "power.leakage_s")
        patch.method(tracer, PowerModel, "dynamic_power_array", "power.dynamic_s")
        patch.method(tracer, PowerModel, "dynamic_power_matrix", "power.dynamic_s")
        # dtm: every concrete policy overrides apply()
        for cls in _subclasses(DTMPolicy) + _subclasses(ChipDTMPolicy):
            patch.method(tracer, cls, "apply", "dtm.policy_s")
        # campaign: result cache and trace artifacts
        for cls in _subclasses(ResultCache):
            patch.method(tracer, cls, "load", "campaign.cache_load_s", _count_cache_load("cache"))
            patch.method(tracer, cls, "store", "campaign.cache_store_s")
            patch.method(tracer, cls, "load_trace", "campaign.trace_load_s", _count_cache_load("trace"))
            patch.method(tracer, cls, "store_trace", "campaign.trace_store_s")
        yield tracer
    finally:
        patch.restore()
