"""Dynamic thermal management policies.

A :class:`DTMPolicy` is the *control* side of thermal management: where the
paper's techniques (distributed rename/commit, bank hopping, thermal-aware
mapping) reshape the heat's spatial layout, a DTM policy reacts to on-die
sensor readings every thermal interval by throttling fetch, gating the clock
or walking voltage/frequency domains down a :class:`~repro.dtm.controls.VFTable`.

The engine drives the protocol once per interval, *before* simulating it::

    policy.bind(block_index, config, controls)        # once per run
    policy.apply(observation, controls)               # once per interval

``observation.temperatures`` holds the previous interval's sensor-quantized
block temperatures (degrees Celsius, block-index order); ``controls`` is the
clamped actuator object — policies cannot push any block outside the VF
table or stop fetch outright, no matter what they request.

Concrete policies:

* :class:`NoDTMPolicy` — never touches the controls; bit-identical to
  running without DTM (locked by the golden-metric suite).
* :class:`FetchThrottlePolicy` — sensor-triggered fetch duty reduction with
  hysteresis (Brooks & Martonosi style toggling).
* :class:`ClockGatePolicy` — global stop-go: fully clock-gates intervals
  while any sensor reads at or above the trigger.
* :class:`DVFSPolicy` — per-cluster DVFS: each backend cluster is a
  voltage/frequency domain stepped down when its hottest sensor exceeds the
  target and back up when it cools.
* :class:`HybridPolicy` — per-cluster DVFS layered under an emergency fetch
  throttle, designed to ride on top of the paper's thermal-aware mapping and
  bank hopping (use it with e.g. the ``hopping_biasing`` preset).

Policies are registered by name in :data:`POLICIES` and instantiated from
compact spec strings (``"dvfs"``, ``"fetch_throttle:trigger=80,duty=0.5"``)
via :func:`make_policy`, which is what the campaign layer stores in a
:class:`~repro.campaign.spec.RunSpec` so cells stay picklable and
content-hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dtm.controls import DEFAULT_VF_TABLE, DTMControls, DTMTelemetry, VFTable
from repro.sim import blocks
from repro.sim.block_index import BlockIndex
from repro.sim.config import ProcessorConfig
from repro.thermal.sensors import SensorBank


@dataclass
class DTMObservation:
    """What a policy sees at the start of one thermal interval.

    Attributes
    ----------
    interval_index:
        Zero-based index of the interval about to be simulated.
    temperatures:
        Sensor readings per block (degrees Celsius), in ``index`` order,
        taken at the end of the previous interval and quantized to the
        sensor resolution (0.5 C by default).
    index:
        The run's :class:`~repro.sim.block_index.BlockIndex`; position ``i``
        of ``temperatures`` is block ``index.names[i]``.
    """

    interval_index: int
    temperatures: np.ndarray
    index: BlockIndex

    def max_temperature(self) -> float:
        """Hottest sensor reading on the die (degrees Celsius)."""
        return float(self.temperatures.max())

    def max_over(self, positions: np.ndarray) -> float:
        """Hottest reading over a set of block positions (degrees Celsius)."""
        return float(self.temperatures[positions].max())


class DTMPolicy:
    """Base class / protocol of dynamic thermal management policies.

    Subclasses override :meth:`apply`; :meth:`bind` may be extended to
    precompute block positions (always call ``super().bind``).  ``name`` is
    the canonical spec string the policy was built from — it travels into
    :class:`~repro.campaign.spec.RunSpec` provenance and result files.

    ``table`` optionally declares the voltage/frequency table the policy
    wants to operate: the engine builds its
    :class:`~repro.dtm.controls.DTMControls` from it (DVFS and hybrid
    policies set it from their ``table=`` parameter), falling back to
    :data:`~repro.dtm.controls.DEFAULT_VF_TABLE` when ``None``.
    """

    #: VF table the engine should build the run's controls with, if any.
    table: Optional[VFTable] = None

    #: Whether the policy actuates on sensor readings, i.e. couples
    #: temperatures back into the *timing* of the run.  Feedback-bearing
    #: policies are excluded from the campaign layer's activity-trace replay
    #: (see :func:`repro.sim.activity_trace.timing_feedback_reason`): their
    #: instruction stream depends on the physics parameters being swept.
    #: Every real policy reacts to temperatures; only the explicit no-op
    #: overrides this to ``False``.
    feedback: bool = True

    def __init__(self, name: str) -> None:
        self.name = name

    def bind(
        self, index: BlockIndex, config: ProcessorConfig, controls: DTMControls
    ) -> None:
        """Prepare for one run: resolve block positions, reset controller state.

        Called once per run by the engine.  Subclasses with internal
        controller state (hysteresis latches, stop counters, step ladders)
        must reset it here so one policy object can be reused across runs.
        """
        self.index = index
        self.config = config

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        """Mutate ``controls`` for the interval about to be simulated."""
        raise NotImplementedError


class NoDTMPolicy(DTMPolicy):
    """The do-nothing policy: leaves every actuator at nominal.

    Running an engine with this policy attached is bit-identical to running
    with no policy at all (``tests/test_dtm.py`` compares both against the
    golden fixtures), which makes it the natural baseline of every
    policy x scenario sweep.
    """

    feedback = False

    def __init__(self) -> None:
        super().__init__("none")

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        return None


class FetchThrottlePolicy(DTMPolicy):
    """Sensor-triggered fetch throttling with hysteresis.

    When any sensor reads at or above ``trigger`` (degrees Celsius) the
    fetch duty cycle drops to ``duty``; it returns to 1.0 once the hottest
    sensor cools below ``trigger - hysteresis``.  Fewer fetched micro-ops
    mean fewer accesses everywhere downstream, so dynamic power falls
    chip-wide at the cost of IPC.
    """

    def __init__(
        self, trigger: float = 90.0, duty: float = 0.125, hysteresis: float = 2.0
    ) -> None:
        super().__init__(f"fetch_throttle:trigger={trigger:g},duty={duty:g}")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.trigger_celsius = float(trigger)
        self.duty = float(duty)
        self.hysteresis_celsius = float(hysteresis)
        self._engaged = False

    def bind(
        self, index: BlockIndex, config: ProcessorConfig, controls: DTMControls
    ) -> None:
        super().bind(index, config, controls)
        self._engaged = False

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        hottest = observation.max_temperature()
        if hottest >= self.trigger_celsius:
            self._engaged = True
        elif hottest < self.trigger_celsius - self.hysteresis_celsius:
            self._engaged = False
        controls.request_fetch_duty(self.duty if self._engaged else 1.0)


class ClockGatePolicy(DTMPolicy):
    """Global stop-go clock gating with a bounded stop duration.

    While any sensor reads at or above ``trigger`` (degrees Celsius), whole
    thermal intervals are clock-gated: the processor executes nothing and
    dissipates only leakage, so the die cools at the fastest rate the
    package allows.  The crudest DTM mechanism — and the upper bound on both
    temperature reduction and performance loss per engaged interval.

    ``max_stop_intervals`` bounds each stop burst, as real stop-go
    controllers do: after that many consecutive gated intervals one interval
    always runs.  The bound matters beyond realism — clock gating cannot
    remove *leakage*, and on virus-class workloads the leakage-only
    equilibrium can sit above the trigger (leakage runaway), where an
    unbounded controller would stop forever without ever cooling below it.
    """

    def __init__(self, trigger: float = 95.0, max_stop_intervals: float = 8) -> None:
        super().__init__(f"clock_gate:trigger={trigger:g}")
        if max_stop_intervals < 1:
            raise ValueError("max_stop_intervals must be at least 1")
        self.trigger_celsius = float(trigger)
        self.max_stop_intervals = int(max_stop_intervals)
        self._stopped = 0

    def bind(
        self, index: BlockIndex, config: ProcessorConfig, controls: DTMControls
    ) -> None:
        super().bind(index, config, controls)
        self._stopped = 0

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        too_hot = observation.max_temperature() >= self.trigger_celsius
        if too_hot and self._stopped < self.max_stop_intervals:
            # Count the burst only when the gate is granted: the engine
            # denies it for the post-warm-up interval whose cycles already
            # ran, and that denial must not consume a stop slot.
            if controls.request_interval_gate():
                self._stopped += 1
        else:
            self._stopped = 0


class DVFSPolicy(DTMPolicy):
    """Per-cluster dynamic voltage/frequency scaling.

    Each backend cluster is one voltage/frequency domain; the frontend and
    the UL2 stay at nominal (per-cluster DVFS targets the paper's quad-
    cluster backend).  Every interval, a domain whose hottest sensor reads
    at or above ``target`` steps one entry down its
    :class:`~repro.dtm.controls.VFTable`; a domain cooler than
    ``target - hysteresis`` steps back up.  Voltage scaling multiplies the
    domain's power per the table (``(V/V0)^2`` dynamic, ``V/V0`` leakage);
    frequency scaling is realized as a core-wide fetch-duty reduction to the
    slowest selected ratio (the simulated core has one global clock), which
    lowers activity — and with it dynamic power — everywhere.
    """

    def __init__(
        self,
        target: float = 88.0,
        hysteresis: float = 2.0,
        table: Optional[VFTable] = None,
    ) -> None:
        super().__init__(f"dvfs:target={target:g}")
        self.target_celsius = float(target)
        self.hysteresis_celsius = float(hysteresis)
        self.table = table or DEFAULT_VF_TABLE
        self._domains: List[Tuple[Tuple[str, ...], np.ndarray]] = []
        self._steps: List[int] = []

    def bind(
        self, index: BlockIndex, config: ProcessorConfig, controls: DTMControls
    ) -> None:
        super().bind(index, config, controls)
        self._domains = []
        self._steps = []
        for cluster in range(config.backend.num_clusters):
            names = tuple(
                name
                for name in blocks.cluster_blocks(config, cluster)
                if name in index
            )
            if not names:
                continue
            self._domains.append((names, index.positions(names)))
            self._steps.append(0)

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        for d, (names, positions) in enumerate(self._domains):
            hottest = observation.max_over(positions)
            step = self._steps[d]
            if hottest >= self.target_celsius:
                step += 1
            elif hottest < self.target_celsius - self.hysteresis_celsius:
                step -= 1
            # The controls clamp into the table; remember what was granted,
            # not what was asked, so the controller cannot wind up.
            self._steps[d] = controls.request_step(names, step)


class HybridPolicy(DTMPolicy):
    """Per-cluster DVFS layered under an emergency fetch throttle.

    The layering mirrors how the paper's techniques compose: the *layout*
    mechanisms (thermal-aware mapping, bank hopping — enabled by the
    processor configuration, e.g. the ``hopping_biasing`` preset) spread
    heat continuously; this policy adds per-cluster DVFS around ``target``
    and, should the die still approach ``emergency`` (degrees Celsius), cuts
    the fetch duty as a backstop.  Sub-policies act on the same clamped
    controls, so the most restrictive request wins.
    """

    def __init__(
        self,
        target: float = 88.0,
        emergency: float = 95.0,
        duty: float = 0.125,
        table: Optional[VFTable] = None,
    ) -> None:
        super().__init__(f"hybrid:target={target:g},emergency={emergency:g}")
        self.dvfs = DVFSPolicy(target=target, table=table)
        self.table = self.dvfs.table
        self.throttle = FetchThrottlePolicy(trigger=emergency, duty=duty)

    def bind(
        self, index: BlockIndex, config: ProcessorConfig, controls: DTMControls
    ) -> None:
        super().bind(index, config, controls)
        self.dvfs.bind(index, config, controls)
        self.throttle.bind(index, config, controls)

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        self.dvfs.apply(observation, controls)
        self.throttle.apply(observation, controls)


# ----------------------------------------------------------------------
# Stepping a policy: the coupled loop's step, and its walk over a trajectory
# ----------------------------------------------------------------------
def step_policy(
    policy: DTMPolicy,
    controls: DTMControls,
    sensors: SensorBank,
    temperatures: np.ndarray,
    interval_index: int,
    gating_allowed: bool,
) -> None:
    """One policy step: sample ``temperatures`` (degrees Celsius, in
    ``controls.index`` order) and let ``policy`` actuate ``controls`` for
    interval ``interval_index``.  The coupled loop and
    :func:`nominal_telemetry` both step through here."""
    controls.begin_interval(gating_allowed=gating_allowed)
    readings = sensors.read_array(temperatures)
    policy.apply(DTMObservation(interval_index, readings, controls.index), controls)


def nominal_telemetry(
    policy: DTMPolicy,
    config: ProcessorConfig,
    block_names: Sequence[str],
    warmup_temperatures: Mapping[str, float],
    temperatures: np.ndarray,
) -> Optional[Dict[str, object]]:
    """``policy``'s single-core telemetry along a trajectory it never perturbs.

    Drives a freshly bound ``policy`` over a run's temperatures as the
    coupled loop does: observation 0 is the warmed-up die (the result's
    ``warmup_temperature``; gating denied, its cycles already ran),
    observation ``i`` the end of interval ``i - 1`` (``temperatures`` is
    intervals x blocks, in ``block_names`` order).  There is no step after
    the last interval: the one-core loop ends as its processor drains.
    When every step leaves the controls at nominal
    (:meth:`DTMControls.at_nominal`), the coupled run with the policy is
    the run without it, bit for bit, and this returns the ``result.dtm``
    document that run records; after any other step it returns ``None``.
    """
    index = BlockIndex(block_names)
    controls = DTMControls(index, table=policy.table)
    policy.bind(index, config, controls)
    sensors = SensorBank(index.names)
    telemetry = DTMTelemetry(controls.table)
    observed = np.array([warmup_temperatures[name] for name in index.names])
    for interval, row in enumerate(temperatures):
        step_policy(policy, controls, sensors, observed, interval, interval > 0)
        if not controls.at_nominal():
            return None
        telemetry.record_interval(controls, gated=False, fetch_actuated=interval > 0)
        observed = row
    return {"policy": policy.name, **telemetry.as_dict()}


# ----------------------------------------------------------------------
# Registry: names -> factories, and compact spec-string parsing
# ----------------------------------------------------------------------
#: Named policy factories.  Keys are the names accepted by
#: :func:`make_policy`, the campaign layer and the ``repro-campaign`` CLI.
POLICIES: Dict[str, Callable[..., DTMPolicy]] = {
    "none": NoDTMPolicy,
    "fetch_throttle": FetchThrottlePolicy,
    "clock_gate": ClockGatePolicy,
    "dvfs": DVFSPolicy,
    "hybrid": HybridPolicy,
}


def available_policies() -> Tuple[str, ...]:
    """Names of every registered DTM policy, in registry order."""
    return tuple(POLICIES)


def _parse_value(text: str, kind: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{kind} parameter {text!r} is not a number") from None


def make_policy_from_registry(spec: str, registry: Mapping[str, Callable], kind: str):
    """Shared spec-string parser behind :func:`make_policy` (and the chip
    layer's ``make_chip_policy``): ``name[:key=value,...]`` against a named
    factory registry, with every failure reported as a one-line
    :class:`ValueError` the CLI can surface without a traceback.
    """
    name, _, params = spec.partition(":")
    name = name.strip()
    try:
        factory = registry[name]
    except KeyError:
        valid = ", ".join(registry)
        raise ValueError(f"unknown {kind} {name!r}; valid names: {valid}") from None
    kwargs: Dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed {kind} parameter {item!r} in {spec!r}")
            kwargs[key.strip()] = _parse_value(value.strip(), kind)
    try:
        return factory(**kwargs)
    except TypeError as error:
        raise ValueError(f"invalid parameters for {kind} {name!r}: {error}") from None


def make_policy(spec: str) -> DTMPolicy:
    """Instantiate a policy from a compact spec string.

    ``spec`` is a registered name, optionally followed by ``:`` and
    comma-separated ``key=value`` overrides for the factory's keyword
    arguments (values are parsed as numbers)::

        make_policy("dvfs")
        make_policy("fetch_throttle:trigger=80,duty=0.25")

    Raises :class:`ValueError` for unknown names or malformed parameters.
    The spec string is what campaign cells carry (it is hashable, picklable
    and cache-key friendly); the policy's ``name`` records the canonical
    form of its actual parameters.
    """
    return make_policy_from_registry(spec, POLICIES, "DTM policy")
