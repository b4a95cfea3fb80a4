"""Dynamic thermal management (DTM): the control side of temperature.

The paper's techniques are *layout* responses to heat — they move work
around the die (distributed rename/commit, bank hopping, thermal-aware
mapping).  This package adds the *control* responses every real processor
layers on top: fetch throttling, global clock gating and per-cluster DVFS,
driven by on-die sensors once per thermal interval.

Structure:

* :mod:`repro.dtm.controls` — the clamped actuators
  (:class:`DTMControls`), the voltage/frequency table
  (:class:`VFTable`/:class:`VFPoint`) and per-run accounting
  (:class:`DTMTelemetry`);
* :mod:`repro.dtm.policies` — the :class:`DTMPolicy` protocol, the four
  concrete policies plus the no-op baseline, and the name registry used by
  campaigns and the CLI (:func:`make_policy`).

The engine hook lives in the one coupled interval loop,
:class:`repro.chip.engine.ChipEngine` (``SimulationEngine(dtm_policy=...)``
on one core, ``core_policies=`` per chip thread); campaigns sweep policies with
``Campaign(..., dtm_policies=(...))``; the CLI exposes the same axis as
``repro-campaign run --dtm ...``.  See ``docs/dtm.md`` for the model and a
runnable tutorial.
"""

from repro.dtm.controls import (
    DEFAULT_VF_TABLE,
    DTMControls,
    DTMTelemetry,
    FETCH_DUTY_PERIOD,
    VFPoint,
    VFTable,
)
from repro.dtm.policies import (
    ClockGatePolicy,
    DTMObservation,
    DTMPolicy,
    DVFSPolicy,
    FetchThrottlePolicy,
    HybridPolicy,
    NoDTMPolicy,
    POLICIES,
    available_policies,
    make_policy,
)

__all__ = [
    "DEFAULT_VF_TABLE",
    "FETCH_DUTY_PERIOD",
    "DTMControls",
    "DTMTelemetry",
    "VFPoint",
    "VFTable",
    "DTMObservation",
    "DTMPolicy",
    "NoDTMPolicy",
    "FetchThrottlePolicy",
    "ClockGatePolicy",
    "DVFSPolicy",
    "HybridPolicy",
    "POLICIES",
    "available_policies",
    "make_policy",
]
