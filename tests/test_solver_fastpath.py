"""Correctness tests for the factorized thermal solver and the array fast path.

The array-backed pipeline promises *metric-identical* results to the
dict-per-block implementation it replaced.  These tests pin the individual
pieces of that promise:

* the LU-factorized steady-state solve agrees with a from-scratch
  ``np.linalg.solve`` against the same conductance matrix;
* the transient ``advance`` over one interval agrees with N fine-grained
  sub-steps (the matrix exponential is exact, so splitting the interval must
  not change the endpoint);
* the propagator cache returns correct results when the final interval of a
  trace is shorter than the steady interval (a different ``dt`` must not
  reuse the steady-interval propagator);
* the warm-up fixed point converges, and exits early at the 381 K
  emergency limit when the power is pathological;
* one solver shared by several threads (the warm cache hands the same
  bundle to every cell of a process) solves exactly as it does alone;
* the dict and array entry points of the power/leakage/activity layers
  produce identical numbers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.presets import baseline_config
from repro.power.energy import build_block_parameters
from repro.power.power_model import PowerModel
from repro.sim.block_index import BlockIndex
from repro.sim.stats import ActivityCounters
from repro.thermal.floorplan import build_floorplan
from repro.thermal.rc_model import ThermalRCNetwork
from repro.thermal.solver import ThermalSolver


@pytest.fixture(scope="module")
def network():
    config = baseline_config()
    params = build_block_parameters(config)
    floorplan = build_floorplan(config, {n: p.area_mm2 for n, p in params.items()})
    return ThermalRCNetwork(floorplan, config.thermal)


@pytest.fixture()
def solver(network):
    return ThermalSolver(network)


def _power(network, watts=1.5):
    return {name: watts for name in network.block_names}


# ----------------------------------------------------------------------
# Factorized steady-state solve
# ----------------------------------------------------------------------
def test_factorized_steady_state_matches_direct_solve(network, solver):
    power = {name: 0.5 + i * 0.1 for i, name in enumerate(network.block_names)}
    rhs = network.power_vector(power) + network.ambient_source()
    direct = np.linalg.solve(network.conductance, rhs)
    factorized = solver.steady_state_vector(power)
    np.testing.assert_allclose(factorized, direct, rtol=1e-12, atol=1e-12)


def test_steady_state_solve_is_reused_not_refactorized(network, solver):
    """Repeated solves give identical answers (the factors never change)."""
    power = _power(network)
    first = solver.steady_state_vector(power)
    second = solver.steady_state_vector(power)
    np.testing.assert_array_equal(first, second)


# ----------------------------------------------------------------------
# Transient advance vs. sub-stepping
# ----------------------------------------------------------------------
def test_advance_agrees_with_fine_grained_substeps(network, solver):
    power = _power(network, watts=2.0)
    dt = 1e-3
    state = network.uniform_state(network.config.ambient_celsius)
    one_step = solver.advance(state, power, dt)
    substepped = state
    for _ in range(16):
        substepped = solver.advance(substepped, power, dt / 16)
    np.testing.assert_allclose(one_step, substepped, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# Propagator cache and the variable-length final interval
# ----------------------------------------------------------------------
def test_propagator_cache_handles_shorter_final_interval(network, solver):
    """A final interval with fewer cycles must not reuse the steady propagator."""
    power = _power(network, watts=2.0)
    steady_dt = 1e-3
    final_dt = steady_dt * (137 / 800)  # a trace ending mid-interval
    state = network.uniform_state(network.config.ambient_celsius)
    # Populate the cache with the steady-interval propagator first, as a run
    # does, then advance over the shorter final interval.
    for _ in range(3):
        state = solver.advance(state, power, steady_dt)
    cached_final = solver.advance(state, power, final_dt)
    # A pristine solver (empty cache) must produce the same answer.
    fresh = ThermalSolver(network).advance(state, power, final_dt)
    np.testing.assert_array_equal(cached_final, fresh)
    assert len(solver._propagator_cache) == 2  # steady + final dt
    # And the shorter step must differ from a full steady step (i.e. the
    # steady propagator was not silently reused).
    full_step = solver.advance(state, power, steady_dt)
    assert not np.array_equal(cached_final, full_step)


def test_propagator_cache_is_keyed_by_exact_dt(network, solver):
    power = _power(network)
    state = network.uniform_state(50.0)
    solver.advance(state, power, 1e-3)
    solver.advance(state, power, 1e-3)
    assert len(solver._propagator_cache) == 1
    solver.advance(state, power, 2e-3)
    assert len(solver._propagator_cache) == 2


def test_advance_rejects_nonpositive_dt(network, solver):
    state = network.uniform_state(45.0)
    with pytest.raises(ValueError):
        solver.advance(state, _power(network), 0.0)


def test_propagator_cache_is_bounded_lru(network, solver):
    """A campaign with many distinct final-interval lengths must not grow
    the propagator cache without limit (regression: PR 2 keyed by exact dt
    with no cap)."""
    cap = ThermalSolver.PROPAGATOR_CACHE_SIZE
    power = _power(network)
    state = network.uniform_state(50.0)
    for i in range(cap + 20):
        solver.advance(state, power, 1e-3 * (1 + i / 1000))
    assert len(solver._propagator_cache) == cap

    # LRU, not FIFO: re-touching the oldest surviving entry keeps it alive
    # through the next eviction.  Cache keys are (backend, dt) pairs.
    oldest_key = next(iter(solver._propagator_cache))
    solver.advance(state, power, oldest_key[1])
    solver.advance(state, power, 99e-3)  # evicts one entry, not oldest_key
    assert oldest_key in solver._propagator_cache
    assert len(solver._propagator_cache) == cap

    # Evicted propagators are transparently recomputed with the same result.
    evicted_dt = 1e-3
    fresh = ThermalSolver(network)
    np.testing.assert_array_equal(
        solver.advance(state, power, evicted_dt),
        fresh.advance(state, power, evicted_dt),
    )


# ----------------------------------------------------------------------
# Batched transient kernels (the campaign-replay layout)
# ----------------------------------------------------------------------
def test_batched_steady_state_matches_per_column(network, solver):
    rng = np.random.default_rng(3)
    cells = 7
    node_power = rng.uniform(0.0, 3.0, size=(network.num_nodes, cells))
    batched = solver.steady_state_nodes_batch(node_power)
    assert batched.shape == (network.num_nodes, cells)
    for c in range(cells):
        np.testing.assert_allclose(
            batched[:, c],
            solver.steady_state_nodes(node_power[:, c].copy()),
            rtol=1e-12,
            atol=1e-12,
        )


def test_batched_advance_matches_per_column(network, solver):
    rng = np.random.default_rng(4)
    cells = 5
    states = np.full((network.num_nodes, cells), 45.0) + rng.uniform(
        0, 5, size=(network.num_nodes, cells)
    )
    node_power = rng.uniform(0.0, 2.5, size=(network.num_nodes, cells))
    batched = solver.advance_nodes_batch(states, node_power, 1e-3)
    assert batched.shape == states.shape
    for c in range(cells):
        np.testing.assert_allclose(
            batched[:, c],
            solver.advance_nodes(states[:, c].copy(), node_power[:, c].copy(), 1e-3),
            rtol=1e-12,
            atol=1e-12,
        )
    with pytest.raises(ValueError):
        solver.advance_nodes_batch(states, node_power, 0.0)


def test_shared_solver_is_exact_across_threads(network, solver):
    """Concurrent steady solves on one solver match the serial answers."""
    rng = np.random.default_rng(11)
    powers = [rng.random(network.num_nodes) for _ in range(8)]
    expected = [solver.steady_state_nodes(power) for power in powers]
    mismatches = []

    def solve_many(offset: int) -> None:
        for k in range(offset, offset + 1500):
            result = solver.steady_state_nodes(powers[k % 8])
            if not np.array_equal(result, expected[k % 8]):
                mismatches.append(k)

    threads = [threading.Thread(target=solve_many, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not mismatches


# ----------------------------------------------------------------------
# Warm-up convergence and the 381 K emergency early exit
# ----------------------------------------------------------------------
def test_warmup_converges_for_moderate_power(network, solver):
    power = _power(network, watts=1.0)
    calls = []

    def power_at(temperatures):
        calls.append(max(temperatures.values()))
        return power

    state, temperatures = solver.warmup(power_at)
    # Constant power converges on the second iteration (delta == 0).
    assert len(calls) <= 3
    steady = solver.steady_state(power)
    for name, value in steady.items():
        assert temperatures[name] == pytest.approx(value)
    assert max(temperatures.values()) < network.config.emergency_limit_celsius


def test_warmup_exits_early_at_the_emergency_limit(network, solver):
    """Pathological power trips the 381 K (108 C) emergency limit early."""
    iterations = []

    def runaway_power(temperatures):
        iterations.append(1)
        return _power(network, watts=500.0)

    state, temperatures = solver.warmup(
        runaway_power,
        max_iterations=50,
        emergency_limit_celsius=network.config.emergency_limit_celsius,
    )
    assert max(temperatures.values()) >= network.config.emergency_limit_celsius
    # The fixed point stopped at the limit instead of iterating to the cap.
    assert len(iterations) < 50


def test_warmup_nodes_matches_dict_warmup(network, solver):
    """The array fast path and the mapping wrapper agree exactly."""
    power = {name: 0.8 + i * 0.05 for i, name in enumerate(network.block_names)}

    state_dict, temps_dict = solver.warmup(lambda temperatures: power)
    node_power = network.power_vector(power)
    state_nodes, block_temps = ThermalSolver(network).warmup_nodes(
        lambda state: node_power
    )
    np.testing.assert_array_equal(state_dict, state_nodes)
    for i, name in enumerate(network.block_names):
        assert temps_dict[name] == block_temps[i]


# ----------------------------------------------------------------------
# Dict/array equivalence of the power layers
# ----------------------------------------------------------------------
def test_power_model_array_and_dict_paths_agree():
    config = baseline_config()
    params = build_block_parameters(config)
    model_a = PowerModel(config.power, params)
    model_b = PowerModel(config.power, params)
    index = model_a.index
    rng = np.random.default_rng(5)
    counts = {name: int(rng.integers(0, 500)) for name in index.names}
    temps = {name: 45.0 + float(rng.uniform(0, 40)) for name in index.names}
    gated = [index.names[3], index.names[7]]

    breakdown = model_a.compute(counts, 800, temps, gated)
    dynamic_arr, leakage_arr = model_b.compute_arrays(
        index.array_from_mapping(counts).astype(np.int64),
        800,
        index.array_from_mapping(temps),
        index.mask(gated),
    )
    for i, name in enumerate(index.names):
        assert breakdown.dynamic[name] == dynamic_arr[i]
        assert breakdown.leakage[name] == leakage_arr[i]
    for name in gated:
        assert breakdown.dynamic[name] == 0.0
        assert breakdown.leakage[name] == 0.0


def test_activity_counters_array_drain_matches_dict_drain():
    counters_a = ActivityCounters(["A", "B", "C"])
    counters_b = ActivityCounters(["A", "B", "C"])
    for counters in (counters_a, counters_b):
        counters.record("A", 5)
        counters.record("C", 2)
    index = BlockIndex(["C", "A", "B"])  # deliberately different order
    as_dict = counters_a.end_interval()
    as_array = counters_b.end_interval_array(index)
    assert as_array.tolist() == [as_dict["C"], as_dict["A"], as_dict["B"]]
    # Draining resets both representations.
    assert counters_a.interval_counts() == {"A": 0, "B": 0, "C": 0}
    assert counters_b.end_interval_array(index).tolist() == [0, 0, 0]
    # Totals are unaffected by draining.
    assert counters_b.total_counts() == {"A": 5, "B": 0, "C": 2}
