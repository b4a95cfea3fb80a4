"""Dense-vs-sparse solver equivalence and backend-selection tests.

The thermal solver's two factorization backends (LAPACK LU over the dense
Laplacian, SuperLU over the CSC assembly — see :mod:`repro.thermal.solver`)
are *tolerance-equivalent*, not bit-identical: different elimination orders
round differently in the last ulps.  The documented contract is that every
solve path — steady state, transient advance, warmup, the batched multi-RHS
kernels, the propagator cache — agrees across backends within
``rtol=1e-8 / atol=1e-8`` (degrees Celsius), far looser than the backends
actually achieve and far tighter than any thermal metric resolves.  These
tests pin that contract on randomized floorplans and on real 1/2/4/16-core
composite dies, pin the ``auto`` threshold's selection behaviour at its
boundary, pin the dense path's bit-exactness (what keeps every golden
fixture valid), and pin the one fact that lets both factorizations share a
propagator generator: the CSC assembly densifies to exactly ``G``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.thermal.solver as solver_module
from repro.chip import build_chip_physics
from repro.core.presets import baseline_config
from repro.sim.config import ThermalConfig
from repro.thermal.rc_model import ThermalRCNetwork
from repro.thermal.solver import (
    SPARSE_NODE_THRESHOLD,
    ThermalSolver,
    resolve_backend,
    sparse_backend_available,
)
from tests.test_thermal_laplacian import random_grid_floorplan

#: The documented cross-backend equivalence contract (degrees Celsius).
STEADY_RTOL = 1e-8
STEADY_ATOL = 1e-8

requires_scipy = pytest.mark.skipif(
    not sparse_backend_available(), reason="scipy (SuperLU) not installed"
)


def _random_network(seed: int) -> ThermalRCNetwork:
    floorplan = random_grid_floorplan(random.Random(seed))
    return ThermalRCNetwork(floorplan, ThermalConfig())


def _chip_network(cores: int) -> ThermalRCNetwork:
    physics, _, _ = build_chip_physics(baseline_config(), cores)
    return physics.network


def _node_power(network: ThermalRCNetwork, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    power = np.zeros(network.num_nodes)
    power[: network.num_blocks] = rng.uniform(0.1, 4.0, network.num_blocks)
    return power


def _pair(network: ThermalRCNetwork):
    return (
        ThermalSolver(network, backend="dense"),
        ThermalSolver(network, backend="sparse"),
    )


# ----------------------------------------------------------------------
# Backend resolution (the "auto" threshold)
# ----------------------------------------------------------------------
def test_resolve_backend_validates_choice():
    with pytest.raises(ValueError, match="solver backend"):
        resolve_backend("cholesky", 100)


def test_resolve_dense_is_always_dense():
    assert resolve_backend("dense", 10_000) == "dense"


@requires_scipy
def test_resolve_auto_flips_exactly_at_threshold():
    assert resolve_backend("auto", SPARSE_NODE_THRESHOLD - 1) == "dense"
    assert resolve_backend("auto", SPARSE_NODE_THRESHOLD) == "sparse"
    assert resolve_backend("auto", SPARSE_NODE_THRESHOLD + 1) == "sparse"


def test_auto_resolves_dense_without_scipy(monkeypatch):
    monkeypatch.setattr(solver_module, "_splu", None)
    assert resolve_backend("auto", SPARSE_NODE_THRESHOLD * 4) == "dense"


def test_explicit_sparse_without_scipy_raises(monkeypatch):
    monkeypatch.setattr(solver_module, "_splu", None)
    with pytest.raises(RuntimeError, match="sparse"):
        resolve_backend("sparse", 100)
    network = _random_network(0)
    with pytest.raises(RuntimeError, match="sparse"):
        ThermalSolver(network, backend="sparse")


def test_auto_keeps_small_dies_dense():
    """1–4-core dies stay on the dense (bit-identical, golden) path."""
    for cores in (1, 2, 4):
        network = _chip_network(cores)
        assert network.num_nodes < SPARSE_NODE_THRESHOLD
        assert ThermalSolver(network, backend="auto").backend == "dense"


@requires_scipy
def test_auto_flips_16_core_dies_to_sparse():
    network = _chip_network(16)
    assert network.num_nodes >= SPARSE_NODE_THRESHOLD
    assert ThermalSolver(network, backend="auto").backend == "sparse"


def test_physics_stage_exposes_resolved_backend():
    physics, _, _ = build_chip_physics(baseline_config(), 2)
    assert physics.solver.backend == "dense"
    if sparse_backend_available():
        physics16, _, _ = build_chip_physics(baseline_config(), 16)
        assert physics16.solver.backend == "sparse"


@requires_scipy
@pytest.mark.parametrize("cores", [16, 64])
def test_sparse_assembly_densifies_to_the_dense_conductance(cores):
    """Bitwise, not merely close: the sparse solver's propagators come from
    the dense ``C^-1 G``, which is only exact if the CSC assembly it factors
    is the same matrix."""
    network = _chip_network(cores)
    assert network.num_nodes >= SPARSE_NODE_THRESHOLD
    densified = network.conductance_sparse().toarray()
    assert densified.tobytes() == network.conductance.tobytes()


def test_auto_is_bitwise_dense_below_threshold():
    """Below the threshold, "auto" IS the dense solver — not merely close.

    This is the golden-fixture guarantee: every fixture was recorded
    through small dense-path dies, and the auto default must keep
    reproducing them bit-for-bit.
    """
    network = _chip_network(1)
    power = _node_power(network)
    auto = ThermalSolver(network, backend="auto")
    dense = ThermalSolver(network, backend="dense")
    assert auto.backend == "dense"
    np.testing.assert_array_equal(
        auto.steady_state_nodes(power), dense.steady_state_nodes(power)
    )
    state = network.uniform_state(network.config.ambient_celsius)
    np.testing.assert_array_equal(
        auto.advance_nodes(state, power, 1e-3),
        dense.advance_nodes(state, power, 1e-3),
    )


# ----------------------------------------------------------------------
# Cross-backend equivalence, path by path
# ----------------------------------------------------------------------
@requires_scipy
@pytest.mark.parametrize("seed", range(4))
def test_steady_state_equivalence_on_random_floorplans(seed):
    network = _random_network(seed)
    dense, sparse = _pair(network)
    power = _node_power(network, seed)
    np.testing.assert_allclose(
        sparse.steady_state_nodes(power),
        dense.steady_state_nodes(power),
        rtol=STEADY_RTOL,
        atol=STEADY_ATOL,
    )


@requires_scipy
@pytest.mark.parametrize("cores", [1, 2, 4, 16])
def test_steady_state_equivalence_on_composite_dies(cores):
    network = _chip_network(cores)
    dense, sparse = _pair(network)
    power = _node_power(network)
    np.testing.assert_allclose(
        sparse.steady_state_nodes(power),
        dense.steady_state_nodes(power),
        rtol=STEADY_RTOL,
        atol=STEADY_ATOL,
    )


@requires_scipy
@pytest.mark.parametrize("cores", [2, 16])
def test_advance_equivalence(cores):
    network = _chip_network(cores)
    dense, sparse = _pair(network)
    power = _node_power(network)
    state = network.uniform_state(network.config.ambient_celsius)
    dt = 1e-3
    d, s = state, state
    for _ in range(5):
        d = dense.advance_nodes(d, power, dt)
        s = sparse.advance_nodes(s, power, dt)
    np.testing.assert_allclose(s, d, rtol=STEADY_RTOL, atol=STEADY_ATOL)


@requires_scipy
def test_warmup_equivalence():
    network = _chip_network(2)
    dense, sparse = _pair(network)
    base = _node_power(network)

    def power_at(state: np.ndarray) -> np.ndarray:
        # Mildly temperature-dependent power (a leakage-like feedback).
        scale = 1.0 + 0.002 * (state - network.config.ambient_celsius)
        return base * np.clip(scale, 1.0, 2.0)

    state_d, blocks_d = dense.warmup_nodes(power_at)
    state_s, blocks_s = sparse.warmup_nodes(power_at)
    np.testing.assert_allclose(state_s, state_d, rtol=STEADY_RTOL, atol=STEADY_ATOL)
    np.testing.assert_allclose(blocks_s, blocks_d, rtol=STEADY_RTOL, atol=STEADY_ATOL)


@requires_scipy
@pytest.mark.parametrize("cores", [2, 16])
def test_batched_multi_rhs_equivalence(cores):
    network = _chip_network(cores)
    dense, sparse = _pair(network)
    rng = np.random.default_rng(7)
    cells = 6
    powers = rng.uniform(0.0, 4.0, size=(network.num_nodes, cells))
    np.testing.assert_allclose(
        sparse.steady_state_nodes_batch(powers),
        dense.steady_state_nodes_batch(powers),
        rtol=STEADY_RTOL,
        atol=STEADY_ATOL,
    )
    states = np.full((network.num_nodes, cells), network.config.ambient_celsius)
    np.testing.assert_allclose(
        sparse.advance_nodes_batch(states, powers, 1e-3),
        dense.advance_nodes_batch(states, powers, 1e-3),
        rtol=STEADY_RTOL,
        atol=STEADY_ATOL,
    )


@requires_scipy
def test_propagator_cache_equivalence_across_interval_lengths():
    """Both backends handle the variable-length final interval identically."""
    network = _chip_network(2)
    dense, sparse = _pair(network)
    power = _node_power(network)
    state = network.uniform_state(network.config.ambient_celsius)
    for dt in (1e-3, 1e-3, 2.5e-4, 1e-3):  # steady, steady, final, steady
        d = dense.advance_nodes(state, power, dt)
        s = sparse.advance_nodes(state, power, dt)
        np.testing.assert_allclose(s, d, rtol=STEADY_RTOL, atol=STEADY_ATOL)
        state = d


# ----------------------------------------------------------------------
# 16-core heterogeneous campaign: the end-to-end acceptance run
# ----------------------------------------------------------------------
@requires_scipy
def test_sixteen_core_campaign_sparse_matches_dense(tmp_path, monkeypatch):
    """A 16-core heterogeneous campaign completes on the sparse solver its
    die picks and agrees with a dense-LU run within the documented
    tolerance."""
    from repro.campaign import Campaign, ExperimentSettings, ResultCache, run_campaign
    from repro.sim.warmcache import warm_cache

    mix = "+".join(
        ("hot_loop", "thermal_virus", "memory_bound", "idle_crawl")[c % 4]
        for c in range(16)
    )
    settings = ExperimentSettings(
        benchmarks=("hot_loop",),
        uops_per_benchmark=1200,
        seed=5,
        honor_relative_length=False,
    )

    campaign = Campaign(
        (baseline_config(),),
        settings,
        name="accept",
        cores=16,
        per_core_scenarios=(mix,),
    )
    cell = campaign.cells()[0]

    def backend() -> str:
        return build_chip_physics(cell.config, 16, cell.interval_cycles)[0].solver.backend

    sparse_outcome = run_campaign(campaign, cache=ResultCache(str(tmp_path)))
    assert backend() == "sparse"
    # The dense reference: the same campaign with the threshold past this
    # die, run coupled (no result cache to serve the sparse cell) on
    # solvers built afresh, and dropped again so no later test inherits a
    # dense 16-core bundle.
    warm_cache().clear()
    monkeypatch.setattr(solver_module, "SPARSE_NODE_THRESHOLD", 10**9)
    try:
        dense_outcome = run_campaign(campaign)
        assert backend() == "dense"
    finally:
        warm_cache().clear()

    sparse_result = sparse_outcome.summaries["baseline"].results[mix]
    dense_result = dense_outcome.summaries["baseline"].results[mix]

    # Performance telemetry is solver-independent...
    assert sparse_result.chip["aggregate"]["chip_ipc"] == (
        dense_result.chip["aggregate"]["chip_ipc"]
    )
    # ...and every thermal trajectory matches within the contract.
    for block, value in sparse_result.warmup_temperature.items():
        assert value == pytest.approx(
            dense_result.warmup_temperature[block],
            rel=STEADY_RTOL,
            abs=STEADY_ATOL,
        )
    assert len(sparse_result.intervals) == len(dense_result.intervals)
    for interval_s, interval_d in zip(
        sparse_result.intervals, dense_result.intervals
    ):
        for block, value in interval_s.temperature.items():
            assert value == pytest.approx(
                interval_d.temperature[block], rel=STEADY_RTOL, abs=STEADY_ATOL
            )
    assert sparse_result.chip["aggregate"]["peak_celsius"] == pytest.approx(
        dense_result.chip["aggregate"]["peak_celsius"],
        rel=STEADY_RTOL,
        abs=STEADY_ATOL,
    )
