"""Laplacian property tests for :class:`ThermalRCNetwork`.

The conductance matrix of a physically meaningful RC network is a weighted
graph Laplacian with exactly one ambient leak: symmetric, non-positive off
the diagonal (couplings are non-negative conductances), zero row sums on
every node except the sink, whose surplus is precisely the convection
conductance to ambient.  These invariants — checked here on randomized
floorplans and on composite multi-core dies — are what make an arbitrary
composition trustworthy: any floorplan that satisfies them yields a passive,
energy-conserving network, whatever its shape.
"""

import random

import numpy as np
import pytest

from repro.chip import build_chip_physics
from repro.chip.engine import CORE_SEPARATOR, core_prefix
from repro.core.presets import bank_hopping_config, baseline_config
from repro.sim.warmcache import core_layout
from repro.sim.config import ThermalConfig
from repro.thermal.floorplan import Block, Floorplan, compose_floorplans
from repro.thermal.rc_model import ThermalRCNetwork


def random_grid_floorplan(rng: random.Random) -> Floorplan:
    """A random MxN grid of blocks with random column widths and row heights."""
    columns = rng.randint(2, 5)
    rows = rng.randint(2, 5)
    widths = [rng.uniform(0.5e-3, 2.5e-3) for _ in range(columns)]
    heights = [rng.uniform(0.5e-3, 2.5e-3) for _ in range(rows)]
    blocks = []
    y = 0.0
    for r, height in enumerate(heights):
        x = 0.0
        for c, width in enumerate(widths):
            blocks.append(Block(name=f"b{r}_{c}", x=x, y=y, width=width, height=height))
            x += width
        y += height
    return Floorplan(blocks)


def assert_laplacian_invariants(network: ThermalRCNetwork) -> None:
    __tracebackhide__ = True
    g = network.conductance
    # Symmetry is exact: couplings are added pairwise.
    assert np.array_equal(g, g.T)
    # Off-diagonal entries are non-positive (non-negative conductances).
    off = g - np.diag(np.diag(g))
    assert (off <= 0.0).all()
    assert (np.diag(g) > 0.0).all()
    # Row sums vanish everywhere except the sink row, whose surplus is the
    # ambient (convection) conductance — the network's only leak.
    row_sums = g.sum(axis=1)
    scale = np.abs(g).max()
    for node in range(network.num_nodes):
        if node == network.sink_index:
            assert row_sums[node] == pytest.approx(
                1.0 / network.package.sink_to_ambient_resistance, rel=1e-9
            )
        else:
            assert abs(row_sums[node]) <= scale * 1e-9
    # Every node stores energy.
    assert (network.capacitance > 0.0).all()


@pytest.mark.parametrize("seed", range(6))
def test_randomized_floorplans_build_valid_laplacians(seed):
    rng = random.Random(seed)
    floorplan = random_grid_floorplan(rng)
    network = ThermalRCNetwork(floorplan, ThermalConfig())
    assert_laplacian_invariants(network)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cores", [2, 4])
def test_composite_floorplans_build_valid_laplacians(seed, cores):
    """Namespaced grid composition preserves every Laplacian invariant."""
    rng = random.Random(100 + seed)
    sub = random_grid_floorplan(rng)
    composite = compose_floorplans(
        [sub] * cores, [f"core{c}" for c in range(cores)]
    )
    network = ThermalRCNetwork(composite, ThermalConfig())
    assert_laplacian_invariants(network)
    # Composition coupled the sub-dies: at least one cross-namespace edge.
    blocks_per_core = len(sub)
    cross = network.conductance[:blocks_per_core, blocks_per_core : 2 * blocks_per_core]
    assert (cross < 0.0).any()


def test_real_chip_network_is_a_valid_laplacian():
    physics, _, _ = build_chip_physics(baseline_config(), 4)
    assert_laplacian_invariants(physics.network)


def test_single_core_network_is_a_valid_laplacian():
    physics, _, _ = build_chip_physics(baseline_config(), 1)
    assert_laplacian_invariants(physics.network)


# ----------------------------------------------------------------------
# Adjacency: the bounding-box filter against the all-pairs scan
# ----------------------------------------------------------------------
def all_pairs_adjacency(floorplan: Floorplan):
    """The reference adjacency: every pair of blocks measured, in block order."""
    names = floorplan.block_names
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = floorplan.block(a).shared_edge_length(floorplan.block(b))
            if shared > 0.0:
                pairs.append((a, b, shared))
    return pairs


def chip_floorplan(config, cores: int) -> Floorplan:
    _, core_plan, _ = core_layout(config)
    return compose_floorplans(
        [core_plan] * cores,
        [core_prefix(c) for c in range(cores)],
        separator=CORE_SEPARATOR,
    )


@pytest.mark.parametrize("cores", [1, 2, 4, 16])
@pytest.mark.parametrize("config", [baseline_config, bank_hopping_config])
def test_chip_conductance_is_bitwise_the_all_pairs_build(config, cores, monkeypatch):
    """The filtered adjacency builds the all-pairs conductance bit for bit.

    Edge order feeds the diagonal sums, so the lists must agree entry for
    entry, not just as sets.
    """
    floorplan = chip_floorplan(config(), cores)
    fast = ThermalRCNetwork(floorplan, ThermalConfig())
    monkeypatch.setattr(Floorplan, "adjacency", all_pairs_adjacency)
    reference = ThermalRCNetwork(floorplan, ThermalConfig())
    assert fast.conductance.tobytes() == reference.conductance.tobytes()
    assert fast.capacitance.tobytes() == reference.capacitance.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_adjacency_and_neighbours_match_all_pairs(seed):
    rng = random.Random(seed)
    floorplan = compose_floorplans(
        [random_grid_floorplan(rng)] * 3, [f"core{c}" for c in range(3)]
    )
    assert floorplan.adjacency() == all_pairs_adjacency(floorplan)
    for name in floorplan.block_names:
        target = floorplan.block(name)
        assert floorplan.neighbours(name) == [
            other
            for other in floorplan.block_names
            if other != name and target.shared_edge_length(floorplan.block(other)) > 0.0
        ]


# ----------------------------------------------------------------------
# Sparse assembly (the solver's CSC backend input)
# ----------------------------------------------------------------------
def _scipy_or_skip():
    return pytest.importorskip("scipy.sparse")


def assert_sparse_matches_dense(network: ThermalRCNetwork) -> None:
    """The CSC assembly agrees with the dense Laplacian entrywise."""
    __tracebackhide__ = True
    _scipy_or_skip()
    g_sparse = network.conductance_sparse()
    dense = g_sparse.toarray()
    np.testing.assert_allclose(
        dense, network.conductance, rtol=1e-12, atol=0.0
    )
    # The sparse invariants mirror the dense ones without densifying:
    # symmetry, non-positive off-diagonals, one ambient leak.
    assert (g_sparse - g_sparse.T).nnz == 0
    coo = g_sparse.tocoo()
    off_diag = coo.row != coo.col
    assert (coo.data[off_diag] <= 0.0).all()
    row_sums = np.asarray(g_sparse.sum(axis=1)).ravel()
    scale = np.abs(coo.data).max()
    expected = np.zeros(network.num_nodes)
    expected[network.sink_index] = 1.0 / network.package.sink_to_ambient_resistance
    np.testing.assert_allclose(row_sums, expected, atol=scale * 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_sparse_assembly_matches_dense(seed):
    rng = random.Random(seed)
    floorplan = random_grid_floorplan(rng)
    network = ThermalRCNetwork(floorplan, ThermalConfig())
    assert_sparse_matches_dense(network)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_composite_sparse_assembly_matches_dense(cores):
    physics, _, _ = build_chip_physics(baseline_config(), cores)
    assert_sparse_matches_dense(physics.network)


@pytest.mark.parametrize("cores", [1, 4, 16])
def test_sparse_assembly_is_scipys_compression_of_the_dense_matrix(cores):
    """The column scan builds exactly the arrays ``csc_matrix(dense)`` does."""
    sparse = _scipy_or_skip()
    network = build_chip_physics(baseline_config(), cores)[0].network
    expected = sparse.csc_matrix(network.conductance)
    built = network.conductance_sparse()
    for name in ("data", "indices", "indptr"):
        assert getattr(built, name).dtype == getattr(expected, name).dtype, name
        assert getattr(built, name).tobytes() == getattr(expected, name).tobytes(), name
    assert built.has_canonical_format


def test_sparsity_grows_with_core_count():
    """Wider dies are emptier: density falls monotonically with core count.

    This is the scaling fact the sparse backend exists for — lateral
    coupling is local, so nonzeros grow linearly while the dense matrix
    grows quadratically.
    """
    _scipy_or_skip()
    densities = []
    for cores in (1, 2, 4, 8):
        physics, _, _ = build_chip_physics(baseline_config(), cores)
        g_sparse = physics.network.conductance_sparse()
        n = physics.network.num_nodes
        densities.append(g_sparse.nnz / n**2)
    assert all(a > b for a, b in zip(densities, densities[1:])), densities
    # By 8 cores the composite Laplacian is overwhelmingly zeros.
    assert densities[-1] < 0.10
