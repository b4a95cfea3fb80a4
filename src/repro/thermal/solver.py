"""Steady-state and transient solvers for the thermal RC network.

* The **steady-state** solve (``G T = P + ambient source``) is used to warm
  the processor up before measurement, iterating with the leakage model until
  the temperatures converge or the emergency limit (381 K) is reached, as the
  paper does.
* The **transient** solve advances the node temperatures over one thermal
  interval using the exact matrix-exponential solution of the linear system
  ``C dT/dt = b - G T`` (power is held constant within the interval).  The
  propagator ``exp(-C^-1 G dt)`` is cached per interval length, keyed by the
  exact ``dt`` value: every steady interval shares one propagator and the
  shorter final interval of a trace (fewer cycles than the configured
  interval) transparently gets its own.  The cache is a bounded LRU
  (:attr:`ThermalSolver.PROPAGATOR_CACHE_SIZE`): campaigns sweeping many
  distinct interval lengths recompute cold propagators instead of growing
  a dense-matrix cache without limit.
* The **batched** kernels (:meth:`ThermalSolver.steady_state_nodes_batch`,
  :meth:`ThermalSolver.advance_nodes_batch`) apply the same factors and
  propagators to (nodes x cells) matrices — one multi-RHS solve and one
  ``gemm`` for a whole campaign sweep.  They are numerically equivalent to
  the per-column calls but not bit-identical (blocked LAPACK/BLAS kernels
  may round the last ulp differently), which is why the result-bearing
  campaign replay path sticks to per-cell solves.

The conductance matrix ``G`` never changes after construction, so it is
**factorized once** and every steady-state solve — including each
iteration of the warm-up fixed point and the implicit steady-state target of
every transient ``advance`` — reuses the factors.  The die's node count
picks the factorization (:func:`resolve_backend`):

* **dense** — LAPACK LU (``scipy.linalg.lu_factor``) below
  :data:`SPARSE_NODE_THRESHOLD` nodes.  LAPACK's ``gesv`` (what
  ``np.linalg.solve`` wraps) is exactly ``getrf`` + ``getrs``, i.e. the
  same factorization followed by the same triangular solves, so the
  factorized path is bit-identical to solving from scratch; the
  golden-metric suite relies on that.  Without SciPy every die is dense and
  the steady-state solves fall back to ``np.linalg.solve`` per call —
  slower, but identical results (the matrix exponential falls back to
  scaling-and-squaring).
* **sparse** — SuperLU with the COLAMD fill-reducing column ordering over
  the CSC assembly of the same network (``scipy.sparse.linalg.splu``) at
  and above the threshold.  The RC network couples each node only to its
  floorplan neighbours, so the composite-die matrices the chip layer
  builds are overwhelmingly sparse — at 16 cores (770 nodes, ~1% dense)
  the sparse factorization and solves are an order of magnitude faster
  than dense LU, and the gap widens quadratically with core count.

Only the linear solves differ: the CSC assembly densifies to exactly
``network.conductance``, so both factorizations share one propagator
generator ``C^-1 G``.  An explicit ``backend="dense"``/``"sparse"`` on the
constructor forces one factorization; the tests and the multicore scaling
bench use it to compare sparse against the dense reference.

**Tolerance contract.** Sparse and dense solves are *numerically
equivalent but not bit-identical*: both factorizations are backward-stable,
but they pivot and order eliminations differently, so results agree to
within the conditioning of ``G`` — in practice far tighter than
``rtol=1e-8, atol=1e-8`` (degrees Celsius) on every die this repository
builds, which is the bound the dense-versus-sparse tests document and
enforce.  Anything whose contract is *bit-for-bit* (golden fixtures,
capture-vs-replay equivalence, the single-core engine) runs on a die below
the threshold, which stays dense.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.thermal.rc_model import ThermalRCNetwork

try:  # SciPy gives an exact matrix exponential; fall back to scaling+squaring.
    from scipy.linalg import expm as _expm
except ImportError:  # pragma: no cover - scipy is available in the target env
    _expm = None

try:  # Reusable LU factors for the constant conductance matrix.
    from scipy.linalg import lu_factor as _lu_factor
    from scipy.linalg.lapack import dgetrs as _getrs
except ImportError:  # pragma: no cover - scipy is available in the target env
    _lu_factor = None
    _getrs = None

try:  # Sparse backend: SuperLU over the CSC conductance assembly.
    from scipy.sparse.linalg import splu as _splu
except ImportError:  # pragma: no cover - scipy is available in the target env
    _splu = None


#: Accepted values of :class:`ThermalSolver`'s ``backend`` argument.
SOLVER_BACKENDS = ("auto", "dense", "sparse")

#: ``backend="auto"`` picks sparse at this node count and above.  The
#: single-core die (50 nodes) and the 2/4-core composites (98/194) stay
#: dense — bit-identical to the pre-sparse solver, which the golden
#: fixtures and the capture/replay equivalence contract require — while a
#: 16-core die (770 nodes) and up goes sparse, where SuperLU beats dense LU
#: by an order of magnitude.
SPARSE_NODE_THRESHOLD = 256


def sparse_backend_available() -> bool:
    """Whether the sparse solver backend (scipy.sparse SuperLU) is importable."""
    return _splu is not None


def resolve_backend(backend: str, num_nodes: int) -> str:
    """Resolve a ``backend`` argument to ``"dense"`` or ``"sparse"``.

    ``"auto"`` picks sparse at :data:`SPARSE_NODE_THRESHOLD` nodes and
    above when SciPy is available, dense otherwise (including whenever
    SciPy is absent).  An explicit ``"sparse"`` without SciPy raises
    :class:`RuntimeError` rather than silently degrading.
    """
    if backend not in SOLVER_BACKENDS:
        raise ValueError(
            f"solver backend must be one of {', '.join(SOLVER_BACKENDS)}, "
            f"not {backend!r}"
        )
    if backend == "dense":
        return "dense"
    if backend == "sparse":
        if not sparse_backend_available():
            raise RuntimeError(
                "backend='sparse' requires scipy (scipy.sparse.linalg); "
                "install the scipy extra or use 'auto'/'dense'"
            )
        return "sparse"
    if sparse_backend_available() and num_nodes >= SPARSE_NODE_THRESHOLD:
        return "sparse"
    return "dense"


def _matrix_exponential(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential with a NumPy fallback (scaling and squaring)."""
    if _expm is not None:
        return _expm(matrix)
    # Scaling and squaring with a Taylor series (adequate for the small,
    # well-conditioned matrices of the compact model).
    norm = np.linalg.norm(matrix, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 1)
    scaled = matrix / (2 ** squarings)
    result = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for k in range(1, 16):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class ThermalSolver:
    """Solves the RC network built by :class:`ThermalRCNetwork`.

    ``backend="auto"`` lets the die's node count pick the factorization
    (see the module docstring): sparse SuperLU at
    :data:`SPARSE_NODE_THRESHOLD` nodes and above, dense LU below — and
    dense whenever SciPy is absent.  ``"dense"`` or ``"sparse"`` forces
    one; the resolved choice is :attr:`backend`.
    """

    #: Upper bound on cached transient propagators.  A single run needs two
    #: (the steady interval plus the shorter final one), but a campaign that
    #: sweeps interval lengths — or replays many traces whose final
    #: intervals all differ — would otherwise grow the cache without limit,
    #: each entry a dense (nodes x nodes) matrix.  Least-recently-used
    #: entries are evicted first; recomputing one is a single ``expm``.
    PROPAGATOR_CACHE_SIZE = 32

    def __init__(self, network: ThermalRCNetwork, backend: str = "auto") -> None:
        self.network = network
        #: Cached propagators, keyed by the exact ``dt``.
        self._propagator_cache: "OrderedDict[float, np.ndarray]" = OrderedDict()
        #: Cached per-interval affine maps (see :meth:`interval_affine_map`),
        #: keyed like the propagators.
        self._affine_cache: "OrderedDict[float, Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        # G is symmetric positive definite thanks to the ambient conductance
        # on the sink node, so plain solves are safe.
        self._g = network.conductance
        self._c = network.capacitance
        self._ambient_source = network.ambient_source()
        # The propagator generator is built on the first advance, so a
        # solver used purely for steady solves (warmup sweeps, benchmarks)
        # never pays for it.
        self._rate_matrix: Optional[np.ndarray] = None
        self.backend = resolve_backend(backend, network.num_nodes)
        self._lu = None
        self._splu = None
        if self.backend == "sparse":
            self._splu = _splu(network.conductance_sparse(), permc_spec="COLAMD")
        elif _lu_factor is not None:
            self._lu = _lu_factor(self._g)

    def _generator(self) -> np.ndarray:
        """The propagator generator ``C^-1 G`` (row-scaled; lazy)."""
        if self._rate_matrix is None:
            self._rate_matrix = (self._g.T / self._c).T
        return self._rate_matrix

    # ------------------------------------------------------------------
    # Linear solves against the constant conductance matrix
    # ------------------------------------------------------------------
    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G x = rhs`` reusing the precomputed factorization.

        Handles both a single right-hand side (1-D) and the batched
        multi-RHS layout (nodes x cells): LAPACK's ``getrs`` and SuperLU's
        ``solve`` both accept either shape.

        Dense path: LAPACK's ``getrs`` against the ``lu_factor`` factors,
        called as :func:`scipy.linalg.lu_solve` calls it but without that
        function's per-call validation, which costs more than the 50-node
        triangular solves themselves; the arithmetic is the same.  The rhs
        is always a freshly built temporary, so letting LAPACK overwrite it
        is safe.
        """
        if self.backend == "sparse":
            return self._splu.solve(rhs)
        if self._lu is not None:
            # The getrs wrapper shifts the pivot array to 1-based in place
            # for the duration of the call (with the GIL released), so
            # threads sharing this solver through the warm cache would see
            # each other's shifted pivots: each solve gets its own copy.
            lu, piv = self._lu
            solution, info = _getrs(lu, piv.copy(), rhs, overwrite_b=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
            return solution
        return np.linalg.solve(self._g, rhs)

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------
    def steady_state_nodes(self, node_power: np.ndarray) -> np.ndarray:
        """Steady-state node temperatures (degrees Celsius) for a power vector.

        ``node_power`` injects Watts per thermal node (die blocks first,
        then spreader/sink nodes); the ambient boundary condition is added
        internally.
        """
        return self._solve(node_power + self._ambient_source)

    def steady_state_vector(self, block_power: Mapping[str, float]) -> np.ndarray:
        """Steady-state node temperatures (degrees Celsius) from a block map (W)."""
        return self.steady_state_nodes(self.network.power_vector(block_power))

    def steady_state(self, block_power: Mapping[str, float]) -> Dict[str, float]:
        """Steady-state block temperatures (degrees Celsius) for constant power (W)."""
        return self.network.temperatures_by_block(
            self.steady_state_vector(block_power)
        )

    def warmup_nodes(
        self,
        node_power_at_state: Callable[[np.ndarray], np.ndarray],
        max_iterations: int = 50,
        tolerance_celsius: float = 0.05,
        emergency_limit_celsius: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array fast path of :meth:`warmup`.

        ``node_power_at_state`` maps the current node-state vector (degrees
        Celsius) to the per-node power injection vector (W: dynamic +
        leakage at the state's temperatures).  Iteration stops when the
        largest block-temperature change falls below ``tolerance_celsius``
        (degrees Celsius), or when any block reaches
        ``emergency_limit_celsius`` — the paper warms the processor "until
        temperature converges or reaches the emergency limit (381 K)".

        Returns the final node-state vector and the block-temperature slice
        (both degrees Celsius; the slice is a view of the state in the
        network's block order).
        """
        network = self.network
        state = network.uniform_state(network.config.ambient_celsius)
        block_temps = state[: network.num_blocks]
        limit = (
            emergency_limit_celsius
            if emergency_limit_celsius is not None
            else network.config.emergency_limit_celsius
        )
        for _ in range(max_iterations):
            power = node_power_at_state(state)
            state = self.steady_state_nodes(power)
            new_block_temps = state[: network.num_blocks]
            delta = float(np.max(np.abs(new_block_temps - block_temps)))
            block_temps = new_block_temps
            if float(np.max(block_temps)) >= limit:
                break
            if delta < tolerance_celsius:
                break
        return state, block_temps

    def warmup(
        self,
        power_at_temperature: Callable[[Dict[str, float]], Mapping[str, float]],
        max_iterations: int = 50,
        tolerance_celsius: float = 0.05,
        emergency_limit_celsius: Optional[float] = None,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Iterate steady-state solves with temperature-dependent power.

        ``power_at_temperature`` maps the current block temperatures
        (degrees Celsius) to the per-block power in Watts (dynamic + leakage
        at those temperatures).  This is the mapping-boundary wrapper over
        :meth:`warmup_nodes`.

        Returns the final node-state vector and the block temperatures
        (degrees Celsius).
        """
        network = self.network

        def node_power_at(state: np.ndarray) -> np.ndarray:
            temperatures = network.temperatures_by_block(state)
            return network.power_vector(power_at_temperature(temperatures))

        state, _ = self.warmup_nodes(
            node_power_at,
            max_iterations=max_iterations,
            tolerance_celsius=tolerance_celsius,
            emergency_limit_celsius=emergency_limit_celsius,
        )
        return state, network.temperatures_by_block(state)

    # ------------------------------------------------------------------
    # Transient
    # ------------------------------------------------------------------
    def _propagator(self, dt_seconds: float) -> np.ndarray:
        """Cache ``exp(-C^-1 G dt)`` per interval length — bounded LRU.

        The cache key is the exact float value of ``dt_seconds``: the
        steady intervals of a run all share one bit-identical ``dt`` (hence
        one cached propagator), while the variable-length final interval —
        whose ``dt`` is scaled by the cycles the trace actually ran — misses
        the cache and gets a propagator of its own instead of silently
        reusing the steady-interval matrix.  At most
        :attr:`PROPAGATOR_CACHE_SIZE` propagators are retained, oldest-used
        evicted first.
        """
        key = float(dt_seconds)
        cache = self._propagator_cache
        propagator = cache.get(key)
        if propagator is None:
            propagator = _matrix_exponential(self._generator() * (-key))
            cache[key] = propagator
            if len(cache) > self.PROPAGATOR_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return propagator

    def advance_nodes(
        self,
        state: np.ndarray,
        node_power: np.ndarray,
        dt_seconds: float,
    ) -> np.ndarray:
        """Advance the node state by ``dt_seconds`` under constant node power.

        ``state`` holds node temperatures in degrees Celsius, ``node_power``
        Watts per node, ``dt_seconds`` seconds.  Uses the exact solution
        ``T(t+dt) = T_ss + e^{-C^{-1}G dt} (T(t) - T_ss)`` where ``T_ss`` is
        the steady state the system would converge to if the interval's
        power were applied forever.
        """
        if dt_seconds <= 0:
            raise ValueError("dt must be positive")
        steady = self.steady_state_nodes(node_power)
        propagator = self._propagator(dt_seconds)
        return steady + propagator @ (np.asarray(state, dtype=float) - steady)

    # ------------------------------------------------------------------
    # Batched transient kernels (many cells, one solver)
    # ------------------------------------------------------------------
    def steady_state_nodes_batch(self, node_power: np.ndarray) -> np.ndarray:
        """Steady-state temperatures for many power vectors at once.

        ``node_power`` is a (nodes x cells) matrix of per-node injections
        (W); one multi-RHS triangular solve against the shared LU factors
        replaces ``cells`` individual solves.  Numerically equivalent to the
        per-column :meth:`steady_state_nodes` (same factorization, same
        recurrences) but **not bit-identical** to it: LAPACK's blocked
        multi-RHS kernels may round the last ulp differently.  The campaign
        replay path therefore propagates result-bearing cells per column,
        and uses the batch kernels where exactness versus the coupled run is
        not contractual (screening, steady-state maps, benchmarks).
        """
        return self._solve(node_power + self._ambient_source[:, None])

    def advance_nodes_batch(
        self,
        states: np.ndarray,
        node_power: np.ndarray,
        dt_seconds: float,
    ) -> np.ndarray:
        """Advance many cells' node states by ``dt_seconds`` in one step.

        ``states`` and ``node_power`` are (nodes x cells) matrices — the
        campaign replay layout, one column per swept cell.  Applies the
        cached LU-factorized propagator to the whole matrix (one ``gemm``
        per interval for the entire sweep).  Shares
        :meth:`steady_state_nodes_batch`'s caveat: equivalent to per-column
        :meth:`advance_nodes` within last-ulp rounding, not bit-identical.
        """
        if dt_seconds <= 0:
            raise ValueError("dt must be positive")
        steady = self.steady_state_nodes_batch(node_power)
        propagator = self._propagator(dt_seconds)
        return steady + propagator @ (np.asarray(states, dtype=float) - steady)

    def interval_affine_map(
        self, dt_seconds: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The one-interval advance as a precomputed affine map, or ``None``.

        :meth:`advance_nodes_batch` evaluates ``T' = T_ss + P (T - T_ss)``
        with a factorized solve for ``T_ss = G^-1 (p + a)`` every interval.
        Factoring the interval length out of the chain instead::

            T' = P T + M p + b,   M = (I - P) G^-1,   b = M a

        turns each interval into two ``gemm``s against constant matrices —
        no per-interval solve.  ``(P, M, b)`` is cached per ``dt`` next to
        the propagators.  Applying the explicitly formed
        ``M`` instead of the factorized solve perturbs each interval by
        ~``cond(G) * eps`` relative — orders of magnitude inside the batched
        replay engine's 1e-8 contract, but *not* last-ulp equivalent to
        :meth:`advance_nodes_batch`, which exact-comparable callers keep.

        Returns ``None`` on the sparse backend: a 16-64-core die's ``G^-1``
        is dense and quadratically large, so batch callers fall back to the
        per-interval factorized solve there.
        """
        if dt_seconds <= 0:
            raise ValueError("dt must be positive")
        if self.backend == "sparse":
            return None
        key = float(dt_seconds)
        cached = self._affine_cache.get(key)
        if cached is None:
            propagator = self._propagator(dt_seconds)
            inverse = self._solve(np.eye(self.network.num_nodes))
            source_map = inverse - propagator @ inverse
            offset = (source_map @ self._ambient_source)[:, None]
            cached = (propagator, source_map, offset)
            self._affine_cache[key] = cached
            if len(self._affine_cache) > self.PROPAGATOR_CACHE_SIZE:
                self._affine_cache.popitem(last=False)
        else:
            self._affine_cache.move_to_end(key)
        return cached

    def advance(
        self,
        state: np.ndarray,
        block_power: Mapping[str, float],
        dt_seconds: float,
    ) -> np.ndarray:
        """Advance the node temperatures by ``dt_seconds`` (s) under constant
        per-block power (W)."""
        return self.advance_nodes(
            state, self.network.power_vector(block_power), dt_seconds
        )

    def block_temperatures(self, state: np.ndarray) -> Dict[str, float]:
        """Per-block temperatures (degrees Celsius) of a node-state vector."""
        return self.network.temperatures_by_block(state)
