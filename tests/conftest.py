"""Shared fixtures for the unit and integration tests."""

from __future__ import annotations

import pytest

from repro.core.presets import baseline_config


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen",
        action="store_true",
        default=False,
        help="regenerate the golden-metric fixtures under tests/golden/",
    )
from repro.isa.registers import RegisterSpace
from repro.sim.config import ProcessorConfig
from repro.workloads.generator import TraceGenerator


@pytest.fixture
def native_core():
    """The compiled timing core; skips where it cannot run.

    Tests that lock the fast path against the reference take this fixture.
    They skip only when :func:`repro.sim.native.load_library` gives no
    library: no C compiler, a failed build, or ``REPRO_NATIVE=0``, which
    asks for the reference path.
    """
    from repro.sim import native

    lib = native.load_library()
    if lib is None:
        pytest.skip("native timing core unavailable (no C compiler or REPRO_NATIVE=0)")
    return lib


@pytest.fixture
def config() -> ProcessorConfig:
    """The paper's baseline configuration."""
    return baseline_config()


@pytest.fixture
def register_space() -> RegisterSpace:
    return RegisterSpace()


@pytest.fixture
def small_trace():
    """A short, deterministic gzip-like micro-op trace."""
    return TraceGenerator("gzip", seed=42).generate(1200)


@pytest.fixture
def fp_trace():
    """A short, deterministic swim-like (FP-heavy) micro-op trace."""
    return TraceGenerator("swim", seed=42).generate(1200)
