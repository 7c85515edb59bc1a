"""Shared fixtures and the acceptance summary section."""

import sys
import tracemalloc

import pytest

import hawkesmix as hm


@pytest.fixture(scope="session")
def d1_model():
    """One-component model with exponential excitation, mean rate 2."""
    return hm.HawkesModel([1.0], [[hm.ExponentialKernel(0.5, 2.0)]])


@pytest.fixture(scope="session")
def d2_model():
    """Two-component model with reproduction matrix [[.5, .3], [.2, .4]]."""
    return hm.HawkesModel(
        [1.0, 1.0],
        [
            [hm.ExponentialKernel(0.5, 2.0), hm.ExponentialKernel(0.3, 1.0)],
            [hm.UniformKernel(0.2, 1.0), hm.ExponentialKernel(0.4, 3.0)],
        ],
    )


@pytest.fixture(scope="session")
def mixed_model():
    """Two active kernels beside a zero kernel and a massless exponential."""
    return hm.HawkesModel(
        [1.0, 1.0],
        [
            [hm.ExponentialKernel(0.5, 2.0), hm.ZeroKernel()],
            [hm.UniformKernel(0.2, 1.0), hm.ExponentialKernel(0.0, 3.0)],
        ],
    )


@pytest.fixture(scope="session")
def poisson2_model():
    """Two independent unit-rate Poisson components (no excitation)."""
    return hm.HawkesModel([1.0, 1.0], hm.zero_coupling(2))


def _traced_peak(call, warm_up):
    """``(result, peak)``: what ``call()`` returns and the peak of the
    memory it allocates, as tracemalloc counts it.  ``warm_up()`` runs
    first, untraced, so one-time allocations (caches, first draws, lazy
    imports) stay out of the peak."""
    warm_up()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The tracemalloc peak of a call after an untraced warm-up; see
    :func:`_traced_peak`."""
    return _traced_peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
