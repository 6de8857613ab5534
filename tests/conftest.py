"""Shared fixtures for the test suite."""

import pytest

from repro.experiments.common import reset_id_streams
from repro.sim import SeedSequence, Simulator


@pytest.fixture(autouse=True)
def _fresh_id_streams():
    """Make every test hermetic against global ID-counter drift.

    Without this, adding a test file anywhere in the suite shifts every
    counter seen by the tests that run after it, and hash-sensitive
    assertions (e.g. the exclusion-steering ratios) flap with test order.
    """
    reset_id_streams()
    from repro.net.packet import PACKET_POOL
    PACKET_POOL._free.clear()
    yield


@pytest.fixture
def sim():
    """A fresh simulator with the clock at zero."""
    return Simulator()


@pytest.fixture
def seeds():
    """Deterministic seed sequence for stochastic components."""
    return SeedSequence(1234)
