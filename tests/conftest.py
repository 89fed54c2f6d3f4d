"""Shared fixtures.

Machine and canonical-tuner construction is cached per session: the
machines are immutable and the tuners only cache profiles, so sharing them
across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import os

import pytest

from repro.core import CanonicalTuner
from repro.topology import dual_socket, fully_connected, machine_a, machine_b, ring

# The persistent result store must not leak state between test runs (a
# stale entry from an older code version would mask a behaviour change
# the suite should catch), so tests run store-off; store tests opt back
# in against a tmp_path root via monkeypatch.
os.environ["BWAP_STORE"] = "0"


@pytest.fixture(scope="session")
def mach_a():
    """The paper's machine A (8-node AMD Opteron)."""
    return machine_a()


@pytest.fixture(scope="session")
def mach_b():
    """The paper's machine B (4-node Intel Xeon CoD)."""
    return machine_b()


@pytest.fixture(scope="session")
def canonical_a(mach_a):
    """Canonical tuner for machine A with cached profiles."""
    return CanonicalTuner(mach_a)


@pytest.fixture(scope="session")
def canonical_b(mach_b):
    """Canonical tuner for machine B with cached profiles."""
    return CanonicalTuner(mach_b)


@pytest.fixture(scope="session")
def small_symmetric():
    """A 2-node fully-symmetric control machine."""
    return fully_connected(2, cores_per_node=4, local_bw=20.0, remote_bw=10.0)


@pytest.fixture(scope="session")
def ring4():
    """A 4-node ring with genuinely shared links."""
    return ring(4, cores_per_node=4, local_bw=20.0, link_bw=8.0)


@pytest.fixture(scope="session")
def dual():
    """A generic dual-socket 4-node machine."""
    return dual_socket(nodes_per_socket=2, cores_per_node=4)
