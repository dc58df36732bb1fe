"""Shared fixtures: worlds, campaigns, and funded trading setups.

Expensive artifacts (a finished campaign) are session-scoped; tests must not
mutate them. Cheap fixtures build fresh worlds per test.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.collector import MeasurementCampaign
from repro.core import AnalysisPipeline
from repro.dex.market import MarketConfig
from repro.simulation import ScenarioConfig, SimulationEngine, small_scenario
from repro.simulation.config import TrendSpec
from repro.simulation.downtime import DowntimeSchedule, DowntimeWindow
from repro.solana.bank import Bank
from repro.solana.keys import Keypair


#: Seconds within which an HTTP server must answer a raw request and close.
EOF_DEADLINE_S = 0.5


def raw_exchange(port: int, payload: bytes, read: bool = True) -> bytes:
    """Send raw bytes on a fresh connection; return all bytes up to EOF.

    Fails the test when the server has not closed the connection within
    :data:`EOF_DEADLINE_S`: malformed input must get a prompt answer, not
    a socket left open until the client gives up.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        if payload:
            conn.sendall(payload)
        if not read:
            return b""
        chunks = bytearray()
        deadline = time.monotonic() + EOF_DEADLINE_S
        while True:
            conn.settimeout(max(deadline - time.monotonic(), 0.001))
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                pytest.fail(
                    f"connection still open {EOF_DEADLINE_S}s after "
                    f"{payload[:40]!r}"
                )
            if not chunk:
                return bytes(chunks)
            chunks.extend(chunk)


def status_of(response: bytes) -> bytes:
    """The status code of a raw HTTP response, e.g. ``b"400"``."""
    return response.split(b"\r\n", 1)[0].split(b" ")[1]


def tiny_scenario(seed: int = 11) -> ScenarioConfig:
    """A seconds-scale scenario for unit-level engine tests."""
    return ScenarioConfig(
        seed=seed,
        days=2,
        blocks_per_day=6,
        retail_per_day=TrendSpec(6.0, noise=0.0),
        defensive_per_day=TrendSpec(30.0, noise=0.0),
        priority_per_day=TrendSpec(8.0, noise=0.0),
        arbitrage_per_day=TrendSpec(10.0, noise=0.0),
        app_bundles_per_day=TrendSpec(4.0, noise=0.0),
        sandwiches_per_day=TrendSpec(8.0, noise=0.0),
        disguised_per_day=TrendSpec(0.0, noise=0.0),
        spike_probability=0.0,
        market=MarketConfig(num_meme_tokens=6, num_token_token_pools=2),
    )


@pytest.fixture
def fresh_world():
    """A fully wired but un-run simulation world."""
    return SimulationEngine(tiny_scenario()).world


@pytest.fixture
def run_world():
    """A tiny world after a full run (fresh per test; cheap)."""
    return SimulationEngine(tiny_scenario()).run()


@pytest.fixture(scope="session")
def small_campaign():
    """A finished small campaign with a fixed downtime window.

    Session-scoped: do not mutate. The downtime window is pinned so tests
    can assert on gap behaviour deterministically.
    """
    downtime = DowntimeSchedule([DowntimeWindow(1.25, 2.0, reason="pinned")])
    campaign = MeasurementCampaign(small_scenario(seed=7), downtime=downtime)
    return campaign.run()


@pytest.fixture(scope="session")
def small_report(small_campaign):
    """The analysis report over the session campaign."""
    return AnalysisPipeline().analyze_campaign(small_campaign)


@pytest.fixture
def funded_bank():
    """A bank with two funded keypairs (alice, bob)."""
    bank = Bank()
    alice = Keypair("alice")
    bob = Keypair("bob")
    bank.fund(alice, 10_000_000_000)
    bank.fund(bob, 10_000_000_000)
    return bank, alice, bob
