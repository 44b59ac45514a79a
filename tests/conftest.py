"""Shared fixtures: a simulator and a small two-host topology."""

from __future__ import annotations

import http.client
import time
import urllib.parse

import pytest

from repro.net.geo import EAST_US, WEST_US
from repro.net.topology import Network
from repro.simcore import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=42)


class SmallWorld:
    """client(east) -- r_east -- r_west -- server(west), plus a local
    server on the east side for low-RTT paths."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.network = Network(sim)
        self.r_east = self.network.add_router("r-east", EAST_US)
        self.r_west = self.network.add_router("r-west", WEST_US)
        self.client = self.network.add_host("client", EAST_US)
        self.server = self.network.add_host("server", WEST_US, provider="cloud")
        self.local_server = self.network.add_host(
            "local-server", EAST_US, provider="cloud"
        )
        self.client_up, self.client_down = self.network.connect(
            self.client, self.r_east, bandwidth_bps=200e6, delay_s=0.001
        )
        self.network.connect(self.r_east, self.r_west)
        self.network.connect(self.r_west, self.server, delay_s=0.0005)
        self.network.connect(self.r_east, self.local_server, delay_s=0.0005)
        self.network.build_routes()


@pytest.fixture
def world(sim):
    return SmallWorld(sim)


def keep_alive_seconds(url: str, path: str, n: int = 10) -> float:
    """Wall time of ``n`` sequential GETs of ``path`` on one keep-alive
    connection to the HTTP server at ``url``."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        start = time.perf_counter()
        for _ in range(n):
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        return time.perf_counter() - start
    finally:
        conn.close()
