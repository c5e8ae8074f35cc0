"""Shared fixtures: the heavily loaded reference cell used across the suite."""

import json

import numpy as np
import pytest

from rspool import (Deadlines, ProtocolParams, RegularTrafficParams,
                    place_stations)
from rspool import cli

# reference cell: 8000 smart meters, 1 km radius, 5-min reporting interval,
# demanding on-demand rate, 2.5 s pool period, 200 us slots
N = 8000
RADIUS = 1000.0
T_RI = 300.0
LAMBDA_D = 1.0 / 1500.0
T_R = 2.5
RS_DURATION = 200e-6
OMEGA = 40
DC_PCT = 50.0
L1 = 24
L2 = 16
TAU_A = 5.0
P_H1 = 5e-3


@pytest.fixture(autouse=True)
def cold_cell():
    """Each test starts with no cell kept by `rspool.cli`: a test that stands
    in for `place_stations` must see its commands place their cell."""
    cli._last_cell.clear()


@pytest.fixture(scope="session")
def ref_traffic() -> RegularTrafficParams:
    return RegularTrafficParams(T_RI, LAMBDA_D)


@pytest.fixture(scope="session")
def ref_params() -> ProtocolParams:
    return ProtocolParams(n=N, omega=OMEGA, delta_c=100, l1=L1, l2=L2,
                          t_r=T_R, rs_duration=RS_DURATION)


@pytest.fixture(scope="session")
def ref_deadlines() -> Deadlines:
    return Deadlines(tau_a=TAU_A)


@pytest.fixture(scope="session")
def ref_geometry():
    return place_stations(N, RADIUS, seed=20240811)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def read_trace(sink) -> list[dict]:
    """The per-pool entries a run wrote to an `io.StringIO` trace sink."""
    return [json.loads(line) for line in sink.getvalue().splitlines()]
