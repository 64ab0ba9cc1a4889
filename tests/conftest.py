from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest

from voltcraft.network import GridState, InverterSpec, Line, NetworkModel, load_network
from voltcraft.policy import policy_distribution


def band_arrays(n, lo=0.95, hi=1.05):
    return np.full(n + 1, lo**2), np.full(n + 1, hi**2)


def single_line_model(r=0.02, x=0.01, v0=1.0, inverter_p=None, band=(0.95, 1.05)):
    v_min, v_max = band_arrays(1, *band)
    inverters = []
    if inverter_p is not None:
        inverters = [InverterSpec(bus=1, p_rated=inverter_p)]
    return NetworkModel(
        lines=[Line(bus=1, parent=0, r=r, x=x)],
        inverters=inverters,
        base_mva=1.0,
        base_kv=12.47,
        v0=v0,
        v_min=v_min,
        v_max=v_max,
    )


def chain_model(n, r=0.01, x=0.01, v0=1.0):
    v_min, v_max = band_arrays(n)
    lines = [Line(bus=k, parent=k - 1, r=r, x=x) for k in range(1, n + 1)]
    return NetworkModel(
        lines=lines,
        inverters=[],
        base_mva=1.0,
        base_kv=12.47,
        v0=v0,
        v_min=v_min,
        v_max=v_max,
    )


def model_from_parents(parents, r=None, x=None, inverter_buses=(), inverter_p=0.1):
    """Builder for arbitrary trees: parents[i] is the parent of bus i+1."""
    n = len(parents)
    r = np.full(n, 0.01) if r is None else np.asarray(r, dtype=float)
    x = np.full(n, 0.015) if x is None else np.asarray(x, dtype=float)
    lines = [
        Line(bus=i + 1, parent=int(parents[i]), r=float(r[i]), x=float(x[i]))
        for i in range(n)
    ]
    inverters = [InverterSpec(bus=b, p_rated=inverter_p) for b in inverter_buses]
    v_min, v_max = band_arrays(n)
    return NetworkModel(
        lines=lines,
        inverters=inverters,
        base_mva=1.0,
        base_kv=12.47,
        v0=1.0,
        v_min=v_min,
        v_max=v_max,
    )


def zero_state(model):
    return GridState(p=np.zeros(model.n), q_c=np.zeros(model.n))


def mu_sigma(pol, s):
    """Mean and deviation of the policy's action distribution at state s."""
    dist = policy_distribution(pol, s)
    return dist.mu, dist.sigma


@pytest.fixture(scope="session")
def feeder6():
    return load_network(files("voltcraft").joinpath("feeders/feeder6.json"))


@pytest.fixture(scope="session")
def surrogate47():
    return load_network(files("voltcraft").joinpath("feeders/surrogate47.json"))
