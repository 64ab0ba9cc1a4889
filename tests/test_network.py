from __future__ import annotations

import json
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_from_parents, single_line_model
from voltcraft.errors import (
    CapabilityError,
    ParseError,
    TopologyError,
    UnitError,
    UnknownBus,
)
from voltcraft.network import (
    GridState,
    InverterSpec,
    Line,
    load_network,
    network_from_dict,
    reactive_capability,
)


def write_feeder(tmp_path, doc, name="feeder.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def children(model, bus):
    """Buses whose parent line attaches to `bus`, read off `parent`."""
    return {int(k) + 1 for k in np.flatnonzero(model.parent == bus)}


def depth(model, bus):
    """Lines between `bus` and the substation: the subtrees holding it."""
    return 0 if bus == 0 else int(model.subtree[:, bus - 1].sum())


def chain_doc(n=2, r=0.01, x=0.01):
    buses = [{"id": 0, "parent": None}]
    buses += [{"id": k, "parent": k - 1, "r_pu": r, "x_pu": x} for k in range(1, n + 1)]
    return {"base_mva": 1.0, "base_kv": 12.47, "v0_pu": 1.0,
            "voltage_band_pu": [0.95, 1.05], "buses": buses}


# -- loading ---------------------------------------------------------------


def test_load_minimal_chain(tmp_path):
    model = load_network(write_feeder(tmp_path, chain_doc(2)))
    assert model.n == 2
    assert list(model.parent) == [0, 1]
    assert depth(model, 2) == 2
    assert children(model, 1) == {2}
    assert children(model, 2) == set()


def test_self_parent_rejected(tmp_path):
    doc = chain_doc(2)
    doc["buses"][2]["parent"] = 2
    with pytest.raises(TopologyError):
        load_network(write_feeder(tmp_path, doc))


def test_two_roots_rejected(tmp_path):
    doc = chain_doc(2)
    doc["buses"].append({"id": 3, "parent": None})
    with pytest.raises(TopologyError):
        load_network(write_feeder(tmp_path, doc))


def test_cycle_rejected(tmp_path):
    doc = chain_doc(0)
    doc["buses"] += [
        {"id": 1, "parent": 2, "r_pu": 0.01, "x_pu": 0.01},
        {"id": 2, "parent": 1, "r_pu": 0.01, "x_pu": 0.01},
    ]
    with pytest.raises(TopologyError):
        load_network(write_feeder(tmp_path, doc))


def test_unknown_parent_rejected(tmp_path):
    doc = chain_doc(1)
    doc["buses"][1]["parent"] = 7
    with pytest.raises(TopologyError):
        load_network(write_feeder(tmp_path, doc))


def test_duplicate_ids_rejected(tmp_path):
    doc = chain_doc(1)
    doc["buses"].append({"id": 1, "parent": 0, "r_pu": 0.01, "x_pu": 0.01})
    with pytest.raises(TopologyError):
        load_network(write_feeder(tmp_path, doc))


def test_ids_equal_in_python_are_distinct_buses():
    # 1 == 1.0 in Python, but the two name different CSV columns, so they
    # are two buses, and a parent reference finds a bus by its text
    doc = chain_doc(1)
    doc["buses"].append({"id": 1.0, "parent": 1, "r_pu": 0.01, "x_pu": 0.01})
    model = network_from_dict(doc)
    assert model.labels == [0, 1, 1.0]
    assert list(model.parent) == [0, 1]


def test_duplicate_inverter_bus_rejected():
    doc = json.loads(files("voltcraft").joinpath("feeders/feeder6.json").read_text())
    doc["inverters"].append({"bus": 3, "p_rated_kw": 300.0})
    with pytest.raises(ParseError, match="bus 3"):
        network_from_dict(doc)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(path)


def test_missing_field(tmp_path):
    doc = chain_doc(1)
    del doc["base_mva"]
    with pytest.raises(ParseError):
        load_network(write_feeder(tmp_path, doc))


@pytest.mark.parametrize(
    "buses",
    [
        [1, 2],
        [{"parent": None}, {"id": 1, "parent": 0, "r_pu": 0.01, "x_pu": 0.01}],
        [{"id": 0, "parent": None}, {"id": [1], "parent": 0, "r_pu": 0.01, "x_pu": 0.01}],
        [{"id": 0, "parent": None}, {"id": 1, "parent": 0, "r_pu": 0.01, "x_pu": 0.01},
         {"id": True, "parent": 1, "r_pu": 0.01, "x_pu": 0.01}],
    ],
    ids=["not-objects", "root-without-id", "unhashable-id", "bool-id"],
)
def test_malformed_bus_entries(buses):
    doc = chain_doc(1)
    doc["buses"] = buses
    with pytest.raises(ParseError):
        network_from_dict(doc)


def test_nonpositive_base(tmp_path):
    doc = chain_doc(1)
    doc["base_mva"] = -1.0
    with pytest.raises(UnitError):
        load_network(write_feeder(tmp_path, doc))


def test_band_stored_squared(tmp_path):
    model = load_network(write_feeder(tmp_path, chain_doc(2)))
    assert np.allclose(model.v_min, 0.9025)
    assert np.allclose(model.v_max, 1.1025)
    assert model.v0 == 1.0


def test_bad_impedance_rejected(tmp_path):
    doc = chain_doc(1)
    doc["buses"][1]["r_pu"] = -0.01
    with pytest.raises(UnitError):
        load_network(write_feeder(tmp_path, doc))
    doc["buses"][1].update(r_pu=0.0, x_pu=0.0)
    with pytest.raises(UnitError):
        load_network(write_feeder(tmp_path, doc))


def test_string_labels_mapped_densely():
    doc = {
        "base_mva": 1.0, "base_kv": 12.47, "v0_pu": 1.0,
        "voltage_band_pu": [0.95, 1.05],
        "buses": [
            {"id": "b", "parent": "sub", "r_pu": 0.01, "x_pu": 0.01},
            {"id": "sub", "parent": None},
            {"id": "a", "parent": "sub", "r_pu": 0.02, "x_pu": 0.02},
        ],
    }
    model = network_from_dict(doc)
    assert model.labels == ["sub", "a", "b"]
    assert list(model.parent) == [0, 0]
    assert model.r[0] == 0.02 and model.r[1] == 0.01


def test_entry_order_irrelevant(tmp_path):
    doc = chain_doc(4)
    shuffled = dict(doc)
    shuffled["buses"] = [doc["buses"][i] for i in (3, 0, 4, 2, 1)]
    a = load_network(write_feeder(tmp_path, doc, "a.json"))
    b = load_network(write_feeder(tmp_path, shuffled, "b.json"))
    assert a.labels == b.labels
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.x, b.x)


# -- inverter capability ---------------------------------------------------


def test_capability_from_nameplate():
    spec = InverterSpec(bus=1, p_rated=0.3, s_rated=0.324)
    assert spec.q_max == pytest.approx(0.12237646832622685, abs=1e-15)
    assert spec.q_min == -spec.q_max
    assert spec.q_max**2 + spec.p_rated**2 == pytest.approx(spec.s_rated**2, rel=1e-12)


def test_capability_default_oversize():
    spec = InverterSpec(bus=1, p_rated=1.0)
    assert spec.s_rated == pytest.approx(1.08)
    assert spec.q_max == pytest.approx(0.4079215610874229, abs=1e-15)


def test_capability_zero_headroom():
    spec = InverterSpec(bus=1, p_rated=0.5, s_rated=0.5)
    assert spec.q_max == 0.0 and spec.q_min == 0.0


def test_capability_invalid():
    with pytest.raises(CapabilityError):
        InverterSpec(bus=1, p_rated=0.5, s_rated=0.4)
    with pytest.raises(CapabilityError):
        InverterSpec(bus=1, p_rated=0.0)


def test_reactive_capability_matches_fields():
    spec = InverterSpec(bus=2, p_rated=0.2)
    lo, hi = reactive_capability(spec)
    assert (lo, hi) == (spec.q_min, spec.q_max)


def test_inverter_on_unknown_bus(tmp_path):
    doc = chain_doc(2)
    doc["inverters"] = [{"bus": 9, "p_rated_kw": 100.0}]
    with pytest.raises(UnknownBus):
        load_network(write_feeder(tmp_path, doc))


def test_inverter_on_root_rejected():
    with pytest.raises(UnknownBus):
        model_from_parents([0, 1], inverter_buses=(0,))


def test_inverter_kw_converted_to_pu(tmp_path):
    doc = chain_doc(2)
    doc["inverters"] = [{"bus": 2, "p_rated_kw": 300.0}]
    model = load_network(write_feeder(tmp_path, doc))
    assert model.inverters[0].p_rated == pytest.approx(0.3)
    assert model.q_hi[0] == pytest.approx(0.12237646832622685, abs=1e-15)


# -- structure queries -----------------------------------------------------


def test_children_partition(feeder6):
    seen = set()
    for bus in range(feeder6.n + 1):
        kids = children(feeder6, bus)
        assert not (kids & seen)
        seen |= kids
    assert seen == set(range(1, feeder6.n + 1))


def test_parent_map_reconstructs_lines(feeder6):
    rebuilt = {}
    for bus in range(feeder6.n + 1):
        for kid in children(feeder6, bus):
            rebuilt[kid] = bus
    expected = {ln.bus: ln.parent for ln in feeder6.lines}
    assert rebuilt == expected


def test_topo_order_deterministic(feeder6):
    # a child is one line deeper than its parent, so ordering the buses by
    # (depth, id) puts every parent first and breaks ties by id
    for ln in feeder6.lines:
        assert depth(feeder6, ln.bus) == depth(feeder6, ln.parent) + 1
    order = sorted(range(feeder6.n + 1), key=lambda b: (depth(feeder6, b), b))
    assert order == [0, 1, 2, 5, 3, 4]
    pos = {b: i for i, b in enumerate(order)}
    for ln in feeder6.lines:
        assert pos[ln.parent] < pos[ln.bus]


def test_subtree_matrix_literal():
    model = model_from_parents([0, 1, 1, 0, 4])
    expected = np.array(
        [
            [1, 1, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(model.subtree, expected)


def test_model_arrays_read_only():
    model = model_from_parents([0, 1])
    with pytest.raises(ValueError):
        model.r[0] = 5.0
    with pytest.raises(ValueError):
        model.subtree[0, 0] = 2.0


# -- units and state -------------------------------------------------------


def test_per_unit_round_trip():
    model = single_line_model()
    rng = np.random.default_rng(7)
    kw = rng.uniform(1.0, 5000.0, size=32)
    back = model.pu_to_kw(model.kw_to_pu(kw))
    assert np.allclose(back, kw, rtol=1e-12, atol=0.0)


def test_grid_state_validation():
    with pytest.raises(UnitError):
        GridState(p=np.zeros(3), q_c=np.zeros(2))
    with pytest.raises(UnitError):
        GridState(p=np.array([np.nan]), q_c=np.array([0.0]))
    with pytest.raises(UnitError):
        GridState(p=np.zeros((2, 2)), q_c=np.zeros((2, 2)))


def test_line_rejects_root_child():
    with pytest.raises(TopologyError):
        Line(bus=0, parent=1, r=0.01, x=0.01)


# -- randomized structure --------------------------------------------------


@st.composite
def random_parents(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [draw(st.integers(min_value=0, max_value=i)) for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(random_parents())
def test_random_tree_structure(parents):
    model = model_from_parents(parents)
    n = model.n
    order = sorted(range(n + 1), key=lambda b: (depth(model, b), b))
    pos = {b: i for i, b in enumerate(order)}
    assert order[0] == 0
    for bus in range(1, n + 1):
        assert depth(model, bus) == depth(model, parents[bus - 1]) + 1
        assert pos[parents[bus - 1]] < pos[bus]
    # subtree matrix agrees with an ancestor walk
    for bus in range(1, n + 1):
        node = bus
        anc = set()
        while node != 0:
            anc.add(node)
            node = parents[node - 1]
        col = model.subtree[:, bus - 1]
        assert {i + 1 for i in np.flatnonzero(col)} == anc
    # children sets partition the non-root buses
    union = set()
    for bus in range(n + 1):
        union |= children(model, bus)
    assert union == set(range(1, n + 1))
