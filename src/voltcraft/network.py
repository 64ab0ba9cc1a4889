"""Feeder data model: radial topology, per-unit conversion, inverter capability.

A feeder is a rooted tree. Bus 0 is the substation; every other bus hangs off
exactly one parent line. Internally buses are dense integers 0..N so numerical
kernels can index arrays directly; external files may use arbitrary labels,
which are mapped on load and kept around for column naming.

Voltages are carried as squared magnitudes throughout (the branch-flow model
variable), so a +-5% magnitude band becomes [0.9025, 1.1025] per unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapabilityError,
    DimensionMismatch,
    ParseError,
    TopologyError,
    UnitError,
    UnknownBus,
)

OVERSIZE_FACTOR = 1.08
DEFAULT_BAND = (0.95, 1.05)  # magnitude band; squared internally


def reactive_capability(spec: InverterSpec) -> tuple[float, float]:
    """Symmetric reactive box +-sqrt(s^2 - p^2) from the nameplate capacities."""
    p_rated, s_rated = spec.p_rated, spec.s_rated
    if not (p_rated > 0.0):
        raise CapabilityError(f"active nameplate must be positive, got {p_rated}")
    if s_rated < p_rated:
        raise CapabilityError(
            f"apparent capacity {s_rated} below active nameplate {p_rated}"
        )
    q_max = math.sqrt(s_rated**2 - p_rated**2)
    return -q_max, q_max


@dataclass
class Line:
    """Distribution line joining a non-root bus to its parent."""

    bus: int
    parent: int
    r: float
    x: float

    def __post_init__(self):
        if self.bus == self.parent:
            raise TopologyError(f"bus {self.bus} is its own parent")
        if self.bus == 0:
            raise TopologyError("the substation bus cannot have a parent line")


@dataclass
class InverterSpec:
    """Smart inverter nameplate data plus the derived reactive box (per unit)."""

    bus: int
    p_rated: float
    s_rated: float | None = None
    q_min: float = field(init=False)
    q_max: float = field(init=False)

    def __post_init__(self):
        if self.s_rated is None:
            self.s_rated = OVERSIZE_FACTOR * self.p_rated
        self.q_min, self.q_max = reactive_capability(self)
        if abs(self.q_min + self.q_max) > 1e-12:
            raise CapabilityError("reactive box must be symmetric")


@dataclass
class GridState:
    """Net active injection and reactive consumption per non-root bus."""

    p: np.ndarray
    q_c: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q_c = np.asarray(self.q_c, dtype=float)
        if self.p.shape != self.q_c.shape or self.p.ndim != 1:
            raise UnitError("state vectors p and q_c must be 1-D and equal length")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.q_c))):
            raise UnitError("state vectors must be finite")


class NetworkModel:
    """Validated radial feeder in per-unit.

    Attributes of note:
      n:        number of non-root buses (lines)
      parent:   dense int array, parent[i] = parent bus of bus i+1
      r, x:     per-unit line impedance arrays, entry i for the line into bus i+1
      v0:       squared substation voltage (per unit)
      v_min, v_max: squared voltage band arrays over buses 0..N
      subtree:  (n, n) float matrix, subtree[i, k] = 1 iff bus k+1 lies in the
                subtree rooted at bus i+1 (including itself)
    """

    def __init__(
        self,
        lines: list[Line],
        inverters: list[InverterSpec],
        base_mva: float,
        base_kv: float,
        v0: float,
        v_min: np.ndarray,
        v_max: np.ndarray,
        labels: list | None = None,
    ):
        if base_mva <= 0 or base_kv <= 0:
            raise UnitError("base power and voltage must be positive")
        n = len(lines)
        self.n = n
        self.lines = list(lines)
        self.inverters = list(inverters)
        self.base_mva = float(base_mva)
        self.base_kv = float(base_kv)
        self.v0 = float(v0)
        self.v_min = np.asarray(v_min, dtype=float)
        self.v_max = np.asarray(v_max, dtype=float)
        self.labels = list(labels) if labels is not None else list(range(n + 1))

        if self.v_min.shape != (n + 1,) or self.v_max.shape != (n + 1,):
            raise UnitError("voltage band arrays must cover buses 0..N")
        if np.any(self.v_min >= self.v_max):
            raise UnitError("voltage band requires v_min < v_max at every bus")
        if not (self.v_min[0] <= self.v0 <= self.v_max[0]):
            raise UnitError("substation voltage outside the root band")

        self._validate_tree()
        self._validate_lines()
        self._validate_inverters()
        self._derive_structure()

    # -- validation -------------------------------------------------------

    def _validate_tree(self):
        seen = {}
        for ln in self.lines:
            if not (0 <= ln.bus <= self.n) or not (0 <= ln.parent <= self.n):
                raise TopologyError(f"line references unknown bus {ln.bus}->{ln.parent}")
            if ln.bus in seen:
                raise TopologyError(f"bus {ln.bus} has multiple parent lines")
            seen[ln.bus] = ln.parent
        if len(seen) != self.n or 0 in seen:
            raise TopologyError("every non-root bus needs exactly one parent line")
        # each bus must reach the root without revisiting anything
        for start in seen:
            hops = 0
            node = start
            while node != 0:
                node = seen[node]
                hops += 1
                if hops > self.n:
                    raise TopologyError(f"cycle detected on the walk from bus {start}")
        self._parent_map = seen

    def _validate_lines(self):
        for ln in self.lines:
            if not (np.isfinite(ln.r) and np.isfinite(ln.x)):
                raise UnitError(f"non-finite impedance on line into bus {ln.bus}")
            if ln.r < 0:
                raise UnitError(f"negative resistance on line into bus {ln.bus}")
            if ln.r + abs(ln.x) <= 0:
                raise UnitError(f"line into bus {ln.bus} has zero impedance")

    def _validate_inverters(self):
        seen = set()
        for inv in self.inverters:
            if inv.bus == 0 or inv.bus not in self._parent_map:
                raise UnknownBus(f"inverter placed on unknown bus {inv.bus}")
            if inv.bus in seen:
                raise ParseError(
                    f"more than one inverter on bus {self.labels[inv.bus]}"
                )
            seen.add(inv.bus)

    def _derive_structure(self):
        n = self.n
        self.parent = np.zeros(n, dtype=int)
        self.r = np.zeros(n)
        self.x = np.zeros(n)
        for ln in self.lines:
            self.parent[ln.bus - 1] = ln.parent
            self.r[ln.bus - 1] = ln.r
            self.x[ln.bus - 1] = ln.x

        subtree = np.zeros((n, n))
        for bus in range(1, n + 1):
            node = bus
            while node != 0:
                subtree[node - 1, bus - 1] = 1.0
                node = self._parent_map[node]
        self.subtree = subtree

        self.inverter_buses = np.array([inv.bus for inv in self.inverters], dtype=int)
        self.q_lo = np.array([inv.q_min for inv in self.inverters])
        self.q_hi = np.array([inv.q_max for inv in self.inverters])

        for arr in (self.parent, self.r, self.x, self.subtree, self.inverter_buses,
                    self.q_lo, self.q_hi, self.v_min, self.v_max):
            arr.setflags(write=False)

    # -- queries ----------------------------------------------------------

    @property
    def n_inverters(self) -> int:
        return len(self.inverters)

    def check_state(self, state: GridState) -> None:
        """Raise DimensionMismatch unless `state` has one entry per non-root bus."""
        if state.p.shape != (self.n,):
            raise DimensionMismatch(
                f"state has {state.p.shape[0]} buses, model has {self.n}"
            )

    def kw_to_pu(self, value_kw):
        return np.asarray(value_kw, dtype=float) / (1000.0 * self.base_mva)

    def pu_to_kw(self, value_pu):
        return np.asarray(value_pu, dtype=float) * (1000.0 * self.base_mva)


# -- file loading ---------------------------------------------------------


def _sort_key(label):
    # integers first in numeric order, everything else lexicographic
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str) and label.lstrip("-").isdigit():
        return (0, int(label))
    return (1, str(label))


def load_network(path) -> NetworkModel:
    """Parse and validate a feeder file (JSON, see README for the schema)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return network_from_dict(doc, origin=str(path))


def network_from_dict(doc: dict, origin: str = "<dict>") -> NetworkModel:
    try:
        base_mva = float(doc["base_mva"])
        base_kv = float(doc["base_kv"])
        v0_mag = float(doc.get("v0_pu", 1.0))
        band = doc.get("voltage_band_pu", list(DEFAULT_BAND))
        bus_entries = doc["buses"]
        inv_entries = doc.get("inverters", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{origin}: missing or malformed field ({exc})") from exc
    if not isinstance(bus_entries, list) or not bus_entries:
        raise ParseError(f"{origin}: 'buses' must be a non-empty list")
    for e in bus_entries:
        bus_id = e.get("id") if isinstance(e, dict) else None
        if isinstance(bus_id, bool) or not isinstance(bus_id, (int, float, str)):
            raise ParseError(
                f"{origin}: bus entry {e!r} is not an object with a number or string 'id'"
            )

    roots = [e for e in bus_entries if e.get("parent") is None]
    if len(roots) != 1:
        raise TopologyError(
            f"{origin}: expected exactly one root entry (parent null), got {len(roots)}"
        )
    root_label = roots[0]["id"]
    others = [e for e in bus_entries if e.get("parent") is not None]
    labels = [root_label] + sorted((e["id"] for e in others), key=_sort_key)
    # ids are told apart by their text, as the CSV column names tell them
    # apart: 1 and 1.0 are two buses
    index = {str(lab): i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise TopologyError(f"{origin}: duplicate bus ids")

    lines = []
    for e in others:
        try:
            bus = index[str(e["id"])]
            if str(e["parent"]) not in index:
                raise TopologyError(f"{origin}: bus {e['id']} has unknown parent {e['parent']}")
            parent = index[str(e["parent"])]
            lines.append(Line(bus=bus, parent=parent, r=float(e["r_pu"]), x=float(e["x_pu"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{origin}: malformed bus entry {e!r} ({exc})") from exc

    inverters = []
    for e in inv_entries:
        try:
            if str(e["bus"]) not in index:
                raise UnknownBus(f"{origin}: inverter on unknown bus {e['bus']}")
            bus = index[str(e["bus"])]
            p_pu = float(e["p_rated_kw"]) / (1000.0 * base_mva)
            s_pu = None
            if e.get("s_rated_kw") is not None:
                s_pu = float(e["s_rated_kw"]) / (1000.0 * base_mva)
            inverters.append(InverterSpec(bus=bus, p_rated=p_pu, s_rated=s_pu))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{origin}: malformed inverter entry {e!r} ({exc})") from exc
    inverters.sort(key=lambda inv: inv.bus)

    try:
        lo, hi = float(band[0]), float(band[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{origin}: voltage_band_pu must be [min, max]") from exc
    n = len(lines)
    v_min = np.full(n + 1, lo**2)
    v_max = np.full(n + 1, hi**2)
    return NetworkModel(
        lines=lines,
        inverters=inverters,
        base_mva=base_mva,
        base_kv=base_kv,
        v0=v0_mag**2,
        v_min=v_min,
        v_max=v_max,
        labels=labels,
    )
