"""Time-series ingestion and synthesis.

CSV schema: `timestamp` in seconds, then `<bus>_pc_kw` consumption columns
for every non-substation bus and `<bus>_pg_kw` generation columns for every
inverter bus. Consumption reactive power is derived from a uniform power
factor, generation is clipped to the inverter nameplate (counted, not
fatal), and everything is converted to per unit against the feeder bases.

The synthesizer replaces non-redistributable metering data: a double-hump
diurnal load, a solar bell, and cloud transients whose one-minute swing is
rate-limited to a configured fraction of nameplate yet regularly comes
within 90% of that cap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumn, NonMonotoneTime, ParseError, UnitError
from .network import GridState, NetworkModel

TRAIN_FRACTION = 0.7  # the first 70% of a day trains, the tail is held out
POWER_FACTOR = 0.8  # of consumption, uniform over buses

# shape of the synthetic day
LOAD_BASE = 0.35  # nighttime load floor as a fraction of peak
MORNING_HOUR = 8.0
EVENING_HOUR = 19.5
HUMP_WIDTH_HOURS = 3.0
LOAD_JITTER = 0.02  # bound of the per-bus random walk around 1
SUNRISE_HOUR = 6.5
SUNSET_HOUR = 19.5
CLOUD_EVENT_RATE = 0.02  # per-interval chance of a new cloud target
CLOUD_FLOOR = 0.25  # least attenuation a cloud target draws


def reactive_factor(power_factor: float) -> float:
    """tan(arccos(pf)) computed as sqrt(1 - pf^2)/pf; 0.8 -> 0.75 up to
    representation error in the literal 0.8 (a couple of ulps)."""
    if not 0.0 < power_factor <= 1.0:
        raise UnitError(f"power factor must be in (0, 1], got {power_factor}")
    return math.sqrt(1.0 - power_factor * power_factor) / power_factor


@dataclass
class TimeSeriesDataset:
    intervals: list
    interval_seconds: float
    train_idx: np.ndarray
    test_idx: np.ndarray
    provenance: dict
    load_kw: np.ndarray = None
    gen_kw: np.ndarray = None
    clip_count: int = 0

    def __post_init__(self):
        n = len(self.intervals)
        both = np.concatenate([self.train_idx, self.test_idx])
        if len(both) != n or not np.array_equal(np.sort(both), np.arange(n)):
            raise ValueError("split must partition the intervals")

    def __len__(self):
        return len(self.intervals)

    @property
    def train_states(self):
        return [self.intervals[i] for i in self.train_idx]

    @property
    def test_states(self):
        return [self.intervals[i] for i in self.test_idx]


def contiguous_split(n: int):
    """First part of the day trains, the tail is held out."""
    # nearest interval, so 0.7 of 2880 is 2016 despite 2880*0.7 rounding down
    cut = round(n * TRAIN_FRACTION)
    return np.arange(cut), np.arange(cut, n)


def _states_from_kw(model, timestamps, load_kw, gen_kw, power_factor):
    rq = reactive_factor(power_factor)
    p_kw = -load_kw
    p_kw[:, model.inverter_buses - 1] += gen_kw  # the model allows one inverter a bus
    p, q_c = model.kw_to_pu(p_kw), model.kw_to_pu(load_kw * rq)
    return [GridState(p=p[i], q_c=q_c[i], timestamp=float(t))
            for i, t in enumerate(timestamps)]


def load_timeseries(
    path,
    model: NetworkModel,
    power_factor: float = POWER_FACTOR,
) -> TimeSeriesDataset:
    labels = model.labels
    pc_cols = [f"{labels[bus]}_pc_kw" for bus in range(1, model.n + 1)]
    pg_cols = [f"{labels[bus]}_pg_kw" for bus in model.inverter_buses]

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        pos = {name: k for k, name in enumerate(header)}
        for name in ["timestamp", *pc_cols, *pg_cols]:
            if name not in pos:
                raise MissingColumn(f"{path}: column {name!r} not found")
        timestamps, load_rows, gen_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                t = float(row[pos["timestamp"]])
                load_rows.append([float(row[pos[c]]) for c in pc_cols])
                gen_rows.append([float(row[pos[c]]) for c in pg_cols])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if timestamps and t <= timestamps[-1]:
                raise NonMonotoneTime(
                    f"{path}:{lineno}: timestamp {t} after {timestamps[-1]}"
                )
            timestamps.append(t)
    if not timestamps:
        raise ParseError(f"{path}: no data rows")

    load_kw = np.array(load_rows)
    gen_kw = np.array(gen_rows)
    nameplate_kw = model.pu_to_kw([inv.p_rated for inv in model.inverters])
    over = gen_kw > nameplate_kw
    clip_count = int(np.count_nonzero(over))
    gen_kw = np.minimum(gen_kw, nameplate_kw)

    states = _states_from_kw(model, timestamps, load_kw, gen_kw, power_factor)
    step = timestamps[1] - timestamps[0] if len(timestamps) > 1 else 0.0
    train_idx, test_idx = contiguous_split(len(states))
    return TimeSeriesDataset(
        intervals=states,
        interval_seconds=step,
        train_idx=train_idx,
        test_idx=test_idx,
        provenance={"file": str(path), "power_factor": power_factor},
        load_kw=load_kw,
        gen_kw=gen_kw,
        clip_count=clip_count,
    )


def write_timeseries(path, model: NetworkModel, dataset: TimeSeriesDataset):
    """Inverse of load_timeseries; floats carry 17 significant digits."""
    labels = model.labels
    header = (
        ["timestamp"]
        + [f"{labels[bus]}_pc_kw" for bus in range(1, model.n + 1)]
        + [f"{labels[bus]}_pg_kw" for bus in model.inverter_buses]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, state in enumerate(dataset.intervals):
            row = [f"{state.timestamp:.17g}"]
            row += [f"{v:.17g}" for v in dataset.load_kw[i]]
            row += [f"{v:.17g}" for v in dataset.gen_kw[i]]
            writer.writerow(row)


@dataclass
class SynthesisProfile:
    """Shapes for one synthetic day, amplitudes in kW at the meter."""

    n_intervals: int = 2880
    interval_seconds: float = 30.0
    load_peak_kw: float = 40.0
    solar_peak_frac: float = 0.9  # clear-sky noon output over nameplate
    cloud_delta_frac: float = 0.15  # one-minute swing cap over nameplate

    def __post_init__(self):
        n = self.n_intervals
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n_intervals must be an integer >= 1, got {n!r}")
        # each rule is written so that NaN fails it
        if not (math.isfinite(self.interval_seconds) and self.interval_seconds > 0):
            raise ValueError("interval_seconds must be finite and > 0, "
                             f"got {self.interval_seconds!r}")
        for name in ("load_peak_kw", "solar_peak_frac", "cloud_delta_frac"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _diurnal_load(profile, hours, rng, n_buses):
    bump = (1.0 - LOAD_BASE) * 0.5
    shape = (
        LOAD_BASE
        + bump * np.exp(-0.5 * ((hours - MORNING_HOUR) / HUMP_WIDTH_HOURS) ** 2)
        + bump * np.exp(-0.5 * ((hours - EVENING_HOUR) / HUMP_WIDTH_HOURS) ** 2)
    )
    # smooth per-bus jitter: bounded random walk around 1
    walk = np.cumsum(rng.normal(0, LOAD_JITTER * 0.1, (len(hours), n_buses)), axis=0)
    jitter = 1.0 + np.clip(walk, -LOAD_JITTER, LOAD_JITTER)
    return profile.load_peak_kw * shape[:, None] * jitter


def _solar_fraction(profile, hours, rng):
    """Clear-sky bell times a rate-limited cloud attenuation, in [0, 1]."""
    up = (hours - SUNRISE_HOUR) / (SUNSET_HOUR - SUNRISE_HOUR)
    bell = np.where(
        (up > 0) & (up < 1), np.sin(np.pi * np.clip(up, 0, 1)) ** 2, 0.0
    )
    bell *= profile.solar_peak_frac
    if profile.cloud_delta_frac <= 0:
        return bell
    # attenuation chases a piecewise-constant target; the output series is
    # then clamped so successive intervals never move faster than the
    # one-minute cap allows
    att = np.ones(len(hours))
    target = 1.0
    for i in range(1, len(hours)):
        if rng.random() < CLOUD_EVENT_RATE:
            target = rng.uniform(CLOUD_FLOOR, 1.0)
        att[i] = target
    raw = bell * att
    cap = profile.cloud_delta_frac * profile.interval_seconds / 60.0
    out = np.empty_like(raw)
    out[0] = raw[0]
    for i in range(1, len(raw)):
        out[i] = np.clip(raw[i], out[i - 1] - cap, out[i - 1] + cap)
    return out


def synthesize_timeseries(
    model: NetworkModel,
    profile: SynthesisProfile | None = None,
    seed: int = 0,
) -> TimeSeriesDataset:
    profile = profile if profile is not None else SynthesisProfile()
    rng = np.random.default_rng(seed)
    n = profile.n_intervals
    timestamps = np.arange(n) * profile.interval_seconds
    hours = timestamps / 3600.0

    load_kw = _diurnal_load(profile, hours, rng, model.n)
    nameplate_kw = model.pu_to_kw([inv.p_rated for inv in model.inverters])
    gen_kw = np.zeros((n, len(nameplate_kw)))
    for j, cap_kw in enumerate(nameplate_kw):
        gen_kw[:, j] = cap_kw * _solar_fraction(profile, hours, rng)

    states = _states_from_kw(model, timestamps, load_kw, gen_kw, POWER_FACTOR)
    train_idx, test_idx = contiguous_split(n)
    return TimeSeriesDataset(
        intervals=states,
        interval_seconds=profile.interval_seconds,
        train_idx=train_idx,
        test_idx=test_idx,
        provenance={"synthetic": seed, "power_factor": POWER_FACTOR},
        load_kw=load_kw,
        gen_kw=gen_kw,
        clip_count=0,
    )
