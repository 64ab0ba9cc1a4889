"""Time-series ingestion, synthesis, and CSV round-trip behavior."""

import json
import math
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from voltcraft.data import (
    SUNRISE_HOUR,
    SUNSET_HOUR,
    SynthesisProfile,
    TimeSeriesDataset,
    contiguous_split,
    load_timeseries,
    reactive_factor,
    synthesize_timeseries,
    write_timeseries,
)
from voltcraft.errors import (
    MissingColumn,
    NonMonotoneTime,
    ParseError,
    UnitError,
)
from voltcraft.trainer import dataset_fingerprint

from conftest import model_from_parents

FEEDER6 = files("voltcraft").joinpath("feeders/feeder6.json")


def two_inverter_net():
    # buses 1..3, inverters at 2 and 3 rated 0.1 pu = 100 kW on the 1 MVA base
    return model_from_parents([0, 1, 1], inverter_buses=(2, 3), inverter_p=0.1)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


FULL_HEADER = ["timestamp", "1_pc_kw", "2_pc_kw", "3_pc_kw", "2_pg_kw", "3_pg_kw"]


def test_reactive_factor_three_four_five_triangle():
    # tan(arccos(0.8)) = 0.75 in exact arithmetic; the float literal 0.8
    # is a hair above 4/5, which costs two ulps
    got = reactive_factor(0.8)
    assert abs(got - 0.75) <= 5e-16
    assert abs(got - math.tan(math.acos(0.8))) <= 1e-15


def test_reactive_factor_unity_pf_exactly_zero():
    assert reactive_factor(1.0) == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0000001, 2.0])
def test_reactive_factor_rejects_out_of_range(bad):
    with pytest.raises(UnitError):
        reactive_factor(bad)


def test_hundred_kw_load_draws_75_kvar(tmp_path):
    m = two_inverter_net()
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, [[0, 100.0, 0, 0, 0, 0]])
    ds = load_timeseries(p, m, power_factor=0.8)
    q_kvar = m.pu_to_kw(ds.intervals[0].q_c[0])
    assert q_kvar == pytest.approx(75.0, rel=1e-13)
    # active injection is minus the consumption
    assert m.pu_to_kw(ds.intervals[0].p[0]) == pytest.approx(-100.0, rel=1e-13)


def test_unity_power_factor_zero_reactive(tmp_path):
    m = two_inverter_net()
    rows = [[i, 5.0, 7.0, 3.0, 10.0, 20.0] for i in range(4)]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    ds = load_timeseries(p, m, power_factor=1.0)
    for s in ds.intervals:
        assert np.all(s.q_c == 0.0)


def test_generation_injection_sign(tmp_path):
    m = two_inverter_net()
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, [[0, 0, 10.0, 0, 40.0, 0]])
    ds = load_timeseries(p, m, power_factor=0.8)
    # bus 2: 40 kW generated minus 10 kW consumed
    assert m.pu_to_kw(ds.intervals[0].p[1]) == pytest.approx(30.0, rel=1e-13)


def test_overscale_generation_clipped_and_counted(tmp_path):
    m = two_inverter_net()  # nameplate 100 kW
    rows = [[0, 0, 0, 0, 105.0, 90.0], [30, 0, 0, 0, 99.0, 100.0]]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    ds = load_timeseries(p, m)
    assert ds.clip_count == 1
    assert m.pu_to_kw(ds.intervals[0].p[1]) == pytest.approx(100.0, rel=1e-13)
    assert ds.gen_kw[0, 0] == 100.0


def test_missing_required_column(tmp_path):
    m = two_inverter_net()
    hdr = [c for c in FULL_HEADER if c != "3_pg_kw"]
    p = write_csv(tmp_path / "d.csv", hdr, [[0, 1, 1, 1, 1]])
    with pytest.raises(MissingColumn, match="3_pg_kw"):
        load_timeseries(p, m)


def test_extra_columns_ignored(tmp_path):
    m = two_inverter_net()
    hdr = FULL_HEADER + ["weather_station_temp_c"]
    p = write_csv(tmp_path / "d.csv", hdr, [[0, 1, 1, 1, 0, 0, 21.5]])
    ds = load_timeseries(p, m)
    assert len(ds) == 1


def test_malformed_float_names_the_row(tmp_path):
    m = two_inverter_net()
    rows = [[0, 1, 1, 1, 0, 0], [30, 1, "oops", 1, 0, 0]]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    with pytest.raises(ParseError, match=":3:"):
        load_timeseries(p, m)


def test_short_row_names_the_row(tmp_path):
    m = two_inverter_net()
    p = tmp_path / "d.csv"
    p.write_text(",".join(FULL_HEADER) + "\n0,1,1,1,0,0\n30,1,1\n")
    with pytest.raises(ParseError, match=":3:"):
        load_timeseries(p, m)


def test_backwards_time_rejected(tmp_path):
    m = two_inverter_net()
    rows = [[0, 1, 1, 1, 0, 0], [60, 1, 1, 1, 0, 0], [30, 1, 1, 1, 0, 0]]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    with pytest.raises(NonMonotoneTime):
        load_timeseries(p, m)


def test_repeated_time_rejected(tmp_path):
    m = two_inverter_net()
    rows = [[0, 1, 1, 1, 0, 0], [0, 1, 1, 1, 0, 0]]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    with pytest.raises(NonMonotoneTime):
        load_timeseries(p, m)


def test_empty_and_headerless_files_rejected(tmp_path):
    m = two_inverter_net()
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_timeseries(empty, m)
    header_only = write_csv(tmp_path / "h.csv", FULL_HEADER, [])
    with pytest.raises(ParseError):
        load_timeseries(header_only, m)


def test_split_is_contiguous_partition():
    train, test = contiguous_split(2880)
    assert len(train) == 2016 and len(test) == 864
    assert train[-1] + 1 == test[0]
    assert np.array_equal(np.concatenate([train, test]), np.arange(2880))


def test_dataset_rejects_non_partition_split():
    m = two_inverter_net()
    ds = synthesize_timeseries(m, SynthesisProfile(n_intervals=10), seed=0)
    with pytest.raises(ValueError):
        TimeSeriesDataset(
            intervals=ds.intervals,
            interval_seconds=30.0,
            train_idx=np.arange(5),
            test_idx=np.arange(4, 10),
            provenance={},
        )


def test_train_test_state_views():
    m = two_inverter_net()
    ds = synthesize_timeseries(m, SynthesisProfile(n_intervals=10), seed=0)
    assert len(ds.train_states) == 7 and len(ds.test_states) == 3
    assert ds.train_states[0] is ds.intervals[0]
    assert ds.test_states[-1] is ds.intervals[-1]


def test_synthesis_deterministic_by_seed():
    m = two_inverter_net()
    prof = SynthesisProfile(n_intervals=200)
    a = synthesize_timeseries(m, prof, seed=11)
    b = synthesize_timeseries(m, prof, seed=11)
    c = synthesize_timeseries(m, prof, seed=12)
    for sa, sb in zip(a.intervals, b.intervals):
        assert np.array_equal(sa.p, sb.p) and np.array_equal(sa.q_c, sb.q_c)
    assert any(
        not np.array_equal(sa.p, sc.p) for sa, sc in zip(a.intervals, c.intervals)
    )


# dataset_fingerprint of each synthetic day, recorded when every shape
# constant was still a SynthesisProfile field: moving them must not move a bit
DAY_FINGERPRINTS = {
    ("feeder6", None, 0): "cf82b5f63198b7c4bfcb06163c5987efb7c645819427a380d0f3870292e9dbf7",
    ("feeder6", None, 1): "dc91302b9b7ee35fa7ecbdd62ad625e1abd1e479a85511b729160e1c76322c8d",
    ("feeder6", 10.0, 0): "5828143dd5d95a6b73e4c5800a325429356c9775c8b7de23999a7ed6de429fae",
    ("feeder6", 10.0, 1): "74845616d27d0edb9800fe06111ba0f0d936ae727e71d293b6f309bb509b2b3f",
    ("surrogate47", None, 0): "76c5fc0be332c41d6a35f93242c06e3a9b61de2ffe46eba06d6e44dfb77c20a2",
    ("surrogate47", None, 1): "9ab6fe8c067e217a6e2684a303ef87bb357e2f0ec82e6e1749db9f33822fc989",
    ("surrogate47", 10.0, 0): "ffb2c3c184331f023da2e208ddb595d862b903f2443fa1d4686a6149918cf7c4",
    ("surrogate47", 10.0, 1): "8360359c9470f3cbba9e3b8e9a9890cedfd1141046094f44ab9394c8492f8eab",
}


@pytest.mark.parametrize("feeder, peak_kw, seed", sorted(DAY_FINGERPRINTS, key=str))
def test_synthetic_day_pinned(feeder, peak_kw, seed, request):
    net = request.getfixturevalue(feeder)
    prof = SynthesisProfile() if peak_kw is None else SynthesisProfile(load_peak_kw=peak_kw)
    ds = synthesize_timeseries(net, prof, seed=seed)
    assert dataset_fingerprint(ds.intervals) == DAY_FINGERPRINTS[feeder, peak_kw, seed]


def test_zero_amplitude_profile_all_zero():
    m = two_inverter_net()
    prof = SynthesisProfile(n_intervals=50, load_peak_kw=0.0, solar_peak_frac=0.0)
    ds = synthesize_timeseries(m, prof, seed=4)
    for s in ds.intervals:
        assert np.all(s.p == 0.0) and np.all(s.q_c == 0.0)


@pytest.mark.parametrize("name, value", [
    ("n_intervals", 0), ("n_intervals", -3), ("n_intervals", 2.0), ("n_intervals", True),
    ("interval_seconds", 0.0), ("interval_seconds", -30.0),
    ("interval_seconds", math.inf), ("interval_seconds", math.nan),
    ("load_peak_kw", -1.0), ("load_peak_kw", math.inf), ("load_peak_kw", math.nan),
    ("solar_peak_frac", -0.5), ("solar_peak_frac", math.nan),
    ("cloud_delta_frac", -1.0), ("cloud_delta_frac", math.inf),
])
def test_profile_rejects_bad_values(name, value):
    with pytest.raises(ValueError, match=name):
        SynthesisProfile(**{name: value})


def test_profile_accepts_boundary_values():
    m = two_inverter_net()
    prof = SynthesisProfile(n_intervals=1, load_peak_kw=0.0, solar_peak_frac=0.0,
                            cloud_delta_frac=0.0)
    assert len(synthesize_timeseries(m, prof, seed=0)) == 1


def test_make_dataset_bad_profile_error_record(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_dataset.py"
    out = tmp_path / "day.csv"
    proc = subprocess.run(
        [sys.executable, str(script), "--network", str(FEEDER6), "--out", str(out),
         "--intervals", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    record = json.loads(proc.stderr)
    assert record["error"] == "ParseError"
    assert "n_intervals" in record["message"]
    assert not out.exists()


def test_night_generation_exactly_zero():
    m = two_inverter_net()
    prof = SynthesisProfile()
    ds = synthesize_timeseries(m, prof, seed=0)
    hours = np.array([s.timestamp for s in ds.intervals]) / 3600.0
    dark = (hours < SUNRISE_HOUR) | (hours > SUNSET_HOUR)
    assert np.all(ds.gen_kw[dark] == 0.0)
    assert ds.gen_kw[~dark].max() > 0.0


@pytest.mark.parametrize("bound", [0.15, 0.08])
def test_minute_solar_swing_capped_and_exercised(bound):
    # cap holds for every window of at most one minute (1 and 2 steps at
    # 30 s); cloud fronts saturate the limiter, so the cap is also reached
    m = two_inverter_net()
    prof = SynthesisProfile(cloud_delta_frac=bound)
    worst = 0.0
    for seed in (0, 1, 2):
        ds = synthesize_timeseries(m, prof, seed=seed)
        frac = ds.gen_kw[:, 0] / 100.0
        d1 = np.abs(np.diff(frac)).max()
        d2 = np.abs(frac[2:] - frac[:-2]).max()
        worst = max(worst, d1, d2)
    assert worst <= bound + 1e-12
    assert worst >= 0.9 * bound


def test_minute_cap_with_sixty_second_intervals():
    m = two_inverter_net()
    prof = SynthesisProfile(interval_seconds=60.0, n_intervals=1440)
    ds = synthesize_timeseries(m, prof, seed=3)
    frac = ds.gen_kw[:, 0] / 100.0
    assert np.abs(np.diff(frac)).max() <= prof.cloud_delta_frac + 1e-12


def test_csv_round_trip_bit_equal(tmp_path):
    m = two_inverter_net()
    ds = synthesize_timeseries(m, SynthesisProfile(n_intervals=300), seed=9)
    path = tmp_path / "day.csv"
    write_timeseries(path, m, ds)
    back = load_timeseries(path, m, power_factor=ds.provenance["power_factor"])
    assert len(back) == len(ds)
    for a, b in zip(ds.intervals, back.intervals):
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.q_c, b.q_c)
        assert a.timestamp == b.timestamp
    # writing the re-parsed dataset reproduces the file byte for byte
    path2 = tmp_path / "day2.csv"
    write_timeseries(path2, m, back)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_interval_seconds_and_provenance(tmp_path):
    m = two_inverter_net()
    rows = [[i * 30, 1, 1, 1, 0, 0] for i in range(10)]
    p = write_csv(tmp_path / "d.csv", FULL_HEADER, rows)
    ds = load_timeseries(p, m)
    assert ds.interval_seconds == 30.0
    assert ds.provenance["file"] == str(p)
    ds2 = synthesize_timeseries(m, SynthesisProfile(n_intervals=5), seed=2)
    assert ds2.provenance["synthetic"] == 2
