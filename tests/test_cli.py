"""Command-line behavior: outputs, determinism, error records."""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import voltcraft
from voltcraft import policy
from voltcraft.baseline import solve_baseline
from voltcraft.cli import main
from voltcraft.data import (
    SynthesisProfile,
    load_timeseries,
    synthesize_timeseries,
    write_timeseries,
)
from voltcraft.network import load_network
from voltcraft.powerflow import evaluate_loss
from voltcraft.trainer import compare_to_baseline, infer


FEEDER6 = str(files("voltcraft").joinpath("feeders/feeder6.json"))


@pytest.fixture(scope="module")
def day_csv(tmp_path_factory):
    m = load_network(FEEDER6)
    ds = synthesize_timeseries(
        m, SynthesisProfile(n_intervals=120, load_peak_kw=30.0), seed=1
    )
    path = tmp_path_factory.mktemp("cli") / "day.csv"
    write_timeseries(path, m, ds)
    return str(path)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, day_csv):
    out = tmp_path_factory.mktemp("cli_model")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "seed": 5, "hidden": [6]}))
    model_path = out / "model.json"
    rc = main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--config", str(cfg), "--out", str(model_path),
        "--trace", str(out / "trace.csv"),
    ])
    assert rc == 0
    return str(model_path)


def test_validate_bundled_feeders_exit_zero(capsys):
    for name in ("feeder6.json", "surrogate47.json"):
        path = str(files("voltcraft").joinpath("feeders").joinpath(name))
        assert main(["validate", "--network", path]) == 0
        assert "ok" in capsys.readouterr().out


def test_validate_missing_file_error_record(capsys):
    rc = main(["validate", "--network", "/no/such/feeder.json"])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"
    assert "message" in record


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
def test_validate_malformed_bus_entries_error_record(tmp_path, capsys, buses):
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps({"base_mva": 1.0, "base_kv": 12.47, "buses": buses}))
    assert main(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "ParseError"
    assert captured.out == ""


def test_validate_duplicate_inverter_error_record(tmp_path, capsys):
    doc = json.loads(Path(FEEDER6).read_text())
    doc["inverters"].append({"bus": 3, "p_rated_kw": 300.0})
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "ParseError"
    assert captured.out == ""


def test_pf_reports_convergence(tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"p": [-0.01] * 5, "q_c": [0.005] * 5}))
    rc = main(["pf", "--network", FEEDER6, "--state", str(state)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "loss:" in out


def test_pf_malformed_state_error_record(tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text("{not json")
    assert main(["pf", "--network", FEEDER6, "--state", str(state)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_pf_missing_field_error_record(tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"p": [0.0] * 5}))
    assert main(["pf", "--network", FEEDER6, "--state", str(state)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "q_g, error",
    [([0.0, 0.0, 0.0], "DimensionMismatch"), ([5.0, 5.0], "ActionOutOfBounds")],
    ids=["wrong-length", "out-of-box"],
)
def test_pf_bad_setpoints_error_record(tmp_path, capsys, q_g, error):
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"p": [-0.01] * 5, "q_c": [0.005] * 5, "q_g": q_g}))
    assert main(["pf", "--network", FEEDER6, "--state", str(state)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == error
    assert "max |V|" not in captured.out


def test_baseline_csv_columns_and_rows(tmp_path, day_csv, capsys):
    out = tmp_path / "base.csv"
    rc = main([
        "baseline", "--network", FEEDER6, "--data", day_csv,
        "--limit", "4", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:6] == ["t", "objective", "exact", "max_cone_slack",
                                       "solver_iterations", "solver_status"]
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[1]) >= 0.0
    assert first[2] == "1"
    assert int(first[4]) > 0 and first[5] == "optimal"


def test_data_error_surfaces_as_record(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,nothing\n0,1\n")
    rc = main([
        "baseline", "--network", FEEDER6, "--data", str(bad),
        "--out", str(tmp_path / "o.csv"),
    ])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MissingColumn"


def test_train_writes_model_manifest_trace(tmp_path, day_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "seed": 2, "hidden": [6]}))
    model_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.csv"
    rc = main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--config", str(cfg), "--out", str(model_path),
        "--trace", str(trace_path),
    ])
    assert rc == 0
    loaded = policy.load(model_path)
    assert loaded.layer_sizes == [10, 6, 4]
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["config"]["seed"] == 2
    assert manifest["hidden"] == [6]
    header = trace_path.read_text().splitlines()[0]
    assert header == "step,raw_loss,running_avg,feasible"
    # 84 training records at batch 30: two full updates plus the remainder
    assert manifest["updates"] == 3


def test_train_rejects_unknown_config_field(tmp_path, day_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "learnin_rate": 0.1}))
    rc = main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--config", str(cfg), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert "learnin_rate" in record["message"]


def test_train_repeat_and_manifest_replay_bit_identical(tmp_path, day_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "seed": 7, "hidden": [8, 5]}))
    paths = [tmp_path / f"m{i}.json" for i in range(3)]
    for p in paths[:2]:
        assert main([
            "train", "--network", FEEDER6, "--data", day_csv,
            "--config", str(cfg), "--out", str(p),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # a manifest is itself a valid config: replaying it reproduces the model
    manifest = str(paths[0]) + ".manifest.json"
    assert main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--config", manifest, "--out", str(paths[2]),
    ]) == 0
    assert paths[0].read_bytes() == paths[2].read_bytes()


@pytest.mark.parametrize(
    "doc",
    [[1, 2], {"epochs": 1, "hidden": "ab"}, {"epochs": 1, "hidden": [6, 0]},
     {"epochs": 1, "seed": -1}, {"epochs": 1.5}, {"epochs": 1, "sigma_floor": 0},
     {"epochs": 1, "batch_size": 2.5}, {"epochs": 1, "grad_clip": -1},
     {"epochs": 1, "penalty_coeff": -5}, {"epochs": 1, "adam_beta1": 2},
     {"epochs": 1, "adam_eps": 0}, {"epochs": 1, "baseline_window": True},
     {"epochs": 1, "learning_rate": "fast"}],
    ids=["array", "hidden-string", "hidden-zero", "negative-seed", "epochs-float",
         "sigma-floor-zero", "batch-float", "grad-clip-negative", "penalty-negative",
         "beta1-above-one", "eps-zero", "window-bool", "rate-string"],
)
def test_train_malformed_config_error_record(tmp_path, day_csv, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--config", str(cfg), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "ParseError"
    assert not (tmp_path / "m.json").exists()


def test_env_seed_override(tmp_path, day_csv, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "seed": 2, "hidden": [6]}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["train", "--network", FEEDER6, "--data", day_csv,
          "--config", str(cfg), "--out", str(a)])
    monkeypatch.setenv("VOLTCRAFT_SEED", "9")
    main(["train", "--network", FEEDER6, "--data", day_csv,
          "--config", str(cfg), "--out", str(b)])
    manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert a.read_bytes() != b.read_bytes()


def test_env_seed_must_be_integer(tmp_path, day_csv, monkeypatch, capsys):
    monkeypatch.setenv("VOLTCRAFT_SEED", "not-a-seed")
    rc = main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_negative_seed_error_record(tmp_path, day_csv, trained_model, monkeypatch, capsys):
    monkeypatch.setenv("VOLTCRAFT_SEED", "-1")
    assert main([
        "train", "--network", FEEDER6, "--data", day_csv,
        "--out", str(tmp_path / "m.json"),
    ]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    monkeypatch.delenv("VOLTCRAFT_SEED")
    assert main([
        "infer", "--model", trained_model, "--network", FEEDER6,
        "--data", day_csv, "--seed", "-1", "--out", str(tmp_path / "i.csv"),
    ]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert "--seed" in record["message"]


def test_infer_deterministic_reruns_identical(tmp_path, day_csv, trained_model, capsys):
    outs = [tmp_path / "i1.csv", tmp_path / "i2.csv"]
    for out in outs:
        rc = main([
            "infer", "--model", trained_model, "--network", FEEDER6,
            "--data", day_csv, "--split", "test", "--deterministic",
            "--out", str(out),
        ])
        assert rc == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    lines = outs[0].read_text().strip().splitlines()
    assert lines[0] == "timestamp,3_qg_kvar,5_qg_kvar,loss_kw,violation_pu,feasible"
    assert len(lines) == 1 + 36  # 30% of 120 intervals


def test_infer_sampled_seeded_reruns_identical(tmp_path, day_csv, trained_model, capsys):
    outs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for out in outs:
        assert main([
            "infer", "--model", trained_model, "--network", FEEDER6,
            "--data", day_csv, "--split", "test", "--seed", "3",
            "--out", str(out),
        ]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_compare_untrained_gap_positive_on_average(tmp_path, day_csv, capsys):
    m = load_network(FEEDER6)
    fresh = policy.init_policy(m, hidden=(6,), seed=0)
    model_path = tmp_path / "fresh.json"
    policy.save(fresh, model_path)
    out = tmp_path / "cmp.csv"
    rc = main([
        "compare", "--model", str(model_path), "--network", FEEDER6,
        "--data", day_csv, "--limit", "12", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,learned_loss,optimal_loss,gap"
    gaps = [float(r.split(",")[3]) for r in lines[1:]]
    assert len(gaps) == 12
    assert np.mean(gaps) > 0.0
    # gap is learned minus relaxation optimum, so each entry is at least
    # minus the solver's residual tolerance
    assert min(gaps) > -1e-8


def test_compare_rows_are_the_shared_loop(tmp_path, day_csv, trained_model, capsys):
    out = tmp_path / "cmp.csv"
    assert main([
        "compare", "--model", trained_model, "--network", FEEDER6,
        "--data", day_csv, "--split", "test", "--out", str(out),
    ]) == 0
    net = load_network(FEEDER6)
    states = load_timeseries(day_csv, net).test_states
    pol = policy.load(trained_model)
    res = compare_to_baseline(pol, net, states)
    expected = [
        ",".join("%.17g" % v for v in (s.timestamp, lrn, opt, lrn - opt))
        for s, lrn, opt in zip(states, res.learned, res.optimal)
    ]
    rows = out.read_text().splitlines()[1:]
    assert rows == expected
    # tie the CSV to the primitives too, not only to the shared loop
    for k in (0, len(states) - 1):
        s = states[k]
        lrn = evaluate_loss(net, s, infer(pol, net, s, mode="deterministic")).objective
        opt = solve_baseline(net, s).objective
        assert rows[k] == ",".join("%.17g" % v for v in (s.timestamp, lrn, opt, lrn - opt))
    printed = capsys.readouterr().out
    assert "relative gap:" in printed
    assert f"feasible: {res.feasible.sum()}/{len(states)}" in printed
    # the trivial policies, priced apart from the shared loop
    optimal = np.array([float(r.split(",")[2]) for r in rows])
    for name, q in (("q = 0", np.zeros(net.n_inverters)), ("q = q_hi", net.q_hi)):
        losses = np.array([evaluate_loss(net, s, q).objective for s in states])
        gap = np.mean(losses - optimal) / optimal.mean() * 100
        assert f"relative gap of {name}: {gap:.2f}%\n" in printed


@pytest.mark.parametrize(
    "command, flags",
    [("bench", ["--limit", "0"]), ("compare", ["--limit", "-1"]),
     ("compare", ["--split", "test"])],
    ids=["limit-zero", "limit-negative", "empty-split"],
)
def test_empty_selection_error_record(tmp_path, day_csv, trained_model, capsys,
                                      command, flags):
    data = day_csv
    if "--split" in flags:
        # one interval: the 70/30 split holds it out of the test part
        data = tmp_path / "one.csv"
        data.write_text("\n".join(Path(day_csv).read_text().splitlines()[:2]) + "\n")
    out = [] if command == "bench" else ["--out", str(tmp_path / "o.csv")]
    rc = main([command, "--model", trained_model, "--network", FEEDER6,
               "--data", str(data), *flags, *out])
    assert rc == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "ParseError"
    assert captured.out == ""


def test_bench_prints_ratio(day_csv, trained_model, capsys):
    rc = main([
        "bench", "--model", trained_model, "--network", FEEDER6,
        "--data", day_csv, "--limit", "10",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median ratio (infer/baseline):" in out
    ratio = float(out.rsplit(":", 1)[1])
    assert 0.0 < ratio < 1.0


def test_module_entry_point_runs():
    # the child imports the voltcraft this test imported, installed or not
    src = str(Path(voltcraft.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "voltcraft.cli", "validate", "--network", FEEDER6],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
