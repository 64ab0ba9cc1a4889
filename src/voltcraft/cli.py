"""Command-line front end.

Subcommands mirror the two-phase workflow: feeder validation and power
flow for sanity checks, per-interval convex baseline, policy training,
inference, paired comparison, and a latency benchmark. Any library error
surfaces as a one-line JSON record on stderr with a nonzero exit, so
shell pipelines can branch on structured output instead of scraping text.

`VOLTCRAFT_SEED` overrides the run seed of `train` and `infer` when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import policy
from .baseline import solve_baseline, solution_row, trace_header
from .data import POWER_FACTOR, load_timeseries
from .errors import ParseError, VoltcraftError
from .network import GridState, load_network
from .powerflow import evaluate_loss
from .trainer import TrainConfig, compare_to_baseline, infer, run_training

_G = "%.17g"


def _fail(exc: Exception) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return 1


def _seed(raw, source):
    """A run seed from the environment or `--seed`: a nonnegative integer,
    the rule `TrainConfig` applies to a config's seed."""
    try:
        seed = int(raw) if isinstance(raw, str) else raw
    except ValueError:
        seed = None
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ParseError(f"{source} must be a nonnegative integer, got {raw!r}")
    return seed


def _env_seed():
    raw = os.environ.get("VOLTCRAFT_SEED")
    return None if raw is None else _seed(raw, "VOLTCRAFT_SEED")


def _load_states(args, model):
    ds = load_timeseries(args.data, model, power_factor=args.power_factor)
    if args.split == "train":
        idx = list(ds.train_idx)
    elif args.split == "test":
        idx = list(ds.test_idx)
    else:
        idx = list(range(len(ds)))
    if args.limit is not None:
        if args.limit < 1:
            raise ParseError(f"--limit must be at least 1, got {args.limit}")
        idx = idx[: args.limit]
    if not idx:
        raise ParseError(f"{args.data}: split {args.split!r} selects no intervals")
    return ds, idx


def cmd_validate(args) -> int:
    model = load_network(args.network)
    lo, hi = np.sqrt(model.v_min[0]), np.sqrt(model.v_max[0])
    print(f"feeder: {args.network}")
    print(f"buses: {model.n + 1} (including substation)")
    print(f"base: {model.base_mva} MVA, {model.base_kv} kV")
    print(f"voltage band: [{lo:g}, {hi:g}] pu")
    print(f"inverters: {model.n_inverters}")
    for inv in model.inverters:
        print(
            f"  bus {model.labels[inv.bus]}: "
            f"p_rated {model.pu_to_kw(inv.p_rated):.0f} kW, "
            f"q range +/-{model.pu_to_kw(inv.q_max):.1f} kvar"
        )
    print("ok")
    return 0


def cmd_pf(args) -> int:
    model = load_network(args.network)
    with open(args.state) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.state}: not valid JSON ({exc})") from exc
    try:
        state = GridState(p=doc["p"], q_c=doc["q_c"])
        q_g = np.asarray(doc.get("q_g", np.zeros(model.n_inverters)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.state}: missing or malformed field ({exc})") from exc
    sol = evaluate_loss(model, state, q_g, strict=True).solution
    print(f"converged: {sol.converged} in {sol.iterations} iterations")
    print(f"max residual: {sol.max_residual:.3e}")
    print(f"loss: {model.pu_to_kw(sol.loss):.6f} kW")
    print(f"min |V|: {np.sqrt(sol.v.min()):.6f} pu at bus "
          f"{model.labels[int(np.argmin(sol.v))]}")
    print(f"max |V|: {np.sqrt(sol.v.max()):.6f} pu")
    print("bus P_pu Q_pu ell_pu v_pu")
    for i in range(model.n):
        print(f"{model.labels[i + 1]} {sol.P[i]:.10f} {sol.Q[i]:.10f} "
              f"{sol.ell[i]:.3e} {sol.v[i + 1]:.10f}")
    return 0


def cmd_baseline(args) -> int:
    model = load_network(args.network)
    ds, idx = _load_states(args, model)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(model))
        for i in idx:
            sol = solve_baseline(model, ds.intervals[i])
            writer.writerow(solution_row(ds.intervals[i].timestamp, sol))
    print(f"wrote {len(idx)} rows to {args.out}")
    return 0


def _read_train_config(path):
    """Accept either bare TrainConfig fields or a full training manifest
    (fields under 'config', layer widths under 'hidden')."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if "config" in doc and isinstance(doc["config"], dict):
        cfg_doc = doc["config"]
        hidden = doc.get("hidden")
    else:
        cfg_doc = dict(doc)
        hidden = cfg_doc.pop("hidden", None)
    known = {f.name for f in fields(TrainConfig)}
    unknown = set(cfg_doc) - known
    if unknown:
        raise ParseError(f"{path}: unknown config fields {sorted(unknown)}")
    if hidden is not None and not (isinstance(hidden, list) and all(
            type(h) is int and h > 0 for h in hidden)):
        raise ParseError(f"{path}: hidden must be a list of positive integers, "
                         f"got {hidden!r}")
    try:
        config = TrainConfig(**cfg_doc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return config, tuple(hidden) if hidden is not None else (48, 32, 16)


def cmd_train(args) -> int:
    model = load_network(args.network)
    ds, idx = _load_states(args, model)
    states = [ds.intervals[i] for i in idx]
    if args.config:
        config, hidden = _read_train_config(args.config)
    else:
        config, hidden = TrainConfig(), (48, 32, 16)
    env = _env_seed()
    if env is not None:
        config = TrainConfig(**{**asdict(config), "seed": env})
    trained, trace, manifest = run_training(model, states, config, hidden=hidden)
    policy.save(trained, args.out)
    manifest_path = args.manifest or args.out + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "raw_loss", "running_avg", "feasible"])
            for row in trace.rows():
                writer.writerow([
                    row["step"],
                    _G % row["raw_loss"],
                    _G % row["running_avg"],
                    int(row["feasible"]),
                ])
    print(f"trained on {len(states)} intervals, {manifest['updates']} updates")
    print(f"model: {args.out}")
    print(f"manifest: {manifest_path}")
    return 0


def cmd_infer(args) -> int:
    model_net = load_network(args.network)
    pol = policy.load(args.model)
    ds, idx = _load_states(args, model_net)
    mode = "deterministic" if args.deterministic else "sample"
    env = _env_seed()
    seed = env if env is not None else _seed(args.seed, "--seed")
    rng = np.random.default_rng(seed)
    labels = [model_net.labels[b] for b in model_net.inverter_buses]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp"]
            + [f"{lab}_qg_kvar" for lab in labels]
            + ["loss_kw", "violation_pu", "feasible"]
        )
        for i in idx:
            s = ds.intervals[i]
            q = infer(pol, model_net, s, mode=mode, rng=rng)
            ev = evaluate_loss(model_net, s, q)
            writer.writerow(
                [_G % s.timestamp]
                + [_G % v for v in model_net.pu_to_kw(q)]
                + [_G % model_net.pu_to_kw(ev.objective),
                   _G % ev.violation,
                   int(ev.feasible)]
            )
    print(f"wrote {len(idx)} rows to {args.out}")
    return 0


def _compare(args):
    model_net = load_network(args.network)
    pol = policy.load(args.model)
    ds, idx = _load_states(args, model_net)
    states = [ds.intervals[i] for i in idx]
    return model_net, states, compare_to_baseline(pol, model_net, states)


def cmd_compare(args) -> int:
    model_net, states, res = _compare(args)
    gaps = res.learned - res.optimal
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "learned_loss", "optimal_loss", "gap"])
        for s, learned, optimal, gap in zip(states, res.learned, res.optimal, gaps):
            writer.writerow([
                _G % s.timestamp, _G % learned, _G % optimal, _G % gap,
            ])
    mean_gap, mo = np.mean(gaps), res.optimal.mean()

    def relative_gap(losses):
        return np.mean(losses - res.optimal) / mo * 100 if mo > 0 else float("nan")

    print(f"wrote {len(states)} rows to {args.out}")
    print(f"mean gap: {mean_gap:.6e} pu ({model_net.pu_to_kw(mean_gap):.3f} kW)")
    print(f"relative gap: {relative_gap(res.learned):.2f}%")
    print(f"relative gap of q = 0: {relative_gap(res.zero):.2f}%")
    print(f"relative gap of q = q_hi: {relative_gap(res.q_hi):.2f}%")
    print(f"feasible: {res.feasible.sum()}/{len(states)}")
    return 0


def cmd_bench(args) -> int:
    _, states, res = _compare(args)
    t_inf, t_base = res.infer_s, res.baseline_s
    med_i, med_b = np.median(t_inf), np.median(t_base)
    print(f"intervals: {len(states)}")
    print("phase      median_ms      p95_ms")
    print(f"infer      {med_i * 1e3:9.3f}  {np.percentile(t_inf, 95) * 1e3:10.3f}")
    print(f"baseline   {med_b * 1e3:9.3f}  {np.percentile(t_base, 95) * 1e3:10.3f}")
    print(f"median ratio (infer/baseline): {med_i / med_b:.4f}")
    return 0


def _add_data_flags(sub, with_limit=True):
    sub.add_argument("--data", required=True, help="time-series CSV")
    sub.add_argument("--power-factor", type=float, default=POWER_FACTOR)
    sub.add_argument("--split", choices=["train", "test", "all"], default="all")
    if with_limit:
        sub.add_argument("--limit", type=int, default=None,
                         help="use at most this many intervals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltcraft",
        description="Reactive power control on radial feeders: convex "
        "baseline and learned policy.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a feeder file")
    sub.add_argument("--network", required=True)
    sub.set_defaults(fn=cmd_validate)

    sub = subs.add_parser("pf", help="solve one power flow")
    sub.add_argument("--network", required=True)
    sub.add_argument("--state", required=True, help="JSON with p, q_c, optional q_g")
    sub.set_defaults(fn=cmd_pf)

    sub = subs.add_parser("baseline", help="per-interval convex optimum")
    sub.add_argument("--network", required=True)
    _add_data_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=cmd_baseline)

    sub = subs.add_parser("train", help="fit the policy on the training split")
    sub.add_argument("--network", required=True)
    _add_data_flags(sub, with_limit=False)
    sub.add_argument("--config", help="JSON config or a previous manifest")
    sub.add_argument("--out", required=True, help="model file")
    sub.add_argument("--trace", help="loss trace CSV")
    sub.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    sub.set_defaults(fn=cmd_train, split="train", limit=None)

    sub = subs.add_parser("infer", help="run the policy over intervals")
    sub.add_argument("--model", required=True)
    sub.add_argument("--network", required=True)
    _add_data_flags(sub)
    sub.add_argument("--deterministic", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=cmd_infer)

    sub = subs.add_parser("compare", help="learned loss vs baseline optimum")
    sub.add_argument("--model", required=True)
    sub.add_argument("--network", required=True)
    _add_data_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=cmd_compare)

    sub = subs.add_parser("bench", help="latency of inference vs baseline")
    sub.add_argument("--model", required=True)
    sub.add_argument("--network", required=True)
    _add_data_flags(sub)
    sub.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (VoltcraftError, FileNotFoundError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
