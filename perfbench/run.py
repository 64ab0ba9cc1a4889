"""Training throughput, inference latency and the per-interval baseline on
the bundled 47-bus surrogate feeder.

    python3 perfbench/run.py --workload stock-compare --seed 1 --seconds 30 --trace 0

The inputs are synthetic days made from --seed, written as CSV and read back
through load_timeseries, so the library sees only files. The library is driven
through the public functions the CLI uses, from one process pinned to one BLAS
thread. The next-to-last line of stdout is a JSON record of the environment,
the operations attempted and failed per kind and the reference losses. The
last line is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See README.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import os

# One BLAS thread. With the default two on a 2-core machine, baseline solves
# run about 2x slower and training times stop repeating. Must precede numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import voltcraft
from voltcraft import baseline, data, network, policy, powerflow, trainer
from voltcraft.errors import VoltcraftError

import checks
import tracing

FEEDER = SRC / "voltcraft" / "feeders" / "surrogate47.json"
SERVE_EPOCHS = 3  # the served policy: 3 epochs on the whole training split
# A timed training repeat is one epoch on every 8th interval of the training
# split (252 records, 9 updates): short, so that the fastest of a run's many
# repeats is steady on a host whose CPU throughput dips for seconds at a time.
SLICE_STEP = 8
TAIL_STEP = 4  # stock-train serves every 4th held-out interval (216)
WINDOW = 16  # contiguous held-out intervals a compare workload serves and solves
# A compare workload's learned loss and checks also cover the 48 held-out
# intervals after its window, served once after the timed loop: over 16
# intervals alone the mean loss moved 19% from seed to seed.
EVAL_WINDOW = 64
# One round. stock-train: 8 training repeats, every served interval once, and
# one solve of the first window interval. Compare: 2 training repeats, then 8
# window intervals each served and solved. Every timed operation recurs on the
# same input many times a run, so that its fastest time can be taken.
STOCK_TRAIN_REPEATS = 8  # training repeats per stock-train round
COMPARE_REPEATS = 2  # training repeats per compare round
INTERVALS_PER_ROUND = 8
KINDS = ("train_records", "inferences", "baseline_solves")


@dataclass(frozen=True)
class Workload:
    peak_kw: float  # per-bus load peak of the synthetic day
    window_start: int  # first held-out interval of the window
    training: bool  # stock-train; otherwise a compare workload
    beats_q_hi: bool  # the learned policy must also beat q = q_hi


# The windows lie where the solver's iteration count is the same for every
# seed (17 on the stock day, 16 on the high-PV day), so that the day's random
# jitter and clouds do not move the solve time.
WORKLOADS = {
    "stock-train": Workload(40.0, 136, True, False),
    "highpv-compare": Workload(10.0, 700, False, True),
    "stock-compare": Workload(40.0, 136, False, False),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_records_per_s": "records/s",
    "infer_us": "us",
    "baseline_ms": "ms",
    "learned_loss_kw": "kW",
    "peak_rss_mb": "MB",
}


class Operations:
    """Operations attempted and failed, per kind."""

    def __init__(self):
        self.counts = {kind: {"attempted": 0, "failed": 0} for kind in KINDS}

    def run(self, kind, fn, *args, n=1):
        """fn(*args), counted as n operations; None if it raised."""
        self.counts[kind]["attempted"] += n
        try:
            return fn(*args)
        except VoltcraftError as exc:
            self.counts[kind]["failed"] += n
            record = {"operation": kind, "error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(record), file=sys.stderr)
            return None


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    found = {}
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob("*.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found[path.name] = getter()
                break
    return found


def environment() -> dict:
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """One workload on one seed: set-up, the timed loop, then the checks."""

    def __init__(self, spec: Workload, seed: int, stem: Path):
        self.spec, self.seed, self.stem = spec, seed, stem
        self.ops = Operations()
        self.train_t, self.repeat_params, self.actions = [], [], []
        # held-out index -> fastest time; held-out index -> first result
        self.infer_t, self.solve_t = {}, {}
        self.learned, self.solved = {}, {}

    # -- operations ---------------------------------------------------------

    def _train(self, states, epochs):
        t = time.perf_counter()
        model, _, _ = trainer.run_training(
            self.net, states, trainer.TrainConfig(epochs=epochs))
        return time.perf_counter() - t, model

    def train_repeat(self):
        out = self.ops.run("train_records", self._train, self.slice, 1, n=len(self.slice))
        if out is not None:
            self.train_t.append(out[0])
            self.repeat_params.append(policy.get_flat_params(out[1]))

    def _serve(self, i):
        state = self.held_out[i]
        t = time.perf_counter()
        q = trainer.infer(self.model, self.net, state, mode="deterministic")
        elapsed = time.perf_counter() - t
        return elapsed, q, powerflow.evaluate_loss(self.net, state, q)

    def serve(self, i):
        out = self.ops.run("inferences", self._serve, i)
        if out is not None:
            self.infer_t[i] = min(out[0], self.infer_t.get(i, np.inf))
            self.actions.append(out[1])
            self.learned.setdefault(i, out[1:])

    def _solve(self, i):
        t = time.perf_counter()
        sol = baseline.solve_baseline(self.net, self.held_out[i])
        return time.perf_counter() - t, sol

    def solve(self, i):
        out = self.ops.run("baseline_solves", self._solve, i)
        if out is not None:
            self.solve_t[i] = min(out[0], self.solve_t.get(i, np.inf))
            self.solved.setdefault(i, out[1])

    # -- phases -------------------------------------------------------------

    def setup(self):
        """Feeder, CSV round trip, and the served policy trained and reloaded."""
        spec = self.spec
        self.net = network.load_network(FEEDER)
        day = data.synthesize_timeseries(
            self.net, data.SynthesisProfile(load_peak_kw=spec.peak_kw), seed=self.seed)
        csv_path = self.stem.with_suffix(".csv")
        data.write_timeseries(csv_path, self.net, day)
        ds = data.load_timeseries(csv_path, self.net)
        train_states, self.held_out = ds.train_states, ds.test_states
        self.slice = train_states[::SLICE_STEP]
        self.window = list(range(spec.window_start, spec.window_start + WINDOW))
        if spec.training:
            self.heldout_set = list(range(0, len(self.held_out), TAIL_STEP))
        else:
            self.heldout_set = list(range(spec.window_start, spec.window_start + EVAL_WINDOW))

        out = self.ops.run("train_records", self._train, train_states, SERVE_EPOCHS,
                           n=len(train_states) * SERVE_EPOCHS)
        if out is None:
            raise SystemExit("set-up training failed")
        model_path = self.stem.with_suffix(".model.json")
        policy.save(out[1], model_path)  # served from its file, as the CLI serves it
        self.model = policy.load(model_path)
        self.served_params = (policy.get_flat_params(out[1]),
                              policy.get_flat_params(self.model))
        self.setup_s = time.perf_counter() - T_START

    def measure(self, seconds: float):
        """Whole rounds until `seconds` pass and every served interval ran once."""
        deadline = time.perf_counter() + seconds
        if self.spec.training:
            rounds = 0
            while rounds == 0 or time.perf_counter() < deadline:
                for _ in range(STOCK_TRAIN_REPEATS):
                    self.train_repeat()
                for i in self.heldout_set:
                    self.serve(i)
                self.solve(self.window[0])
                rounds += 1
        else:
            k = 0
            while k < WINDOW or time.perf_counter() < deadline:
                for _ in range(COMPARE_REPEATS):
                    self.train_repeat()
                for _ in range(INTERVALS_PER_ROUND):
                    i = self.window[k % WINDOW]
                    self.serve(i)
                    self.solve(i)
                    k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for i in self.heldout_set:
            if i not in self.learned:  # the rest of the evaluation window, untimed
                out = self.ops.run("inferences", self._serve, i)
                if out is not None:
                    self.actions.append(out[1])
                    self.learned[i] = out[1:]
        self.heldout_set = [i for i in self.heldout_set if i in self.learned]
        return {
            "setup_s": self.setup_s,
            "train_records_per_s": len(self.slice) / min(self.train_t),
            "infer_us": float(np.median(list(self.infer_t.values()))) * 1e6,
            "baseline_ms": float(np.median(list(self.solve_t.values()))) * 1e3,
            "learned_loss_kw": self.kw([self.learned[i][1].objective for i in self.heldout_set]),
            "peak_rss_mb": peak_rss_mb,
        }

    def kw(self, losses) -> float:
        return float(self.net.pu_to_kw(np.mean(losses)))

    def verify(self):
        """Run every output check; returns (failure messages, reference losses)."""
        net, held_out = self.net, self.held_out
        failures = []

        def check(fn, *args):
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                failures.append(str(exc))

        check(checks.same_params, *self.served_params)
        for other in self.repeat_params[1:]:
            check(checks.same_params, self.repeat_params[0], other)
        check(checks.in_box, net, self.actions, "served")
        rng = np.random.default_rng(self.seed)
        sampled = [trainer.infer(self.model, net, held_out[i], mode="sample", rng=rng)
                   for i in self.heldout_set]
        check(checks.in_box, net, sampled, "sampled")

        constants = {"q = 0": np.zeros(net.n_inverters), "q = q_hi": net.q_hi}
        rivals = {}  # held-out index -> name -> LossEvaluation
        for i in self.heldout_set:
            state = held_out[i]
            q, ev = self.learned[i]
            check(checks.power_balance, net, state, q, ev.solution)
            rivals[i] = {"learned": ev}
            for name, q_c in constants.items():
                rivals[i][name] = powerflow.evaluate_loss(net, state, q_c)
                check(checks.power_balance, net, state, q_c, rivals[i][name].solution)
        for i, sol in self.solved.items():
            q_star = np.clip(sol.q_g_star, net.q_lo, net.q_hi)  # as evaluate_loss applies it
            exact = powerflow.evaluate_loss(net, held_out[i], q_star)
            check(checks.power_balance, net, held_out[i], q_star, exact.solution)
            check(checks.baseline_optimal, sol.objective, exact, rivals[i])

        def mean_kw(ids, name):
            return self.kw([rivals[i][name].objective for i in ids])

        names = ("learned", *constants)
        heldout = {name: mean_kw(self.heldout_set, name) for name in names}
        beat = ["q = 0", "q = q_hi"] if self.spec.beats_q_hi else ["q = 0"]
        check(checks.learned_beats, heldout["learned"], {n: heldout[n] for n in beat})

        solved = sorted(self.solved)
        reference = {
            "heldout": {"intervals": len(self.heldout_set), **heldout},
            "solved": {
                "intervals": len(solved),
                "optimum": self.kw([self.solved[i].objective for i in solved]),
                **{name: mean_kw(solved, name) for name in names},
                "optima_all_on_q_hi": sum(
                    bool(np.all(self.solved[i].q_g_star >= net.q_hi - 1e-6)) for i in solved),
            },
        }
        return failures, reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(voltcraft.__file__).resolve().parent != SRC / "voltcraft":
        raise SystemExit(f"voltcraft imported from {voltcraft.__file__}, not {SRC}")

    # a terminated run still removes its input files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, stem)
    try:
        run.setup()
        end_to_end = run.measure(args.seconds)
    finally:
        for suffix in (".csv", ".model.json"):
            stem.with_suffix(suffix).unlink(missing_ok=True)
    if tracer:
        tracer.uninstall()
        missed = set(tracing.WRAPPED) - tracer.entered()
        if missed:
            raise SystemExit(f"wrapped functions never entered: {sorted(missed)}")
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json.gz")
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    failures, reference = run.verify()

    counts = run.ops.counts
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "operations": counts,
        "end_to_end": end_to_end,
        "infer_baseline_ratio": end_to_end["infer_us"] * 1e-3 / end_to_end["baseline_ms"],
        "losses_kw": reference,
        "check_failures": failures[:10],
        "check_failure_count": len(failures),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(c["attempted"] for c in counts.values()),
        "failed": sum(c["failed"] for c in counts.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
