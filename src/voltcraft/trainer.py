"""Policy-gradient training loop, the inference path, and the comparison
of the served policy with the per-interval optimum.

One decision per interval: sample an action, price it with the penalized
power-flow loss, accumulate score-function gradients, and step the
parameters every batch. The gradient estimate is

    g = (1/B) sum_i (f_i - b) * grad_theta log pi(q_i | s_i)

with b either zero or a running mean of losses from batches already applied;
using only prior losses keeps the estimator exactly unbiased. Everything is
driven by one seeded generator, so a (seed, config, dataset, feeder) tuple
pins the trained weights bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .baseline import solve_baseline
from .errors import DimensionMismatch, Diverged, NonFiniteGradient, NumericalError
from .network import NetworkModel
from .policy import (
    SIGMA_FLOOR,
    PolicyModel,
    get_flat_params,
    grad_log_prob,
    init_policy,
    mean_action,
    policy_distribution,
    sample,
    set_flat_params,
)
from .powerflow import PENALTY_COEFF, evaluate_loss

GRAD_CLIP_NORM = 10.0
BASELINE_WINDOW = 200


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 30
    epochs: int = 40
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    penalty_coeff: float = PENALTY_COEFF
    baseline_mode: str = "running_mean"
    baseline_window: int = BASELINE_WINDOW
    grad_clip: float = GRAD_CLIP_NORM
    seed: int = 0
    sigma_floor: float = SIGMA_FLOOR

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("baseline_window", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        # each rule is written so that NaN fails it; a bool passes as a
        # number in Python, so it is rejected by type
        rules = (
            ("learning_rate", "finite and >= 0",
             math.isfinite(self.learning_rate) and self.learning_rate >= 0),
            ("grad_clip", "> 0", self.grad_clip > 0),
            ("sigma_floor", "> 0", self.sigma_floor > 0),
            ("penalty_coeff", "finite and >= 0",
             math.isfinite(self.penalty_coeff) and self.penalty_coeff >= 0),
            ("adam_eps", "> 0", self.adam_eps > 0),
            ("adam_beta1", "in [0, 1)", 0 <= self.adam_beta1 < 1),
            ("adam_beta2", "in [0, 1)", 0 <= self.adam_beta2 < 1),
        )
        for name, rule, ok in rules:
            value = getattr(self, name)
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.baseline_mode not in ("none", "running_mean"):
            raise ValueError(f"unknown baseline_mode {self.baseline_mode!r}")


@dataclass
class LossTrace:
    """Per-record loss history with a windowed running average."""

    window: int = BASELINE_WINDOW
    raw: list = field(default_factory=list)
    running_avg: list = field(default_factory=list)
    feasible: list = field(default_factory=list)

    def append(self, raw_loss, is_feasible):
        self.raw.append(float(raw_loss))
        self.running_avg.append(float(np.mean(self.raw[-self.window :])))
        self.feasible.append(bool(is_feasible))

    def __len__(self):
        return len(self.raw)


@dataclass
class OptState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_opt_state(n_params: int) -> OptState:
    return OptState(m=np.zeros(n_params), v=np.zeros(n_params))


def estimate_gradient(records, b: float) -> np.ndarray:
    """Score-function estimate averaged over a batch of (score, penalized
    loss) pairs, in their order, with control variate b."""
    if not records:
        raise ValueError("empty batch")
    losses = np.array([loss for _, loss in records])
    if not np.all(np.isfinite(losses)):
        raise NonFiniteGradient("non-finite loss in batch")
    g = np.zeros_like(records[0][0])
    for score, loss in records:
        g += (loss - b) * score
    g /= len(records)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("non-finite gradient estimate")
    return g


def apply_update(model: PolicyModel, g: np.ndarray, config: TrainConfig,
                 opt_state: OptState):
    """One optimizer step in place; returns (model, opt_state)."""
    theta = get_flat_params(model)
    if g.shape != theta.shape:
        raise DimensionMismatch(
            f"gradient length {g.shape} vs parameters {theta.shape}"
        )
    if opt_state.m.shape != theta.shape:
        raise DimensionMismatch("optimizer state does not match the model")
    opt_state.step += 1
    if config.optimizer == "sgd":
        theta = theta - config.learning_rate * g
    else:
        b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
        opt_state.m = b1 * opt_state.m + (1.0 - b1) * g
        opt_state.v = b2 * opt_state.v + (1.0 - b2) * g * g
        m_hat = opt_state.m / (1.0 - b1**opt_state.step)
        v_hat = opt_state.v / (1.0 - b2**opt_state.step)
        theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    set_flat_params(model, theta)
    return model, opt_state


def _set_input_stats(model: PolicyModel, states) -> None:
    X = np.stack([np.concatenate([s.p, s.q_c]) for s in states])
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    # constant columns carry no signal; leave them unscaled
    std = np.where(std < 1e-12, 1.0, std)
    model.input_mean = mean
    model.input_std = std


def network_fingerprint(network: NetworkModel) -> str:
    """Digest of everything that defines the feeder's behavior."""
    h = hashlib.sha256()
    h.update(json.dumps(network.labels).encode())
    for arr in (
        np.array([network.base_mva, network.base_kv, network.v0]),
        network.v_min,
        network.v_max,
        network.parent.astype(float),
        network.r,
        network.x,
        network.inverter_buses.astype(float),
        network.q_lo,
        network.q_hi,
    ):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def dataset_fingerprint(states) -> str:
    h = hashlib.sha256()
    for s in states:
        h.update(np.ascontiguousarray(s.p).tobytes())
        h.update(np.ascontiguousarray(s.q_c).tobytes())
        h.update(np.float64(s.timestamp).tobytes())
    return h.hexdigest()


def train(model: PolicyModel, network: NetworkModel, dataset, config: TrainConfig):
    """Run the full loop; returns (model, LossTrace, manifest)."""
    states = list(dataset)
    if not states:
        raise ValueError("empty dataset")
    if model.n_actions != network.n_inverters:
        raise DimensionMismatch(
            f"model emits {model.n_actions} actions, feeder has "
            f"{network.n_inverters} inverters"
        )
    _set_input_stats(model, states)
    rng = np.random.default_rng(config.seed)
    trace = LossTrace(window=config.baseline_window)
    opt_state = init_opt_state(model.n_params)
    pending = []
    updates = 0

    def flush():
        nonlocal updates
        # the trace's running average over the records already applied: the
        # current batch never feeds its own control variate
        applied = len(trace) - len(pending)
        if config.baseline_mode == "running_mean" and applied > 0:
            b = trace.running_avg[applied - 1]
        else:
            b = 0.0
        try:
            g = estimate_gradient(pending, b)
        except NonFiniteGradient as exc:
            raise NonFiniteGradient(
                f"aborted at update {updates}, record {len(trace)}: {exc}"
            ) from exc
        norm = float(np.linalg.norm(g))
        if norm > config.grad_clip:
            g = g * (config.grad_clip / norm)
        apply_update(model, g, config, opt_state)
        pending.clear()
        updates += 1

    for _ in range(config.epochs):
        order = rng.permutation(len(states))
        for idx in order:
            s = states[idx]
            dist = policy_distribution(model, s)
            q = sample(dist, rng)
            assert np.all(q >= model.q_lo) and np.all(q <= model.q_hi)
            score = grad_log_prob(model, s, q)
            try:
                ev = evaluate_loss(network, s, q, penalty_coeff=config.penalty_coeff)
            except (Diverged, NumericalError) as exc:
                raise type(exc)(
                    f"aborted at update {updates}, record {len(trace)} (state "
                    f"{idx}, timestamp {s.timestamp}): {exc}"
                ) from exc
            trace.append(ev.penalized, ev.feasible)
            pending.append((score, ev.penalized))
            if len(pending) == config.batch_size:
                flush()
    if pending:
        flush()

    manifest = {
        "package_version": __version__,
        "seed": config.seed,
        "config": asdict(config),
        "layer_sizes": list(model.layer_sizes),
        "network_sha256": network_fingerprint(network),
        "dataset_sha256": dataset_fingerprint(states),
        "n_states": len(states),
        "updates": updates,
    }
    return model, trace, manifest


def run_training(
    network: NetworkModel,
    dataset,
    config: TrainConfig,
    hidden: tuple[int, ...] = (48, 32, 16),
):
    """Initialize from the run seed and train; the manifest pins the run."""
    model = init_policy(
        network, hidden=hidden, seed=config.seed, sigma_floor=config.sigma_floor
    )
    model, trace, manifest = train(model, network, dataset, config)
    manifest["hidden"] = list(hidden)
    return model, trace, manifest


def infer(
    model: PolicyModel,
    network: NetworkModel,
    state,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Map one state to one action; no optimization solve involved."""
    if model.n_actions != network.n_inverters:
        raise DimensionMismatch(
            f"model emits {model.n_actions} actions, feeder has "
            f"{network.n_inverters} inverters"
        )
    if mode == "deterministic":
        return mean_action(model, state)
    if mode == "sample":
        return sample(policy_distribution(model, state),
                      rng if rng is not None else np.random.default_rng())
    raise ValueError(f"unknown inference mode {mode!r}")


@dataclass
class Comparison:
    """Per-interval results of `compare_to_baseline`, one entry per state."""

    learned: np.ndarray  # loss of the deterministic action (pu)
    optimal: np.ndarray  # per-interval optimum from solve_baseline (pu)
    feasible: np.ndarray  # deterministic action keeps every bus in the band
    infer_s: np.ndarray  # wall time of each infer call
    baseline_s: np.ndarray  # wall time of each solve_baseline call
    zero: np.ndarray  # loss of the trivial policy q = 0 (pu)
    q_hi: np.ndarray  # loss of the trivial policy q = q_hi (pu)


def compare_to_baseline(model: PolicyModel, network: NetworkModel, states) -> Comparison:
    """Serve the deterministic policy, price it, then solve the optimum.

    Per state, in this order: `infer` (timed), `evaluate_loss`, and
    `solve_baseline` (timed), so each `infer` runs right after the previous
    state's solve; then, untimed, the losses of the trivial policies q = 0
    and q = q_hi.
    """
    rows = []
    zero = np.zeros(network.n_inverters)
    for s in states:
        t0 = time.perf_counter()
        q = infer(model, network, s, mode="deterministic")
        t_infer = time.perf_counter() - t0
        ev = evaluate_loss(network, s, q)
        t0 = time.perf_counter()
        opt = solve_baseline(network, s).objective
        t_base = time.perf_counter() - t0
        rows.append((ev.objective, opt, ev.feasible, t_infer, t_base,
                     evaluate_loss(network, s, zero).objective,
                     evaluate_loss(network, s, network.q_hi).objective))
    learned, optimal, feasible, infer_s, baseline_s, zero_loss, q_hi_loss = np.array(
        rows, dtype=float).reshape(-1, 7).T
    return Comparison(learned, optimal, feasible.astype(bool), infer_s, baseline_s,
                      zero_loss, q_hi_loss)
