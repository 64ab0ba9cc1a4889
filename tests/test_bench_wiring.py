"""The benchmark's traced run stays wired to the library.

`perfbench/tracing.py` wraps public voltcraft functions by name. A short
feeder6 day, taken through the same calls as a traced benchmark run, must
enter every wrapped function and yield every per-layer metric the benchmark
declares.
"""

import sys
from importlib.resources import files
from pathlib import Path

import numpy as np

from voltcraft import baseline, data, network, trainer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_traced_run_enters_every_wrapped_function(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        net = network.load_network(files("voltcraft").joinpath("feeders/feeder6.json"))
        day = data.synthesize_timeseries(net, data.SynthesisProfile(n_intervals=40),
                                         seed=0)
        path = tmp_path / "day.csv"
        data.write_timeseries(path, net, day)
        ds = data.load_timeseries(path, net)
        model, _, _ = trainer.run_training(net, ds.train_states,
                                           trainer.TrainConfig(epochs=1))
        state = ds.test_states[0]
        trainer.infer(model, net, state, mode="sample", rng=np.random.default_rng(0))
        baseline.solve_baseline(net, state)
    finally:
        tracer.uninstall()
    assert tracer.entered() == set(tracing.WRAPPED)
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["policy.calls_per_record"] == 2
