"""Emit a synthetic day of feeder load and solar generation as CSV.

The default profile is the stock day of the acceptance tests and the
README workflow: 2880 intervals of 30 s, 40 kW peak load per bus, cloud
transients capped at 15% of inverter nameplate per minute.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voltcraft.cli import _fail
from voltcraft.data import SynthesisProfile, synthesize_timeseries, write_timeseries
from voltcraft.errors import ParseError, VoltcraftError
from voltcraft.network import load_network


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--network", required=True, help="feeder JSON")
    ap.add_argument("--out", required=True, help="CSV path")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--intervals", type=int, default=2880)
    ap.add_argument("--interval-seconds", type=float, default=30.0)
    ap.add_argument("--peak-kw", type=float, default=40.0, help="per-bus load peak")
    ap.add_argument("--cloud-delta", type=float, default=0.15,
                    help="max per-minute solar swing as a fraction of nameplate")
    args = ap.parse_args()

    try:
        try:
            profile = SynthesisProfile(
                n_intervals=args.intervals,
                interval_seconds=args.interval_seconds,
                load_peak_kw=args.peak_kw,
                cloud_delta_frac=args.cloud_delta,
            )
        except ValueError as exc:
            raise ParseError(f"synthesis profile: {exc}") from exc
        model = load_network(args.network)
        ds = synthesize_timeseries(model, profile, seed=args.seed)
        write_timeseries(args.out, model, ds)
    except (VoltcraftError, OSError) as exc:
        return _fail(exc)
    peak = max(-s.p.sum() for s in ds.intervals)
    print(f"{args.out}: {len(ds)} intervals, peak demand {model.pu_to_kw(peak):.0f} kW, "
          f"{len(ds.train_idx)} train / {len(ds.test_idx)} test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
