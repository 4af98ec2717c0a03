#!/usr/bin/env python3
"""Run the frozen synthetic two-step experiment and print the report.

The default configuration is the pinned recipe the acceptance gate checks;
pass --seed to look at other draws of the same generator. Artifacts
(checkpoints, logs, predictions, report.json, timings.json) land in --out.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from axcrf.experiment import ExperimentConfig, run_synthetic_experiment


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs/synthetic"),
                    help="artifact directory (default: runs/synthetic)")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the recipe's generator seed")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-epoch progress lines")
    args = ap.parse_args(argv)

    config = ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    report = run_synthetic_experiment(config, out_dir=args.out,
                                      verbose=not args.quiet)
    seconds = report.pop("seconds")
    print(json.dumps(report, indent=2))
    print("# wall time: " + ", ".join(f"{stage} {s:.1f}s"
                                      for stage, s in seconds.items()),
          file=sys.stderr)
    print(f"# artifacts in {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
