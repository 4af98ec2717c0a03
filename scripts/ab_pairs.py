#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/ab_pairs.py BASE HEAD --workload unique-blocks --pairs 10

Each pair runs ``benchmark/run.py`` once in each checkout, the order
alternating from pair to pair, with the same workload, seed and duration,
and compares the four artifacts of the two runs' first rounds byte for byte.
For every end-to-end metric that HEAD's ``BENCHMARK.json`` declares it then
prints the median and quartiles of each side, the pairs HEAD won, the
median's change against the metric's bound, and whether a claimed gain would
hold: HEAD better in at least 9 of every 10 pairs, and its median better
than BASE's by more than BASE's interquartile range. Nothing in either
checkout is changed apart from the benchmark's own run directory.
"""

import argparse
import filecmp
import json
import math
import os
import statistics
import subprocess
import sys

ARTIFACTS = ("step1.ckpt", "art.txt", "step2.ckpt", "pred.txt")


def run_once(checkout, workload, seed, seconds):
    """The run's result object and the directory of its first round."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark run in {checkout} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    round0 = os.path.join(checkout, ".bench_runs",
                          f"{workload}-seed{seed}-trace0", "round0")
    return json.loads(lines[-1]), round0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(name, better, bound, base, head):
    """One report line for a metric."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    b1, b3 = quartiles(base)
    h1, h3 = quartiles(head)
    change = (mh - mb) / mb if mb else math.nan
    claim = won >= math.ceil(0.9 * len(base)) and sign * (mh - mb) > b3 - b1
    beyond = -sign * change > bound
    line = (f"{name:<18} {mb:>10.4g} [{b1:.4g}, {b3:.4g}]  {mh:>10.4g} "
            f"[{h1:.4g}, {h3:.4g}]  {100 * change:+6.1f}%  {won:>2}/{len(base)}  "
            f"{'yes' if claim else 'no ':<5} {'WORSE THAN BOUND' if beyond else ''}")
    return line.rstrip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="checkout to compare against")
    p.add_argument("head", help="checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    args = p.parse_args(argv)
    base_dir, head_dir = (os.path.abspath(d) for d in (args.base, args.head))
    with open(os.path.join(head_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]

    values = {side: {m["name"]: [] for m in declared} for side in ("base", "head")}
    for pair in range(args.pairs):
        order = [("base", base_dir), ("head", head_dir)]
        if pair % 2:
            order.reverse()
        rounds = {}
        for side, checkout in order:
            result, rounds[side] = run_once(checkout, args.workload, args.seed,
                                            args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"pair {pair}: {side} run correct={result['correct']} "
                      f"failed={result['failed']}")
            for m in declared:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        differ = [a for a in ARTIFACTS
                  if not filecmp.cmp(os.path.join(rounds["base"], a),
                                     os.path.join(rounds["head"], a), shallow=False)]
        print(f"pair {pair}: artifacts "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}",
              flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs; "
          f"median [q1, q3] of base, then head; change of the median; pairs won; "
          f"claim holds")
    for m in declared:
        print(summarize(m["name"], m["better"], m["bound"],
                        values["base"][m["name"]], values["head"][m["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
