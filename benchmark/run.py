"""End-to-end benchmark of the axcrf command line.

Run from the root of a checkout:

    python3 benchmark/run.py --workload recipe-dup --seed 1 --seconds 35 --trace 0

Each round runs ``python -m axcrf.cli`` train, labels, refine, predict and
eval one process at a time on the workload's generated point files, checks
the outputs, and records each subcommand's wall time and peak memory.
Rounds repeat until ``--seconds`` have passed (at least two, so that the
artifacts of two runs can be compared byte for byte); the end-to-end
metrics are medians over rounds. ``--trace 1`` instead runs the same
subcommands in-process, untraced and then traced, and reports per-layer
numbers (see tracing.py and layers.py). The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here; see README

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0     # a run must end within 180 s
# labels and predict are 1-3 s processes whose start-up cost varies from one
# process to the next; each round runs them this many times and the run
# reports the median over all their executions
REPEATS = {"labels": 3, "predict": 3}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_child(argv, out_dir, stage, deadline):
    """One subcommand in its own process. Returns (exit code, wall seconds,
    CPU seconds, peak RSS in MB, stdout text); killed if it outlives the
    deadline."""
    log_out = os.path.join(out_dir, f"{stage}.out")
    log_err = os.path.join(out_dir, f"{stage}.err")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    with open(log_out, "w") as fo, open(log_err, "w") as fe:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "axcrf.cli", *argv,
                                 "--threads", "1"], stdout=fo, stderr=fe, env=env)
        watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()),
                                   proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t
    # tell Popen its child is reaped, so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_out) as fh:
        text = fh.read()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6, text)


# -- untraced rounds ------------------------------------------------------------


def timed_rounds(w, inp, run_dir, seconds, checks):
    """Rounds of the five subcommands for ``seconds`` (at least two);
    returns (attempted, failed, end-to-end metrics)."""
    from checks import check_outputs, check_same_artifacts
    from workloads import stage_argv

    deadline = _T0 + DEADLINE_S
    start = time.perf_counter()
    rounds, attempted, failed = [], 0, 0
    first, longest = None, 0.0
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        if time.perf_counter() + longest > deadline:
            break
        t_round = time.perf_counter()
        out = os.path.join(run_dir, f"round{len(rounds)}")
        os.makedirs(out, exist_ok=True)
        walls, cpu, rss, stdout = {}, {}, {}, {}    # stage -> per execution
        broken = False
        for stage, argv in stage_argv(w, inp, out):
            for _ in range(REPEATS.get(stage, 1)):
                attempted += 1
                if broken:     # an earlier stage failed; this one cannot run
                    failed += 1
                    continue
                code, wall, cpu_s, peak, text = run_child(argv, out, stage, deadline)
                if code != 0:
                    failed += 1
                    broken = True
                    print(f"{stage} exited {code}; see {out}/{stage}.err",
                          file=sys.stderr)
                    continue
                for record, value in ((walls, wall), (cpu, cpu_s), (rss, peak)):
                    record.setdefault(stage, []).append(value)
                stdout[stage] = text
        if not broken:
            if first is None:
                first = out
                oa, f1 = check_outputs(checks, w, inp, out, stdout["eval"])
            else:
                check_same_artifacts(checks, first, out)
                shutil.rmtree(out)
            rounds.append({"walls": walls, "cpu": cpu, "rss": rss})
        else:
            rounds.append(None)
        longest = max(longest, time.perf_counter() - t_round)
    done = [r for r in rounds if r]
    if first is None:
        return attempted, failed, {}

    def wall(stage):
        """Median over every execution of the stage in this run."""
        return statistics.median(x for r in done for x in r["walls"][stage])

    metrics = {
        "train_s": (wall("train"), "s"),
        "labels_s": (wall("labels"), "s"),
        "refine_s": (wall("refine"), "s"),
        "predict_pts_per_s": (inp.n_unlabeled / wall("predict"), "points/s"),
        "pipeline_s": (statistics.median(
            sum(statistics.median(v) for v in r["walls"].values()) for r in done), "s"),
        "peak_rss_mb": (statistics.median(
            max(max(v) for v in r["rss"].values()) for r in done), "MB"),
        "test_oa": (oa, "fraction"),
        "test_f1": (f1, "fraction"),
    }
    for r in done:
        print("round wall s, cpu s, peak MB: " + json.dumps(
            {k: [[round(x, 3) for x in r[key][k]] for key in ("walls", "cpu", "rss")]
             for k in r["walls"]}), file=sys.stderr)
    return attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "axcrf", "cli.py")):
        print("error: run from the root of an axcrf checkout (src/axcrf/cli.py "
              "not found)", file=sys.stderr)
        return 2
    # one BLAS thread, before numpy loads, for this process and its children
    for name in _THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [os.path.join(root, "src"), _HERE]
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = os.path.join(root, ".bench_runs",
                           f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inp = write_inputs(w, args.seed, os.path.join(run_dir, "inputs"))
    setup_s = time.perf_counter() - _T0

    from checks import Checks
    checks = Checks()
    if args.trace:
        from tracing import traced_run
        attempted, failed, metrics = traced_run(w, inp, run_dir, checks)
    else:
        attempted, failed, metrics = timed_rounds(w, inp, run_dir, args.seconds,
                                                  checks)
    correct = not checks.failures and bool(metrics)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    result = {"correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
