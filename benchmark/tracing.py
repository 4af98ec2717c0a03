"""Traced run: the five subcommands in-process, with spans around every call
into the package's layers.

The benchmark wraps, from the outside, every public module-level function
of each layer module (``axcrf.<layer>``), the two query methods of
``NeighborIndex``, and ``autograd.backward`` alone (op recording counts
toward the layer that builds the graph). A span is (stage, name, layer,
start, end, parent); spans stay in memory and are written once, with the
per-layer self times, to ``trace.json`` in the run directory. A layer's
self time is its spans' durations minus the part covered by child spans.

The same subcommands first run untraced in the same process; traced minus
untraced stage wall is the tracing overhead, and both rounds must write
identical artifacts.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import re
import sys
import time

# loads every layer module: the tracer patches loaded modules, and the
# untraced round must not pay for imports the traced one skips
import axcrf.experiment  # noqa: F401
from axcrf.cli import dispatch

from checks import check_outputs, check_same_artifacts
from layers import block_metrics
from workloads import STAGES, kept_blocks, stage_argv, train_split

LAYERS = ("pointcloud", "neighbors", "model", "crf", "autograd", "training")
TRACED_STAGES = ("train", "labels", "refine", "predict")
# labels and predict never run backward, so their autograd self time is
# zero by construction and is not reported
NO_BACKWARD = ("labels", "predict")
KNN = ("neighbors.NeighborIndex.nearest_others_all",
       "neighbors.NeighborIndex.nearest_others")


class Tracer:
    """Spans and call counts recorded by wrappers patched over the package."""

    def __init__(self):
        self.spans = []                       # (stage, name, layer, t0, t1, parent)
        self.counts = collections.Counter()   # (stage, name) -> calls
        self.stage = None
        self._stack = []
        self._patches = []

    def wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (tracer.stage, name, layer, t0, t1, parent)
                tracer.counts[tracer.stage, name] += 1
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        # modules bind each other's functions at import time, so every
        # loaded axcrf namespace holding an original gets the wrapper
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"axcrf.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (layer != "autograd" or name == "backward")):
                    wrappers[fn] = self.wrap(layer, f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "axcrf" or modname.startswith("axcrf."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patch(mod, attr, wrappers[val])
        index_cls = sys.modules["axcrf.neighbors"].NeighborIndex
        for name in KNN:
            meth = name.rsplit(".", 1)[1]
            self._patch(index_cls, meth, self.wrap("neighbors", name,
                                                   vars(index_cls)[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self):
        """{(stage, layer): seconds} of self time."""
        covered = [0.0] * len(self.spans)
        for _, _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = collections.Counter()
        for i, (stage, _, layer, t0, t1, _) in enumerate(self.spans):
            out[stage, layer] += (t1 - t0) - covered[i]
        return out


def run_stage(argv, tracer=None):
    """One subcommand through axcrf.cli.dispatch; (exit code, wall, stdout)."""
    run = dispatch if tracer is None else tracer.wrap("cli", "cli.dispatch", dispatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t = time.perf_counter()
        code = run([*argv, "--threads", "1"])
        wall = time.perf_counter() - t
    return code, wall, out.getvalue()


def run_round(w, inp, out_dir, tracer=None):
    """All five stages; returns (walls, stdout, failed count)."""
    os.makedirs(out_dir, exist_ok=True)
    walls, stdout, failed = {}, {}, 0
    for stage, argv in stage_argv(w, inp, out_dir):
        if failed:
            failed += 1
            continue
        if tracer is not None:
            tracer.stage = stage
        code, walls[stage], stdout[stage] = run_stage(argv, tracer)
        if code != 0:
            print(f"in-process {stage} exited {code}", file=sys.stderr)
            failed += 1
    return walls, stdout, failed


def traced_run(w, inp, run_dir, checks):
    """Untraced and traced in-process rounds, their checks and the block
    timings; returns (attempted, failed, per-layer metrics)."""
    plain_dir = os.path.join(run_dir, "plain")
    traced_dir = os.path.join(run_dir, "traced")
    plain_walls, _, failed_plain = run_round(w, inp, plain_dir)
    tracer = Tracer()
    tracer.install()
    try:
        walls, stdout, failed_traced = run_round(w, inp, traced_dir, tracer)
    finally:
        tracer.uninstall()
    attempted, failed = 2 * len(STAGES), failed_plain + failed_traced
    if failed:
        return attempted, failed, {}

    check_outputs(checks, w, inp, traced_dir, stdout["eval"])
    check_same_artifacts(checks, plain_dir, traced_dir)

    def count(stage, *names):
        return sum(tracer.counts[stage, n] for n in names)

    passes = int(re.search(r"\((\d+) passes\)", stdout["predict"]).group(1))
    checks.expect(count("predict", "model.unary_graph") == passes,
                  f"predict made {count('predict', 'model.unary_graph')} unary "
                  f"calls but reported {passes} passes")
    train_c, _ = train_split(w, inp)
    n_train = len(kept_blocks(train_c.positions, w.block, w.shift, w.min_points))
    checks.expect(count("train", "autograd.backward") == w.epochs_step1 * n_train,
                  f"train ran backward {count('train', 'autograd.backward')} times "
                  f"for {w.epochs_step1} epochs x {n_train} blocks")

    self_s = tracer.self_seconds()
    metrics = {}
    for stage in TRACED_STAGES:
        for layer in LAYERS:
            if not (layer == "autograd" and stage in NO_BACKWARD):
                metrics[f"{stage}.{layer}_self_s"] = (self_s[stage, layer], "s")
        metrics[f"{stage}.knn_calls"] = (count(stage, *KNN), "count")
        metrics[f"{stage}.unary_calls"] = (count(stage, "model.unary_graph"), "count")
        metrics[f"{stage}.backward_calls"] = (count(stage, "autograd.backward"), "count")
    metrics["trace.overhead_s"] = (sum(walls[s] - plain_walls[s]
                                       for s in TRACED_STAGES), "s")
    layer_metrics, facts = block_metrics(w, inp, traced_dir, checks)
    metrics.update(layer_metrics)
    print(f"timed blocks: {json.dumps(facts)}", file=sys.stderr)

    with open(os.path.join(run_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"blocks": facts,
                   "stage_wall_s": {"traced": walls, "untraced": plain_walls},
                   "self_s": {f"{s}.{l}": v for (s, l), v in sorted(self_s.items())},
                   "calls": {f"{s}.{n}": c for (s, n), c in sorted(tracer.counts.items())},
                   "spans": [dict(zip(("stage", "name", "layer", "start", "end",
                                       "parent"), span)) for span in tracer.spans]},
                  fh)
    return attempted, failed, metrics
