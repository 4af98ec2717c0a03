#!/usr/bin/env python3
"""Per-block profile of the training and evaluation passes.

    python3 scripts/prof_block.py [--blocks 24] [--reps 2] [--seed 0]

Slices a synthetic cloud as each benchmark workload does (``recipe``: 12 m
blocks of about 100 members sampled to 256, so most rows repeat;
``unique``: 16 m blocks of about 576 members sampled to 512, no repeats)
and times four kinds of block pass with the benchmark's model sizes (K = 12,
widths 24, six refinement levels at crf K = 12, r = 5):

- ``unary``: a step-1 training block, classifier forward and backward;
- ``labeled``: a step-2 labeled-epoch block, classifier and refinement
  stack, every weight's gradient;
- ``artificial``: a step-2 artificial-label block, stack frozen, so only
  the classifier's gradients are computed;
- ``eval-forward``: the inference forward of classifier and stack.

Each pass runs the training code's own block routine on a neighbor sort
made beforehand, as the helper process makes it ahead of training. For
every kind it prints the minimum and median wall time over all blocks and
repeats and, from one separate tracemalloc pass over one block, a memory
profile. For the training kinds that is the op records and leaves on the
block's tape, the traced size after the forward and the peak during the
backward; for ``eval-forward``, which records nothing, the peak during the
forward. Runs with one BLAS thread and the allocator tuned as the command
line tunes it.
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from axcrf import _keep_freed_arrays, training  # noqa: E402
from axcrf.autograd import Tape, backward  # noqa: E402
from axcrf.crf import AXcrfParams, axcrf_graph  # noqa: E402
from axcrf.model import cross_entropy_graph, init_unary_model, unary_graph  # noqa: E402
from axcrf.neighbors import build_index  # noqa: E402
from axcrf.pointcloud import (block_seed, generate_synthetic, sample_block,  # noqa: E402
                              slice_blocks)

C = 4
# name -> (cloud extent m, point spacing m, block side m, min members,
#          points sampled per block, offset scale)
SHAPES = {
    "recipe": (72.0, 1.2, 12.0, 64, 256, 4.0),
    "unique": (64.0, 2.0 / 3.0, 16.0, 512, 512, 5.0),
}
KINDS = ("unary", "labeled", "artificial", "eval-forward")


def make_blocks(shape, n_blocks, seed):
    """(cloud, model, stack, [(block, sample indices)]) for one shape."""
    extent, spacing, side, min_points, n_sample, offset_scale = SHAPES[shape]
    n = round(extent / spacing)
    cloud = generate_synthetic("strata", N=n * n, C=C, noise=0.15, seed=seed,
                               extent=extent)
    blocks = slice_blocks(cloud, side=side, shift=side / 2.0, min_points=min_points)
    if not blocks:
        sys.exit(f"{shape}: no block holds {min_points} points")
    picked = [blocks[i % len(blocks)] for i in range(n_blocks)]
    samples = [(b, sample_block(b, n_sample, block_seed(seed, b, i)).sample_indices)
               for i, b in enumerate(picked)]
    model = init_unary_model(seed, C=C, C_in=cloud.features.shape[1], K=12,
                             block_channels=(24, 24), block_strides=(1, 2),
                             C_delta=12, hidden=24, dropout_rate=0.0,
                             offset_scale=offset_scale)
    stack = AXcrfParams.initial(C, K=12, r=5)
    return cloud, model, stack, samples


def block_pass(kind, cloud, model, stack, block, idx, sorted_idx):
    if kind == "eval-forward":
        return training._forward(model, stack, cloud.positions[idx],
                                 cloud.features[idx], sorted_idx)
    return training._block_grads(model, None if kind == "unary" else stack,
                                 cloud, block, idx, sorted_idx, cloud.labels,
                                 np.random.default_rng(0), kind == "labeled")


def tape_profile(kind, cloud, model, stack, idx, sorted_idx):
    """(records, leaves, traced MB after the forward, backward peak MB) of
    one training block's tape, as ``_block_grads`` records it."""
    pos, feat, lab = cloud.positions[idx], cloud.features[idx], cloud.labels[idx]
    tracemalloc.start()
    try:
        index = build_index(pos)
        tape = Tape()
        out, binds = unary_graph(tape, pos, feat, model, training=True,
                                 dropout_rng=np.random.default_rng(0),
                                 index=index, sorted_idx=sorted_idx)
        if kind != "unary":
            out, xbinds = axcrf_graph(tape, out, pos, feat, stack, index,
                                      sorted_idx=sorted_idx)
            if kind == "labeled":
                binds = {**binds, **xbinds}
        loss = cross_entropy_graph(tape, out, lab)
        records, leaves = len(tape._ops), len(tape.tensors)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss, wanted=binds.values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, leaves, after_forward / 1e6, peak / 1e6


def eval_peak(cloud, model, stack, idx, sorted_idx):
    """Traced peak MB of one block's inference forward."""
    tracemalloc.start()
    try:
        block_pass("eval-forward", cloud, model, stack, None, idx, sorted_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def profile(shape, n_blocks, reps, seed):
    cloud, model, stack, samples = make_blocks(shape, n_blocks, seed)
    members = statistics.mean(b.n_members for b, _ in samples)
    dup = statistics.mean(1.0 - np.unique(idx).size / idx.size for _, idx in samples)
    print(f"{shape}: {len(samples)} blocks of {samples[0][1].size} samples, "
          f"{members:.0f} members on average, {100 * dup:.0f}% repeated rows")
    print(f"  {'kind':<13}{'min ms':>8}{'median ms':>11}{'records':>9}"
          f"{'leaves':>9}{'fwd MB':>8}{'peak MB':>9}  (backward peak; "
          f"forward peak for eval-forward)")
    for kind in KINDS:
        rank = training._sort_rank(model, None if kind == "unary" else stack)
        sorts = [training._shared_sort(rank, cloud.positions[idx]) for _, idx in samples]
        block_pass(kind, cloud, model, stack, *samples[0], sorts[0])   # warm-up
        times = []
        for _ in range(reps):
            for (block, idx), sorted_idx in zip(samples, sorts):
                t = time.perf_counter()
                block_pass(kind, cloud, model, stack, block, idx, sorted_idx)
                times.append(1e3 * (time.perf_counter() - t))
        line = f"  {kind:<13}{min(times):>8.2f}{statistics.median(times):>11.2f}"
        if kind == "eval-forward":
            peak = eval_peak(cloud, model, stack, samples[0][1], sorts[0])
            line += f"{'-':>9}{'-':>9}{'-':>8}{peak:>9.2f}"
        else:
            records, leaves, fwd, peak = tape_profile(kind, cloud, model, stack,
                                                      samples[0][1], sorts[0])
            line += f"{records:>9}{leaves:>9}{fwd:>8.2f}{peak:>9.2f}"
        print(line, flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--blocks", type=int, default=24, help="blocks per shape")
    p.add_argument("--reps", type=int, default=2, help="timed passes per block")
    p.add_argument("--seed", type=int, default=0, help="cloud and model seed")
    args = p.parse_args(argv)
    if args.blocks < 1 or args.reps < 1:
        p.error("--blocks and --reps must be at least 1")
    _keep_freed_arrays()
    for shape in SHAPES:
        profile(shape, args.blocks, args.reps, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
