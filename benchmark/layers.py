"""Block-level timings of each layer on blocks sampled from the workload's
own labeled cloud, with the checkpoints the traced round wrote.

Every timing is guarded by a check against a computation made apart from
the program: kNN against a brute-force (distance, index) sort, the
refinement stack against the sum of its single levels, and one CRF weight
gradient against a central difference.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np
from axcrf.autograd import Tape, backward
from axcrf.crf import axcrf_forward, axcrf_graph, grid_search_thetas, xcrf_forward
from axcrf.model import cross_entropy_graph, unary_forward, unary_graph
from axcrf.neighbors import build_index
from axcrf.pointcloud import block_seed, load_pointcloud, sample_block, slice_blocks
from axcrf.training import coverage_vote_predict, load_checkpoint, save_checkpoint

from workloads import C, LABELED_COLUMNS, PROGRAM_SEED, train_split

N_BLOCKS = 6          # sampled blocks per timing
UNARY_RANK = 24       # K=12 at stride 2
CRF_RANK = 192        # crf_K=12 at stride 16
GRID_SALT = 606       # the grid-search sampling salt of the synthetic recipe
VOTE_SALT = 303       # the artificial-label salt: passes match the labels stage


def median_ms(fn, calls, reps):
    """Median wall of fn(*args) over reps passes of every args in calls."""
    times = []
    for _ in range(reps):
        for args in calls:
            t = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def brute_knn(pos, k):
    """(M x k indices, distances) by a dense (distance, index) sort."""
    m = pos.shape[0]
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    idx = np.broadcast_to(np.arange(m), (m, m))
    order = np.lexsort((idx, d), axis=-1)[:, :k]
    return order, np.take_along_axis(d, order, axis=1)


def step2_tape(ckpt, pos, feat, lab, axcrf=None):
    """One step-2 training block recorded on a tape: (tape, loss, bindings)."""
    tape = Tape()
    index = build_index(pos)
    logits, binds = unary_graph(tape, pos, feat, ckpt.model, index=index)
    out, xbinds = axcrf_graph(tape, logits, pos, feat, axcrf or ckpt.axcrf, index)
    return tape, cross_entropy_graph(tape, out, lab), {**binds, **xbinds}


def block_metrics(w, inp, art_dir, checks):
    """({name: (value, unit)}, facts about the timed blocks)."""

    s1 = load_checkpoint(os.path.join(art_dir, "step1.ckpt"))
    s2 = load_checkpoint(os.path.join(art_dir, "step2.ckpt"))
    train_c, val_c = (s1.scaler.apply(c) for c in train_split(w, inp))
    blocks = slice_blocks(train_c, side=w.block, shift=w.shift,
                          min_points=w.min_points)
    blocks = blocks[::max(1, len(blocks) // N_BLOCKS)][:N_BLOCKS]
    samples = []
    for b in blocks:
        idx = sample_block(b, w.n_sample, block_seed(PROGRAM_SEED, b)).sample_indices
        samples.append((train_c.positions[idx], train_c.features[idx],
                        train_c.labels[idx]))
    indexes = [build_index(pos) for pos, _, _ in samples]
    m = {}
    # the input property the kNN tie repair depends on
    facts = {"timed_blocks": len(samples), "dup_row_share": float(np.mean(
        [1.0 - np.unique(pos, axis=0).shape[0] / pos.shape[0]
         for pos, _, _ in samples]))}

    # neighbors
    m["neighbors.build_ms"] = (median_ms(build_index, [(s[0],) for s in samples], 5), "ms")
    for rank, key in ((UNARY_RANK, "neighbors.knn_r24_ms"),
                      (CRF_RANK, "neighbors.knn_r192_ms")):
        for (pos, _, _), index in zip(samples, indexes):
            got_i, got_d = index.nearest_others_all(rank)
            want_i, want_d = brute_knn(pos, got_i.shape[1])
            checks.expect(np.array_equal(got_i, want_i)
                          and np.allclose(got_d, want_d, rtol=1e-12, atol=0),
                          f"nearest_others_all({rank}) differs from a brute-force sort")
        m[key] = (median_ms(lambda ix: ix.nearest_others_all(rank),
                            [(ix,) for ix in indexes], 2), "ms")

    # model
    m["model.unary_fwd_ms"] = (median_ms(
        lambda p, f, _: unary_forward(p, f, s1.model), samples, 2), "ms")

    def unary_fwdbwd(pos, feat, lab):
        tape = Tape()
        logits, _ = unary_graph(tape, pos, feat, s1.model)
        backward(tape, cross_entropy_graph(tape, logits, lab))
    m["model.unary_fwdbwd_ms"] = (median_ms(unary_fwdbwd, samples, 2), "ms")

    # crf
    unaries = [unary_forward(p, f, s2.model, index=ix)
               for (p, f, _), ix in zip(samples, indexes)]
    crf_calls = [(U, p, f, s2.axcrf, ix)
                 for U, (p, f, _), ix in zip(unaries, samples, indexes)]
    for U, p, f, params, ix in crf_calls:
        want = sum(xcrf_forward(U, p, f, lv, ix) for lv in params.levels)
        got = axcrf_forward(U, p, f, params, ix)
        checks.expect(np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))),
                      "axcrf_forward differs from the sum of its levels")
    m["crf.axcrf_fwd_ms"] = (median_ms(axcrf_forward, crf_calls, 2), "ms")
    m["crf.axcrf_fwdbwd_ms"] = (median_ms(
        lambda p, f, lab: backward(*step2_tape(s2, p, f, lab)[:2]), samples, 1), "ms")

    grid_blocks = []
    for b in slice_blocks(val_c, side=w.block, shift=w.shift, min_points=w.min_points):
        idx = sample_block(b, w.n_sample, block_seed(PROGRAM_SEED, b, GRID_SALT)).sample_indices
        pos, feat = val_c.positions[idx], val_c.features[idx]
        index = build_index(pos)
        grid_blocks.append((unary_forward(pos, feat, s1.model, index=index), pos,
                            feat, val_c.labels[idx], index))
    cfg = s2.config
    ta, tb, tg = s2.thetas
    m["crf.grid_triple_ms"] = (median_ms(
        lambda: grid_search_thetas(grid_blocks, C, D_list=cfg.D_list, K=cfg.crf_K,
                                   r=cfg.r, alpha_candidates=(ta,),
                                   beta_candidates=(tb,), gamma_candidates=(tg,)),
        [()], 3), "ms")

    # autograd: backward alone on a step-2 block's tape
    times, tensors, nbytes = [], [], []
    for pos, feat, lab in samples:
        tape, loss, _ = step2_tape(s2, pos, feat, lab)
        tensors.append(len(tape.tensors))
        nbytes.append(sum(t.values.nbytes for t in tape.tensors))
        t = time.perf_counter()
        backward(tape, loss)
        times.append(time.perf_counter() - t)
    m["autograd.backward_ms"] = (1e3 * statistics.median(times), "ms")
    m["autograd.tape_tensors"] = (statistics.median(tensors), "count")
    m["autograd.tape_mb"] = (statistics.median(nbytes) / 1e6, "MB")

    pos, feat, lab = samples[0]
    tape, loss, binds = step2_tape(s2, pos, feat, lab)
    weight = "xcrf.level0.bilateral_weight"
    analytic = float(backward(tape, loss)[binds[weight].node_id])
    h = 1e-5 * max(1.0, abs(s2.axcrf.levels[0].bilateral_weight))
    losses = []
    for sign in (1.0, -1.0):
        moved = s2.axcrf.copy()
        moved.levels[0].bilateral_weight += sign * h
        losses.append(float(step2_tape(s2, pos, feat, lab, moved)[1].values))
    fd = (losses[0] - losses[1]) / (2.0 * h)
    checks.expect(abs(analytic - fd) <= 1e-3 * max(abs(fd), 1e-9),
                  f"backward gives d loss/d {weight} = {analytic}, central "
                  f"difference {fd}")

    # training: coverage vote passes over the unlabeled blocks, checkpoints
    unlabeled_cols = {k: v for k, v in LABELED_COLUMNS.items() if k != "label"}
    unlabeled = s1.scaler.apply(load_pointcloud(inp.unlabeled, unlabeled_cols, C))
    vote_blocks = slice_blocks(unlabeled, side=w.block, shift=w.shift,
                               min_points=w.min_points)
    t = time.perf_counter()
    _, _, passes = coverage_vote_predict(
        unlabeled, vote_blocks, lambda p, f: unary_forward(p, f, s1.model),
        s1.config.n_sample, s1.config.seed, salt=VOTE_SALT)
    m["training.vote_pass_ms"] = (1e3 * (time.perf_counter() - t) / passes, "ms")
    m["training.coverage_passes"] = (passes, "count")
    ckpt_path = os.path.join(art_dir, "timing.ckpt")
    m["training.ckpt_save_ms"] = (median_ms(save_checkpoint, [(s2, ckpt_path)], 10), "ms")
    m["training.ckpt_load_ms"] = (median_ms(load_checkpoint, [(ckpt_path,)], 10), "ms")
    m["training.ckpt_kb"] = (os.path.getsize(ckpt_path) / 1024.0, "KB")
    os.remove(ckpt_path)

    # pointcloud
    m["pointcloud.load_ms"] = (median_ms(
        load_pointcloud, [(inp.unlabeled, unlabeled_cols, C)], 3), "ms")
    m["pointcloud.slice_ms"] = (median_ms(
        lambda: slice_blocks(unlabeled, side=w.block, shift=w.shift, min_points=1),
        [()], 5), "ms")

    # cli: interpreter start plus the imports --help needs
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    m["cli.startup_ms"] = (median_ms(
        lambda: subprocess.run([sys.executable, "-m", "axcrf.cli", "--help"],
                               env=env, stdout=subprocess.DEVNULL, check=True),
        [()], 3), "ms")
    return m, facts
