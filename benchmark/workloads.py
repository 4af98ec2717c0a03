"""Workload definitions, input generation and the benchmark's own oracles.

A workload fixes the shape of the synthetic cloud and every flag the
pipeline runs with; ``--seed`` only changes which points are drawn. The
program receives nothing but the generated point files and the flags.

The oracles at the bottom (block grid, confusion matrix) are coded apart
from the package so that the checks in ``run.py`` do not ask the program to
grade itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from axcrf.pointcloud import (PointCloud, generate_synthetic, load_pointcloud,
                              save_pointcloud, split_by_tiles)

C = 4                 # classes of the strata preset
NOISE = 0.15
JITTER = 0.25         # lattice jitter, as a share of the spacing
VAL_FRACTION = 0.2    # share of labeled tiles the CLI keeps for validation
PROGRAM_SEED = 0      # --seed given to train/refine; inputs vary, the
                      # train/val tile draw does not
OA_MARGIN = 0.25      # required OA above chance (1/C)


@dataclass(frozen=True)
class Workload:
    """Points sit on a jittered square lattice whose spacing divides the
    block side, and the train/validation tiles are the size of a block. So
    every seed gives the same block count and about the same member counts,
    far from min_points: the work per run does not depend on the draw."""

    name: str
    why: str
    extent: float          # the cloud covers [0, extent)^2 meters
    spacing: float         # lattice spacing, meters
    labeled_width: float   # points with x below it are labeled, the rest
                           # form the unlabeled cloud
    block: float           # block side = tile side, meters
    min_points: int        # blocks with fewer members are dropped
    n_sample: int          # points drawn per block
    offset_scale: float    # about a third of the block side
    epochs_step1: int
    thetas: tuple | None   # given to refine; None grid-searches
    grid: dict             # theta candidates (config-file keys)

    @property
    def shift(self) -> float:
        return self.block / 2.0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="recipe-dup",
        why=("recipe density, 12 m blocks of 100 members sampled to 256: most "
             "rows duplicate, so kNN tie repair and the theta grid are hot"),
        extent=72.0, spacing=1.2, labeled_width=48.0, block=12.0, min_points=64,
        n_sample=256, offset_scale=4.0, epochs_step1=5, thetas=None,
        grid={"theta_alpha_candidates": [0.5, 1.0, 2.0],
              "theta_beta_candidates": [0.1],
              "theta_gamma_candidates": [0.5, 2.0]}),
    Workload(
        name="unique-blocks",
        why=("dense cloud, 16 m blocks of 576 members sampled to 512: no "
             "duplicates and no grid, so model/crf/autograd and kNN at larger M"),
        extent=64.0, spacing=2.0 / 3.0, labeled_width=48.0, block=16.0,
        min_points=512, n_sample=512, offset_scale=5.0, epochs_step1=8,
        thetas=(1.0, 0.1, 1.0), grid={}),
)}

# flags every workload shares; they follow the synthetic recipe except
# batch_blocks=1, which buys enough SGD steps for a few-epoch budget
MODEL_FLAGS = ["--K", "12", "--C-delta", "12", "--hidden", "24",
               "--crf-K", "12", "--r", "5", "--dropout-rate", "0",
               "--batch-blocks", "1", "--seed", str(PROGRAM_SEED),
               "--val-fraction", str(VAL_FRACTION)]
STEP2_EPOCHS = 2      # one labeled + one artificial epoch
STAGES = ("train", "labels", "refine", "predict", "eval")


@dataclass(frozen=True)
class Inputs:
    labeled: str       # x y z f1 f2 label, the training cloud
    unlabeled: str     # x y z f1 f2, the cloud to label
    truth: str         # the unlabeled cloud with its labels
    config: str        # JSON for config-file-only settings
    n_unlabeled: int


def write_inputs(w: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate the workload's cloud from ``seed`` and write its files."""
    os.makedirs(out_dir, exist_ok=True)
    n = round(w.extent / w.spacing)
    cloud = generate_synthetic("strata", N=n * n, C=C, noise=NOISE, seed=seed,
                               extent=w.extent)
    # keep the preset's labels, heights and features; move x, y onto the
    # lattice with a jitter drawn from the same seed
    grid = (np.arange(n) + 0.5) * w.spacing
    xy = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    xy += np.random.default_rng([seed, 1]).uniform(
        -JITTER * w.spacing, JITTER * w.spacing, size=xy.shape)
    cloud = PointCloud(np.column_stack([xy, cloud.positions[:, 2]]), cloud.features,
                       cloud.labels, C)
    held = cloud.positions[:, 0] >= w.labeled_width
    labeled = cloud.subset(np.flatnonzero(~held))
    test = cloud.subset(np.flatnonzero(held))
    paths = {k: os.path.join(out_dir, f"{k}.txt")
             for k in ("labeled", "unlabeled", "truth")}
    save_pointcloud(labeled, paths["labeled"])
    save_pointcloud(test, paths["truth"])
    save_pointcloud(test, paths["unlabeled"], include_labels=False)
    config = os.path.join(out_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"block_channels": [24, 24], "block_strides": [1, 2], **w.grid},
                  fh)
    return Inputs(config=config, n_unlabeled=test.n_points, **paths)


def stage_argv(w: Workload, inp: Inputs, out: str) -> list[tuple[str, list[str]]]:
    """(stage, argv) for the five subcommands, artifacts written under out."""
    blocks = ["--block", str(w.block), "--shift", str(w.shift)]
    kept = blocks + ["--min-points", str(w.min_points)]
    common = kept + MODEL_FLAGS + ["--tile", str(w.block),
                                   "--n-sample", str(w.n_sample),
                                   "--offset-scale", str(w.offset_scale),
                                   "--config", inp.config, "--classes", str(C)]
    p = {k: os.path.join(out, k) for k in
         ("step1.ckpt", "step2.ckpt", "art.txt", "pred.txt")}
    thetas = [] if w.thetas is None else ["--thetas", ",".join(map(str, w.thetas))]
    return [
        ("train", ["train", "--input", inp.labeled, "--out", p["step1.ckpt"],
                   *common, "--lr", "0.02", "--momentum", "0.9",
                   "--max-epochs", str(w.epochs_step1), "--patience", "1000"]),
        ("labels", ["labels", "--input", inp.unlabeled, "--out", p["art.txt"],
                    "--model", p["step1.ckpt"], *kept]),
        ("refine", ["refine", "--input", inp.labeled, "--out", p["step2.ckpt"],
                    "--model", p["step1.ckpt"], "--artificial-input", inp.unlabeled,
                    "--artificial-labels", p["art.txt"], *common, *thetas,
                    "--lr", "0.005", "--momentum", "0",
                    "--max-epochs", str(STEP2_EPOCHS), "--patience", "1000"]),
        # every input line needs a label, so predict keeps sparse blocks
        ("predict", ["predict", "--input", inp.unlabeled, "--out", p["pred.txt"],
                     "--model", p["step2.ckpt"], *blocks, "--min-points", "1"]),
        ("eval", ["eval", "--pred", p["pred.txt"], "--truth", inp.truth,
                  "--classes", str(C), "--machine"]),
    ]


ARTIFACTS = ("step1.ckpt", "art.txt", "step2.ckpt", "pred.txt")
LABELED_COLUMNS = {"x": 0, "y": 1, "z": 2, "features": [3, 4], "label": 5}


def train_split(w: Workload, inp: Inputs):
    """The (train, validation) tile split that train and refine make of
    the labeled file, with raw features."""
    cloud = load_pointcloud(inp.labeled, LABELED_COLUMNS, C)
    return split_by_tiles(cloud, tile_side=w.block,
                          fractions=(1.0 - VAL_FRACTION, VAL_FRACTION),
                          seed=PROGRAM_SEED)


# -- oracles ------------------------------------------------------------------


def kept_blocks(positions: np.ndarray, side: float, shift: float,
                min_points: int) -> list[np.ndarray]:
    """Member indices of every block with at least min_points members on
    the base grid (anchored at the cloud's min x, y) and the grid shifted
    diagonally by ``shift``."""
    x, y = positions[:, 0], positions[:, 1]
    x0, y0 = float(x.min()), float(y.min())
    kept = []
    for ax, ay in ((x0, y0), (x0 + shift, y0 + shift)):
        ix = np.floor((x - ax) / side).astype(np.int64)
        iy = np.floor((y - ay) / side).astype(np.int64)
        _, cell, count = np.unique(np.stack([ix, iy], axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
        cell = cell.ravel()
        for c in np.flatnonzero(count >= min_points):
            kept.append(np.flatnonzero(cell == c))
    return kept


def oa_and_f1(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> tuple[float, float]:
    """Overall accuracy and unweighted mean per-class F1 (0 for a class
    with no true and no predicted points)."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truth.tolist(), pred.tolist()):
        cm[t, p] += 1
    f1 = []
    for k in range(n_classes):
        tp = cm[k, k]
        fp = cm[:, k].sum() - tp
        fn = cm[k, :].sum() - tp
        f1.append(2.0 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(np.trace(cm) / cm.sum()), float(np.mean(f1))
