"""End-to-end synthetic experiment: generate, slice, train, refine, report.

One function drives the whole two-step protocol on a synthetic cloud for
the acceptance suite; its data preparation, bandwidth choice and coverage
votes are the library calls the command line makes too. Both test scores
come from one vote call that differs only in the attached stack. Every
stage is seeded; two runs with the same ExperimentConfig are bit-identical.
"""

import json
import time
from dataclasses import dataclass, asdict
from pathlib import Path

from . import _keep_freed_arrays
from .metrics import confusion_matrix, scores, format_report
from .pointcloud import PointCloud, generate_synthetic, split_and_slice, write_labels
from .training import (TrainConfig, generate_artificial_labels, pipeline_vote,
                       save_checkpoint, train_step1, train_step2)

_SALT_TEST = 808      # one salt for both test evaluations: identical samples,
                      # identical votes, so the step-2 vs step-1 comparison
                      # isolates the model change


@dataclass
class ExperimentConfig:
    """Frozen desk-scale recipe: stacked-band cloud, 80/20 labeled tile split
    plus a held-out test partition, two-step training with refinement."""

    preset: str = "strata"
    n_points: int = 20000
    n_classes: int = 4
    noise: float = 0.15
    seed: int = 0
    tile_side: float = 10.0
    fractions: tuple = (0.6, 0.15, 0.25)   # train/val = 80/20 of the labeled part
    block_side: float = 12.0
    block_shift: float = 6.0
    min_points: int = 64
    lr: float = 0.02
    lr_step2: float = 0.005   # the level sum multiplies unary gradients
    momentum: float = 0.9
    momentum_step2: float = 0.0   # plain SGD; momentum overshoots when
                                  # fine-tuning the attached refinement stack
    batch_blocks: int = 6
    patience: int = 8
    max_epochs_step1: int = 30
    max_epochs_step2: int = 20
    n_sample: int = 256
    K: int = 12
    block_channels: tuple = (24, 24)
    block_strides: tuple = (1, 2)
    C_delta: int = 12
    hidden: int = 24
    dropout_rate: float = 0.0
    offset_scale: float = 4.0
    D_list: tuple = (1, 2, 3, 4, 8, 16)
    crf_K: int = 12
    r: int = 5

    def train_config(self, max_epochs: int, lr: float | None = None,
                     momentum: float | None = None) -> TrainConfig:
        return TrainConfig(C=self.n_classes, lr=self.lr if lr is None else lr,
                           momentum=self.momentum if momentum is None else momentum,
                           batch_blocks=self.batch_blocks, patience=self.patience,
                           max_epochs=max_epochs, seed=self.seed,
                           n_sample=self.n_sample, K=self.K,
                           block_channels=self.block_channels,
                           block_strides=self.block_strides,
                           C_delta=self.C_delta, hidden=self.hidden,
                           dropout_rate=self.dropout_rate,
                           offset_scale=self.offset_scale, D_list=self.D_list,
                           crf_K=self.crf_K, r=self.r)


def _covered_scores(labels, cloud: PointCloud):
    """Scores of a vote's labels over the points it covered (label >= 0)."""
    covered = labels >= 0
    return scores(confusion_matrix(labels[covered], cloud.labels[covered], cloud.C))


def run_synthetic_experiment(config: ExperimentConfig | None = None,
                             out_dir=None, verbose: bool = False) -> dict:
    """Run the full protocol and return the measured numbers.

    Returns a dict with step-1/step-2 validation and test overall accuracy,
    the bandwidths, pass counts, and wall-clock seconds per stage.
    When out_dir is given, checkpoints, training logs, predicted test labels,
    and a JSON report land there.
    """
    _keep_freed_arrays()
    cfg = config if config is not None else ExperimentConfig()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def say(msg):
        if verbose:
            print(msg, flush=True)

    t0 = time.time()
    cloud = generate_synthetic(cfg.preset, N=cfg.n_points, C=cfg.n_classes,
                               noise=cfg.noise, seed=cfg.seed)
    split = split_and_slice(cloud, tile_side=cfg.tile_side, fractions=cfg.fractions,
                            seed=cfg.seed, side=cfg.block_side,
                            shift=cfg.block_shift, min_points=cfg.min_points)
    labeled, train_blocks, val_blocks = split.labeled, split.train_blocks, split.val_blocks
    test_c, test_blocks = split.held_out[0]
    n_train, n_val = split.n_train, labeled.n_points - split.n_train
    say(f"train {n_train} pts / {len(train_blocks)} blocks; "
        f"val {n_val} / {len(val_blocks)}; "
        f"test {test_c.n_points} / {len(test_blocks)}")

    t_setup = time.time() - t0

    # step 1: classifier alone, best checkpoint by validation accuracy
    t1 = time.time()
    step1 = train_step1(labeled, train_blocks, val_blocks,
                        cfg.train_config(cfg.max_epochs_step1), scaler=split.scaler,
                        slicing=(cfg.block_side, cfg.block_shift, cfg.min_points),
                        log_path=None if out is None else out / "step1.jsonl")
    t_step1 = time.time() - t1
    say(f"step1 best val OA {step1.best_val_oa:.4f} ({t_step1:.0f}s)")

    t2 = time.time()
    labels1, _ = pipeline_vote(test_c, test_blocks, step1.model, None,
                               cfg.n_sample, cfg.seed, salt=_SALT_TEST)
    step1_test_oa = _covered_scores(labels1, test_c).overall_accuracy
    t_eval1 = time.time() - t2
    say(f"step1 test OA {step1_test_oa:.4f}")

    # artificial labels on the unlabeled view of the test partition
    t4 = time.time()
    test_unlabeled = PointCloud(test_c.positions, test_c.features, None, test_c.C)
    artificial = generate_artificial_labels(step1, test_unlabeled, test_blocks)
    t_labels = time.time() - t4
    say(f"artificial labels: {artificial.n_covered} points, "
        f"{artificial.passes} passes ({t_labels:.0f}s)")

    # step 2: alternate labeled/artificial epochs with the refinement stack,
    # whose bandwidths are the first configured candidates
    t5 = time.time()
    step2 = train_step2(step1, labeled, train_blocks, artificial, val_blocks,
                        config=cfg.train_config(cfg.max_epochs_step2,
                                                lr=cfg.lr_step2,
                                                momentum=cfg.momentum_step2),
                        log_path=None if out is None else out / "step2.jsonl")
    t_step2 = time.time() - t5
    say("step2 best val OA {:.4f} ({:.0f}s), thetas alpha={} beta={} gamma={}"
        .format(step2.best_val_oa, t_step2, *step2.thetas))

    t6 = time.time()
    pred_labels, _ = pipeline_vote(test_c, test_blocks, step2.model, step2.axcrf,
                                   cfg.n_sample, cfg.seed, salt=_SALT_TEST)
    report = _covered_scores(pred_labels, test_c)
    step2_test_oa = report.overall_accuracy
    t_eval2 = time.time() - t6
    say(f"step2 test OA {step2_test_oa:.4f}")

    results = {
        "experiment": asdict(cfg),
        "counts": {"train_points": n_train, "val_points": n_val,
                   "test_points": test_c.n_points, "train_blocks": len(train_blocks),
                   "val_blocks": len(val_blocks), "test_blocks": len(test_blocks)},
        "step1_val_oa": step1.best_val_oa,
        "step1_test_oa": step1_test_oa,
        "thetas": list(step2.thetas),
        "artificial_points": artificial.n_covered,
        "artificial_passes": int(artificial.passes),
        "step2_val_oa": step2.best_val_oa,
        "step2_test_oa": step2_test_oa,
        "improvement_pp": 100.0 * (step2_test_oa - step1_test_oa),
        "test_average_f1": report.average_f1,
    }
    # wall-clock numbers stay outside the report so that two seeded runs
    # produce byte-identical report files
    timings = {"setup": t_setup, "step1": t_step1, "eval1": t_eval1,
               "labels": t_labels, "step2": t_step2, "eval2": t_eval2,
               "total": time.time() - t0}

    if out is not None:
        save_checkpoint(step1, out / "step1.ckpt")
        save_checkpoint(step2, out / "step2.ckpt")
        write_labels(pred_labels, out / "test_predictions.txt")
        (out / "report.json").write_text(json.dumps(results, indent=2) + "\n",
                                         encoding="utf-8")
        (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n",
                                          encoding="utf-8")
        (out / "test_report.txt").write_text(format_report(report) + "\n",
                                             encoding="utf-8")
    return dict(results, seconds=timings)
