"""Output checks shared by the timed and the traced runs."""

import hashlib
import json
import os
import sys

import numpy as np
from axcrf.training import load_checkpoint, save_checkpoint

from workloads import ARTIFACTS, C, OA_MARGIN, kept_blocks, oa_and_f1


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checks:
    """Collects failed output checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)


def check_outputs(checks, w, inp, out_dir, eval_stdout):
    """Checks one round's artifacts; returns (test OA, test F1)."""
    pos = np.loadtxt(inp.unlabeled, ndmin=2)[:, :3]
    truth = np.loadtxt(inp.truth, ndmin=2)[:, -1].astype(np.int64)
    pred = np.loadtxt(os.path.join(out_dir, "pred.txt"), dtype=np.int64, ndmin=1)
    checks.expect(pred.shape == (pos.shape[0],),
                  f"predict wrote {pred.size} labels for {pos.shape[0]} points")
    checks.expect(pred.size and pred.min() >= 0 and pred.max() < C,
                  "predicted labels outside [0, C)")

    art = np.loadtxt(os.path.join(out_dir, "art.txt"), dtype=np.int64, ndmin=1)
    covered = np.zeros(pos.shape[0], dtype=bool)
    for members in kept_blocks(pos, w.block, w.shift, w.min_points):
        covered[members] = True
    checks.expect(art.shape == covered.shape and np.array_equal(art < 0, ~covered),
                  "artificial labels are -1 somewhere other than outside every kept block")
    checks.expect(np.all(art[covered] < C), "artificial labels outside [0, C)")

    report = json.loads(eval_stdout)
    oa, f1 = oa_and_f1(pred, truth, C)
    checks.expect(abs(oa - report["overall_accuracy"]) <= 1e-12,
                  f"eval OA {report['overall_accuracy']} != recomputed {oa}")
    checks.expect(abs(f1 - report["average_f1"]) <= 1e-12,
                  f"eval F1 {report['average_f1']} != recomputed {f1}")
    checks.expect(oa > 1.0 / C + OA_MARGIN, f"OA {oa} is within {OA_MARGIN} of chance")

    step2 = os.path.join(out_dir, "step2.ckpt")
    ckpt = load_checkpoint(step2)
    if w.thetas is None:
        grid = [(a, b, g) for a in w.grid["theta_alpha_candidates"]
                for b in w.grid["theta_beta_candidates"]
                for g in w.grid["theta_gamma_candidates"]]
        checks.expect(tuple(ckpt.thetas) in grid,
                      f"refined thetas {ckpt.thetas} are not grid candidates")
    else:
        checks.expect(tuple(ckpt.thetas) == tuple(w.thetas),
                      f"refined thetas {ckpt.thetas} != given {w.thetas}")
    again = os.path.join(out_dir, "step2.reencoded")
    save_checkpoint(ckpt, again)
    checks.expect(file_digest(again) == file_digest(step2),
                  "step-2 checkpoint does not re-encode to identical bytes")
    os.remove(again)
    return oa, f1


def check_same_artifacts(checks, dir_a, dir_b):
    for name in ARTIFACTS:
        checks.expect(file_digest(os.path.join(dir_a, name))
                      == file_digest(os.path.join(dir_b, name)),
                      f"{name} differs between {os.path.basename(dir_a)} "
                      f"and {os.path.basename(dir_b)}")


