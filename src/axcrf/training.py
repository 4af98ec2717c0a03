"""Two-step training protocol with selective parameter freezing.

Step 1 trains the per-point classifier alone on labeled blocks, measuring
validation accuracy after every epoch and keeping the best-validated
parameters. Between the steps, the validated classifier predicts labels
for every point of the unlabeled blocks (repeated sampling passes until
full coverage, majority vote per point); those artificial labels are
generated once and frozen. Step 2 attaches the refinement stack and
strictly alternates a labeled epoch, where everything trains, with an
artificial-label epoch, where only the classifier trains and the
refinement parameters are frozen. Validation runs through the full
classifier-plus-refinement pipeline after each epoch pair.

Checkpoints serialize every trainable array plus the config snapshot as
named little-endian float64 tensors behind a short text manifest, so a
round trip is bit-exact. Structural corruption is detected before any
state is reconstructed, and values that cannot form a model while
reconstructing; either way loading raises a ``CheckpointError``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import numbers
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, fields as dataclass_fields, asdict
from pathlib import Path

import numpy as np

from .autograd import Tape, backward
from .crf import (THETA_ALPHA_CANDIDATES, THETA_BETA_CANDIDATES,
                  THETA_GAMMA_CANDIDATES, AXcrfParams, XcrfLevelParams,
                  axcrf_forward, axcrf_graph, first_thetas, predict)
from .model import (UnaryModelParams, cross_entropy_graph, init_unary_model,
                    named_param_arrays, unary_forward, unary_graph)
from .neighbors import build_index
from .pointcloud import Block, FeatureScaler, PointCloud, block_seed, sample_block

__all__ = [
    "TrainConfig", "ModelCheckpoint", "ArtificialLabelSet", "EarlyStopper",
    "learning_rate", "train_step1", "train_step2",
    "generate_artificial_labels", "save_checkpoint", "load_checkpoint",
    "checkpoint_id", "pipeline_forward", "pipeline_vote",
    "coverage_vote_predict", "NumericError",
    "CheckpointError", "CorruptHeaderError", "TruncatedPayloadError",
    "VersionMismatchError", "MAGIC", "FORMAT_VERSION",
]


class NumericError(RuntimeError):
    """Optimization produced a non-finite loss or gradient."""

MAGIC = b"AXCRF"
FORMAT_VERSION = 2

# salts keep the sampling streams of unrelated phases independent
_SALT_TRAIN = 101
_SALT_ART = 102
_SALT_VAL = 202
_SALT_LABELS = 303
_SALT_ORDER = 404
_SALT_DROPOUT = 505
_SALT_PREDICT = 707


@dataclass
class TrainConfig:
    """Knobs for both steps; defaults follow the published schedule."""

    C: int
    lr: float = 0.005
    lr_decay: float = 0.8
    lr_decay_every: int = 5000
    lr_floor: float = 1e-6
    momentum: float = 0.0
    batch_blocks: int = 6
    patience: int = 10
    max_epochs: int = 200
    seed: int = 0
    n_sample: int = 2048
    K: int = 16
    block_channels: tuple = (32, 32)
    block_strides: tuple = (1, 2)
    C_delta: int = 16
    hidden: int = 32
    dropout_rate: float = 0.3
    offset_scale: float = 1.0
    D_list: tuple = (1, 2, 3, 4, 8, 16)
    crf_K: int = 64
    r: int = 5
    shared_levels: bool = False
    theta_alpha_candidates: tuple = THETA_ALPHA_CANDIDATES
    theta_beta_candidates: tuple = THETA_BETA_CANDIDATES
    theta_gamma_candidates: tuple = THETA_GAMMA_CANDIDATES

    def __post_init__(self):
        # library callers and config-file values reach here unparsed, so the
        # types are checked with the ranges: a float width or a string switch
        # must fail here, not deep inside training or at checkpoint save
        def is_int(v, low):
            return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low

        def is_positive(v):
            # the chained comparison is false for nan as well
            return (isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and 0.0 < v < math.inf)

        for name in _CONFIG_INTS:
            low = {"C": 2, "seed": 0, "r": 0}.get(name, 1)
            if not is_int(getattr(self, name), low):
                raise ValueError(f"{name} must be an integer >= {low}, "
                                 f"got {getattr(self, name)!r}")
        for name in _CONFIG_INT_TUPLES + _CONFIG_FLOAT_TUPLES:
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} must be a non-empty list, got {values!r}")
            setattr(self, name, tuple(values))
        for name in _CONFIG_INT_TUPLES:
            if not all(is_int(v, 1) for v in getattr(self, name)):
                raise ValueError(f"every entry of {name} must be an integer >= 1, "
                                 f"got {getattr(self, name)}")
        for name in _CONFIG_FLOAT_TUPLES:
            if not all(map(is_positive, getattr(self, name))):
                raise ValueError(f"{name} must be positive finite numbers, "
                                 f"got {getattr(self, name)}")
        for name in ("lr", "lr_floor", "offset_scale"):
            if not is_positive(getattr(self, name)):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.shared_levels, bool):
            raise ValueError(f"shared_levels must be true or false, "
                             f"got {self.shared_levels!r}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"decay factor must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if len(self.block_channels) != len(self.block_strides):
            raise ValueError("block_channels and block_strides lengths differ")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")

    def as_dict(self) -> dict:
        d = asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}


def learning_rate(config: TrainConfig, iteration: int) -> float:
    """Pure function of the gradient-step counter:
    max(floor, lr0 * decay^(iteration // decay_every))."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    return max(config.lr_floor,
               config.lr * config.lr_decay ** (iteration // config.lr_decay_every))


class EarlyStopper:
    """Counts consecutive epochs without strict improvement over the best
    value seen; fires exactly when the count reaches the patience."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = -math.inf
        self.stale = 0

    def update(self, value: float, epochs: int = 1) -> bool:
        if value > self.best:
            self.best = value
            self.stale = 0
        else:
            self.stale += epochs
        return self.stale >= self.patience


@dataclass
class ModelCheckpoint:
    model: UnaryModelParams
    axcrf: AXcrfParams | None
    thetas: tuple | None            # (theta_alpha, theta_beta, theta_gamma)
    scaler: FeatureScaler | None
    config: TrainConfig
    best_val_oa: float
    iteration: int
    slicing: tuple | None = None    # (block side, shift, min_points) of training


@dataclass
class ArtificialLabelSet:
    """Frozen predictions of the validated step-1 model on unlabeled blocks:
    one label per cloud point, -1 where no pass sampled the point. Every
    block member must have a label."""

    cloud: PointCloud
    blocks: list
    labels: np.ndarray
    passes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.cloud.n_points,):
            raise ValueError(f"{self.labels.size} labels for {self.cloud.n_points} points")
        if self.labels.size and (self.labels.min() < -1 or self.labels.max() >= self.cloud.C):
            raise ValueError(f"labels outside [-1, {self.cloud.C})")
        if any(np.any(self.labels[b.member_indices] < 0) for b in self.blocks):
            raise ValueError("artificial labels leave block members unlabeled; "
                             "regenerate them with the same slicing parameters")

    @property
    def n_covered(self) -> int:
        return int(np.count_nonzero(self.labels >= 0))

    def content_hash(self) -> str:
        return hashlib.sha256(self.labels.tobytes()).hexdigest()


def _sort_rank(model, axcrf) -> int:
    """The deepest neighbor rank that the classifier and, when attached,
    the stack read."""
    if axcrf is None:
        return model.max_neighbor_rank
    return max(model.max_neighbor_rank, axcrf.max_neighbor_rank)


def _shared_sort(rank: int, positions: np.ndarray) -> np.ndarray:
    """Sorted neighbor indices at ``rank``: the one sort that every stride
    of the classifier and the stack reads. No consumer reads its distances."""
    return build_index(positions).nearest_others_all(rank)[0]


def _forward(model, axcrf, positions, features, sorted_idx):
    """``pipeline_forward`` over a sort already made."""
    index = build_index(positions)
    U = unary_forward(positions, features, model, index=index, sorted_idx=sorted_idx)
    if axcrf is None:
        return U
    return axcrf_forward(U, positions, features, axcrf, index, sorted_idx=sorted_idx)


def pipeline_forward(model: UnaryModelParams, axcrf: AXcrfParams | None,
                     positions: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Eval-mode forward of the deliverable classifier: unary potentials,
    refined by the stack when one is attached."""
    return _forward(model, axcrf, positions, features,
                    _shared_sort(_sort_rank(model, axcrf), positions))


# False runs each helper request in-process when it is submitted: the
# reference that the forked helper must match bit for bit
_FORK = hasattr(os, "fork")


def _write_frame(fh, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(len(data).to_bytes(8, "little"))
    fh.write(data)
    fh.flush()


def _read_frame(fh):
    """The next pickled object, or None at end of file."""
    header = fh.read(8)
    if len(header) < 8:
        return None
    n = int.from_bytes(header, "little")
    data = fh.read(n)
    if len(data) < n:
        return None
    return pickle.loads(data)


class _Helper:
    """A second process that serves requests in order: neighbor sorts, and
    the odd passes of a coverage vote over ``cloud`` and ``passes``.

    It is forked when the ``with`` block is entered, after the caller's
    cloud and passes exist, so it reads them from its copy of memory; a
    request carries positions or a snapshot of the weights, a reply sorted
    indices or class predictions. Both travel pickled behind an 8-byte
    length over one pipe each. Leaving the block joins the helper, and
    leaving it by an exception kills it first. The helper ends at end of
    file on its request pipe, so it also ends when the caller dies, and it
    leaves by ``os._exit``, never returning into the caller's stack. An
    exception raised in the helper is raised again by ``result``. Without
    ``os.fork`` (or with ``_FORK`` off) each request runs in-process when
    submitted, in the same order.

    A request is only sent once the reply to the one before it has been
    read, so the helper is never blocked writing a reply while the caller
    is blocked writing a request, whatever their sizes.
    """

    def __init__(self, cloud: PointCloud | None = None, passes=()):
        self.cloud = cloud
        self.passes = passes
        self.kept: dict = {}        # pass number -> sorted indices
        self.pid = None
        self._pending = False
        self._inline = collections.deque()

    def __enter__(self):
        if _FORK:
            self._fork()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        # closing the reply pipe first turns a helper blocked on a write
        # into a broken pipe; closing the request pipe ends one that waits
        self._replies.close()
        self._requests.close()
        if exc_type is not None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    def _fork(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            pid = os.fork()
        except OSError:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            return
        if pid == 0:
            code = 1
            try:
                os.close(req_w)
                os.close(rep_r)
                self._serve_forever(os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self._requests = os.fdopen(req_w, "wb")
        self._replies = os.fdopen(rep_r, "rb")

    def _serve_forever(self, requests, replies):
        """The helper's loop, until end of file on ``requests``."""
        while (request := _read_frame(requests)) is not None:
            ok, value = reply = self._serve(request)
            if not ok:
                # a pickled exception loses its traceback; one that does not
                # pickle arrives as a RuntimeError with the text
                import traceback
                text = "".join(traceback.format_exception(value))
                try:
                    pickle.dumps(value)
                except Exception:
                    reply = (False, RuntimeError(text))
                if hasattr(value, "add_note"):
                    value.add_note(f"raised in the helper process:\n{text}")
            _write_frame(replies, reply)

    def _serve(self, request):
        """(True, result) or (False, the exception the request raised)."""
        kind, *args = request
        try:
            if kind == "sort":
                return True, _shared_sort(*args)
            return True, _pass_preds(self.cloud, self.passes, 1, *args, self.kept)
        except Exception as exc:
            return False, exc

    def submit(self, *request) -> None:
        if self._pending:
            raise RuntimeError("read the helper's reply before the next request")
        self._pending = True
        if self.pid is None:
            self._inline.append(self._serve(request))
        else:
            _write_frame(self._requests, request)

    def result(self):
        """The reply to the request last submitted."""
        self._pending = False
        if self.pid is None:
            reply = self._inline.popleft()
        elif (reply := _read_frame(self._replies)) is None:
            raise RuntimeError("the helper process ended without replying")
        ok, value = reply
        if not ok:
            raise value
        return value

    def sorts(self, positions: list, rank: int):
        """Sorted neighbor indices at ``rank`` of each array in
        ``positions``, in order; the helper sorts each array while the
        caller works on the one before it."""
        if positions:
            self.submit("sort", rank, positions[0])
        for i in range(len(positions)):
            sorted_idx = self.result()
            if i + 1 < len(positions):
                self.submit("sort", rank, positions[i + 1])
            yield sorted_idx


def _coverage_passes(cloud: PointCloud, blocks, n_sample: int, global_seed: int,
                     salt: int) -> list[np.ndarray]:
    """Sample indices of every eval pass, in order: repeated seeded samplings
    of each block until every member is in at least one. Which passes run
    depends only on what earlier samples covered, never on predictions."""
    covered = np.zeros(cloud.n_points, dtype=bool)
    passes = []
    for block in blocks:
        block_pass = 0
        # coverage by independent without-replacement passes has a
        # coupon-collector tail around (members/n) * ln(members); the cap
        # only guards against a broken sampler
        ratio = block.n_members / max(1, min(n_sample, block.n_members))
        cap = max(16, int(8 * (ratio + 1) * (math.log(block.n_members) + 1)))
        while np.count_nonzero(~covered[block.member_indices]):
            if block_pass >= cap:
                raise RuntimeError(f"coverage loop exceeded {cap} passes on block "
                                   f"at origin {block.origin}")
            seed = block_seed(global_seed, block, salt=salt * 1_000_003 + block_pass)
            idx = sample_block(block, n_sample, seed).sample_indices
            covered[idx] = True
            passes.append(idx)
            block_pass += 1
    return passes


def _vote(cloud: PointCloud, passes, preds) -> np.ndarray:
    """One vote per (pass, point) from each pass's class predictions, in
    pass order; majority wins, ties to the lowest class. Returns one label
    per cloud point, -1 where no pass sampled the point."""
    votes = np.zeros((cloud.n_points, cloud.C), dtype=np.int64)
    for idx, pred in zip(passes, preds, strict=True):
        uniq, first = np.unique(idx, return_index=True)
        votes[uniq, pred[first]] += 1
    return np.where(votes.any(axis=1), votes.argmax(axis=1), -1)


def coverage_vote_predict(cloud: PointCloud, blocks, forward_fn, n_sample: int,
                          global_seed: int, salt: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Eval passes over repeated block samplings until every block member is
    predicted at least once; one vote per (pass, point), majority wins,
    ties to the lowest class. Returns (point indices, labels, passes) over
    the covered points, which are exactly the blocks' members."""
    passes = _coverage_passes(cloud, blocks, n_sample, global_seed, salt)
    preds = (predict(forward_fn(cloud.positions[idx], cloud.features[idx]))
             for idx in passes)
    labels = _vote(cloud, passes, preds)
    point_indices = np.flatnonzero(labels >= 0)
    return point_indices, labels[point_indices], len(passes)


def pipeline_vote(cloud: PointCloud, blocks, model: UnaryModelParams,
                  axcrf: AXcrfParams | None, n_sample: int, global_seed: int,
                  salt: int) -> tuple[np.ndarray, int]:
    """The labels of ``coverage_vote_predict`` with ``pipeline_forward``, as
    one label per cloud point (-1 outside every block), and the pass count;
    a helper process sorts each pass ahead while this one forwards them."""
    passes = _coverage_passes(cloud, blocks, n_sample, global_seed, salt)
    with _Helper() as helper:
        sorts = helper.sorts([cloud.positions[idx] for idx in passes],
                             _sort_rank(model, axcrf))
        preds = [predict(_forward(model, axcrf, cloud.positions[idx],
                                  cloud.features[idx], sorted_idx))
                 for idx, sorted_idx in zip(passes, sorts)]
    return _vote(cloud, passes, preds), len(passes)


def _pass_preds(cloud, passes, start, model, axcrf, kept: dict) -> list:
    """Class predictions of every second pass from ``start`` on. Without a
    stack, ``kept`` holds each pass's sorted indices from one call to the
    next; the stack's deeper lists would cost more memory than their repeat
    sorts cost time, so with one each call sorts afresh."""
    rank = _sort_rank(model, axcrf)
    preds = []
    for p in range(start, len(passes), 2):
        pos = cloud.positions[passes[p]]
        if axcrf is not None:
            sorted_idx = _shared_sort(rank, pos)
        elif (sorted_idx := kept.get(p)) is None:
            sorted_idx = kept[p] = _shared_sort(rank, pos)
        preds.append(predict(_forward(model, axcrf, pos, cloud.features[passes[p]],
                                      sorted_idx)))
    return preds


def _split_vote_oa(helper: _Helper, model, axcrf) -> float:
    """Coverage-vote accuracy over the helper's cloud and passes: even
    passes here, odd ones in the helper with a snapshot of the weights,
    merged in pass order. Each side keeps its sorts in its own
    ``helper.kept``; in one process the two share it, as their pass numbers
    never collide."""
    helper.submit("vote", model, axcrf)
    preds = [None] * len(helper.passes)
    preds[0::2] = _pass_preds(helper.cloud, helper.passes, 0, model, axcrf, helper.kept)
    preds[1::2] = helper.result()
    return _accuracy(helper.cloud, _vote(helper.cloud, helper.passes, preds))


def _accuracy(cloud: PointCloud, labels: np.ndarray) -> float:
    """Accuracy over the points that have a label (>= 0)."""
    covered = labels >= 0
    if not covered.any():
        raise ValueError("no points covered by the given blocks")
    return float((labels[covered] == cloud.labels[covered]).mean())


def _block_grads(model, axcrf, cloud, block, idx, sorted_idx, labels,
                 dropout_rng, update_xcrf):
    """Forward + backward over one sampled block, given the sample's
    indices into ``cloud`` and its sorted neighbor indices. The stack's
    weight gradients are computed and returned only with ``update_xcrf``.
    Returns (grads by name, loss, point count)."""
    pos = cloud.positions[idx]
    feat = cloud.features[idx]
    lab = labels[idx]
    index = build_index(pos)
    tape = Tape()
    out, binds = unary_graph(tape, pos, feat, model, training=True,
                             dropout_rng=dropout_rng, index=index,
                             sorted_idx=sorted_idx)
    if axcrf is not None:
        out, xbinds = axcrf_graph(tape, out, pos, feat, axcrf, index,
                                  sorted_idx=sorted_idx)
        if update_xcrf:
            binds = {**binds, **xbinds}
    loss = cross_entropy_graph(tape, out, lab)
    if not math.isfinite(float(loss.values)):
        raise NumericError(f"non-finite loss {float(loss.values)} on block "
                           f"at origin {block.origin}")
    g = backward(tape, loss, wanted=binds.values())
    grads = {name: g[t.node_id] for name, t in binds.items()}
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient of {name} on block "
                               f"at origin {block.origin}")
    return grads, float(loss.values), idx.size


def _step_value(velocity, name, grad, momentum):
    # classical momentum: v <- momentum * v + grad; momentum=0 is plain SGD
    if momentum == 0.0:
        return grad
    v = velocity.get(name)
    v = grad if v is None else momentum * v + grad
    velocity[name] = v
    return v


def _apply_sgd(model, axcrf, grads, lr, update_xcrf, velocity, momentum):
    for name, arr in named_param_arrays(model).items():
        arr -= lr * _step_value(velocity, name, grads[name], momentum)
    if axcrf is None or not update_xcrf:
        return
    for prefix, group in axcrf.weight_groups():
        step_b, step_s, step_c = (
            _step_value(velocity, f"{prefix}.{key}", grads[f"{prefix}.{key}"], momentum)
            for key in ("bilateral_weight", "spatial_weight", "compat"))
        new_b = group[0].bilateral_weight - lr * float(step_b)
        new_s = group[0].spatial_weight - lr * float(step_s)
        new_c = group[0].compat - lr * step_c
        for lv in group:
            lv.bilateral_weight = new_b
            lv.spatial_weight = new_s
            lv.compat = new_c.copy()


def _run_epoch(model, axcrf, cloud, blocks, labels, config, epoch, t,
               update_xcrf, salt, velocity, helper):
    """One shuffled pass over the blocks in batches of config.batch_blocks;
    gradients averaged over all points of a batch. The samples depend only
    on the seed, the block, the salt and the epoch, so all are drawn up
    front and ``helper`` sorts them ahead. Returns (t, mean loss)."""
    order_rng = np.random.default_rng([config.seed, _SALT_ORDER, salt, epoch])
    order = [blocks[int(bi)] for bi in order_rng.permutation(len(blocks))]
    seeds = [block_seed(config.seed, block, salt=salt * 1_000_003 + epoch)
             for block in order]
    samples = [sample_block(block, config.n_sample, sseed).sample_indices
               for block, sseed in zip(order, seeds)]
    sorts = helper.sorts([cloud.positions[idx] for idx in samples],
                         _sort_rank(model, axcrf))
    loss_sum = 0.0
    n_batches = 0
    for start in range(0, len(order), config.batch_blocks):
        lr = learning_rate(config, t)
        per = []
        for k in range(start, min(start + config.batch_blocks, len(order))):
            drng = np.random.default_rng([seeds[k], _SALT_DROPOUT])
            per.append(_block_grads(model, axcrf, cloud, order[k], samples[k],
                                    next(sorts), labels, drng, update_xcrf))
        total_pts = sum(p[2] for p in per)
        agg: dict[str, np.ndarray] = {}
        batch_loss = 0.0
        for grads, loss, npts in per:
            w = npts / total_pts
            batch_loss += w * loss
            for name, g in grads.items():
                if name in agg:
                    agg[name] = agg[name] + w * g
                else:
                    agg[name] = w * g
        _apply_sgd(model, axcrf, agg, lr, update_xcrf, velocity, config.momentum)
        loss_sum += batch_loss
        n_batches += 1
        t += 1
    return t, loss_sum / max(1, n_batches)


def _open_log(log_path):
    if log_path is None:
        return None
    return open(log_path, "a", encoding="utf-8")


def _log(fh, **record):
    if fh is not None:
        fh.write(json.dumps(record) + "\n")
        fh.flush()


def _new_model(config: TrainConfig, c_in: int) -> UnaryModelParams:
    """A freshly initialized classifier of ``config``'s shape for ``c_in``
    feature columns."""
    return init_unary_model(seed=config.seed, C=config.C, C_in=c_in, K=config.K,
                            block_channels=config.block_channels,
                            block_strides=config.block_strides, C_delta=config.C_delta,
                            hidden=config.hidden, dropout_rate=config.dropout_rate,
                            offset_scale=config.offset_scale)


def train_step1(cloud: PointCloud, train_blocks, val_blocks, config: TrainConfig,
                scaler: FeatureScaler | None = None, slicing: tuple | None = None,
                log_path=None) -> ModelCheckpoint:
    """Train and validate the classifier alone; return the best-validated
    parameters as a checkpoint. ``scaler`` and ``slicing`` (block side,
    shift, min_points) describe how the blocks were made and are recorded
    with the checkpoint."""
    train_blocks = list(train_blocks)
    val_blocks = list(val_blocks)
    if not train_blocks or not val_blocks:
        raise ValueError("step 1 needs non-empty train and validation block sets")
    if cloud.labels is None:
        raise ValueError("step 1 needs a labeled cloud")
    model = _new_model(config, cloud.n_features)
    # the validation passes do not depend on the epoch and the neighbor rank
    # is fixed for the run, so each pass is sampled once and sorted once, by
    # the process that forwards it
    val_passes = _coverage_passes(cloud, val_blocks, config.n_sample, config.seed,
                                  _SALT_VAL)
    stopper = EarlyStopper(config.patience)
    best_oa = -math.inf
    best_model = model.copy()
    best_iter = 0
    t = 0
    velocity: dict = {}
    with _Helper(cloud, val_passes) as helper:
        fh = _open_log(log_path)
        try:
            for epoch in range(config.max_epochs):
                t, mean_loss = _run_epoch(model, None, cloud, train_blocks,
                                          cloud.labels, config, epoch, t,
                                          update_xcrf=False, salt=_SALT_TRAIN,
                                          velocity=velocity, helper=helper)
                val_oa = _split_vote_oa(helper, model, None)
                _log(fh, step=1, epoch=epoch, kind="labeled", mean_loss=mean_loss,
                     val_oa=val_oa, lr=learning_rate(config, t))
                if val_oa > best_oa:
                    best_oa = val_oa
                    best_model = model.copy()
                    best_iter = t
                if stopper.update(val_oa):
                    break
        finally:
            if fh is not None:
                fh.close()
    return ModelCheckpoint(model=best_model, axcrf=None, thetas=None, scaler=scaler,
                           config=config, best_val_oa=best_oa, iteration=best_iter,
                           slicing=slicing)


def generate_artificial_labels(checkpoint: ModelCheckpoint, cloud: PointCloud,
                               blocks) -> ArtificialLabelSet:
    """Predict every point of the unlabeled blocks with the validated
    classifier (no refinement stack); labels are frozen afterwards."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("unlabeled block set is empty")
    cfg = checkpoint.config
    labels, passes = pipeline_vote(cloud, blocks, checkpoint.model, None,
                                   cfg.n_sample, cfg.seed, _SALT_LABELS)
    if labels.max(initial=-1) < 0:
        raise ValueError("unlabeled blocks contain no points")
    return ArtificialLabelSet(cloud=cloud, blocks=blocks, labels=labels, passes=passes)


def train_step2(checkpoint: ModelCheckpoint, cloud: PointCloud, train_blocks,
                artificial: ArtificialLabelSet, val_blocks,
                config: TrainConfig | None = None, thetas=None, slicing=None,
                log_path=None) -> ModelCheckpoint:
    """Retrain against labeled and artificial-label epochs in strict
    alternation; refinement parameters are frozen on artificial epochs.

    Runs up to ``max(1, config.max_epochs // 2)`` pairs of one labeled and
    one artificial epoch, so ``max_epochs = 1`` still trains two epochs.
    The gradient-step counter restarts at zero, giving the second step a
    fresh decay trajectory. ``thetas`` is a (theta_alpha, theta_beta,
    theta_gamma) triple; None takes the first of each configured candidate
    list (``crf.first_thetas``). The scaler, and the slicing unless
    ``slicing`` is given, carry over from ``checkpoint``.
    """
    config = config if config is not None else checkpoint.config
    train_blocks = list(train_blocks)
    val_blocks = list(val_blocks)
    if not train_blocks or not val_blocks:
        raise ValueError("step 2 needs non-empty train and validation block sets")
    if cloud.labels is None:
        raise ValueError("step 2 needs a labeled cloud")
    if thetas is None:
        thetas = first_thetas(config.theta_alpha_candidates,
                              config.theta_beta_candidates,
                              config.theta_gamma_candidates)
    ta, tb, tg = (float(x) for x in thetas)
    if min(ta, tb, tg) <= 0:
        raise ValueError(f"theta bandwidths must be positive, got {(ta, tb, tg)}")

    model = checkpoint.model.copy()
    axcrf = AXcrfParams.initial(config.C, D_list=config.D_list, K=config.crf_K,
                                r=config.r, theta_alpha=ta, theta_beta=tb,
                                theta_gamma=tg, shared=config.shared_levels)
    art_hash = artificial.content_hash()
    stopper = EarlyStopper(config.patience)
    # every evaluation votes over the same passes
    val_passes = _coverage_passes(cloud, val_blocks, config.n_sample, config.seed,
                                  _SALT_VAL)
    with _Helper(cloud, val_passes) as helper:
        # the validated model with freshly attached refinement is the
        # baseline; retraining must beat it on validation or the baseline is
        # returned
        init_oa = _split_vote_oa(helper, model, axcrf)
        stopper.update(init_oa, epochs=0)
        best_oa = init_oa
        best_model = model.copy()
        best_axcrf = axcrf.copy()
        best_iter = 0
        t = 0
        velocity: dict = {}
        fh = _open_log(log_path)
        _log(fh, step=2, epoch=-1, kind="init", mean_loss=None, val_oa=init_oa,
             lr=learning_rate(config, 0))
        try:
            for pair in range(max(1, config.max_epochs // 2)):
                t, loss_lab = _run_epoch(model, axcrf, cloud, train_blocks,
                                         cloud.labels, config, pair, t,
                                         update_xcrf=True, salt=_SALT_TRAIN,
                                         velocity=velocity, helper=helper)
                t, loss_art = _run_epoch(model, axcrf, artificial.cloud, artificial.blocks,
                                         artificial.labels, config, pair, t,
                                         update_xcrf=False, salt=_SALT_ART,
                                         velocity=velocity, helper=helper)
                if artificial.content_hash() != art_hash:
                    raise RuntimeError("artificial labels changed during step 2")
                val_oa = _split_vote_oa(helper, model, axcrf)
                lr_now = learning_rate(config, t)
                _log(fh, step=2, epoch=2 * pair, kind="labeled", mean_loss=loss_lab,
                     val_oa=None, lr=lr_now)
                _log(fh, step=2, epoch=2 * pair + 1, kind="artificial",
                     mean_loss=loss_art, val_oa=val_oa, lr=lr_now)
                if val_oa > best_oa:
                    best_oa = val_oa
                    best_model = model.copy()
                    best_axcrf = axcrf.copy()
                    best_iter = t
                if stopper.update(val_oa, epochs=2):
                    break
        finally:
            if fh is not None:
                fh.close()
    return ModelCheckpoint(model=best_model, axcrf=best_axcrf, thetas=(ta, tb, tg),
                           scaler=checkpoint.scaler, config=config,
                           best_val_oa=best_oa, iteration=best_iter,
                           slicing=checkpoint.slicing if slicing is None else slicing)


# checkpoint serialization


class CheckpointError(ValueError):
    pass


class CorruptHeaderError(CheckpointError):
    pass


class TruncatedPayloadError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


_CONFIG_INTS = ("lr_decay_every", "batch_blocks", "patience", "max_epochs",
                "seed", "n_sample", "C", "K", "C_delta", "hidden", "crf_K", "r")
_CONFIG_FLOATS = ("lr", "lr_decay", "lr_floor", "dropout_rate", "offset_scale",
                  "momentum")
_CONFIG_BOOLS = ("shared_levels",)
_CONFIG_INT_TUPLES = ("block_channels", "block_strides", "D_list")
_CONFIG_FLOAT_TUPLES = ("theta_alpha_candidates", "theta_beta_candidates",
                        "theta_gamma_candidates")


def _checkpoint_tensors(ckpt: ModelCheckpoint) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    out["meta.best_val_oa"] = np.asarray(float(ckpt.best_val_oa))
    out["meta.iteration"] = np.asarray(float(ckpt.iteration))
    out["meta.c_in"] = np.asarray(float(ckpt.model.blocks[0].C_in))
    out["meta.has_axcrf"] = np.asarray(0.0 if ckpt.axcrf is None else 1.0)
    out["meta.has_scaler"] = np.asarray(0.0 if ckpt.scaler is None else 1.0)
    out["meta.has_thetas"] = np.asarray(0.0 if ckpt.thetas is None else 1.0)
    if ckpt.thetas is not None:
        out["meta.thetas"] = np.asarray([float(x) for x in ckpt.thetas])
    out["meta.has_slicing"] = np.asarray(0.0 if ckpt.slicing is None else 1.0)
    if ckpt.slicing is not None:
        out["meta.slicing"] = np.asarray([float(x) for x in ckpt.slicing])
    cfg = ckpt.config
    for name in _CONFIG_INTS + _CONFIG_FLOATS + _CONFIG_BOOLS:
        out[f"config.{name}"] = np.asarray(float(getattr(cfg, name)))
    for name in _CONFIG_INT_TUPLES + _CONFIG_FLOAT_TUPLES:
        out[f"config.{name}"] = np.asarray([float(x) for x in getattr(cfg, name)])
    out.update(named_param_arrays(ckpt.model))
    if ckpt.axcrf is not None:
        for prefix, group in ckpt.axcrf.weight_groups():
            out[f"{prefix}.bilateral_weight"] = np.asarray(group[0].bilateral_weight)
            out[f"{prefix}.spatial_weight"] = np.asarray(group[0].spatial_weight)
            out[f"{prefix}.compat"] = group[0].compat
    if ckpt.scaler is not None:
        out["scaler.scale"] = ckpt.scaler.scale
        out["scaler.offset"] = ckpt.scaler.offset
    return out


def _encode(tensors: dict[str, np.ndarray]) -> bytes:
    payload = bytearray()
    lines = []
    offset = 0
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype="<f8")
        if a.ndim:
            # ascontiguousarray promotes 0-d to (1,), which would lose the
            # scalar "-" shape marker in the manifest
            a = np.ascontiguousarray(a)
        raw = a.tobytes()
        shape_s = ",".join(str(d) for d in a.shape) if a.ndim else "-"
        lines.append(f"{name} {shape_s} {offset} {len(raw)}")
        payload += raw
        offset += len(raw)
    manifest = f"{len(lines)}\n" + "".join(line + "\n" for line in lines)
    return MAGIC + bytes([FORMAT_VERSION]) + manifest.encode("ascii") + bytes(payload)


def _decode(data: bytes) -> dict[str, np.ndarray]:
    if len(data) < 6 or data[:5] != MAGIC:
        raise CorruptHeaderError("not a checkpoint: bad magic string")
    version = data[5]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"checkpoint is format version {version}; "
                                   f"this reader handles version {FORMAT_VERSION}")
    pos = 6

    def read_line():
        nonlocal pos
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise CorruptHeaderError("unterminated manifest")
        line = data[pos:nl]
        pos = nl + 1
        try:
            return line.decode("ascii")
        except UnicodeDecodeError:
            raise CorruptHeaderError("manifest is not ascii text") from None

    try:
        count = int(read_line())
    except ValueError:
        raise CorruptHeaderError("manifest count is not an integer") from None
    if count < 0:
        raise CorruptHeaderError(f"negative tensor count {count}")
    entries = []
    expected = 0
    for _ in range(count):
        parts = read_line().split()
        if len(parts) != 4:
            raise CorruptHeaderError(f"malformed manifest line: {parts}")
        name, shape_s, off_s, len_s = parts
        try:
            shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
            off, length = int(off_s), int(len_s)
        except ValueError:
            raise CorruptHeaderError(f"malformed manifest line: {parts}") from None
        # the writer lays tensors end to end, so any other offset is damage
        if off != expected or length < 0 or length % 8:
            raise CorruptHeaderError(f"bad offset/length for tensor {name}")
        expected += length
        n_elem = 1
        for d in shape:
            if d < 0:
                raise CorruptHeaderError(f"negative dimension in tensor {name}")
            n_elem *= d
        if n_elem * 8 != length:
            raise CorruptHeaderError(f"tensor {name}: shape {shape} does not "
                                     f"match byte length {length}")
        entries.append((name, shape, off, length))
    payload = data[pos:]
    tensors: dict[str, np.ndarray] = {}
    for name, shape, off, length in entries:
        if off + length > len(payload):
            raise TruncatedPayloadError(
                f"tensor {name} needs payload bytes [{off}, {off + length}) "
                f"but only {len(payload)} are present")
        arr = np.frombuffer(payload, dtype="<f8", count=length // 8, offset=off)
        tensors[name] = arr.reshape(shape).copy()
    return tensors


def _require(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise CorruptHeaderError(f"checkpoint is missing tensor {name}")
    return tensors[name]


def _scalar(tensors: dict, name: str) -> float:
    value = _require(tensors, name)
    if value.shape != ():
        raise CorruptHeaderError(f"tensor {name} has shape {value.shape}, "
                                 f"expected a scalar")
    return float(value)


def _rebuild(tensors: dict[str, np.ndarray]) -> ModelCheckpoint:
    kw: dict = {}
    for name in _CONFIG_INTS:
        kw[name] = int(_scalar(tensors, f"config.{name}"))
    for name in _CONFIG_FLOATS:
        kw[name] = _scalar(tensors, f"config.{name}")
    for name in _CONFIG_BOOLS:
        kw[name] = bool(int(_scalar(tensors, f"config.{name}")))
    for name in _CONFIG_INT_TUPLES:
        kw[name] = tuple(int(x) for x in _require(tensors, f"config.{name}"))
    for name in _CONFIG_FLOAT_TUPLES:
        kw[name] = tuple(float(x) for x in _require(tensors, f"config.{name}"))
    config = TrainConfig(**kw)

    c_in = _scalar(tensors, "meta.c_in")
    if not 1 <= c_in == int(c_in):
        raise CorruptHeaderError(f"feature width {c_in} is not a positive integer")
    # the configured model, filled in by the names its graph binds
    model = _new_model(config, int(c_in))
    for name, arr in named_param_arrays(model).items():
        value = _require(tensors, name)
        if value.shape != arr.shape:
            raise CorruptHeaderError(f"tensor {name} has shape {value.shape}, the "
                                     f"configured model needs {arr.shape}")
        if not np.all(np.isfinite(value)):
            raise CorruptHeaderError(f"tensor {name} holds non-finite values")
        arr[...] = value

    thetas = None
    if int(_scalar(tensors, "meta.has_thetas")):
        thetas = tuple(float(x) for x in _require(tensors, "meta.thetas"))

    slicing = None
    if int(_scalar(tensors, "meta.has_slicing")):
        side, shift, min_points = (float(x) for x in _require(tensors, "meta.slicing"))
        # the chained comparison is false for nan as well
        if not (0.0 < shift <= side < math.inf and 1 <= min_points == int(min_points)):
            raise CorruptHeaderError(f"recorded slicing {(side, shift, min_points)} "
                                     f"is not a block grid")
        slicing = (side, shift, int(min_points))

    axcrf = None
    if int(_scalar(tensors, "meta.has_axcrf")):
        if thetas is None:
            raise CorruptHeaderError("checkpoint has a refinement stack but no thetas")
        ta, tb, tg = thetas
        stack = AXcrfParams.initial(config.C, D_list=config.D_list, K=config.crf_K,
                                    r=config.r, theta_alpha=ta, theta_beta=tb,
                                    theta_gamma=tg, shared=config.shared_levels)
        for prefix, group in stack.weight_groups():
            for lv in group:
                lv.bilateral_weight = _scalar(tensors, f"{prefix}.bilateral_weight")
                lv.spatial_weight = _scalar(tensors, f"{prefix}.spatial_weight")
                lv.compat = _require(tensors, f"{prefix}.compat").copy()
        # rebuilt through the constructors, so the loaded values pass the
        # same square, zero-diagonal and class-count checks as new ones
        axcrf = AXcrfParams([XcrfLevelParams(**vars(lv)) for lv in stack.levels],
                            shared=stack.shared)

    scaler = None
    if int(_scalar(tensors, "meta.has_scaler")):
        scaler = FeatureScaler(scale=_require(tensors, "scaler.scale"),
                               offset=_require(tensors, "scaler.offset"))

    return ModelCheckpoint(model=model, axcrf=axcrf, thetas=thetas, scaler=scaler,
                           config=config,
                           best_val_oa=_scalar(tensors, "meta.best_val_oa"),
                           iteration=int(_scalar(tensors, "meta.iteration")),
                           slicing=slicing)


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    Path(path).write_bytes(_encode(_checkpoint_tensors(ckpt)))


def load_checkpoint(path) -> ModelCheckpoint:
    tensors = _decode(Path(path).read_bytes())
    try:
        return _rebuild(tensors)
    except CheckpointError:
        raise
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        # a well-formed manifest whose values cannot rebuild the model, such
        # as a config value TrainConfig rejects, a tuple of the wrong length
        # or a width too large to allocate
        raise CorruptHeaderError(f"checkpoint values do not form a model: {exc}") from exc


def checkpoint_id(ckpt: ModelCheckpoint) -> str:
    """Content hash of the serialized checkpoint, stable across processes."""
    return hashlib.sha256(_encode(_checkpoint_tensors(ckpt))).hexdigest()[:16]
