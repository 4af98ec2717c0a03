"""Schedule, early stopping, checkpoints, coverage voting, both steps."""

import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from axcrf import training
from axcrf.autograd import Tape
from axcrf.crf import AXcrfParams, first_thetas
from axcrf.model import unary_forward
from axcrf.neighbors import NeighborIndex
from axcrf.pointcloud import (FeatureScaler, PointCloud, generate_synthetic, sample_block,
                              slice_blocks)
from axcrf.training import (ArtificialLabelSet, CheckpointError, CorruptHeaderError,
                            EarlyStopper, ModelCheckpoint, NumericError, TrainConfig,
                            TruncatedPayloadError, VersionMismatchError,
                            checkpoint_id, coverage_vote_predict,
                            generate_artificial_labels, learning_rate,
                            load_checkpoint, pipeline_forward, save_checkpoint,
                            train_step1, train_step2)

TINY = dict(batch_blocks=2, n_sample=48, K=4, block_channels=(6, 6),
            block_strides=(1, 2), C_delta=4, hidden=6, dropout_rate=0.0,
            offset_scale=4.0, D_list=(1, 2), crf_K=4, r=2, patience=3)


def tiny_setup(seed=0, C=3, n=420):
    cloud = generate_synthetic("strata", N=n, C=C, noise=0.1, seed=seed)
    blocks = slice_blocks(cloud, side=60.0, shift=30.0, min_points=16)
    assert len(blocks) >= 4, "tiny setup needs a few blocks"
    half = len(blocks) // 2
    return cloud, blocks[:half], blocks[half:]


# -- learning-rate schedule -----------------------------------------------------


def test_schedule_published_pins():
    config = TrainConfig(C=2, lr=0.005)
    assert learning_rate(config, 0) == 0.005
    assert learning_rate(config, 4999) == 0.005
    assert learning_rate(config, 5000) == pytest.approx(0.004, abs=1e-15)
    assert learning_rate(config, 10000) == pytest.approx(0.0032, abs=1e-15)


def test_schedule_floor_never_violated():
    config = TrainConfig(C=2, lr=0.005)
    for t in (0, 10**5, 10**6, 10**7, 10**8):
        assert learning_rate(config, t) >= 1e-6
    assert learning_rate(config, 10**8) == 1e-6


def test_schedule_is_pure_function():
    config = TrainConfig(C=2)
    seq1 = [learning_rate(config, t) for t in range(0, 20000, 777)]
    seq2 = [learning_rate(config, t) for t in range(0, 20000, 777)]
    assert seq1 == seq2
    with pytest.raises(ValueError):
        learning_rate(config, -1)


# -- early stopping ---------------------------------------------------------------


def test_early_stop_fires_after_exactly_patience_epochs():
    stopper = EarlyStopper(10)
    assert not stopper.update(0.5)
    fired_at = None
    for i in range(15):
        if stopper.update(0.5):     # no strict improvement ever again
            fired_at = i
            break
    assert fired_at == 9            # the 10th stagnant epoch fires, not earlier


def test_early_stop_resets_on_improvement():
    stopper = EarlyStopper(3)
    values = [0.5, 0.5, 0.6, 0.6, 0.6]
    fired = [stopper.update(v) for v in values]
    assert fired == [False, False, False, False, False]
    assert stopper.update(0.6)      # third consecutive non-improvement


def test_early_stop_counts_epoch_pairs():
    stopper = EarlyStopper(4)
    stopper.update(0.9, epochs=0)   # baseline seed consumes no budget
    assert not stopper.update(0.8, epochs=2)
    assert stopper.update(0.8, epochs=2)
    with pytest.raises(ValueError):
        EarlyStopper(0)


# -- config validation ---------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(C=1)
    with pytest.raises(ValueError):
        TrainConfig(C=2, lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(C=2, lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(C=2, momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(C=2, momentum=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(C=2, patience=0)
    with pytest.raises(ValueError):
        TrainConfig(C=2, dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(C=2, block_channels=(8,), block_strides=(1, 2))
    for bad in ((), (0.5, 0.0), (-1.0,), (math.nan,), (math.inf,)):
        with pytest.raises(ValueError, match="theta_beta_candidates"):
            TrainConfig(C=2, theta_beta_candidates=bad)
    for name, bad in (("K", 0), ("C_delta", 0), ("hidden", 0), ("crf_K", 0),
                      ("r", -1), ("D_list", (1, 0)), ("block_channels", (8, 0)),
                      ("block_strides", (0, 2)), ("offset_scale", 0.0),
                      ("offset_scale", -1.0), ("offset_scale", math.inf),
                      ("offset_scale", math.nan)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(C=2, **{name: bad})
    TrainConfig(C=2, K=1, C_delta=1, hidden=1, crf_K=1, r=0, D_list=(1,),
                block_channels=(1,), block_strides=(1,), offset_scale=1e-3)


# -- coverage voting -------------------------------------------------------------------


def test_coverage_vote_covers_every_member():
    cloud, train_blocks, _ = tiny_setup()
    model_fwd = lambda p, f: np.tile([1.0, 0.0, 0.0], (p.shape[0], 1))
    pi, labels, passes = coverage_vote_predict(cloud, train_blocks, model_fwd,
                                               n_sample=32, global_seed=0, salt=1)
    members = np.unique(np.concatenate([b.member_indices for b in train_blocks]))
    np.testing.assert_array_equal(np.sort(pi), members)
    np.testing.assert_array_equal(labels, np.zeros(len(pi)))
    assert passes >= len(train_blocks)


def test_coverage_vote_deterministic():
    cloud, train_blocks, _ = tiny_setup()
    fwd = lambda p, f: np.column_stack([p[:, 2], -p[:, 2], np.zeros(p.shape[0])])
    a = coverage_vote_predict(cloud, train_blocks, fwd, 32, 0, salt=7)
    b = coverage_vote_predict(cloud, train_blocks, fwd, 32, 0, salt=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_coverage_vote_against_known_labels():
    cloud, train_blocks, _ = tiny_setup()
    C = cloud.C

    def oracle_fwd(p, f):
        # indexing trick: recover each sampled point's true label by position
        key = {tuple(row): l for row, l in zip(cloud.positions, cloud.labels)}
        lab = np.array([key[tuple(row)] for row in p])
        U = np.zeros((p.shape[0], C))
        U[np.arange(len(lab)), lab] = 5.0
        return U

    pi, labels, _ = coverage_vote_predict(cloud, train_blocks, oracle_fwd, 32, 0,
                                          salt=training._SALT_VAL)
    np.testing.assert_array_equal(labels, cloud.labels[pi])
    assert training._accuracy(cloud, pi, labels) == 1.0


# -- step 1 ------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def step1_run(tmp_path_factory):
    cloud, train_blocks, val_blocks = tiny_setup()
    config = TrainConfig(C=cloud.C, lr=0.02, max_epochs=3, seed=0, **TINY)
    log = tmp_path_factory.mktemp("logs") / "step1.jsonl"
    ckpt = train_step1(cloud, train_blocks, val_blocks, config, log_path=log)
    return SimpleNamespace(cloud=cloud, train_blocks=train_blocks,
                           val_blocks=val_blocks, config=config, ckpt=ckpt,
                           log=log)


def test_step1_returns_best_checkpoint(step1_run):
    ckpt = step1_run.ckpt
    assert 0.0 <= ckpt.best_val_oa <= 1.0
    assert ckpt.axcrf is None and ckpt.thetas is None
    assert ckpt.iteration >= 0
    assert ckpt.config is step1_run.config


def test_step1_log_format(step1_run):
    lines = [json.loads(l) for l in open(step1_run.log)]
    assert len(lines) <= 3
    for i, rec in enumerate(lines):
        assert rec["step"] == 1 and rec["epoch"] == i
        assert rec["kind"] == "labeled"
        assert math.isfinite(rec["mean_loss"])
        assert 0.0 <= rec["val_oa"] <= 1.0
        assert rec["lr"] > 0


def test_step1_deterministic(step1_run):
    s = step1_run
    again = train_step1(s.cloud, s.train_blocks, s.val_blocks, s.config)
    assert checkpoint_id(again) == checkpoint_id(s.ckpt)


def _count_sorts(monkeypatch, tally):
    """Make every neighbor sort append its process id to ``tally``, a file,
    so the helper process's sorts are counted too; returns a reader of the
    (count, distinct processes) so far."""
    real = NeighborIndex.nearest_others_all

    def counting(self, k):
        with open(tally, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(self, k)

    monkeypatch.setattr(NeighborIndex, "nearest_others_all", counting)

    def read():
        pids = tally.read_text(encoding="ascii").split() if tally.exists() else []
        return len(pids), len(set(pids))
    return read


def _val_passes(s):
    _, _, passes = coverage_vote_predict(
        s.cloud, s.val_blocks, lambda p, f: np.zeros((len(p), s.cloud.C)),
        s.config.n_sample, s.config.seed, salt=training._SALT_VAL)
    return passes


def test_step1_sorts_each_validation_pass_once(step1_run, monkeypatch, tmp_path):
    # one neighbor sort per training block per epoch, plus one per
    # validation pass for the whole run, not one per pass per epoch; counted
    # across this process and the helper
    s = step1_run
    sorts = _count_sorts(monkeypatch, tmp_path / "sorts")
    ckpt = train_step1(s.cloud, s.train_blocks, s.val_blocks, s.config)
    monkeypatch.undo()
    epochs = len(open(s.log).readlines())
    passes = _val_passes(s)
    assert epochs == s.config.max_epochs and passes > len(s.val_blocks)
    count, processes = sorts()
    assert count == epochs * len(s.train_blocks) + passes
    assert processes == (2 if training._FORK else 1)
    # the stored sorts score the returned model as a fresh evaluation does
    pi, labels, _ = coverage_vote_predict(
        s.cloud, s.val_blocks, lambda p, f: unary_forward(p, f, ckpt.model),
        s.config.n_sample, s.config.seed, salt=training._SALT_VAL)
    assert ckpt.best_val_oa == training._accuracy(s.cloud, pi, labels)


def test_step2_sorts_each_sample_once_per_epoch_and_each_pass_per_evaluation(
        step2_run, monkeypatch, tmp_path):
    s = step2_run
    sorts = _count_sorts(monkeypatch, tmp_path / "sorts")
    log = tmp_path / "step2.jsonl"
    train_step2(s.ckpt, s.cloud, s.train_blocks, s.art, s.val_blocks,
                config=s.config, thetas=(1.0, 0.1, 1.0), log_path=log)
    monkeypatch.undo()
    pairs = (len(open(log).readlines()) - 1) // 2
    assert pairs == max(1, s.config.max_epochs // 2)
    count, processes = sorts()
    assert count == (pairs * (len(s.train_blocks) + len(s.art.blocks))
                     + (1 + pairs) * _val_passes(s))
    assert processes == (2 if training._FORK else 1)


def test_step1_validation(step1_run):
    s = step1_run
    with pytest.raises(ValueError):
        train_step1(s.cloud, [], s.val_blocks, s.config)
    unlabeled = PointCloud(s.cloud.positions, s.cloud.features, None, s.cloud.C)
    with pytest.raises(ValueError):
        train_step1(unlabeled, s.train_blocks, s.val_blocks, s.config)


def test_numeric_blowup_raises(step1_run):
    s = step1_run
    config = TrainConfig(C=s.cloud.C, lr=1e9, max_epochs=4, seed=0, **TINY)
    with pytest.raises(NumericError):
        with np.errstate(all="ignore"):
            train_step1(s.cloud, s.train_blocks, s.val_blocks, config)


def test_non_finite_gradient_raises(step1_run, monkeypatch):
    # a finite loss whose gradient overflows must stop training too
    s = step1_run
    real_backward = training.backward

    def overflowing(tape, loss, wanted=None):
        return {k: np.full_like(g, np.inf)
                for k, g in real_backward(tape, loss, wanted=wanted).items()}

    monkeypatch.setattr(training, "backward", overflowing)
    with pytest.raises(NumericError, match="gradient"):
        train_step1(s.cloud, s.train_blocks, s.val_blocks, s.config)


# -- artificial labels ---------------------------------------------------------------------


def test_artificial_labels_cover_and_freeze(step1_run):
    cloud, val_blocks, ckpt = step1_run.cloud, step1_run.val_blocks, step1_run.ckpt
    unlabeled = PointCloud(cloud.positions, cloud.features, None, cloud.C)
    art = generate_artificial_labels(ckpt, unlabeled, val_blocks)
    members = np.unique(np.concatenate([b.member_indices for b in val_blocks]))
    np.testing.assert_array_equal(np.sort(art.point_indices), members)
    assert art.labels.min() >= 0 and art.labels.max() < cloud.C
    assert art.checkpoint_id == checkpoint_id(ckpt)
    assert art.passes >= len(val_blocks)
    h = art.content_hash()
    assert art.content_hash() == h
    dense = art.dense_labels()
    assert dense.shape == (cloud.n_points,)
    outside = np.setdiff1d(np.arange(cloud.n_points), art.point_indices)
    assert np.all(dense[outside] == -1)
    with pytest.raises(ValueError):
        generate_artificial_labels(ckpt, unlabeled, [])


def test_artificial_label_set_validation():
    cloud = generate_synthetic("strata", N=50, C=2, noise=0.1, seed=1)
    with pytest.raises(ValueError):
        ArtificialLabelSet(cloud=cloud, blocks=[], point_indices=np.array([0, 1]),
                           labels=np.array([0]), checkpoint_id="x", passes=1)
    with pytest.raises(ValueError):
        ArtificialLabelSet(cloud=cloud, blocks=[], point_indices=np.array([0]),
                           labels=np.array([5]), checkpoint_id="x", passes=1)


# -- step 2 -----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def step2_run(step1_run, tmp_path_factory):
    s = step1_run
    unlabeled = PointCloud(s.cloud.positions, s.cloud.features, None, s.cloud.C)
    art = generate_artificial_labels(s.ckpt, unlabeled, s.val_blocks)
    log = tmp_path_factory.mktemp("logs2") / "step2.jsonl"
    ck2 = train_step2(s.ckpt, s.cloud, s.train_blocks, art, s.val_blocks,
                      config=s.config, thetas=(1.0, 0.1, 1.0), log_path=log)
    return SimpleNamespace(cloud=s.cloud, train_blocks=s.train_blocks,
                           val_blocks=s.val_blocks, config=s.config,
                           ckpt=s.ckpt, art=art, ck2=ck2, log=log)


def test_step2_attaches_refinement(step2_run):
    ck2 = step2_run.ck2
    assert ck2.axcrf is not None
    assert ck2.thetas == (1.0, 0.1, 1.0)
    assert len(ck2.axcrf.levels) == len(TINY["D_list"])
    assert 0.0 <= ck2.best_val_oa <= 1.0


def test_step2_log_interleaves_and_reports_baseline(step2_run):
    lines = [json.loads(l) for l in open(step2_run.log)]
    assert lines[0]["kind"] == "init" and lines[0]["epoch"] == -1
    assert lines[0]["mean_loss"] is None
    assert 0.0 <= lines[0]["val_oa"] <= 1.0
    kinds = [rec["kind"] for rec in lines[1:]]
    assert kinds == ["labeled", "artificial"] * (len(kinds) // 2)
    # validation is measured per pair, on the artificial record
    for rec in lines[1:]:
        assert (rec["val_oa"] is None) == (rec["kind"] == "labeled")


def test_step2_never_returns_worse_than_baseline(step2_run):
    lines = [json.loads(l) for l in open(step2_run.log)]
    assert step2_run.ck2.best_val_oa >= lines[0]["val_oa"]


def test_step2_defaults_to_first_thetas_and_rejects_bad_ones(step2_run):
    s = step2_run
    config = dataclasses.replace(s.config, theta_alpha_candidates=(2.0, 0.5),
                                 theta_beta_candidates=(0.25, 0.1),
                                 theta_gamma_candidates=(4.0, 1.0))
    ck = train_step2(s.ckpt, s.cloud, s.train_blocks, s.art, s.val_blocks,
                     config=config)
    want = first_thetas(config.theta_alpha_candidates, config.theta_beta_candidates,
                        config.theta_gamma_candidates)
    assert want == (2.0, 0.25, 4.0) and ck.thetas == want
    for lv in ck.axcrf.levels:
        assert (lv.theta_alpha, lv.theta_beta, lv.theta_gamma) == want
    with pytest.raises(ValueError):
        train_step2(s.ckpt, s.cloud, s.train_blocks, s.art, s.val_blocks,
                    config=s.config, thetas=(0.0, 0.1, 1.0))


def test_step2_deterministic(step2_run):
    s = step2_run
    again = train_step2(s.ckpt, s.cloud, s.train_blocks, s.art, s.val_blocks,
                        config=s.config, thetas=(1.0, 0.1, 1.0))
    assert checkpoint_id(again) == checkpoint_id(s.ck2)


@pytest.mark.parametrize("update_xcrf", [False, True])
def test_frozen_stack_block_asks_no_stack_weight_gradient(step2_run, monkeypatch,
                                                          update_xcrf):
    # a spy on every op record's backward: with the stack frozen, as in an
    # artificial-label epoch, no backward is asked for a gradient into a
    # tensor that only the stack's weights (and constants) reach, nor into
    # any leaf but the classifier's parameters
    s = step2_run
    model, axcrf = s.ck2.model, s.ck2.axcrf
    idx = sample_block(s.train_blocks[0], s.config.n_sample, 0).sample_indices
    sorted_idx = training._shared_sort(training._sort_rank(model, axcrf),
                                       s.cloud.positions[idx])
    sources, asked, classifier, stack = {}, set(), set(), set()
    real_record = Tape._record

    def record(tape, inputs, out_values, bk):
        ids = [t.node_id for t in inputs]
        if bk is not None:
            def bk(g, need, real=bk):
                asked.update(i for i, n in zip(ids, need) if n)
                return real(g, need)
        out = real_record(tape, inputs, out_values, bk)
        sources[out.node_id] = ids
        return out

    def spy(graph, bound):
        def run(*args, **kwargs):
            out, binds = graph(*args, **kwargs)
            bound.update(t.node_id for t in binds.values())
            return out, binds
        return run

    monkeypatch.setattr(Tape, "_record", record)
    monkeypatch.setattr(training, "unary_graph", spy(training.unary_graph, classifier))
    monkeypatch.setattr(training, "axcrf_graph", spy(training.axcrf_graph, stack))
    grads, _, _ = training._block_grads(model, axcrf, s.cloud, s.train_blocks[0],
                                        idx, sorted_idx, s.cloud.labels,
                                        np.random.default_rng(0), update_xcrf)
    monkeypatch.undo()

    reaches_classifier = set(classifier)
    stack_only = set(stack)
    for out, ids in sources.items():
        if reaches_classifier.intersection(ids):
            reaches_classifier.add(out)
        elif stack_only.intersection(ids):
            stack_only.add(out)
    leaves = {i for ids in sources.values() for i in ids} - set(sources)
    assert stack and classifier <= leaves and stack <= leaves
    assert any(name.startswith("xcrf.") for name in grads) == update_xcrf
    if update_xcrf:
        assert stack <= asked
    else:
        assert not asked & stack_only
        assert asked & leaves == classifier


def test_step2_shared_levels_stay_equal_and_round_trip(step2_run, tmp_path):
    s = step2_run
    config = dataclasses.replace(s.config, shared_levels=True, max_epochs=4)
    ck2 = train_step2(s.ckpt, s.cloud, s.train_blocks, s.art, s.val_blocks,
                      config=config, thetas=(2.0, 0.25, 2.0))
    # a trained stack was kept, not the untrained baseline
    assert ck2.iteration > 0
    first = ck2.axcrf.levels[0]
    assert first.bilateral_weight != 1.0
    path = tmp_path / "shared.ckpt"
    save_checkpoint(ck2, path)
    back = load_checkpoint(path)
    for ax in (ck2.axcrf, back.axcrf):
        assert ax.shared
        assert ax.D_list == list(TINY["D_list"])
        for lv in ax.levels:
            assert lv.bilateral_weight == first.bilateral_weight
            assert lv.spatial_weight == first.spatial_weight
            np.testing.assert_array_equal(lv.compat, first.compat)


# -- pipeline forward ----------------------------------------------------------------------------


def test_pipeline_forward_without_stack_is_unary(step1_run):
    cloud, train_blocks, ckpt = (step1_run.cloud, step1_run.train_blocks,
                                 step1_run.ckpt)
    idx = train_blocks[0].member_indices[:40]
    pos, feat = cloud.positions[idx], cloud.features[idx]
    np.testing.assert_array_equal(pipeline_forward(ckpt.model, None, pos, feat),
                                  unary_forward(pos, feat, ckpt.model))


def test_pipeline_forward_with_untrained_stack_keeps_argmax(step1_run):
    cloud, train_blocks, ckpt = (step1_run.cloud, step1_run.train_blocks,
                                 step1_run.ckpt)
    idx = train_blocks[0].member_indices[:40]
    pos, feat = cloud.positions[idx], cloud.features[idx]
    ax = AXcrfParams.initial(cloud.C, D_list=(1, 2), K=4, r=2)
    refined = pipeline_forward(ckpt.model, ax, pos, feat)
    base = unary_forward(pos, feat, ckpt.model)
    assert refined.shape == base.shape
    assert not np.array_equal(refined, base)
    np.testing.assert_array_equal(refined.argmax(axis=1), base.argmax(axis=1))


# -- checkpoint serialization -----------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(step2_run, tmp_path):
    ck2 = step2_run.ck2
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck2, path)
    back = load_checkpoint(path)
    assert checkpoint_id(back) == checkpoint_id(ck2)
    assert back.best_val_oa == ck2.best_val_oa
    assert back.iteration == ck2.iteration
    assert back.thetas == ck2.thetas
    for a, b in zip(back.model.blocks, ck2.model.blocks):
        np.testing.assert_array_equal(a.conv_kernel, b.conv_kernel)
        np.testing.assert_array_equal(a.lift.w1, b.lift.w1)
    for la, lb in zip(back.axcrf.levels, ck2.axcrf.levels):
        assert la.bilateral_weight == lb.bilateral_weight
        np.testing.assert_array_equal(la.compat, lb.compat)
        assert (la.K, la.D, la.r) == (lb.K, lb.D, lb.r)
    assert back.config.as_dict() == ck2.config.as_dict()


def test_checkpoint_scaler_round_trip(step1_run, tmp_path):
    ckpt = step1_run.ckpt
    path = tmp_path / "s1.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert (back.scaler is None) == (ckpt.scaler is None)
    assert back.axcrf is None


def test_checkpoint_corrupt_header(tmp_path, step1_run):
    ckpt = step1_run.ckpt
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(b"JUNK" + raw[4:])
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path, step1_run):
    ckpt = step1_run.ckpt
    path = tmp_path / "short.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(TruncatedPayloadError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path, step1_run):
    ckpt = step1_run.ckpt
    path = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[5] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError, match="99"):
        load_checkpoint(path)


def test_checkpoint_format_1_is_a_version_mismatch(tmp_path, step1_run):
    # format 2 records the slicing and drops the per-batch alternation flag
    raw = bytearray(training._encode(training._checkpoint_tensors(step1_run.ckpt)))
    raw[5] = 1
    path = tmp_path / "format1.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError, match="version 1;"):
        load_checkpoint(path)


def test_checkpoint_records_slicing(step2_run, tmp_path):
    s = step2_run
    # step 2 carries the slicing of the checkpoint it starts from
    ck1 = dataclasses.replace(s.ckpt, slicing=(60.0, 30.0, 16))
    ck2 = train_step2(ck1, s.cloud, s.train_blocks, s.art, s.val_blocks,
                      config=dataclasses.replace(s.config, max_epochs=2),
                      thetas=(1.0, 0.1, 1.0))
    assert ck2.slicing == (60.0, 30.0, 16)
    path = tmp_path / "s2.ckpt"
    save_checkpoint(ck2, path)
    back = load_checkpoint(path)
    assert back.slicing == (60.0, 30.0, 16) and type(back.slicing[2]) is int
    for bad in ([60.0, 70.0, 16.0], [60.0, 0.0, 16.0], [math.inf, 30.0, 16.0],
                [60.0, 30.0, 0.0], [60.0, 30.0, 1.5], [60.0, 30.0, math.nan]):
        tensors = training._checkpoint_tensors(ck2)
        tensors["meta.slicing"] = np.array(bad)
        path.write_bytes(training._encode(tensors))
        with pytest.raises(CorruptHeaderError, match="slicing"):
            load_checkpoint(path)


def test_checkpoint_non_scalar_config_field_is_corrupt(tmp_path, step1_run):
    tensors = training._checkpoint_tensors(step1_run.ckpt)
    tensors["config.C"] = np.array([3.0, 3.0])     # consistent shape, wrong rank
    path = tmp_path / "rank.ckpt"
    path.write_bytes(training._encode(tensors))
    with pytest.raises(CorruptHeaderError, match="config.C has shape"):
        load_checkpoint(path)


def test_checkpoint_manifest_fuzz(tmp_path, step2_run):
    # every truncation inside the manifest, and two bit flips of every
    # manifest byte (so every field of every line), must raise a
    # CheckpointError or load the very same model; nothing else may escape
    ckpt = dataclasses.replace(step2_run.ck2, scaler=FeatureScaler(
        np.array([1.0, 2.0]), np.array([0.0, -0.5])), slicing=(60.0, 30.0, 16))
    raw = training._encode(training._checkpoint_tensors(ckpt))
    count = int(raw[6:raw.index(b"\n", 6)])
    end = 6
    for _ in range(count + 1):
        end = raw.index(b"\n", end) + 1
    path = tmp_path / "fuzz.ckpt"
    mutants = [raw[:cut] for cut in range(end)]
    for i in range(end):
        for bit in (0x01, 0x08):
            flipped = bytearray(raw)
            flipped[i] ^= bit
            mutants.append(bytes(flipped))
    for data in mutants:
        path.write_bytes(data)
        try:
            back = load_checkpoint(path)
        except CheckpointError:
            continue
        assert checkpoint_id(back) == checkpoint_id(ckpt)

