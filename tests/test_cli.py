"""Command-line pipeline: subcommands, exit codes, config merging."""

import json
import sys

import numpy as np
import pytest

from axcrf.cli import dispatch, main
from axcrf.pointcloud import read_labels

SMALL_SYNTH = ["--n", "600", "--classes", "3", "--noise", "0.1", "--seed", "1"]
# channel widths and the offset scale live in the config file; everything else
# comes in as flags so both merge paths are exercised
TINY_FILE = {"block_channels": [6, 6], "block_strides": [1, 2],
             "D_list": [1, 2], "offset_scale": 20.0}
TINY_TRAIN = ["--classes", "3", "--block", "60", "--shift", "30",
              "--min-points", "16", "--tile", "50", "--val-fraction", "0.3",
              "--max-epochs", "12", "--batch-blocks", "2", "--n-sample", "48",
              "--K", "4", "--C-delta", "4", "--hidden", "6", "--crf-K", "4",
              "--r", "2", "--patience", "6", "--dropout-rate", "0",
              "--lr", "0.02", "--momentum", "0.9", "--seed", "0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "tiny.json").write_text(json.dumps(TINY_FILE))
    assert dispatch(["synth", "--out", str(d / "cloud.txt")] + SMALL_SYNTH) == 0
    return d


@pytest.fixture(scope="module")
def trained(workdir):
    code = dispatch(["train", "--input", str(workdir / "cloud.txt"),
                     "--out", str(workdir / "step1.ckpt"),
                     "--config", str(workdir / "tiny.json")] + TINY_TRAIN)
    assert code == 0
    return workdir / "step1.ckpt"


# -- basics ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "slice" in capsys.readouterr().out


def test_usage_errors_exit_one():
    assert dispatch([]) == 1
    assert dispatch(["no-such-command"]) == 1
    assert dispatch(["train", "--input", "x.txt"]) == 1   # missing --out


def test_synth_writes_points(workdir):
    lines = (workdir / "cloud.txt").read_text().strip().split("\n")
    assert len(lines) == 600
    fields = lines[0].split()
    assert len(fields) >= 4
    assert float(fields[0]) == pytest.approx(float(fields[0]))
    assert int(fields[-1]) in (0, 1, 2)


def test_synth_rejects_unknown_preset(tmp_path):
    code = dispatch(["synth", "--out", str(tmp_path / "x.txt"),
                     "--preset", "moebius"])
    assert code == 1


def _no_label_column(rows, default):
    assert rows.shape[1] == default.shape[1] - 1
    np.testing.assert_array_equal(rows, default[:, :-1])


def _inside_extent(rows, default):
    assert rows[:, :2].min() >= 0.0 and rows[:, :2].max() < 20.0
    assert default[:, :2].max() > 20.0
    np.testing.assert_array_equal(rows[:, -1], default[:, -1])


def _bands_of_height(rows, default):
    # strata: z = label * band height + uniform(0, band height)
    labels, z = rows[:, -1], rows[:, 2]
    assert np.all((z >= labels * 2.5 - 1e-6) & (z <= (labels + 1) * 2.5 + 1e-6))
    assert default[:, 2].max() > 3 * 2.5
    np.testing.assert_array_equal(labels, default[:, -1])


@pytest.mark.parametrize("flags, file_config, check", [
    ([], {"include_labels": False}, _no_label_column),
    (["--extent", "20"], {}, _inside_extent),
    (["--band-height", "2.5"], {}, _bands_of_height),
], ids=["config-include-labels-false", "extent", "band-height"])
def test_synth_shape_options(tmp_path, flags, file_config, check):
    base = ["synth", "--n", "200", "--classes", "3", "--noise", "0.1", "--seed", "1"]
    assert dispatch(base + ["--out", str(tmp_path / "default.txt")]) == 0
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(file_config))
    assert dispatch(base + ["--out", str(tmp_path / "x.txt"), "--config", str(cfg)]
                    + flags) == 0
    check(np.loadtxt(tmp_path / "x.txt"), np.loadtxt(tmp_path / "default.txt"))


# -- config files -----------------------------------------------------------


def test_config_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"learnig_rate": 0.1}))
    code = dispatch(["synth", "--out", str(tmp_path / "x.txt"),
                     "--config", str(cfg)])
    assert code == 1
    assert "learnig_rate" in capsys.readouterr().err


def test_config_val_input_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"val_input": "val.txt"}))
    code = dispatch(["synth", "--out", str(tmp_path / "x.txt"),
                     "--config", str(cfg)])
    assert code == 1
    assert "val_input" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert dispatch(["synth", "--out", str(tmp_path / "x.txt"),
                     "--config", str(cfg)]) == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, "many", 2])
def test_config_threads_is_a_usage_error(workdir, tmp_path, threads, capsys):
    # a thread cap must be set before numpy loads, so only --threads sets it
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({"threads": threads}))
    code = dispatch(["slice", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "b"), "--block", "60",
                     "--config", str(cfg)])
    assert code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n": 300, "classes": 2, "noise": 0.0, "seed": 3}))
    out = tmp_path / "c.txt"
    assert dispatch(["synth", "--out", str(out), "--config", str(cfg),
                     "--n", "120"]) == 0
    assert len(out.read_text().strip().split("\n")) == 120


# -- slice -------------------------------------------------------------------


def test_slice_writes_manifests(workdir, tmp_path):
    out = tmp_path / "blocks"
    code = dispatch(["slice", "--input", str(workdir / "cloud.txt"),
                     "--out", str(out), "--block", "60", "--shift", "30",
                     "--min-points", "16"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    records = [json.loads(l) for l in
               (out / "blocks.jsonl").read_text().strip().split("\n")]
    assert summary["n_blocks"] == len(records)
    assert summary["n_points"] == 600
    for rec in records:
        assert len(rec["members"]) >= 16
        assert rec["side"] == 60.0


@pytest.mark.parametrize("threads", [["--threads", "0"], ["--threads", "-3"],
                                     ["--threads=0"]])
def test_slice_rejects_thread_count_below_one(workdir, tmp_path, threads, capsys):
    code = dispatch(["slice", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "b"), "--block", "60"] + threads)
    assert code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("columns", ["x=-1,y=1,z=2", "x=0,y=1,z=2,features=-2:0",
                                     "x=0,y=1,z=2,features=3+-1"])
def test_slice_rejects_negative_column_flag(workdir, tmp_path, columns, capsys):
    code = dispatch(["slice", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "b"), "--block", "60",
                     "--columns", columns])
    assert code == 1
    assert "negative column index" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_slice_rejects_negative_column_map_in_config(workdir, tmp_path, capsys):
    cfg = tmp_path / "cols.json"
    cfg.write_text(json.dumps({"column_map": {"x": -1, "y": 1, "z": 2}}))
    code = dispatch(["slice", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "b"), "--block", "60",
                     "--config", str(cfg)])
    assert code == 1
    assert "negative column index" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("column_map,key", [
    ([1, 2], "JSON object"),
    ({"x": 0, "y": 1, "z": 2, "features": 3}, "'features'"),
    ({"x": 0, "y": 1, "z": 2, "label": "five"}, "'label'"),
    ({"x": 0, "y": 1, "z": 2, "label": True}, "'label'"),
    ({"x": 0, "y": 1, "z": 2, "label": 5.5}, "'label'"),
    ({"x": 0, "y": 1, "z": 2, "intensity": 3}, "'intensity'"),
])
def test_malformed_column_map_in_config_is_usage_error(workdir, tmp_path, column_map,
                                                       key, capsys):
    cfg = tmp_path / "cols.json"
    cfg.write_text(json.dumps({"column_map": column_map}))
    for command in ("slice", "train"):
        code = dispatch([command, "--input", str(workdir / "cloud.txt"),
                         "--out", str(tmp_path / "b"), "--block", "60",
                         "--config", str(cfg)] + (TINY_TRAIN if command == "train" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "column_map" in err and key in err
        assert not (tmp_path / "b").exists()


def test_slice_missing_input_is_data_error(tmp_path):
    assert dispatch(["slice", "--input", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "b")]) == 2


# -- train ------------------------------------------------------------------


def test_train_writes_checkpoint(trained):
    from axcrf.training import load_checkpoint
    ckpt = load_checkpoint(trained)
    assert ckpt.config.C == 3
    assert ckpt.scaler is not None
    assert ckpt.axcrf is None


def test_train_requires_classes(workdir, tmp_path):
    args = [a for a in TINY_TRAIN if a != "--classes" and a != "3"]
    code = dispatch(["train", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "x.ckpt"),
                     "--config", str(workdir / "tiny.json")] + args)
    assert code == 1


@pytest.mark.parametrize("flag,value,named", [
    ("--hidden", "0", "hidden"), ("--K", "0", "K"), ("--C-delta", "0", "C_delta"),
    ("--crf-K", "0", "crf_K"), ("--r", "-1", "r"),
    ("--offset-scale", "0", "offset_scale"), ("--offset-scale", "inf", "offset_scale"),
    ("--tile", "0", "tile"), ("--tile", "nan", "tile"),
    ("--min-points", "-5", "min_points"), ("--min-points", "0", "min_points"),
    ("--block", "0", "block side"), ("--block", "nan", "block side"),
    ("--shift", "-1", "shift"), ("--shift", "80", "shift"),
])
def test_train_rejects_bad_shape_and_slicing_values(workdir, tmp_path, flag, value,
                                                    named, capsys):
    args = list(TINY_TRAIN)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    code = dispatch(["train", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "x.ckpt"),
                     "--config", str(workdir / "tiny.json")] + args)
    assert code == 1
    assert f"{named} must" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_log_has_one_record_per_epoch(workdir, tmp_path, capsys):
    from axcrf.training import load_checkpoint
    log = tmp_path / "train.jsonl"
    code = dispatch(["train", "--input", str(workdir / "cloud.txt"),
                     "--out", str(tmp_path / "x.ckpt"), "--log", str(log),
                     "--config", str(workdir / "tiny.json")] + TINY_TRAIN)
    assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert 1 <= len(records) <= 12
    for epoch, rec in enumerate(records):
        assert set(rec) == {"step", "epoch", "kind", "mean_loss", "val_oa", "lr"}
        assert (rec["step"], rec["epoch"], rec["kind"]) == (1, epoch, "labeled")
        assert np.isfinite(rec["mean_loss"]) and 0.0 <= rec["val_oa"] <= 1.0
        assert rec["lr"] > 0
    best = max(rec["val_oa"] for rec in records)
    assert f"best validation OA {best:.4f} " in capsys.readouterr().out
    assert load_checkpoint(tmp_path / "x.ckpt").best_val_oa == best


def test_train_malformed_point_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 0.5 0\n1 2 nope 0.5 1\n")
    assert dispatch(["train", "--input", str(bad),
                     "--out", str(tmp_path / "x.ckpt")] + TINY_TRAIN) == 2


def test_numeric_blowup_exits_three(workdir, tmp_path):
    args = list(TINY_TRAIN)
    args[args.index("--lr") + 1] = "1e9"
    args[args.index("--max-epochs") + 1] = "4"
    with np.errstate(all="ignore"):
        code = dispatch(["train", "--input", str(workdir / "cloud.txt"),
                         "--out", str(tmp_path / "x.ckpt"),
                         "--config", str(workdir / "tiny.json")] + args)
    assert code == 3


# -- labels / refine / predict / eval ------------------------------------------


@pytest.fixture(scope="module")
def pipeline(workdir, trained):
    d = workdir
    # strip the label column so the cloud is genuinely unlabeled
    rows = [" ".join(l.split()[:-1]) for l in
            (d / "cloud.txt").read_text().strip().split("\n")]
    (d / "unlabeled.txt").write_text("\n".join(rows) + "\n")
    code = dispatch(["labels", "--input", str(d / "unlabeled.txt"),
                     "--out", str(d / "art.txt"), "--model", str(trained),
                     "--block", "60", "--shift", "30", "--min-points", "16"])
    assert code == 0
    code = dispatch(["refine", "--input", str(d / "cloud.txt"),
                     "--out", str(d / "step2.ckpt"), "--model", str(trained),
                     "--artificial-input", str(d / "unlabeled.txt"),
                     "--artificial-labels", str(d / "art.txt"),
                     "--config", str(d / "tiny.json"),
                     "--thetas", "1.0,0.1,1.0",
                     "--log", str(d / "refine.jsonl")] + TINY_TRAIN)
    assert code == 0
    code = dispatch(["predict", "--input", str(d / "unlabeled.txt"),
                     "--out", str(d / "pred.txt"),
                     "--model", str(d / "step2.ckpt"),
                     "--block", "60", "--shift", "30"])
    assert code == 0
    return d


def test_labels_cover_block_members(pipeline):
    art = read_labels(pipeline / "art.txt")
    assert art.size == 600
    assert art.max() < 3
    assert (art >= 0).sum() > 0


def test_refine_attaches_stack(pipeline):
    from axcrf.training import load_checkpoint
    ckpt = load_checkpoint(pipeline / "step2.ckpt")
    assert ckpt.axcrf is not None
    assert ckpt.thetas == (1.0, 0.1, 1.0)


def test_refine_log_has_init_then_epoch_pairs(pipeline):
    from axcrf.training import load_checkpoint
    records = [json.loads(line)
               for line in (pipeline / "refine.jsonl").read_text().splitlines()]
    init, pairs = records[0], records[1:]
    assert (init["step"], init["epoch"], init["kind"]) == (2, -1, "init")
    assert init["mean_loss"] is None and 0.0 <= init["val_oa"] <= 1.0
    assert pairs and len(pairs) % 2 == 0 and len(pairs) <= 12
    for i, rec in enumerate(pairs):
        assert set(rec) == {"step", "epoch", "kind", "mean_loss", "val_oa", "lr"}
        assert rec["step"] == 2 and rec["epoch"] == i
        assert rec["kind"] == ("labeled", "artificial")[i % 2]
        assert np.isfinite(rec["mean_loss"]) and rec["lr"] > 0
        # validation runs once per pair, after its artificial epoch
        assert (rec["val_oa"] is None) == (i % 2 == 0)
    best = max(rec["val_oa"] for rec in records if rec["val_oa"] is not None)
    assert load_checkpoint(pipeline / "step2.ckpt").best_val_oa == best


def test_refine_rejects_mismatched_labels(pipeline, trained, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    code = dispatch(["refine", "--input", str(pipeline / "cloud.txt"),
                     "--out", str(tmp_path / "x.ckpt"), "--model", str(trained),
                     "--artificial-input", str(pipeline / "unlabeled.txt"),
                     "--artificial-labels", str(short),
                     "--config", str(pipeline / "tiny.json"),
                     "--thetas", "1.0,0.1,1.0"] + TINY_TRAIN)
    assert code == 2


def _refine_argv(d, trained, out, artificial_input, thetas="1.0,0.1,1.0"):
    return ["refine", "--input", str(d / "cloud.txt"), "--out", str(out),
            "--model", str(trained), "--artificial-input", str(artificial_input),
            "--artificial-labels", str(d / "art.txt"),
            "--config", str(d / "tiny.json"), "--thetas", thetas] + TINY_TRAIN


@pytest.mark.parametrize("width", [1, 3])
def test_refine_feature_width_mismatch_is_data_error(pipeline, trained, tmp_path,
                                                     capsys, width):
    # the model was trained on two feature columns
    rows = []
    for line in (pipeline / "unlabeled.txt").read_text().strip().split("\n"):
        xyz, feats = line.split()[:3], line.split()[3:]
        rows.append(" ".join(xyz + (feats + ["0.5"])[:width]))
    odd = tmp_path / "odd.txt"
    odd.write_text("\n".join(rows) + "\n")
    code = dispatch(_refine_argv(pipeline, trained, tmp_path / "x.ckpt", odd))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{width} feature columns" in err and "fit on 2" in err


@pytest.mark.parametrize("thetas", ["x,y,z", "1.0,0.1", "nan,0.1,1.0", "0,0.1,1.0"])
def test_refine_malformed_thetas_is_usage_error(pipeline, trained, tmp_path, capsys,
                                                thetas):
    code = dispatch(_refine_argv(pipeline, trained, tmp_path / "x.ckpt",
                                 pipeline / "unlabeled.txt", thetas=thetas))
    assert code == 1
    assert "--thetas" in capsys.readouterr().err


def test_refine_skip_header_applies_to_artificial_input(pipeline, trained, tmp_path):
    # the same headered files that labels accepts, refine accepts as well
    for name in ("cloud.txt", "unlabeled.txt"):
        width = len((pipeline / name).read_text().split("\n", 1)[0].split())
        header = " ".join(["x", "y", "z"] + [f"f{i}" for i in range(1, width - 2)])
        (tmp_path / name).write_text(header + "\n" + (pipeline / name).read_text())
    assert dispatch(["labels", "--input", str(tmp_path / "unlabeled.txt"),
                     "--out", str(tmp_path / "art.txt"), "--model", str(trained),
                     "--block", "60", "--shift", "30", "--min-points", "16",
                     "--skip-header"]) == 0
    assert (tmp_path / "art.txt").read_bytes() == (pipeline / "art.txt").read_bytes()
    argv = _refine_argv(pipeline, trained, tmp_path / "x.ckpt",
                        tmp_path / "unlabeled.txt")
    argv[argv.index("--input") + 1] = str(tmp_path / "cloud.txt")
    assert dispatch(argv + ["--skip-header"]) == 0


def test_refine_empty_theta_candidates_is_usage_error(pipeline, trained, tmp_path,
                                                      capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({**TINY_FILE, "theta_alpha_candidates": []}))
    argv = _refine_argv(pipeline, trained, tmp_path / "x.ckpt",
                        pipeline / "unlabeled.txt")
    argv[argv.index("--config") + 1] = str(cfg)
    i = argv.index("--thetas")
    del argv[i:i + 2]                   # take the bandwidths from the candidates
    assert dispatch(argv) == 1
    assert "theta_alpha_candidates" in capsys.readouterr().err


def test_refine_without_thetas_takes_first_candidates(pipeline, trained, tmp_path,
                                                      capsys):
    from axcrf.training import load_checkpoint
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({**TINY_FILE, "theta_alpha_candidates": [2.0, 0.5],
                               "theta_beta_candidates": [0.25, 0.1],
                               "theta_gamma_candidates": [4.0, 1.0]}))
    argv = _refine_argv(pipeline, trained, tmp_path / "x.ckpt",
                        pipeline / "unlabeled.txt")
    argv[argv.index("--config") + 1] = str(cfg)
    i = argv.index("--thetas")
    del argv[i:i + 2]
    assert dispatch(argv) == 0
    assert "alpha=2.0 beta=0.25 gamma=4.0" in capsys.readouterr().err
    assert load_checkpoint(tmp_path / "x.ckpt").thetas == (2.0, 0.25, 4.0)


def test_refine_normalizes_with_the_checkpoints_scaler(pipeline, trained, tmp_path,
                                                       monkeypatch):
    # another --seed draws other train tiles, and a scaler fit on those would
    # scale the labeled features unlike the ones the model was trained on
    from axcrf import training
    from axcrf.pointcloud import load_pointcloud
    seen = []
    real = training.train_step2

    def spy(ckpt, cloud, *args, **kwargs):
        seen.append(cloud)
        return real(ckpt, cloud, *args, **kwargs)

    monkeypatch.setattr(training, "train_step2", spy)
    argv = _refine_argv(pipeline, trained, tmp_path / "x.ckpt",
                        pipeline / "unlabeled.txt")
    argv[argv.index("--seed") + 1] = "1"
    assert dispatch(argv) == 0
    scaler = training.load_checkpoint(trained).scaler
    raw = load_pointcloud(pipeline / "cloud.txt",
                          {"x": 0, "y": 1, "z": 2, "features": [3, 4], "label": 5}, 3)
    raw_features = {tuple(p): f for p, f in zip(raw.positions, raw.features)}
    want = np.array([raw_features[tuple(p)] for p in seen[0].positions])
    np.testing.assert_array_equal(seen[0].features, want * scaler.scale + scaler.offset)


def test_labels_and_predict_default_to_the_recorded_slicing(pipeline, trained,
                                                            tmp_path):
    # train ran with --block 60 --shift 30 --min-points 16, and both
    # checkpoints record that grid: no block flags give the flagged outputs
    assert dispatch(["labels", "--input", str(pipeline / "unlabeled.txt"),
                     "--out", str(tmp_path / "art.txt"), "--model", str(trained)]) == 0
    assert (tmp_path / "art.txt").read_bytes() == (pipeline / "art.txt").read_bytes()
    assert dispatch(["predict", "--input", str(pipeline / "unlabeled.txt"),
                     "--out", str(tmp_path / "pred.txt"),
                     "--model", str(pipeline / "step2.ckpt")]) == 0
    assert (tmp_path / "pred.txt").read_bytes() == (pipeline / "pred.txt").read_bytes()


def test_slicing_precedence():
    from argparse import Namespace
    from types import SimpleNamespace
    from axcrf.cli import _slicing
    ckpt = SimpleNamespace(slicing=(60.0, 30.0, 16))
    unset = dict(block=None, shift=None, min_points=None)
    assert _slicing(Namespace(**unset), {}) == (25.0, 12.5, 64)
    assert _slicing(Namespace(**unset), {}, ckpt) == (60.0, 30.0, 16)
    assert _slicing(Namespace(**unset), {}, ckpt, min_points=1) == (60.0, 30.0, 1)
    # a side given without a shift shifts by half of it, not by the recorded shift
    assert _slicing(Namespace(**{**unset, "block": 50.0}), {}, ckpt) == (50.0, 25.0, 16)
    assert _slicing(Namespace(**unset), {"block": 40.0}, ckpt) == (40.0, 20.0, 16)
    assert _slicing(Namespace(**{**unset, "shift": 20.0, "min_points": 8}), {}, ckpt,
                    min_points=1) == (60.0, 20.0, 8)


def test_config_key_lists_match_train_config_fields():
    # cli cannot import training at load time (--threads must act before
    # numpy loads), so this keeps its key list and the checkpoint's config
    # tensors in step with TrainConfig
    import dataclasses
    from axcrf import cli, training
    fields = sorted(f.name for f in dataclasses.fields(training.TrainConfig))
    assert sorted(cli._TRAIN_KEYS) == fields
    assert sorted(training._CONFIG_INTS + training._CONFIG_FLOATS
                  + training._CONFIG_BOOLS + training._CONFIG_INT_TUPLES
                  + training._CONFIG_FLOAT_TUPLES) == fields


def test_predict_non_scalar_config_is_data_error(pipeline, tmp_path, capsys):
    from axcrf import training
    tensors = training._checkpoint_tensors(
        training.load_checkpoint(pipeline / "step2.ckpt"))
    tensors["config.C"] = np.array([3.0, 3.0])
    bad = tmp_path / "rank.ckpt"
    bad.write_bytes(training._encode(tensors))
    code = dispatch(["predict", "--input", str(pipeline / "unlabeled.txt"),
                     "--out", str(tmp_path / "pred.txt"), "--model", str(bad)])
    assert code == 2
    assert "config.C" in capsys.readouterr().err


def test_predict_labels_every_point(pipeline):
    pred = read_labels(pipeline / "pred.txt")
    assert pred.size == 600
    assert pred.min() >= 0 and pred.max() < 3


def test_predict_deterministic(pipeline, tmp_path):
    out = tmp_path / "again.txt"
    code = dispatch(["predict", "--input", str(pipeline / "unlabeled.txt"),
                     "--out", str(out), "--model", str(pipeline / "step2.ckpt"),
                     "--block", "60", "--shift", "30"])
    assert code == 0
    assert out.read_bytes() == (pipeline / "pred.txt").read_bytes()


def test_eval_machine_report(pipeline, capsys):
    code = dispatch(["eval", "--pred", str(pipeline / "pred.txt"),
                     "--truth", str(pipeline / "cloud.txt"),
                     "--classes", "3", "--machine"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"overall_accuracy", "f1", "average_f1",
                           "confusion_matrix"}
    assert 0.0 <= report["overall_accuracy"] <= 1.0
    # a trained model beats the 1/3 chance rate comfortably
    assert report["overall_accuracy"] > 0.5


def test_eval_size_mismatch_is_data_error(pipeline, tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n2\n")
    code = dispatch(["eval", "--pred", str(short),
                     "--truth", str(pipeline / "cloud.txt"), "--classes", "3"])
    assert code == 2
    assert "3 labels" in capsys.readouterr().err


def test_eval_skips_uncovered_points(pipeline, capsys, tmp_path):
    pred = read_labels(pipeline / "pred.txt").copy()
    pred[:5] = -1
    masked = tmp_path / "masked.txt"
    masked.write_text("\n".join(str(int(v)) for v in pred) + "\n")
    code = dispatch(["eval", "--pred", str(masked),
                     "--truth", str(pipeline / "cloud.txt"),
                     "--classes", "3", "--machine"])
    assert code == 0
    captured = capsys.readouterr()
    assert "skipping 5" in captured.err
    json.loads(captured.out)


# -- installed entry point -----------------------------------------------------


def test_console_script_help():
    # the declared entry point is axcrf.cli:main, and the module form runs
    # the same command line without an installed script
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    assert 'axcrf = "axcrf.cli:main"' in scripts.split("\n[", 1)[0]
    assert callable(main)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "axcrf", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "refine" in proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc only")
def test_entry_point_reuses_freed_arrays(monkeypatch, capsys):
    # a block pass holds a few MB-sized arrays at once and frees them; after
    # the entry point's malloc tuning, repeating the pass faults in no fresh
    # pages (untuned glibc trims the freed heap and faults all 30k again).
    # Run in a child, whose allocator starts from glibc's defaults.
    import os
    import subprocess
    from pathlib import Path

    probe = (
        "import resource\n"
        "import numpy as np\n"
        "from axcrf.cli import _keep_freed_arrays\n"
        "_keep_freed_arrays()\n"
        "def block_pass():\n"
        "    live = [np.ones(1 << 18) for _ in range(6)]   # six 2 MB arrays\n"
        "    return sum(a.sum() for a in live)\n"
        "block_pass()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(10):\n"
        "    block_pass()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) < 100

    # dispatch applies it, so main and in-process callers of dispatch run
    # tuned, once per command
    import axcrf.cli as cli
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_arrays", lambda: calls.append(1))
    monkeypatch.setattr(sys, "argv", ["axcrf", "--help"])
    with pytest.raises(SystemExit):
        main()
    assert calls == [1]

    # the synthetic recipe applies it before its first stage
    import axcrf.experiment as experiment

    class Applied(Exception):
        pass

    def applied():
        raise Applied

    monkeypatch.setattr(experiment, "_keep_freed_arrays", applied)
    with pytest.raises(Applied):
        experiment.run_synthetic_experiment()
