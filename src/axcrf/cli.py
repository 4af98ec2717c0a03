"""Command line for the point-cloud labeling pipeline.

Subcommands map one-to-one onto library operations:

  slice    cut a cloud into overlapping blocks and write their manifests
  train    fit the classifier with split validation (step 1)
  labels   predict artificial labels for an unlabeled cloud
  refine   retrain with the refinement stack against frozen artificial labels
  predict  label every input point by coverage voting
  eval     score predicted labels against ground truth
  synth    generate a synthetic labeled cloud

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(non-finite training loss). ``--threads 1`` pins the math libraries to one
thread for bit-exact determinism; it is applied before the numeric libraries
load, so it is a flag only and a config file may not set it.
"""

import argparse
import json
import os
import sys

from . import _keep_freed_arrays

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_threads(argv):
    """Honor --threads before numpy loads; returns the requested count."""
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
        else:
            continue
        try:
            n = int(value)
        except ValueError:
            return None     # argparse will reject it with a usage error
        if n >= 1 and "numpy" not in sys.modules:
            for name in _THREAD_ENV:
                os.environ[name] = str(n)
        return n
    return None


def _thread_count(text):
    """argparse type for --threads: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


class CliError(Exception):
    """Carries the process exit code for expected failures."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# flat configuration namespace: TrainConfig fields plus artifact plumbing
_TRAIN_KEYS = ("lr", "lr_decay", "lr_decay_every", "lr_floor", "momentum",
               "batch_blocks", "patience", "max_epochs", "seed", "n_sample",
               "K", "block_channels", "block_strides", "C_delta", "hidden",
               "dropout_rate", "offset_scale", "D_list", "crf_K", "r",
               "shared_levels", "theta_alpha_candidates",
               "theta_beta_candidates", "theta_gamma_candidates", "C")
_PLUMBING_KEYS = ("input", "out", "model", "log", "columns", "column_map",
                  "preset", "block", "shift", "min_points", "val_fraction",
                  "tile", "threads", "classes", "noise", "n", "extent",
                  "band_height", "skip_header", "artificial_input",
                  "artificial_labels", "thetas", "machine", "include_labels")
_KNOWN_KEYS = set(_TRAIN_KEYS) | set(_PLUMBING_KEYS)


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", code=1) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}", code=1) from exc
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object", code=1)
    for key in data:
        if key not in _KNOWN_KEYS:
            raise CliError(f"config file {path}: unknown key {key!r}", code=1)
    if "threads" in data:
        # a thread cap only holds if set before numpy loads, which is before
        # any config file is read
        raise CliError(f"config file {path}: 'threads' cannot be set in a config "
                       "file; pass --threads on the command line", code=1)
    return data


def _parse_columns(text):
    """Parse 'x=0,y=1,z=2,features=3:5,label=6' into a column map.

    features accepts a half-open range a:b or explicit indices a+b+c.
    """
    cmap = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise CliError(f"malformed column assignment {part!r}", code=1)
        try:
            if key == "features":
                if ":" in value:
                    a, b = value.split(":", 1)
                    cmap[key] = list(range(_column_index(a), _column_index(b)))
                else:
                    cmap[key] = [_column_index(v) for v in value.split("+")]
            elif key in ("x", "y", "z", "label"):
                cmap[key] = _column_index(value)
            else:
                raise CliError(f"unknown column role {key!r}", code=1)
        except ValueError as exc:
            raise CliError(f"malformed column assignment {part!r}", code=1) from exc
    return cmap


def _column_index(text):
    # Python indexing would silently read a negative index from the end
    index = int(text)
    if index < 0:
        raise CliError(f"negative column index {index}", code=1)
    return index


def _default_columns(path, labeled):
    """x y z f... [label] layout inferred from the first data line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    width = len(line.replace(",", " ").split())
                    break
            else:
                raise CliError(f"{path}: no data lines")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if width < 3 + (1 if labeled else 0):
        raise CliError(f"{path}: only {width} columns; expected x y z"
                       + (" ... label" if labeled else ""))
    cmap = {"x": 0, "y": 1, "z": 2}
    if labeled:
        cmap["label"] = width - 1
        cmap["features"] = list(range(3, width - 1))
    else:
        cmap["features"] = list(range(3, width))
    return cmap


def _check_column_map(cmap):
    """A config-file column_map by the roles --columns takes: x, y, z and
    label as integer column indices, features as a list of them. A negative
    index is a usage error here, as it is in --columns."""
    if not isinstance(cmap, dict):
        raise CliError(f"column_map must be a JSON object of column roles, "
                       f"got {cmap!r}", code=1)

    def is_index(v):
        return isinstance(v, int) and not isinstance(v, bool)

    for key, value in cmap.items():
        if key == "features":
            if not (isinstance(value, list) and all(is_index(v) for v in value)):
                raise CliError(f"column_map: 'features' must be a list of integer "
                               f"column indices, got {value!r}", code=1)
        elif key in ("x", "y", "z", "label"):
            if not is_index(value):
                raise CliError(f"column_map: {key!r} must be an integer column "
                               f"index, got {value!r}", code=1)
        else:
            raise CliError(f"column_map: unknown column role {key!r}", code=1)
        for v in value if key == "features" else [value]:
            if v < 0:
                raise CliError(f"column_map: negative column index {v} for {key!r}",
                               code=1)
    return dict(cmap)


def _resolve_columns(args, file_config, labeled, path):
    if getattr(args, "columns", None):
        return _parse_columns(args.columns)
    if "columns" in file_config:
        return _parse_columns(file_config["columns"])
    if "column_map" in file_config:
        return _check_column_map(file_config["column_map"])
    return _default_columns(path, labeled)


def _merged(args, file_config, key, default=None):
    """Flag wins over config file; config file wins over the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_config:
        return file_config[key]
    return default


def _log_resolved(subcommand, resolved):
    printable = {k: v for k, v in sorted(resolved.items()) if v is not None}
    print(f"resolved config [{subcommand}]: {json.dumps(printable, default=str)}",
          file=sys.stderr)


def _train_config_from(args, file_config, C):
    from .training import TrainConfig
    kwargs = {"C": C}
    for key in _TRAIN_KEYS:
        if key == "C":
            continue
        value = _merged(args, file_config, key)
        if value is not None:
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad training configuration: {exc}", code=1) from exc


def _load_cloud(path, cmap, C, args, file_config):
    from .pointcloud import load_pointcloud
    skip_header = bool(_merged(args, file_config, "skip_header", False))
    try:
        return load_pointcloud(path, cmap, C, skip_header=skip_header)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_unlabeled(path, args, file_config, ckpt=None):
    """A point file read without its label column, in the feature scale of
    ``ckpt`` when one is given."""
    cmap = _resolve_columns(args, file_config, labeled=False, path=path)
    cmap.pop("label", None)
    cloud = _load_cloud(path, cmap, 2 if ckpt is None else ckpt.config.C,
                        args, file_config)
    if ckpt is not None and ckpt.scaler is not None:
        cloud = ckpt.scaler.apply(cloud)
    return cloud


def _load_ckpt(path):
    from .training import load_checkpoint, CheckpointError
    try:
        return load_checkpoint(path)
    except OSError as exc:
        raise CliError(f"cannot read checkpoint {path}: {exc}") from exc
    except CheckpointError as exc:
        raise CliError(f"checkpoint {path}: {exc}") from exc


def _slicing(args, file_config, ckpt=None, min_points=None):
    """(side, shift, min_points) of the slicing grid.

    Each value comes from its flag, else the config file, else the slicing
    ``ckpt`` recorded, else 25 m, side/2 and 64. A side given without a
    shift shifts by half of it. ``min_points`` replaces the recorded or
    built-in floor."""
    recorded = None if ckpt is None else ckpt.slicing
    side, shift, floor = recorded or (25.0, 12.5, 64)
    if _merged(args, file_config, "block") is not None:
        side = float(_merged(args, file_config, "block"))
        shift = side / 2.0
    shift = float(_merged(args, file_config, "shift", shift))
    min_points = int(_merged(args, file_config, "min_points",
                             floor if min_points is None else min_points))
    # the chained comparisons are false for nan as well
    if not 0.0 < side < float("inf"):
        raise CliError(f"block side must be positive and finite, got {side}", code=1)
    if not 0.0 < shift <= side:
        raise CliError(f"shift must be in (0, block side], got {shift}", code=1)
    if min_points < 1:
        raise CliError(f"min_points must be >= 1, got {min_points}", code=1)
    return side, shift, min_points


def _split_labeled(args, file_config, C, missing_label, ckpt=None):
    """Load the labeled --input and tile-split it into sliced train and
    validation parts, normalized with ``ckpt``'s scaler when it has one;
    returns (split, slicing)."""
    from .pointcloud import split_and_slice

    cmap = _resolve_columns(args, file_config, labeled=True, path=args.input)
    if "label" not in cmap:
        raise CliError(missing_label)
    cloud = _load_cloud(args.input, cmap, C, args, file_config)
    val_fraction = float(_merged(args, file_config, "val_fraction", 0.2))
    if not 0 < val_fraction < 1:
        raise CliError(f"val_fraction must be in (0, 1), got {val_fraction}", code=1)
    tile = float(_merged(args, file_config, "tile", 10.0))
    # the chained comparison is false for nan as well
    if not 0.0 < tile < float("inf"):
        raise CliError(f"tile must be a positive finite number, got {tile}", code=1)
    side, shift, min_points = _slicing(args, file_config, ckpt)
    split = split_and_slice(cloud, tile_side=tile,
                            fractions=(1.0 - val_fraction, val_fraction),
                            seed=int(_merged(args, file_config, "seed", 0)),
                            side=side, shift=shift, min_points=min_points,
                            scaler=None if ckpt is None else ckpt.scaler)
    if not split.train_blocks or not split.val_blocks:
        raise CliError("block slicing left an empty train or validation set; "
                       "lower --min-points or use larger partitions")
    return split, (side, shift, min_points)


# subcommand bodies


def _cmd_slice(args, file_config):
    from .pointcloud import slice_blocks
    cloud = _load_unlabeled(args.input, args, file_config)
    side, shift, min_points = _slicing(args, file_config)
    blocks = slice_blocks(cloud, side=side, shift=shift, min_points=min_points)
    out = args.out
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "blocks.jsonl")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for i, b in enumerate(blocks):
            fh.write(json.dumps({"block": i, "origin": list(b.origin),
                                 "side": b.side,
                                 "members": b.member_indices.tolist()}) + "\n")
    summary = {"n_blocks": len(blocks), "n_points": cloud.n_points,
               "side": side, "shift": shift, "min_points": min_points}
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(blocks)} block manifests to {manifest_path}")
    return 0


def _cmd_train(args, file_config):
    from .training import train_step1, save_checkpoint
    C = _merged(args, file_config, "classes") or _merged(args, file_config, "C")
    if C is None:
        raise CliError("train needs --classes", code=1)
    C = int(C)
    split, slicing = _split_labeled(args, file_config, C,
                                    "train needs a label column; add label= to --columns")
    config = _train_config_from(args, file_config, C)
    ckpt = train_step1(split.labeled, split.train_blocks, split.val_blocks, config,
                       scaler=split.scaler, slicing=slicing,
                       log_path=_merged(args, file_config, "log"))
    save_checkpoint(ckpt, args.out)
    print(f"best validation OA {ckpt.best_val_oa:.4f} at iteration "
          f"{ckpt.iteration}; checkpoint written to {args.out}")
    return 0


def _cmd_labels(args, file_config):
    from .pointcloud import slice_blocks, write_labels
    from .training import generate_artificial_labels
    ckpt = _load_ckpt(args.model)
    cloud = _load_unlabeled(args.input, args, file_config, ckpt)
    side, shift, min_points = _slicing(args, file_config, ckpt)
    blocks = slice_blocks(cloud, side=side, shift=shift, min_points=min_points)
    if not blocks:
        raise CliError("no blocks survived slicing; lower --min-points")
    art = generate_artificial_labels(ckpt, cloud, blocks)
    write_labels(art.dense_labels(), args.out)
    covered = art.point_indices.size
    print(f"wrote {cloud.n_points} labels ({covered} covered, "
          f"{cloud.n_points - covered} outside blocks as -1) to {args.out}")
    return 0


def _cmd_refine(args, file_config):
    import numpy as np
    from .pointcloud import read_labels, slice_blocks
    from .crf import first_thetas
    from .training import (ArtificialLabelSet, checkpoint_id, save_checkpoint,
                           train_step2)
    ckpt = _load_ckpt(args.model)
    C = ckpt.config.C
    split, slicing = _split_labeled(args, file_config, C,
                                    "refine needs a labeled cloud; add label= to "
                                    "--columns", ckpt)

    art_path = _merged(args, file_config, "artificial_input")
    lab_path = _merged(args, file_config, "artificial_labels")
    if art_path is None or lab_path is None:
        raise CliError("refine needs --artificial-input and --artificial-labels",
                       code=1)
    art_cloud = _load_unlabeled(art_path, args, file_config, ckpt)
    try:
        dense = read_labels(lab_path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read labels {lab_path}: {exc}") from exc
    if dense.size != art_cloud.n_points:
        raise CliError(f"{lab_path} holds {dense.size} labels for "
                       f"{art_cloud.n_points} points")
    if dense.max(initial=-1) >= C:
        raise CliError(f"artificial labels exceed the class count {C}")
    side, shift, min_points = slicing
    art_blocks = slice_blocks(art_cloud, side=side, shift=shift,
                              min_points=min_points)
    members = np.zeros(art_cloud.n_points, dtype=bool)
    for b in art_blocks:
        members[b.member_indices] = True
    if not np.all(dense[members] >= 0):
        raise CliError("artificial labels leave block members unlabeled; "
                       "regenerate them with the same slicing parameters")
    pi = np.flatnonzero(members)
    artificial = ArtificialLabelSet(cloud=art_cloud, blocks=art_blocks,
                                    point_indices=pi, labels=dense[pi],
                                    checkpoint_id=checkpoint_id(ckpt), passes=0)

    thetas_arg = _merged(args, file_config, "thetas")
    config = _train_config_from(args, file_config, C)
    if thetas_arg is not None:
        if isinstance(thetas_arg, str):
            parts = thetas_arg.split(",")
        else:
            parts = list(thetas_arg)
        try:
            thetas = tuple(float(p) for p in parts)
        except (TypeError, ValueError):
            thetas = ()
        # the chained comparison is false for nan as well
        if len(thetas) != 3 or not all(0.0 < t < float("inf") for t in thetas):
            raise CliError(f"--thetas needs three positive numbers alpha,beta,gamma, "
                           f"got {thetas_arg!r}", code=1)
    else:
        thetas = first_thetas(config.theta_alpha_candidates,
                              config.theta_beta_candidates,
                              config.theta_gamma_candidates)
        print("bandwidths alpha={} beta={} gamma={} (the first candidates)".format(
            *thetas), file=sys.stderr)
    refined = train_step2(ckpt, split.labeled, split.train_blocks, artificial,
                          split.val_blocks, config=config, thetas=thetas,
                          slicing=slicing, log_path=_merged(args, file_config, "log"))
    save_checkpoint(refined, args.out)
    print(f"best validation OA {refined.best_val_oa:.4f}; refined checkpoint "
          f"written to {args.out}")
    return 0


def _cmd_predict(args, file_config):
    import numpy as np
    from .pointcloud import slice_blocks, write_labels
    from .training import _SALT_PREDICT, pipeline_vote
    ckpt = _load_ckpt(args.model)
    cloud = _load_unlabeled(args.input, args, file_config, ckpt)
    # every input line must receive a label, so sparse blocks are kept
    side, shift, min_points = _slicing(args, file_config, ckpt, min_points=1)
    blocks = slice_blocks(cloud, side=side, shift=shift, min_points=min_points)
    if not blocks:
        raise CliError("no blocks to predict on")
    pi, labels, passes = pipeline_vote(cloud, blocks, ckpt.model, ckpt.axcrf,
                                       ckpt.config.n_sample, ckpt.config.seed,
                                       salt=_SALT_PREDICT)
    dense = np.full(cloud.n_points, -1, dtype=np.int64)
    dense[pi] = labels
    if np.any(dense < 0):
        missing = int((dense < 0).sum())
        raise CliError(f"{missing} points fell outside every block; "
                       f"lower --min-points to 1 for full coverage")
    write_labels(dense, args.out)
    print(f"wrote {cloud.n_points} labels to {args.out} ({passes} passes)")
    return 0


def _cmd_eval(args, file_config):
    import numpy as np
    from .metrics import confusion_matrix, format_report, scores
    from .pointcloud import read_labels
    C = _merged(args, file_config, "classes")
    if C is None:
        raise CliError("eval needs --classes", code=1)
    C = int(C)
    try:
        pred = read_labels(args.pred)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read predictions {args.pred}: {exc}") from exc
    cmap = _resolve_columns(args, file_config, labeled=True, path=args.truth)
    if "label" not in cmap:
        raise CliError("eval needs a label column in the truth file")
    truth = _load_cloud(args.truth, cmap, C, args, file_config).labels
    if pred.size != truth.size:
        raise CliError(f"{args.pred} holds {pred.size} labels for "
                       f"{truth.size} truth points")
    keep = pred >= 0
    skipped = int((~keep).sum())
    if skipped:
        print(f"skipping {skipped} unlabeled (-1) predictions", file=sys.stderr)
    if not np.any(keep):
        raise CliError("no labeled predictions to score")
    try:
        cm = confusion_matrix(pred[keep], truth[keep], C)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = scores(cm)
    print(format_report(report, machine=bool(_merged(args, file_config,
                                                     "machine", False))))
    return 0


def _cmd_synth(args, file_config):
    from .pointcloud import generate_synthetic, save_pointcloud
    preset = _merged(args, file_config, "preset", "strata")
    n = int(_merged(args, file_config, "n", 20000))
    C = int(_merged(args, file_config, "classes", 4))
    noise = float(_merged(args, file_config, "noise", 0.15))
    seed = int(_merged(args, file_config, "seed", 0))
    extent = float(_merged(args, file_config, "extent", 150.0))
    band_height = float(_merged(args, file_config, "band_height", 8.0))
    try:
        cloud = generate_synthetic(preset, N=n, C=C, noise=noise, seed=seed,
                                   extent=extent, band_height=band_height)
    except ValueError as exc:
        raise CliError(str(exc), code=1) from exc
    save_pointcloud(cloud, args.out,
                    include_labels=bool(_merged(args, file_config,
                                                "include_labels", True)))
    print(f"wrote {cloud.n_points} points ({C} classes) to {args.out}")
    return 0


# argument wiring


def _add_common(p, needs_input=True, needs_out=True):
    if needs_input:
        p.add_argument("--input", required=True, help="point file, one point per line")
    if needs_out:
        p.add_argument("--out", required=True, help="output path")
    p.add_argument("--config", help="JSON configuration file; flags win")
    p.add_argument("--columns",
                   help="column roles, e.g. x=0,y=1,z=2,features=3:5,label=6")
    p.add_argument("--skip-header", dest="skip_header", action="store_true",
                   default=None, help="ignore the first line of point files")
    p.add_argument("--threads", type=_thread_count,
                   help="cap math-library threads; 1 for bit-exact runs")


def _add_block_flags(p, recorded=False, floor_help=None):
    """``recorded``: the defaults are the slicing the checkpoint recorded;
    ``floor_help`` replaces the help text of the --min-points default."""
    source = "the checkpoint's, else " if recorded else ""
    p.add_argument("--block", type=float,
                   help=f"block side in meters (default {source}25)")
    p.add_argument("--shift", type=float,
                   help=f"diagonal offset of the second grid (default {source}side/2; "
                        f"side/2 when --block is given)")
    p.add_argument("--min-points", dest="min_points", type=int,
                   help="drop blocks with fewer members (default "
                        f"{floor_help or source + '64'})")


def _add_train_flags(p):
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--val-fraction", dest="val_fraction", type=float,
                   help="tile fraction held out for validation (default 0.2)")
    p.add_argument("--tile", type=float, help="tile side for the split (default 10)")
    p.add_argument("--log", help="JSONL training log path")
    for name in ("lr", "lr_decay", "lr_floor", "momentum", "dropout_rate",
                 "offset_scale"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    for name in ("lr_decay_every", "batch_blocks", "patience",
                 "seed", "n_sample", "K", "C_delta", "hidden", "crf_K", "r"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int,
                   help="epoch cap N (default 200): train runs up to N epochs, "
                        "refine up to max(1, N // 2) labeled+artificial epoch "
                        "pairs, so refine with N = 1 still trains two epochs")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="axcrf",
        description="Point-cloud labeling with neighbor-limited refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="cut a cloud into overlapping blocks")
    _add_common(p)
    _add_block_flags(p)

    p = sub.add_parser("train", help="fit the classifier with split validation")
    _add_common(p)
    _add_block_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("labels", help="predict artificial labels for an unlabeled cloud")
    _add_common(p)
    _add_block_flags(p, recorded=True)
    p.add_argument("--model", required=True, help="validated checkpoint")

    p = sub.add_parser("refine", help="retrain against frozen artificial labels")
    _add_common(p)
    _add_block_flags(p, recorded=True)
    _add_train_flags(p)
    p.add_argument("--model", required=True, help="validated step-1 checkpoint")
    p.add_argument("--artificial-input", dest="artificial_input",
                   help="unlabeled point file the labels were generated for")
    p.add_argument("--artificial-labels", dest="artificial_labels",
                   help="label file from the labels subcommand")
    p.add_argument("--thetas", help="alpha,beta,gamma; omit for the first configured "
                   "candidates, which a search with the stack's initial weights "
                   "always picks")

    p = sub.add_parser("predict", help="label every input point")
    _add_common(p)
    _add_block_flags(p, recorded=True, floor_help="1, so every point gets a label")
    p.add_argument("--model", required=True, help="checkpoint to predict with")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="predicted label file")
    p.add_argument("--truth", required=True, help="labeled point file")
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--machine", action="store_true", default=None,
                   help="JSON report instead of the text table")
    _add_common(p, needs_input=False, needs_out=False)

    p = sub.add_parser("synth", help="generate a synthetic labeled cloud")
    _add_common(p, needs_input=False)
    p.add_argument("--preset", help="strata or clusters (default strata)")
    p.add_argument("--n", type=int, help="number of points (default 20000)")
    p.add_argument("--classes", type=int, help="number of classes (default 4)")
    p.add_argument("--noise", type=float, help="corruption level (default 0.15)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--extent", type=float, help="xy extent in meters (default 150)")
    p.add_argument("--band-height", dest="band_height", type=float,
                   help="strata band height in meters (default 8)")
    p.add_argument("--include-labels", dest="include_labels", action="store_true",
                   default=None)
    return parser


_COMMANDS = {"slice": _cmd_slice, "train": _cmd_train, "labels": _cmd_labels,
             "refine": _cmd_refine, "predict": _cmd_predict, "eval": _cmd_eval,
             "synth": _cmd_synth}


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    _keep_freed_arrays()
    _apply_threads(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return 0 if exc.code in (0, None) else 1
    file_config = {}
    try:
        if getattr(args, "config", None):
            file_config = _load_config_file(args.config)
        resolved = dict(file_config)
        for key in _KNOWN_KEYS:
            value = getattr(args, key, None)
            if value is not None:
                resolved[key] = value
        _log_resolved(args.command, resolved)
        from .training import NumericError
        try:
            return _COMMANDS[args.command](args, file_config)
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError) as exc:
            raise CliError(str(exc)) from exc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
