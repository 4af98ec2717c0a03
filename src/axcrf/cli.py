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


def _theta_triple(text):
    """argparse type for --thetas: three positive finite numbers a,b,c."""
    try:
        thetas = tuple(float(p) for p in text.split(","))
    except ValueError:
        thetas = ()
    # the chained comparison is false for nan as well
    if len(thetas) != 3 or not all(0.0 < t < float("inf") for t in thetas):
        raise argparse.ArgumentTypeError(
            f"expected three positive numbers alpha,beta,gamma, got {text!r}")
    return thetas


class CliError(Exception):
    """Carries the process exit code for expected failures."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# settings a config file gives that no flag takes; a subcommand reads the
# ones its parser declares with set_defaults
_TRAIN_CONFIG_ONLY = ("block_channels", "block_strides", "D_list", "shared_levels",
                      "theta_alpha_candidates", "theta_beta_candidates",
                      "theta_gamma_candidates")
_CONFIG_ONLY = _TRAIN_CONFIG_ONLY + ("include_labels",)


def _config_flags(parser):
    """{config key: action} of a subcommand's optional flags."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "config", "threads")}


def _config_keys(subparsers):
    """Every key a config file may hold, whichever subcommand runs."""
    return set(_CONFIG_ONLY).union(*map(_config_flags, subparsers.values()))


def _config_argv(path, subparsers, command):
    """The config file's settings for ``command``: its flag values as
    ``--flag=value`` arguments, and its config-only values. A key that only
    another subcommand takes is ignored; null leaves a setting unset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", code=1) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}", code=1) from exc
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object", code=1)
    if "threads" in data:
        # a thread cap only holds if set before numpy loads, which is before
        # any config file is read
        raise CliError(f"config file {path}: 'threads' cannot be set in a config "
                       "file; pass --threads on the command line", code=1)
    unknown = sorted(set(data) - _config_keys(subparsers))
    if unknown:
        raise CliError(f"config file {path}: unknown key {unknown[0]!r}", code=1)
    flags = _config_flags(subparsers[command])
    argv = []
    for key, value in data.items():
        if key not in flags or value is None:
            continue
        flag = flags[key].option_strings[0]
        if flags[key].nargs == 0:           # a switch
            if not isinstance(value, bool):
                raise CliError(f"config file {path}: {key!r} must be true or false, "
                               f"got {value!r}", code=1)
            argv += [flag] if value else []
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliError(f"config file {path}: {key!r} must be a string or a "
                           f"number, got {value!r}", code=1)
        else:
            argv.append(f"{flag}={value}")
    return argv, {k: v for k, v in data.items() if k in _CONFIG_ONLY and v is not None}


def _parse_columns(text):
    """argparse type for --columns: 'x=0,y=1,z=2,features=3:5,label=6' as a
    column map. features accepts a half-open range a:b or explicit indices
    a+b+c."""
    cmap = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise argparse.ArgumentTypeError(f"malformed column assignment {part!r}")
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
                raise argparse.ArgumentTypeError(f"unknown column role {key!r}")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"malformed column assignment {part!r}") from exc
    return cmap


def _column_index(text):
    # Python indexing would silently read a negative index from the end
    index = int(text)
    if index < 0:
        raise argparse.ArgumentTypeError(f"negative column index {index}")
    return index


def _columns(args, labeled, path):
    """The --columns map, else the x y z f... [label] layout inferred from
    the first data line."""
    if args.columns:
        return dict(args.columns)
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


def _log_resolved(args):
    printable = {k: v for k, v in sorted(vars(args).items())
                 if v is not None and k != "command"}
    print(f"resolved config [{args.command}]: {json.dumps(printable, default=str)}",
          file=sys.stderr)


def _train_config_from(args, C):
    """The TrainConfig of ``args``; a setting left unset keeps its default."""
    from dataclasses import fields
    from .training import TrainConfig
    values = vars(args)
    kwargs = {f.name: values[f.name] for f in fields(TrainConfig)
              if values.get(f.name) is not None}
    try:
        return TrainConfig(**{**kwargs, "C": C})
    except ValueError as exc:
        raise CliError(f"bad training configuration: {exc}", code=1) from exc


def _load_cloud(path, cmap, C, skip_header):
    from .pointcloud import load_pointcloud
    try:
        return load_pointcloud(path, cmap, C, skip_header=skip_header)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_unlabeled(path, args, ckpt=None):
    """A point file read without its label column, in the feature scale of
    ``ckpt`` when one is given."""
    cmap = _columns(args, labeled=False, path=path)
    cmap.pop("label", None)
    cloud = _load_cloud(path, cmap, 2 if ckpt is None else ckpt.config.C,
                        args.skip_header)
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


def _slicing(args, ckpt=None):
    """(side, shift, min_points) of the slicing grid.

    Each value comes from its flag, else the slicing ``ckpt`` recorded, else
    25 m, side/2 and 64. A side given without a shift shifts by half of it."""
    recorded = None if ckpt is None else ckpt.slicing
    side, shift, min_points = recorded or (25.0, 12.5, 64)
    if args.block is not None:
        side, shift = args.block, args.block / 2.0
    if args.shift is not None:
        shift = args.shift
    if args.min_points is not None:
        min_points = args.min_points
    # the chained comparisons are false for nan as well
    if not 0.0 < side < float("inf"):
        raise CliError(f"block side must be positive and finite, got {side}", code=1)
    if not 0.0 < shift <= side:
        raise CliError(f"shift must be in (0, block side], got {shift}", code=1)
    if min_points < 1:
        raise CliError(f"min_points must be >= 1, got {min_points}", code=1)
    return side, shift, min_points


def _split_labeled(args, config, missing_label, ckpt=None):
    """Load the labeled --input and tile-split it into sliced train and
    validation parts, normalized with ``ckpt``'s scaler when it has one;
    returns (split, slicing)."""
    from .pointcloud import split_and_slice

    cmap = _columns(args, labeled=True, path=args.input)
    if "label" not in cmap:
        raise CliError(missing_label)
    cloud = _load_cloud(args.input, cmap, config.C, args.skip_header)
    if not 0 < args.val_fraction < 1:
        raise CliError(f"val_fraction must be in (0, 1), got {args.val_fraction}",
                       code=1)
    # the chained comparison is false for nan as well
    if not 0.0 < args.tile < float("inf"):
        raise CliError(f"tile must be a positive finite number, got {args.tile}",
                       code=1)
    side, shift, min_points = _slicing(args, ckpt)
    split = split_and_slice(cloud, tile_side=args.tile,
                            fractions=(1.0 - args.val_fraction, args.val_fraction),
                            seed=config.seed,
                            side=side, shift=shift, min_points=min_points,
                            scaler=None if ckpt is None else ckpt.scaler)
    if not split.train_blocks or not split.val_blocks:
        raise CliError("block slicing left an empty train or validation set; "
                       "lower --min-points or use larger partitions")
    return split, (side, shift, min_points)


# subcommand bodies


def _cmd_slice(args):
    from .pointcloud import slice_blocks
    cloud = _load_unlabeled(args.input, args)
    side, shift, min_points = _slicing(args)
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


def _cmd_train(args):
    from .training import train_step1, save_checkpoint
    if args.classes is None:
        raise CliError("train needs --classes", code=1)
    config = _train_config_from(args, args.classes)
    split, slicing = _split_labeled(args, config,
                                    "train needs a label column; add label= to --columns")
    ckpt = train_step1(split.labeled, split.train_blocks, split.val_blocks, config,
                       scaler=split.scaler, slicing=slicing, log_path=args.log)
    save_checkpoint(ckpt, args.out)
    print(f"best validation OA {ckpt.best_val_oa:.4f} at iteration "
          f"{ckpt.iteration}; checkpoint written to {args.out}")
    return 0


def _cmd_labels(args):
    from .pointcloud import slice_blocks, write_labels
    from .training import generate_artificial_labels
    ckpt = _load_ckpt(args.model)
    cloud = _load_unlabeled(args.input, args, ckpt)
    side, shift, min_points = _slicing(args, ckpt)
    blocks = slice_blocks(cloud, side=side, shift=shift, min_points=min_points)
    if not blocks:
        raise CliError("no blocks survived slicing; lower --min-points")
    art = generate_artificial_labels(ckpt, cloud, blocks)
    write_labels(art.dense_labels(), args.out)
    covered = art.point_indices.size
    print(f"wrote {cloud.n_points} labels ({covered} covered, "
          f"{cloud.n_points - covered} outside blocks as -1) to {args.out}")
    return 0


def _cmd_refine(args):
    import numpy as np
    from .pointcloud import read_labels, slice_blocks
    from .training import ArtificialLabelSet, save_checkpoint, train_step2
    ckpt = _load_ckpt(args.model)
    C = ckpt.config.C
    config = _train_config_from(args, C)
    split, slicing = _split_labeled(args, config,
                                    "refine needs a labeled cloud; add label= to "
                                    "--columns", ckpt)

    art_path, lab_path = args.artificial_input, args.artificial_labels
    if art_path is None or lab_path is None:
        raise CliError("refine needs --artificial-input and --artificial-labels",
                       code=1)
    art_cloud = _load_unlabeled(art_path, args, ckpt)
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
                                    point_indices=pi, labels=dense[pi], passes=0)
    refined = train_step2(ckpt, split.labeled, split.train_blocks, artificial,
                          split.val_blocks, config=config, thetas=args.thetas,
                          slicing=slicing, log_path=args.log)
    save_checkpoint(refined, args.out)
    print("bandwidths alpha={} beta={} gamma={}".format(*refined.thetas),
          file=sys.stderr)
    print(f"best validation OA {refined.best_val_oa:.4f}; refined checkpoint "
          f"written to {args.out}")
    return 0


def _cmd_predict(args):
    import numpy as np
    from .pointcloud import slice_blocks, write_labels
    from .training import _SALT_PREDICT, pipeline_vote
    ckpt = _load_ckpt(args.model)
    cloud = _load_unlabeled(args.input, args, ckpt)
    side, shift, min_points = _slicing(args, ckpt)
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


def _cmd_eval(args):
    import numpy as np
    from .metrics import confusion_matrix, format_report, scores
    from .pointcloud import read_labels
    C = args.classes
    if C is None:
        raise CliError("eval needs --classes", code=1)
    try:
        pred = read_labels(args.pred)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read predictions {args.pred}: {exc}") from exc
    cmap = _columns(args, labeled=True, path=args.truth)
    if "label" not in cmap:
        raise CliError("eval needs a label column in the truth file")
    truth = _load_cloud(args.truth, cmap, C, args.skip_header).labels
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
    print(format_report(report, machine=args.machine))
    return 0


def _cmd_synth(args):
    from .pointcloud import generate_synthetic, save_pointcloud
    if not isinstance(args.include_labels, bool):
        raise CliError(f"include_labels must be true or false, "
                       f"got {args.include_labels!r}", code=1)
    try:
        cloud = generate_synthetic(args.preset, N=args.n, C=args.classes,
                                   noise=args.noise, seed=args.seed,
                                   extent=args.extent, band_height=args.band_height)
    except ValueError as exc:
        raise CliError(str(exc), code=1) from exc
    save_pointcloud(cloud, args.out, include_labels=args.include_labels)
    print(f"wrote {cloud.n_points} points ({args.classes} classes) to {args.out}")
    return 0


# argument wiring


def _add_common(p, needs_input=True, needs_out=True):
    if needs_input:
        p.add_argument("--input", required=True, help="point file, one point per line")
    if needs_out:
        p.add_argument("--out", required=True, help="output path")
    p.add_argument("--config", help="JSON configuration file; flags win")
    p.add_argument("--columns", type=_parse_columns,
                   help="column roles, e.g. x=0,y=1,z=2,features=3:5,label=6")
    p.add_argument("--skip-header", dest="skip_header", action="store_true",
                   help="ignore the first line of point files")
    p.add_argument("--threads", type=_thread_count,
                   help="cap math-library threads; 1 for bit-exact runs")


def _add_block_flags(p, recorded=False, min_points=None):
    """``recorded``: the defaults are the slicing the checkpoint recorded;
    ``min_points`` replaces the recorded or built-in --min-points default."""
    source = "the checkpoint's, else " if recorded else ""
    p.add_argument("--block", type=float,
                   help=f"block side in meters (default {source}25)")
    p.add_argument("--shift", type=float,
                   help=f"diagonal offset of the second grid (default {source}side/2; "
                        f"side/2 when --block is given)")
    p.add_argument("--min-points", dest="min_points", type=int, default=min_points,
                   help="drop blocks with fewer members (default "
                        f"{min_points or source + '64'})")


def _add_train_flags(p):
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.2,
                   help="tile fraction held out for validation (default 0.2)")
    p.add_argument("--tile", type=float, default=10.0,
                   help="tile side for the split (default 10)")
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
    p.set_defaults(**dict.fromkeys(_TRAIN_CONFIG_ONLY))


def _build_parsers():
    """The command-line parser and {subcommand: its parser}."""
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
    p.add_argument("--thetas", type=_theta_triple,
                   help="alpha,beta,gamma; omit for the first configured "
                   "candidates, which a search with the stack's initial weights "
                   "always picks")

    p = sub.add_parser("predict", help="label every input point")
    _add_common(p)
    # every point gets a label only if sparse blocks are kept
    _add_block_flags(p, recorded=True, min_points=1)
    p.add_argument("--model", required=True, help="checkpoint to predict with")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="predicted label file")
    p.add_argument("--truth", required=True, help="labeled point file")
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--machine", action="store_true",
                   help="JSON report instead of the text table")
    _add_common(p, needs_input=False, needs_out=False)

    p = sub.add_parser("synth", help="generate a synthetic labeled cloud")
    _add_common(p, needs_input=False)
    p.add_argument("--preset", default="strata", help="strata or clusters (default strata)")
    p.add_argument("--n", type=int, default=20000, help="number of points (default 20000)")
    p.add_argument("--classes", type=int, default=4, help="number of classes (default 4)")
    p.add_argument("--noise", type=float, default=0.15,
                   help="corruption level (default 0.15)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--extent", type=float, default=150.0,
                   help="xy extent in meters (default 150)")
    p.add_argument("--band-height", dest="band_height", type=float, default=8.0,
                   help="strata band height in meters (default 8)")
    # no flag drops the labels; only a config file sets include_labels
    p.set_defaults(include_labels=True)
    return parser, sub.choices


_COMMANDS = {"slice": _cmd_slice, "train": _cmd_train, "labels": _cmd_labels,
             "refine": _cmd_refine, "predict": _cmd_predict, "eval": _cmd_eval,
             "synth": _cmd_synth}


def _parse(argv):
    """Parse argv with the --config file's flag values put before the user's
    own arguments: flags win, and each value passes its flag's own check."""
    parser, subparsers = _build_parsers()
    args = parser.parse_args(argv)
    if args.config:
        file_argv, config_only = _config_argv(args.config, subparsers, args.command)
        args = parser.parse_args([argv[0], *file_argv, *argv[1:]])
        for key, value in config_only.items():
            if hasattr(args, key):
                setattr(args, key, value)
    return args


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    _keep_freed_arrays()
    _apply_threads(argv)
    try:
        try:
            args = _parse(list(argv))
        except SystemExit as exc:
            # argparse uses 2 for usage errors and 0 for --help
            return 0 if exc.code in (0, None) else 1
        _log_resolved(args)
        from .training import NumericError
        try:
            return _COMMANDS[args.command](args)
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError) as exc:
            raise CliError(str(exc)) from exc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
