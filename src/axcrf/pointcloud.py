"""Point cloud loading, block slicing, sampling, and synthetic data.

Clouds are plain-text files, one point per line (whitespace- or
comma-separated). Slicing follows the two-grid scheme: a base grid of
``side`` x ``side`` blocks anchored at the cloud's min x,y plus a second
grid shifted diagonally by ``shift``, so every base-grid edge is interior
to some offset block. ``split_and_slice`` is the data preparation every
training run shares: tile split, train-fit normalization, slicing, and the
train+validation merge.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud", "Block", "SampledBlock", "FeatureScaler",
    "load_pointcloud", "save_pointcloud", "write_labels", "read_labels",
    "normalize_features", "slice_blocks", "sample_block", "block_seed",
    "split_by_tiles", "TileSplit", "split_and_slice", "generate_synthetic",
]


@dataclass
class PointCloud:
    positions: np.ndarray          # N x 3, meters
    features: np.ndarray           # N x F
    labels: np.ndarray | None      # N ints in [0, C), or None
    C: int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        n = self.positions.shape[0]
        self.features = np.asarray(self.features, dtype=np.float64).reshape(n, -1)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions contain non-finite values")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(n)
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.C):
                raise ValueError(f"labels outside [0, {self.C})")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "PointCloud":
        indices = np.asarray(indices)
        return PointCloud(
            positions=self.positions[indices],
            features=self.features[indices],
            labels=None if self.labels is None else self.labels[indices],
            C=self.C,
        )


@dataclass
class Block:
    origin: tuple[float, float]    # min-corner x, y in meters
    side: float
    member_indices: np.ndarray     # into the parent cloud

    @property
    def n_members(self) -> int:
        return self.member_indices.size


@dataclass
class SampledBlock:
    block: Block
    sample_indices: np.ndarray     # n entries into the parent cloud
    seed: int


@dataclass
class FeatureScaler:
    """Per-column affine map v -> v * scale + offset, reusable on test data."""

    scale: np.ndarray
    offset: np.ndarray

    def apply(self, cloud: PointCloud) -> PointCloud:
        if cloud.n_features != self.scale.shape[0]:
            raise ValueError(f"cloud has {cloud.n_features} feature columns, the "
                             f"scaler was fit on {self.scale.shape[0]}")
        feats = cloud.features * self.scale + self.offset
        return PointCloud(cloud.positions, feats, cloud.labels, cloud.C)


def _split_fields(line: str) -> list[str]:
    if "," in line:
        return [f for f in (p.strip() for p in line.split(",")) if f]
    return line.split()


def load_pointcloud(path, column_map: dict, C: int, skip_header: bool = False) -> PointCloud:
    """Parse a plain-text point file, one point per non-empty line.

    ``column_map`` names the column roles, e.g.
    ``{"x": 0, "y": 1, "z": 2, "features": [3, 4], "label": 5}``.
    """
    for role in ("x", "y", "z"):
        if role not in column_map:
            raise ValueError(f"column_map missing required role {role!r}")
    feat_cols = list(column_map.get("features", []))
    label_col = column_map.get("label")
    xyz_cols = [column_map["x"], column_map["y"], column_map["z"]]
    # Python indexing would silently read a negative index from the end
    if any(c < 0 for c in xyz_cols + feat_cols + [label_col or 0]):
        raise ValueError(f"negative column index in column_map {column_map}")

    positions, features, labels = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            fields = _split_fields(line)
            try:
                positions.append([float(fields[c]) for c in xyz_cols])
                features.append([float(fields[c]) for c in feat_cols])
                if label_col is not None:
                    lab = float(fields[label_col])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}") from exc
            if label_col is not None:
                # a label is a class index: 2 and 2.0 are class 2, but 2.7 and
                # inf are no class; the chained comparison is false for nan too
                if not (0 <= lab < C and lab.is_integer()):
                    raise ValueError(f"{path}: line {lineno}: label "
                                     f"{fields[label_col]} is not a class in [0, {C})")
                labels.append(int(lab))

    n = len(positions)
    return PointCloud(
        positions=np.asarray(positions, dtype=np.float64).reshape(n, 3),
        features=np.asarray(features, dtype=np.float64).reshape(n, len(feat_cols)),
        labels=np.asarray(labels, dtype=np.int64) if label_col is not None else None,
        C=C,
    )


def save_pointcloud(cloud: PointCloud, path, include_labels: bool = True) -> None:
    """Write a point file as 'x y z f... [label]' lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(cloud.n_points):
            parts = [f"{v:.10g}" for v in cloud.positions[i]]
            parts += [f"{v:.10g}" for v in cloud.features[i]]
            if include_labels and cloud.labels is not None:
                parts.append(str(int(cloud.labels[i])))
            fh.write(" ".join(parts) + "\n")


def write_labels(labels: np.ndarray, path) -> None:
    """One integer label per line, aligned with input line order."""
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def read_labels(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        vals = [int(line.strip()) for line in fh if line.strip()]
    return np.asarray(vals, dtype=np.int64)


def normalize_features(cloud: PointCloud) -> tuple[PointCloud, FeatureScaler]:
    """Affinely map every feature column to [-0.5, 0.5]; constants map to 0.

    Returns the normalized cloud plus the per-column affine parameters for
    reuse on held-out data.
    """
    if not np.all(np.isfinite(cloud.features)):
        raise ValueError("features contain non-finite values")
    f = cloud.features
    if cloud.n_points == 0:
        scaler = FeatureScaler(np.ones(cloud.n_features), np.zeros(cloud.n_features))
        return cloud, scaler
    lo = f.min(axis=0)
    hi = f.max(axis=0)
    span = hi - lo
    scale = np.where(span > 0, 1.0 / np.where(span > 0, span, 1.0), 0.0)
    offset = np.where(span > 0, -lo * scale - 0.5, 0.0)
    scaler = FeatureScaler(scale, offset)
    return scaler.apply(cloud), scaler


def _grid_blocks(cloud: PointCloud, anchor_x: float, anchor_y: float,
                 side: float, min_points: int) -> list[Block]:
    x, y = cloud.positions[:, 0], cloud.positions[:, 1]
    ix = np.floor((x - anchor_x) / side).astype(np.int64)
    iy = np.floor((y - anchor_y) / side).astype(np.int64)
    blocks = []
    order = np.lexsort((ix, iy))
    cell = np.stack([iy[order], ix[order]], axis=1)
    boundaries = np.flatnonzero(np.any(np.diff(cell, axis=0) != 0, axis=1)) + 1
    for group in np.split(order, boundaries):
        if group.size < min_points:
            continue
        gx, gy = ix[group[0]], iy[group[0]]
        origin = (anchor_x + gx * side, anchor_y + gy * side)
        blocks.append(Block(origin=origin, side=side, member_indices=np.sort(group)))
    return blocks


def slice_blocks(cloud: PointCloud, side: float = 25.0, shift: float = 12.5,
                 min_points: int = 64) -> list[Block]:
    """Cut the cloud into side x side blocks on two overlapping grids.

    The base grid is anchored at the cloud's min x,y; the second grid is
    the same grid translated diagonally by (shift, shift). Blocks with
    fewer than ``min_points`` members are dropped. A point may belong to
    one block per grid.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    if not 0 < shift <= side:
        raise ValueError(f"shift must be in (0, side], got {shift}")
    if cloud.n_points == 0:
        return []
    min_x = float(cloud.positions[:, 0].min())
    min_y = float(cloud.positions[:, 1].min())
    blocks = _grid_blocks(cloud, min_x, min_y, side, min_points)
    blocks += _grid_blocks(cloud, min_x + shift, min_y + shift, side, min_points)
    return blocks


def block_seed(global_seed: int, block: Block, salt: int = 0) -> int:
    """Stable per-block seed from the global seed and the block origin bits.

    Independent of processing order, so parallel slicing/sampling schedules
    cannot change sampled indices.
    """
    ox = struct.unpack("<Q", struct.pack("<d", float(block.origin[0])))[0]
    oy = struct.unpack("<Q", struct.pack("<d", float(block.origin[1])))[0]
    ss = np.random.SeedSequence([int(global_seed), int(salt), ox, oy])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_block(block: Block, n: int = 2048, seed: int = 0) -> SampledBlock:
    """Draw n member points: without replacement when possible, otherwise
    every member plus uniform resampling with replacement up to n."""
    if block.n_members == 0:
        raise ValueError("cannot sample an empty block")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    members = block.member_indices
    if members.size >= n:
        chosen = rng.choice(members, size=n, replace=False)
    else:
        extra = rng.choice(members, size=n - members.size, replace=True)
        chosen = np.concatenate([members, extra])
    return SampledBlock(block=block, sample_indices=chosen, seed=seed)


def split_by_tiles(cloud: PointCloud, tile_side: float = 100.0,
                   fractions: tuple[float, ...] = (0.8, 0.2),
                   seed: int = 0) -> list[PointCloud]:
    """Partition the cloud by tile_side x tile_side tiles (deterministic
    seeded shuffle), guaranteeing partitions share no points.

    Returns one sub-cloud per fraction; fractions must sum to 1.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    # the chained comparison is false for nan as well
    if not 0.0 < tile_side < np.inf:
        raise ValueError(f"tile side must be a positive finite number, got {tile_side}")
    if cloud.n_points == 0:
        raise ValueError("cannot split an empty cloud")
    x, y = cloud.positions[:, 0], cloud.positions[:, 1]
    ix = np.floor((x - x.min()) / tile_side).astype(np.int64)
    iy = np.floor((y - y.min()) / tile_side).astype(np.int64)
    keys = ix * (iy.max() + 1) + iy
    tiles = np.unique(keys)
    if tiles.size < len(fractions):
        raise ValueError(f"only {tiles.size} tiles for {len(fractions)} partitions; "
                         f"use a smaller tile_side or a larger cloud")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(tiles.size)
    cuts = np.round(np.cumsum(fractions) * tiles.size).astype(int)
    parts = []
    start = 0
    for cut in cuts:
        mask = np.isin(keys, tiles[perm[start:cut]])
        parts.append(cloud.subset(np.flatnonzero(mask)))
        start = cut
    return parts


@dataclass
class TileSplit:
    """A labeled cloud prepared for training by ``split_and_slice``."""

    labeled: PointCloud        # the train part followed by the validation part
    n_train: int               # points of the train part at the front of labeled
    train_blocks: list[Block]
    val_blocks: list[Block]    # member indices into labeled
    scaler: FeatureScaler      # given, or fit on the train part; applied to every part
    held_out: list[tuple[PointCloud, list[Block]]]   # parts after the second


def split_and_slice(cloud: PointCloud, tile_side: float,
                    fractions: tuple[float, ...], seed: int, side: float,
                    shift: float, min_points: int,
                    scaler: FeatureScaler | None = None) -> TileSplit:
    """Tile-split the cloud by ``fractions`` (train, validation, then any
    held-out parts), normalize every part with ``scaler``, else with one fit
    on the train part, slice every part, and merge train and validation into
    one labeled cloud whose validation blocks index past the train points."""
    if len(fractions) < 2:
        raise ValueError(f"need train and validation fractions, got {fractions}")
    train, *rest = split_by_tiles(cloud, tile_side=tile_side,
                                  fractions=fractions, seed=seed)
    if scaler is None:
        train, scaler = normalize_features(train)
    else:
        train = scaler.apply(train)
    parts = [train] + [scaler.apply(p) for p in rest]
    blocks = [slice_blocks(p, side=side, shift=shift, min_points=min_points)
              for p in parts]
    val = parts[1]
    labeled = PointCloud(np.vstack([train.positions, val.positions]),
                         np.vstack([train.features, val.features]),
                         None if cloud.labels is None
                         else np.concatenate([train.labels, val.labels]),
                         cloud.C)
    val_blocks = [Block(b.origin, b.side, b.member_indices + train.n_points)
                  for b in blocks[1]]
    return TileSplit(labeled=labeled, n_train=train.n_points, train_blocks=blocks[0],
                     val_blocks=val_blocks, scaler=scaler,
                     held_out=list(zip(parts[2:], blocks[2:])))


def _synth_strata(N: int, C: int, noise: float, rng: np.random.Generator,
                  extent: float, band_height: float) -> PointCloud:
    labels = rng.integers(0, C, size=N)
    x = rng.uniform(0.0, extent, size=N)
    y = rng.uniform(0.0, extent, size=N)
    z = labels * band_height + rng.uniform(0.0, band_height, size=N)
    # height-above-ground analog plus a weakly informative intensity-like
    # channel; the parity channel gets 3x noise so features alone do not
    # trivially separate the classes
    f_height = z + noise * band_height * rng.standard_normal(N)
    f_parity = (labels % 2).astype(np.float64) + 3.0 * noise * rng.standard_normal(N)
    return PointCloud(
        positions=np.stack([x, y, z], axis=1),
        features=np.stack([f_height, f_parity], axis=1),
        labels=labels,
        C=C,
    )


def _synth_clusters(N: int, C: int, noise: float, rng: np.random.Generator,
                    extent: float) -> PointCloud:
    per_axis = max(2, int(np.ceil(np.sqrt(2 * C))))
    centers = []
    for gy in range(per_axis):
        for gx in range(per_axis):
            centers.append((extent * (gx + 0.5) / per_axis, extent * (gy + 0.5) / per_axis))
    centers = np.asarray(centers)
    assign = rng.integers(0, len(centers), size=N)
    labels = assign % C
    sigma = extent / per_axis / 6.0
    xy = centers[assign] + sigma * rng.standard_normal((N, 2))
    z = rng.uniform(0.0, 2.0, size=N)
    ang = 2.0 * np.pi * labels / C
    feats = np.stack([np.cos(ang), np.sin(ang)], axis=1) + noise * rng.standard_normal((N, 2))
    return PointCloud(
        positions=np.concatenate([xy, z[:, None]], axis=1),
        features=feats,
        labels=labels,
        C=C,
    )


def generate_synthetic(preset: str, N: int, C: int, noise: float, seed: int,
                       extent: float = 150.0, band_height: float = 8.0) -> PointCloud:
    """Spatially coherent labeled cloud with class-informative features.

    Presets: "strata" (stacked horizontal bands, height-like feature) and
    "clusters" (interleaved xy clusters, ring-coded features).
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if C < 2:
        raise ValueError(f"C must be >= 2, got {C}")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    rng = np.random.default_rng(seed)
    if preset == "strata":
        return _synth_strata(N, C, noise, rng, extent, band_height)
    if preset == "clusters":
        return _synth_clusters(N, C, noise, rng, extent)
    raise ValueError(f"unknown preset {preset!r}; expected 'strata' or 'clusters'")
