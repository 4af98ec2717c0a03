"""Point file IO, block slicing, sampling, splits, synthetic presets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axcrf.pointcloud import (Block, FeatureScaler, PointCloud, block_seed,
                              generate_synthetic, load_pointcloud,
                              normalize_features, read_labels, sample_block,
                              save_pointcloud, slice_blocks, split_and_slice,
                              split_by_tiles, write_labels)

CMAP = {"x": 0, "y": 1, "z": 2, "features": [3, 4], "label": 5}


def small_cloud(n=50, C=3, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(0, 30, size=(n, 3)),
                      rng.normal(size=(n, 2)),
                      rng.integers(0, C, size=n), C)


# -- file IO ---------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cloud = small_cloud()
    path = tmp_path / "cloud.txt"
    save_pointcloud(cloud, path)
    back = load_pointcloud(path, CMAP, cloud.C)
    np.testing.assert_allclose(back.positions, cloud.positions, rtol=1e-9)
    np.testing.assert_allclose(back.features, cloud.features, rtol=1e-9)
    np.testing.assert_array_equal(back.labels, cloud.labels)


def test_load_comma_separated_and_header(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("x,y,z,f1,f2,label\n1,2,3,0.5,0.25,1\n4,5,6,0.1,0.2,0\n")
    cloud = load_pointcloud(path, CMAP, 2, skip_header=True)
    assert cloud.n_points == 2
    np.testing.assert_array_equal(cloud.labels, [1, 0])


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 0.5 0.5 0\n1 2 three 0.5 0.5 0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_pointcloud(path, CMAP, 2)


def test_load_rejects_label_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 0.5 0.5 7\n")
    with pytest.raises(ValueError, match="label 7"):
        load_pointcloud(path, CMAP, 2)


@pytest.mark.parametrize("role,index", [("x", -1), ("features", [3, -2]), ("label", -1)])
def test_load_rejects_negative_column_index(tmp_path, role, index):
    path = tmp_path / "cloud.txt"
    path.write_text("1 2 3 0.5 0.5 1\n")
    with pytest.raises(ValueError, match="negative column index"):
        load_pointcloud(path, {**CMAP, role: index}, 2)


def test_load_without_label_column(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("1 2 3 0.5 0.5\n4 5 6 0.5 0.5\n")
    cmap = {"x": 0, "y": 1, "z": 2, "features": [3, 4]}
    cloud = load_pointcloud(path, cmap, 4)
    assert cloud.labels is None


def test_label_file_round_trip(tmp_path):
    labels = np.array([0, 3, -1, 2])
    path = tmp_path / "labels.txt"
    write_labels(labels, path)
    np.testing.assert_array_equal(read_labels(path), labels)


# -- normalization ---------------------------------------------------------


def test_normalize_features_range_and_reuse():
    cloud = small_cloud(seed=1)
    normed, scaler = normalize_features(cloud)
    assert normed.features.min() >= -0.5 - 1e-12
    assert normed.features.max() <= 0.5 + 1e-12
    np.testing.assert_allclose(normed.features.max(axis=0), [0.5, 0.5], atol=1e-12)
    again = scaler.apply(cloud)
    np.testing.assert_array_equal(again.features, normed.features)


def test_normalize_constant_column_maps_to_zero():
    cloud = PointCloud(np.zeros((4, 3)), np.full((4, 1), 7.0), None, 2)
    normed, _ = normalize_features(cloud)
    np.testing.assert_array_equal(normed.features, np.zeros((4, 1)))


def test_cloud_rejects_non_finite_features():
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud(np.zeros((2, 3)), np.array([[1.0], [np.inf]]), None, 2)


# -- slicing ---------------------------------------------------------------


def test_slice_blocks_two_grids_and_membership():
    cloud = small_cloud(n=400, seed=2)
    blocks = slice_blocks(cloud, side=10.0, shift=5.0, min_points=1)
    assert blocks, "expected at least one block"
    counts = np.zeros(cloud.n_points, dtype=int)
    for b in blocks:
        members = b.member_indices
        counts[members] += 1
        # each member lies inside the block square in x, y
        pos = cloud.positions[members]
        assert np.all(pos[:, 0] >= b.origin[0] - 1e-9)
        assert np.all(pos[:, 0] <= b.origin[0] + b.side + 1e-9)
        assert np.all(pos[:, 1] >= b.origin[1] - 1e-9)
        assert np.all(pos[:, 1] <= b.origin[1] + b.side + 1e-9)
    # two overlapping grids cover every point twice
    np.testing.assert_array_equal(counts, np.full(cloud.n_points, 2))


def test_slice_blocks_min_points_filter():
    cloud = small_cloud(n=30, seed=3)
    all_blocks = slice_blocks(cloud, side=5.0, shift=2.5, min_points=1)
    big_blocks = slice_blocks(cloud, side=5.0, shift=2.5, min_points=10)
    assert len(big_blocks) <= len(all_blocks)
    assert all(b.n_members >= 10 for b in big_blocks)


def test_slice_blocks_validation():
    cloud = small_cloud()
    with pytest.raises(ValueError):
        slice_blocks(cloud, side=0.0)
    with pytest.raises(ValueError):
        slice_blocks(cloud, side=10.0, shift=11.0)
    # threshold above the cloud size filters every block out
    assert slice_blocks(cloud, side=10.0, shift=5.0,
                        min_points=cloud.n_points + 1) == []


# -- sampling --------------------------------------------------------------


def test_sample_block_without_replacement_when_possible():
    cloud = small_cloud(n=100, seed=5)
    block = slice_blocks(cloud, side=40.0, shift=20.0, min_points=1)[0]
    s = sample_block(block, n=min(10, block.n_members), seed=11)
    assert np.unique(s.sample_indices).size == s.sample_indices.size
    assert set(s.sample_indices) <= set(block.member_indices)


def test_sample_block_with_replacement_covers_all_members():
    members = np.array([4, 9, 17])
    block = Block((0.0, 0.0), 5.0, members)
    s = sample_block(block, n=10, seed=0)
    assert s.sample_indices.size == 10
    assert set(members) <= set(s.sample_indices)


def test_sample_block_deterministic_by_seed():
    members = np.arange(50)
    block = Block((0.0, 0.0), 5.0, members)
    a = sample_block(block, n=20, seed=3).sample_indices
    b = sample_block(block, n=20, seed=3).sample_indices
    c = sample_block(block, n=20, seed=4).sample_indices
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_block_seed_depends_on_origin_and_salt():
    b1 = Block((0.0, 0.0), 5.0, np.array([0]))
    b2 = Block((5.0, 0.0), 5.0, np.array([0]))
    assert block_seed(1, b1) == block_seed(1, b1)
    assert block_seed(1, b1) != block_seed(1, b2)
    assert block_seed(1, b1) != block_seed(2, b1)
    assert block_seed(1, b1, salt=9) != block_seed(1, b1, salt=10)


# -- tile split -------------------------------------------------------------


def test_split_by_tiles_partitions_points():
    cloud = small_cloud(n=500, seed=6)
    parts = split_by_tiles(cloud, tile_side=5.0, fractions=(0.5, 0.3, 0.2), seed=0)
    assert sum(p.n_points for p in parts) == cloud.n_points
    # disjoint: no position appears in two partitions
    seen = set()
    for p in parts:
        for row in p.positions:
            key = tuple(row)
            assert key not in seen
            seen.add(key)


def test_split_by_tiles_deterministic():
    cloud = small_cloud(n=300, seed=7)
    a = split_by_tiles(cloud, tile_side=5.0, fractions=(0.7, 0.3), seed=5)
    b = split_by_tiles(cloud, tile_side=5.0, fractions=(0.7, 0.3), seed=5)
    for p, q in zip(a, b):
        np.testing.assert_array_equal(p.positions, q.positions)


def test_split_by_tiles_validation():
    cloud = small_cloud()
    with pytest.raises(ValueError):
        split_by_tiles(cloud, fractions=(0.5, 0.6))
    with pytest.raises(ValueError):
        split_by_tiles(cloud, tile_side=1e9, fractions=(0.5, 0.3, 0.2))
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tile side"):
            split_by_tiles(cloud, tile_side=bad)


def test_split_and_slice_matches_the_separate_stages():
    cloud = small_cloud(n=500, seed=8)
    split = split_and_slice(cloud, tile_side=5.0, fractions=(0.5, 0.3, 0.2), seed=2,
                            side=10.0, shift=5.0, min_points=4)
    train, val, test = split_by_tiles(cloud, tile_side=5.0, fractions=(0.5, 0.3, 0.2),
                                      seed=2)
    train, scaler = normalize_features(train)
    np.testing.assert_array_equal(split.scaler.scale, scaler.scale)
    assert split.n_train == train.n_points
    labeled = split.labeled
    np.testing.assert_array_equal(labeled.positions[:train.n_points], train.positions)
    np.testing.assert_array_equal(labeled.features[train.n_points:],
                                  scaler.apply(val).features)
    np.testing.assert_array_equal(labeled.labels[train.n_points:], val.labels)
    # validation blocks index the validation points inside the merged cloud
    want = slice_blocks(scaler.apply(val), side=10.0, shift=5.0, min_points=4)
    assert [b.origin for b in split.val_blocks] == [b.origin for b in want]
    for got, ref in zip(split.val_blocks, want):
        np.testing.assert_array_equal(labeled.positions[got.member_indices],
                                      val.positions[ref.member_indices])
    (held, held_blocks), = split.held_out
    np.testing.assert_array_equal(held.features, scaler.apply(test).features)
    assert len(held_blocks) == len(slice_blocks(held, side=10.0, shift=5.0,
                                                min_points=4))
    with pytest.raises(ValueError):
        split_and_slice(cloud, tile_side=5.0, fractions=(1.0,), seed=2,
                        side=10.0, shift=5.0, min_points=4)


# -- synthetic presets -------------------------------------------------------


@pytest.mark.parametrize("preset", ["strata", "clusters"])
def test_synthetic_presets_shape_and_classes(preset):
    cloud = generate_synthetic(preset, N=500, C=3, noise=0.1, seed=1)
    assert cloud.n_points == 500
    assert cloud.C == 3
    assert set(np.unique(cloud.labels)) == {0, 1, 2}
    assert np.all(np.isfinite(cloud.features))


def test_synthetic_deterministic():
    a = generate_synthetic("strata", N=200, C=4, noise=0.2, seed=9)
    b = generate_synthetic("strata", N=200, C=4, noise=0.2, seed=9)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synthetic_strata_labels_follow_height():
    cloud = generate_synthetic("strata", N=2000, C=4, noise=0.0, seed=2)
    # zero noise: z orders the classes into clean bands
    z = cloud.positions[:, 2]
    for c in range(3):
        assert z[cloud.labels == c].max() <= z[cloud.labels == c + 1].min() + 1e-9


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic("spirals", N=10, C=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("strata", N=0, C=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("strata", N=10, C=1, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("strata", N=10, C=2, noise=1.5, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 0.5), st.integers(0, 2**31 - 1))
def test_synthetic_strata_property(C, noise, seed):
    cloud = generate_synthetic("strata", N=300, C=C, noise=noise, seed=seed)
    assert cloud.labels.min() >= 0 and cloud.labels.max() < C
    assert cloud.positions.shape == (300, 3)
