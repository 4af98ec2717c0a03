"""Exact-neighbor tests against a brute-force oracle, ties included."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axcrf.neighbors import (AtrousNeighborhood, NeighborIndex, atrous_gather,
                             atrous_gather_all, build_index)
from refimpl import DUPLICATE_CLOUDS, brute_atrous, brute_sorted_others


def random_cloud(rng, m, duplicates=False):
    if duplicates:
        # integer lattice maximizes exact distance ties and repeated points
        return rng.integers(0, 4, size=(m, 3)).astype(float)
    return rng.normal(size=(m, 3))


# -- k-nearest with tie discipline ----------------------------------------


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("m,k", [(2, 1), (10, 3), (50, 8), (64, 63), (40, 100)])
def test_nearest_others_matches_brute_force(m, k, duplicates):
    rng = np.random.default_rng(m * 1000 + k + duplicates)
    pos = random_cloud(rng, m, duplicates)
    index = build_index(pos)
    for q in range(0, m, max(1, m // 7)):
        got_i, got_d = index.nearest_others(q, k)
        exp_i, exp_d = brute_sorted_others(pos, q)
        take = min(k, m - 1)
        np.testing.assert_array_equal(got_i, exp_i[:take])
        np.testing.assert_allclose(got_d, exp_d[:take], rtol=0, atol=1e-12)


def test_nearest_others_all_matches_per_query():
    rng = np.random.default_rng(7)
    pos = random_cloud(rng, 80, duplicates=True)
    index = build_index(pos)
    all_i, all_d = index.nearest_others_all(12)
    for q in range(80):
        one_i, one_d = index.nearest_others(q, 12)
        np.testing.assert_array_equal(all_i[q], one_i)
        np.testing.assert_allclose(all_d[q], one_d, atol=1e-12)


def test_duplicate_points_never_return_query_itself():
    pos = np.zeros((6, 3))  # all points identical
    index = build_index(pos)
    for q in range(6):
        got_i, got_d = index.nearest_others(q, 5)
        assert q not in got_i
        np.testing.assert_array_equal(got_d, np.zeros(5))
        # ties to the lower index: ascending, query skipped
        np.testing.assert_array_equal(got_i, [i for i in range(6) if i != q])


def test_single_point_has_empty_neighbor_rows():
    index = build_index(np.zeros((1, 3)))
    all_i, all_d = index.nearest_others_all(24)
    assert all_i.shape == all_d.shape == (1, 0)
    one_i, one_d = index.nearest_others(0, 3)
    assert one_i.shape == one_d.shape == (0,)


def test_overflowing_distances_never_return_query_itself():
    # finite coordinates whose squared distances overflow to +inf; at every
    # rank past a row's finite distances the cutoff itself is +inf
    pos = np.array([[0.0, 0, 0], [1e200, 0, 0], [-1e200, 0, 0], [3e200, 0, 0]])
    m = pos.shape[0]
    index = build_index(pos)
    with np.errstate(over="ignore"):
        for k in list(range(1, m)) + [m + 5]:
            got_i, got_d = index.nearest_others_all(k)
            take = min(k, m - 1)
            assert got_i.shape == (m, take)
            for q in range(m):
                exp_i, exp_d = brute_sorted_others(pos, q)
                np.testing.assert_array_equal(got_i[q], exp_i[:take])
                np.testing.assert_array_equal(got_d[q], exp_d[:take])
                one_i, one_d = index.nearest_others(q, k)
                np.testing.assert_array_equal(one_i, exp_i[:take])
                np.testing.assert_array_equal(one_d, exp_d[:take])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_nearest_others_property(m, k, duplicates, seed):
    rng = np.random.default_rng(seed)
    pos = random_cloud(rng, m, duplicates)
    index = build_index(pos)
    q = int(rng.integers(m))
    got_i, got_d = index.nearest_others(q, k)
    exp_i, exp_d = brute_sorted_others(pos, q)
    take = min(k, m - 1)
    np.testing.assert_array_equal(got_i, exp_i[:take])
    np.testing.assert_allclose(got_d, exp_d[:take], atol=1e-12)


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_nearest_others_all_duplicate_regime_bit_equal(cloud):
    pos = cloud(np.random.default_rng(11))
    m = pos.shape[0]
    index = build_index(pos)
    got = {rank: index.nearest_others_all(rank) for rank in (24, 192, m - 1)}
    for q in range(m):
        exp_i, exp_d = brute_sorted_others(pos, q)
        for rank, (got_i, got_d) in got.items():
            assert got_i.shape == got_d.shape == (m, rank)
            np.testing.assert_array_equal(got_i[q], exp_i[:rank])
            np.testing.assert_array_equal(got_d[q], exp_d[:rank])


@pytest.mark.parametrize("rank", [24, 192])
def test_nearest_others_all_distinct_block_bit_equal(rank):
    # the unique-blocks shape: 512 distinct samples of one 16 m block
    pos = np.random.default_rng(13).uniform(0, 16, size=(512, 3))
    got_i, got_d = build_index(pos).nearest_others_all(rank)
    assert got_i.shape == got_d.shape == (512, rank)
    for q in range(512):
        exp_i, exp_d = brute_sorted_others(pos, q)
        np.testing.assert_array_equal(got_i[q], exp_i[:rank])
        np.testing.assert_array_equal(got_d[q], exp_d[:rank])


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_single_query_is_row_of_all_query_at_crf_rank(cloud):
    pos = cloud(np.random.default_rng(14))
    index = build_index(pos)
    all_i, all_d = index.nearest_others_all(192)
    for q in range(pos.shape[0]):
        one_i, one_d = index.nearest_others(q, 192)
        np.testing.assert_array_equal(one_i, all_i[q])
        np.testing.assert_array_equal(one_d, all_d[q])


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_shallow_query_is_prefix_of_deep_query(cloud):
    # consumers of one sample share a single deep sort and read its leading
    # columns, so those must equal a shallower query bit for bit
    pos = cloud(np.random.default_rng(12))
    m = pos.shape[0]
    index = build_index(pos)
    deep_i, deep_d = index.nearest_others_all(192)
    for k in (1, 24, 191, m - 1):
        got_i, got_d = index.nearest_others_all(k)
        n = min(k, deep_i.shape[1])
        np.testing.assert_array_equal(got_i[:, :n], deep_i[:, :n])
        np.testing.assert_array_equal(got_d[:, :n], deep_d[:, :n])


# -- atrous selection ------------------------------------------------------


@pytest.mark.parametrize("m,K,D", [(100, 4, 1), (100, 4, 3), (30, 8, 8),
                                   (5, 6, 2), (2, 3, 4)])
def test_atrous_gather_matches_reference(m, K, D):
    rng = np.random.default_rng(m + K * 10 + D)
    pos = random_cloud(rng, m, duplicates=(m % 2 == 0))
    index = build_index(pos)
    for q in range(0, m, max(1, m // 5)):
        got = atrous_gather(index, q, K, D)
        exp_i, exp_d = brute_atrous(pos, q, K, D)
        assert isinstance(got, AtrousNeighborhood)
        assert got.query == q and got.K == K and got.D == D
        np.testing.assert_array_equal(got.indices, exp_i)
        np.testing.assert_allclose(got.distances, exp_d, atol=1e-12)


def test_atrous_gather_all_matches_single_queries():
    rng = np.random.default_rng(3)
    pos = random_cloud(rng, 60, duplicates=True)
    index = build_index(pos)
    for K, D in [(4, 1), (3, 5), (8, 2)]:
        all_i, all_d = atrous_gather_all(index, K, D)
        for q in range(60):
            one = atrous_gather(index, q, K, D)
            np.testing.assert_array_equal(all_i[q], one.indices)
            np.testing.assert_allclose(all_d[q], one.distances, atol=1e-12)


def test_atrous_gather_all_accepts_shared_sorted_lists():
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(50, 3))
    index = build_index(pos)
    sorted_i, sorted_d = index.nearest_others_all(24)
    for D in (1, 2, 3):
        shared_i, shared_d = atrous_gather_all(index, 8, D, sorted_i, sorted_d)
        fresh_i, fresh_d = atrous_gather_all(index, 8, D)
        np.testing.assert_array_equal(shared_i, fresh_i)
        np.testing.assert_array_equal(shared_d, fresh_d)


def test_atrous_gather_all_reads_indices_alone():
    # the consumers read indices only; at D=8, K*D=64 tiles the 49 others
    rng = np.random.default_rng(5)
    index = build_index(rng.normal(size=(50, 3)))
    sorted_i, _ = index.nearest_others_all(49)
    for D in (1, 3, 8):
        shared_i, shared_d = atrous_gather_all(index, 8, D, sorted_i)
        assert shared_d is None
        np.testing.assert_array_equal(shared_i, atrous_gather_all(index, 8, D)[0])


@pytest.mark.parametrize("m", [256, 40])
def test_atrous_gather_all_bit_equal_to_index_array_selection(m):
    # every stride of the default D_list at K=12 on a resampled block; at 40
    # points the lists of the wider strides are shorter than K*D and tile
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(100, 3))[rng.integers(0, 100, size=256)][:m]
    index = build_index(pos)
    K = 12
    for D in (1, 2, 3, 4, 8, 16):
        need = K * D
        sorted_i, sorted_d = index.nearest_others_all(need)
        reps = -(-need // sorted_i.shape[1])
        sel = np.arange(D - 1, need, D)
        want_i = np.tile(sorted_i, (1, reps))[:, :need][:, sel]
        want_d = np.tile(sorted_d, (1, reps))[:, :need][:, sel]
        got_i, got_d = atrous_gather_all(index, K, D)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d, want_d)


def test_widest_stride_selects_rank_of_product():
    # the last selected neighbor at K=8, D=4 is exactly the 32nd nearest
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(64, 3))
    index = build_index(pos)
    got = atrous_gather(index, 0, 8, 4)
    exp_i, _ = brute_sorted_others(pos, 0)
    assert got.indices[-1] == exp_i[31]


def test_stride_one_is_plain_knn():
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(40, 3))
    index = build_index(pos)
    got = atrous_gather(index, 3, 10, 1)
    exp_i, exp_d = brute_sorted_others(pos, 3)
    np.testing.assert_array_equal(got.indices, exp_i[:10])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 8), st.integers(1, 6),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_atrous_property(m, K, D, duplicates, seed):
    rng = np.random.default_rng(seed)
    pos = random_cloud(rng, m, duplicates)
    index = build_index(pos)
    q = int(rng.integers(m))
    got = atrous_gather(index, q, K, D)
    exp_i, exp_d = brute_atrous(pos, q, K, D)
    np.testing.assert_array_equal(got.indices, exp_i)
    np.testing.assert_allclose(got.distances, exp_d, atol=1e-12)
    assert got.indices.shape == (K,)
    assert q not in got.indices or m == 1


# -- validation ------------------------------------------------------------


def test_build_index_rejects_bad_input():
    with pytest.raises(ValueError):
        build_index(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        build_index(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        build_index(np.array([[0.0, 0.0, np.nan]]))


def test_query_bounds_and_k_validation():
    index = build_index(np.random.default_rng(0).normal(size=(5, 3)))
    with pytest.raises(ValueError):
        index.nearest_others(5, 2)
    with pytest.raises(ValueError):
        index.nearest_others(0, 0)
    with pytest.raises(ValueError):
        atrous_gather(index, 0, 0, 1)
    with pytest.raises(ValueError):
        atrous_gather(index, 0, 1, 0)
