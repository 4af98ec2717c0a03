"""Point classifier blocks against a plain numpy re-derivation."""

import math

import numpy as np
import pytest

from axcrf.autograd import Tape, backward
from axcrf.model import (MlpParams, UnaryModelParams, XConvParams,
                         cross_entropy, cross_entropy_graph, init_mlp,
                         init_unary_model, init_xconv, named_param_arrays,
                         unary_forward, unary_graph)
from axcrf.neighbors import build_index, atrous_gather_all
from refimpl import DUPLICATE_CLOUDS, xconv_forward


def np_mlp(x, p):
    h = np.maximum(x @ p.w1 + p.b1, 0.0)
    return h @ p.w2 + p.b2


def np_xconv(p, P, F, params):
    """Block re-derived step by step from plain matrix algebra."""
    P_o = (P - p) / params.offset_scale
    F_delta = np_mlp(P_o, params.lift)                      # K x C_delta
    F_star = np.concatenate([F_delta, F], axis=1)           # K x (C_delta + C_in)
    X = np_mlp(P_o.reshape(1, -1), params.xform).reshape(params.K, params.K)
    F_X = X @ F_star
    out = F_X.reshape(-1) @ params.conv_kernel + params.conv_bias
    return np.maximum(out, 0.0)


# -- single-block operator ------------------------------------------------------


def test_xconv_shape_trace():
    rng = np.random.default_rng(0)
    params = init_xconv(rng, K=8, C_in=2, C_out=5, C_delta=4, hidden=6)
    # internal widths forced by the concatenation: lifted 4 + input 2 = 6
    P_o = rng.normal(size=(8, 3))
    F_delta = np_mlp(P_o, params.lift)
    assert F_delta.shape == (8, 4)
    F_star = np.concatenate([F_delta, rng.normal(size=(8, 2))], axis=1)
    assert F_star.shape == (8, 6)
    X = np_mlp(P_o.reshape(1, -1), params.xform).reshape(8, 8)
    assert X.shape == (8, 8)
    assert (X @ F_star).shape == (8, 6)
    assert params.conv_kernel.shape == (48, 5)
    out = xconv_forward(np.zeros(3), P_o, rng.normal(size=(8, 2)), params)
    assert out.shape == (5,)


def test_xconv_matches_numpy_reference():
    rng = np.random.default_rng(1)
    for _ in range(10):
        K = int(rng.integers(2, 9))
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 6))
        params = init_xconv(rng, K=K, C_in=ci, C_out=co, C_delta=3, hidden=5,
                            offset_scale=float(rng.uniform(0.5, 4.0)))
        p = rng.normal(size=3)
        P = rng.normal(size=(K, 3))
        F = rng.normal(size=(K, ci))
        got = xconv_forward(p, P, F, params)
        np.testing.assert_allclose(got, np_xconv(p, P, F, params), atol=1e-12, rtol=0)


def test_xconv_coincident_neighbor_contributes_zero_offset_row():
    rng = np.random.default_rng(2)
    params = init_xconv(rng, K=3, C_in=1, C_out=2, C_delta=2, hidden=4)
    p = np.array([1.0, -2.0, 0.5])
    P = np.vstack([p, p + [1, 0, 0], p + [0, 1, 0]])
    np.testing.assert_array_equal(((P - p) / params.offset_scale)[0], np.zeros(3))
    out = xconv_forward(p, P, np.ones((3, 1)), params)
    assert out.shape == (2,) and np.all(np.isfinite(out))


def test_xconv_validation():
    rng = np.random.default_rng(3)
    params = init_xconv(rng, K=4, C_in=2, C_out=3)
    with pytest.raises(ValueError):
        xconv_forward(np.zeros(3), np.zeros((5, 3)), np.zeros((4, 2)), params)
    with pytest.raises(ValueError):
        xconv_forward(np.zeros(3), np.zeros((4, 3)), np.zeros((4, 3)), params)
    with pytest.raises(ValueError):
        XConvParams(init_mlp(rng, 4, 4, 2), params.xform, params.conv_kernel,
                    params.conv_bias, 4, 2)
    with pytest.raises(ValueError):
        init_xconv(rng, K=0, C_in=2, C_out=3)


# -- full model forward -----------------------------------------------------------


def tiny_model(seed=0, C=3, C_in=2, K=4):
    return init_unary_model(seed, C=C, C_in=C_in, K=K, block_channels=(6, 6),
                            block_strides=(1, 2), C_delta=3, hidden=5,
                            dropout_rate=0.3, offset_scale=2.0)


def scatter(rng, n=20):
    return rng.uniform(0, 4, size=(n, 3)), rng.normal(size=(n, 2))


def test_unary_forward_matches_blockwise_reference():
    rng = np.random.default_rng(4)
    model = tiny_model()
    pos, feat = scatter(rng)
    index = build_index(pos)
    got = unary_forward(pos, feat, model)

    f = feat
    for block in model.blocks:
        nbr, _ = atrous_gather_all(index, block.K, block.D)
        nxt = np.zeros((pos.shape[0], block.C_out))
        for i in range(pos.shape[0]):
            nxt[i] = np_xconv(pos[i], pos[nbr[i]], f[nbr[i]], block)
        f = nxt
    want = np_mlp(f, model.head)
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_unary_forward_reads_a_deeper_shared_sort(cloud):
    # the refinement stack's rank-192 sort, handed to the classifier
    rng = np.random.default_rng(6)
    pos = cloud(rng)
    feat = rng.normal(size=(pos.shape[0], 2))
    model = tiny_model(K=12)
    index = build_index(pos)
    deep_i, _ = index.nearest_others_all(192)
    np.testing.assert_array_equal(
        unary_forward(pos, feat, model, index=index, sorted_idx=deep_i),
        unary_forward(pos, feat, model, index=index))


def test_translation_invariance():
    rng = np.random.default_rng(5)
    model = tiny_model()
    pos, feat = scatter(rng)
    base = unary_forward(pos, feat, model)
    moved = unary_forward(pos + np.array([123.0, -40.0, 7.5]), feat, model)
    np.testing.assert_allclose(moved, base, atol=1e-9, rtol=0)


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    model = tiny_model()
    pos, feat = scatter(rng)
    perm = rng.permutation(pos.shape[0])
    base = unary_forward(pos, feat, model)
    shuffled = unary_forward(pos[perm], feat[perm], model)
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-9, rtol=0)


def test_eval_mode_ignores_dropout_and_is_deterministic():
    rng = np.random.default_rng(7)
    model = tiny_model()
    pos, feat = scatter(rng)
    a = unary_forward(pos, feat, model)
    b = unary_forward(pos, feat, model)
    np.testing.assert_array_equal(a, b)
    zero_rate = model.copy()
    zero_rate.dropout_rate = 0.0
    np.testing.assert_array_equal(unary_forward(pos, feat, zero_rate,
                                                training=True), a)


def test_training_mode_dropout_seeded():
    rng = np.random.default_rng(8)
    model = tiny_model()
    pos, feat = scatter(rng)
    a = unary_forward(pos, feat, model, training=True,
                      dropout_rng=np.random.default_rng(3))
    b = unary_forward(pos, feat, model, training=True,
                      dropout_rng=np.random.default_rng(3))
    c = unary_forward(pos, feat, model, training=True,
                      dropout_rng=np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        unary_forward(pos, feat, model, training=True)


def test_model_validation():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        init_unary_model(0, C=3, C_in=2, block_channels=(8,), block_strides=(1, 2))
    with pytest.raises(ValueError):
        UnaryModelParams(blocks=[], head=init_mlp(rng, 4, 4, 3), dropout_rate=0.0, C=3)
    with pytest.raises(ValueError):
        UnaryModelParams(blocks=[init_xconv(rng, 4, 2, 6)],
                         head=init_mlp(rng, 6, 4, 3), dropout_rate=1.0, C=3)
    with pytest.raises(ValueError):
        UnaryModelParams(blocks=[init_xconv(rng, 4, 2, 6)],
                         head=init_mlp(rng, 6, 4, 2), dropout_rate=0.0, C=3)
    model = tiny_model()
    pos, feat = scatter(np.random.default_rng(10))
    with pytest.raises(ValueError):
        unary_forward(pos, feat[:, :1], model)


def test_named_param_arrays_cover_bindings_with_live_views():
    model = tiny_model()
    arrays = named_param_arrays(model)
    pos, feat = scatter(np.random.default_rng(11))
    tape = Tape()
    _, bindings = unary_graph(tape, pos, feat, model)
    assert set(arrays) == set(bindings)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(np.asarray(bindings[name].values).reshape(arr.shape), arr)
    # views are live: in-place edits reach the model
    arrays["unary.head.b2"] += 1.0
    assert model.head.b2[0] == arrays["unary.head.b2"][0]


# -- cross-entropy -----------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    for C in (2, 3, 7):
        U = np.zeros((5, C))
        labels = np.arange(5) % C
        assert cross_entropy(U, labels) == pytest.approx(math.log(C), abs=1e-12)


def test_cross_entropy_saturated_is_tiny():
    U = np.zeros((4, 3))
    labels = np.array([0, 1, 2, 1])
    U[np.arange(4), labels] = 20.0
    assert 0.0 <= cross_entropy(U, labels) < 1e-8


def test_cross_entropy_hand_value():
    assert cross_entropy(np.array([[1.0, 0.0]]), [0]) == pytest.approx(
        math.log(1 + math.exp(-1)), abs=1e-12)


def test_cross_entropy_stays_finite_at_extreme_logits():
    U = np.array([[2000.0, 0.0], [-2000.0, 0.0]])
    loss = cross_entropy(U, [1, 0])
    assert math.isfinite(loss)
    assert loss == pytest.approx(2000.0, abs=1e-9)


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [0, 3])
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [0])


def test_cross_entropy_nonnegative_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        U = rng.normal(scale=3.0, size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        assert cross_entropy(U, labels) >= 0.0


# -- end-to-end gradients -------------------------------------------------------------


def test_model_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    model = tiny_model(seed=21)
    pos, feat = scatter(rng, n=12)
    labels = rng.integers(0, 3, size=12)
    arrays = named_param_arrays(model)
    # zero-initialized biases put dead-unit preactivations exactly on the
    # relu kink, where central differences measure the averaged slope; nudge
    # every bias so the comparison point is generic
    for name, arr in arrays.items():
        if name.endswith(("b1", "b2", "conv_bias")):
            arr += rng.uniform(0.01, 0.05, size=arr.shape)

    def loss_value():
        return cross_entropy(unary_forward(pos, feat, model), labels)

    tape = Tape()
    logits, bindings = unary_graph(tape, pos, feat, model)
    loss = cross_entropy_graph(tape, logits, labels)
    grads = backward(tape, loss)

    h = 1e-6
    checked = 0
    for name in ("unary.block0.lift.w1", "unary.block1.xform.w2",
                 "unary.block0.conv_kernel", "unary.head.w2", "unary.head.b1"):
        arr = arrays[name]
        g = np.asarray(grads[bindings[name].node_id]).reshape(arr.shape)
        flat = arr.reshape(-1)
        for k in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            down = loss_value()
            flat[k] = orig
            fd = (up - down) / (2 * h)
            assert abs(g.reshape(-1)[k] - fd) <= 1e-3 * max(1.0, abs(fd)), name
            checked += 1
    assert checked >= 20
