"""Unit tests for the tape-based reverse-mode engine."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axcrf import autograd
from axcrf.autograd import OP_KINDS, Tape, Tensor, apply, backward, grad_check
from axcrf.crf import AXcrfParams, axcrf_forward, axcrf_graph
from axcrf.model import cross_entropy_graph, init_unary_model, unary_forward, unary_graph
from axcrf.neighbors import build_index
import axcrf.model
from refimpl import DUPLICATE_CLOUDS, chain_apply, full_map_backward

RNG = np.random.default_rng


def scalar_of(tensor):
    return apply(tensor.tape, "sum", [tensor])


# -- forward values ------------------------------------------------------


def test_leaf_holds_float64_copy():
    tape = Tape()
    x = tape.leaf([[1, 2], [3, 4]])
    assert x.values.dtype == np.float64
    assert x.shape == (2, 2)


def test_arithmetic_matches_numpy():
    tape = Tape()
    a = RNG(0).normal(size=(3, 4))
    b = RNG(1).normal(size=(3, 4))
    ta, tb = tape.leaf(a), tape.leaf(b)
    np.testing.assert_array_equal((ta + tb).values, a + b)
    np.testing.assert_array_equal((ta - tb).values, a - b)
    np.testing.assert_array_equal((ta * tb).values, a * b)
    np.testing.assert_array_equal(ta.exp().values, np.exp(a))
    np.testing.assert_array_equal(ta.relu().values, np.maximum(a, 0.0))


def test_matmul_and_reshape():
    tape = Tape()
    a = RNG(2).normal(size=(3, 4))
    b = RNG(3).normal(size=(4, 2))
    out = tape.leaf(a).matmul(tape.leaf(b))
    np.testing.assert_allclose(out.values, a @ b, rtol=0, atol=0)
    np.testing.assert_array_equal(out.reshape((2, 3)).values, (a @ b).reshape(2, 3))


def test_affine_is_matmul_plus_bias_with_optional_relu():
    rng = RNG(20)
    x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    tape = Tape()
    xt, wt, bt = tape.leaf(x), tape.leaf(w), tape.leaf(b)
    np.testing.assert_array_equal(apply(tape, "affine", [xt, wt, bt]).values, x @ w + b)
    np.testing.assert_array_equal(apply(tape, "affine", [xt, wt, bt], relu=True).values,
                                  np.maximum(x @ w + b, 0.0))
    for bad, msg in (([tape.leaf(x[0]), wt, bt], "expected 2-D"),
                     ([xt, tape.leaf(w[:3]), bt], "inner dimensions differ"),
                     ([xt, wt, tape.leaf(b[:2])], "bias shape")):
        with pytest.raises(ValueError, match=msg):
            apply(tape, "affine", bad)


@pytest.mark.parametrize("cloud", ["distinct", "resampled"])
def test_affine_layers_bit_equal_to_matmul_add_relu_chain(cloud, monkeypatch):
    # 512 distinct points, or 256 rows drawn from 100 as in a recipe block
    rng = RNG(21)
    if cloud == "distinct":
        positions = rng.uniform(0.0, 16.0, size=(512, 3))
    else:
        positions = DUPLICATE_CLOUDS[cloud](rng)
    features = rng.normal(size=(len(positions), 2))
    labels = rng.integers(0, 4, size=len(positions))
    model = init_unary_model(3, C=4, C_in=2, K=12, block_channels=(24, 24),
                             block_strides=(1, 2), C_delta=12, hidden=24,
                             dropout_rate=0.3, offset_scale=4.0)

    def run():
        tape = Tape()
        logits, _ = unary_graph(tape, positions, features, model, training=True,
                                dropout_rng=RNG(22))
        loss = cross_entropy_graph(tape, logits, labels)
        records = len(tape._ops)
        grads = backward(tape, loss)
        # leaves are made in the same order on both tapes
        return (records, logits.values.tobytes(),
                [grads[i].tobytes() for i in sorted(grads)])

    fused_records, fused_logits, fused_grads = run()
    with monkeypatch.context() as m:
        m.setattr(axcrf.model, "apply", chain_apply)
        chain_records, chain_logits, chain_grads = run()
    assert fused_records < chain_records
    assert fused_logits == chain_logits
    assert len(fused_grads) == len(chain_grads) > 20
    assert fused_grads == chain_grads


def test_batched_matmul_matches_einsum():
    a = RNG(4).normal(size=(5, 3, 3))
    b = RNG(5).normal(size=(5, 3, 2))
    tape = Tape()
    out = tape.leaf(a).bmm(tape.leaf(b))
    np.testing.assert_allclose(out.values, np.einsum("bij,bjk->bik", a, b),
                               rtol=1e-15, atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    a = RNG(6).normal(size=(7, 5)) * 10
    tape = Tape()
    s = tape.leaf(a).softmax_rows()
    np.testing.assert_allclose(s.values.sum(axis=1), np.ones(7), atol=1e-12)
    s2 = tape.leaf(a + 123.0).softmax_rows()
    np.testing.assert_allclose(s.values, s2.values, atol=1e-12)


def test_log_softmax_is_log_of_softmax_and_stays_finite():
    a = RNG(7).normal(size=(4, 3))
    tape = Tape()
    ls = tape.leaf(a).log_softmax_rows()
    s = tape.leaf(a).softmax_rows()
    np.testing.assert_allclose(ls.values, np.log(s.values), atol=1e-12)
    extreme = tape.leaf([[0.0, 2000.0], [0.0, -2000.0]]).log_softmax_rows()
    assert np.all(np.isfinite(extreme.values))


def test_gather_rows_and_weighted_gather_sum():
    a = RNG(8).normal(size=(6, 3))
    idx = np.array([5, 0, 0, 2])
    tape = Tape()
    g = tape.leaf(a).gather_rows(idx)
    np.testing.assert_array_equal(g.values, a[idx])

    w = RNG(9).normal(size=(4, 2))
    nbr = np.array([[0, 1], [2, 3], [3, 3], [1, 0]])
    out = apply(tape, "weighted-gather-sum", [tape.leaf(a[:4]), tape.leaf(w)],
                indices=nbr)
    expect = np.zeros((4, 3))
    for i in range(4):
        for j in range(2):
            expect[i] += w[i, j] * a[nbr[i, j]]
    np.testing.assert_allclose(out.values, expect, atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_gathers_bit_equal_to_fancy_indexing(width):
    # 256 indices drawn with replacement from 100 rows, as in a resampled block
    rng = RNG(11)
    a = rng.normal(size=(100, width))
    tape = Tape()
    idx = rng.integers(0, 100, size=256)
    np.testing.assert_array_equal(tape.leaf(a).gather_rows(idx).values, a[idx])
    nbr = rng.integers(0, 100, size=(256, 12))
    w = rng.normal(size=(256, 12))
    out = apply(tape, "weighted-gather-sum", [tape.leaf(a), tape.leaf(w)], indices=nbr)
    np.testing.assert_array_equal(out.values, np.einsum("nk,nkc->nc", w, a[nbr]))


def test_scatter_backward_bit_equal_to_add_at_on_duplicates():
    # 256 x 12 neighbor indices drawn from 100 rows, as in a resampled block
    rng = RNG(10)
    idx = rng.integers(0, 100, size=(256, 12))
    x = rng.normal(size=(100, 4))
    w = rng.normal(size=(256, 12))
    g_rows = rng.normal(size=(idx.size, 4))
    g_out = rng.normal(size=(256, 4))

    tape = Tape()
    x_t = tape.leaf(x)
    gathered = x_t.gather_rows(idx.ravel())
    backward(tape, apply(tape, "sum", [gathered * tape.leaf(g_rows)]))
    expect = np.zeros_like(x)
    np.add.at(expect, idx.ravel(), g_rows)
    np.testing.assert_array_equal(x_t.grad, expect)

    tape = Tape()
    x_t = tape.leaf(x)
    out = apply(tape, "weighted-gather-sum", [x_t, tape.leaf(w)], indices=idx)
    backward(tape, apply(tape, "sum", [out * tape.leaf(g_out)]))
    expect = np.zeros_like(x)
    np.add.at(expect, idx, w[:, :, None] * g_out[:, None, :])
    np.testing.assert_array_equal(x_t.grad, expect)


def test_one_hot_argmax_values_and_zero_gradient():
    a = np.array([[0.2, 0.7, 0.1], [0.5, 0.5, 0.0]])
    tape = Tape()
    x = tape.leaf(a)
    oh = apply(tape, "one-hot-argmax", [x])
    # ties go to the lower class index
    np.testing.assert_array_equal(oh.values, [[0, 1, 0], [1, 0, 0]])
    loss = scalar_of(oh * tape.leaf(RNG(0).normal(size=a.shape)))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.zeros_like(a))


def test_stop_gradient_blocks_flow():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    loss = scalar_of(x.stop_gradient() * x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [1.0, 2.0])  # only the live branch


def test_dropout_mask_is_inverted_and_seeded():
    a = np.ones((100, 8))
    rate = 0.4
    t1, t2 = Tape(), Tape()
    d1 = apply(t1, "dropout-mask", [t1.leaf(a)], rate=rate,
               rng=np.random.default_rng(42))
    d2 = apply(t2, "dropout-mask", [t2.leaf(a)], rate=rate,
               rng=np.random.default_rng(42))
    np.testing.assert_array_equal(d1.values, d2.values)
    kept = d1.values != 0
    np.testing.assert_allclose(d1.values[kept], 1.0 / (1.0 - rate), atol=1e-12)
    assert 0.3 < kept.mean() < 0.9


def test_concatenate_axis():
    a = RNG(10).normal(size=(2, 3))
    b = RNG(11).normal(size=(2, 2))
    tape = Tape()
    out = apply(tape, "concatenate", [tape.leaf(a), tape.leaf(b)], axis=1)
    np.testing.assert_array_equal(out.values, np.concatenate([a, b], axis=1))


# -- gradients -----------------------------------------------------------


@pytest.mark.parametrize("fn,shape", [
    (lambda x: scalar_of(x + x * 2.0), (3, 4)),
    (lambda x: scalar_of(x - x.relu()), (5,)),
    (lambda x: scalar_of((x * x).exp()), (2, 3)),
    (lambda x: scalar_of((x * x + 1.0).log()), (4,)),
    (lambda x: scalar_of(x.softmax_rows()), (3, 5)),
    (lambda x: scalar_of(x.log_softmax_rows() * x.tape.leaf(np.arange(15.0).reshape(3, 5))), (3, 5)),
    (lambda x: scalar_of(x.matmul(x.tape.leaf(np.arange(12.0).reshape(4, 3)))), (2, 4)),
    (lambda x: scalar_of(x.reshape((6,)) * x.tape.leaf(np.arange(6.0))), (2, 3)),
    (lambda x: scalar_of(x.gather_rows(np.array([2, 0, 2]))), (4, 3)),
    (lambda x: x.mean(), (3, 3)),
])
def test_grad_check_per_op(fn, shape):
    x0 = RNG(hash(shape) % 2**32).normal(size=shape)
    assert grad_check(fn, x0) < 1e-6


def test_grad_check_bmm():
    b = RNG(12).normal(size=(2, 3, 2))

    def fn(x):
        return scalar_of(x.bmm(x.tape.leaf(b)))

    assert grad_check(fn, RNG(13).normal(size=(2, 4, 3))) < 1e-6


def test_grad_check_weighted_gather_sum_both_inputs():
    nbr = np.array([[1, 2], [0, 2], [0, 0]])
    vals = RNG(14).normal(size=(3, 4))
    weights = RNG(15).normal(size=(3, 2))

    def wrt_values(x):
        t = x.tape
        return scalar_of(apply(t, "weighted-gather-sum", [x, t.leaf(weights)],
                               indices=nbr))

    def wrt_weights(x):
        t = x.tape
        return scalar_of(apply(t, "weighted-gather-sum", [t.leaf(vals), x],
                               indices=nbr))

    assert grad_check(wrt_values, vals) < 1e-6
    assert grad_check(wrt_weights, weights) < 1e-6


def test_broadcast_gradients_unbroadcast_correctly():
    a = RNG(16).normal(size=(3, 4))
    row = RNG(17).normal(size=(4,))

    def fn(x):
        t = x.tape
        return scalar_of(t.leaf(a) * x)

    assert grad_check(fn, row) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_softmax_grad_property(n, c, seed):
    a = RNG(seed).normal(size=(n, c))
    w = RNG(seed + 1).normal(size=(n, c))

    def fn(x):
        return scalar_of(x.softmax_rows() * x.tape.leaf(w))

    assert grad_check(fn, a) < 1e-5


# -- tape discipline ------------------------------------------------------


def test_backward_twice_rejected():
    tape = Tape()
    x = tape.leaf([1.0])
    loss = scalar_of(x)
    backward(tape, loss)
    with pytest.raises(RuntimeError):
        backward(tape, loss)


def test_backward_requires_scalar_and_same_tape():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(tape, x)
    other = Tape()
    y = scalar_of(other.leaf([1.0]))
    with pytest.raises(ValueError):
        backward(tape, y)


def test_cross_tape_inputs_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0])
    b = t2.leaf([1.0])
    with pytest.raises(ValueError):
        apply(t1, "add", [a, b])


def test_dropped_tape_is_freed_without_cyclic_collector():
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(RNG(9).normal(size=(3, 4)))
        loss = scalar_of((x * x).exp().softmax_rows())
        backward(tape, loss)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        assert x.tape is None and loss.tape is None
    finally:
        gc.enable()


def test_unknown_op_kind_rejected():
    tape = Tape()
    with pytest.raises(ValueError, match="unknown operation"):
        apply(tape, "convolve-circular", [tape.leaf([1.0])])


def test_unreachable_tensors_get_zero_grad():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    dead = tape.leaf([5.0])
    loss = scalar_of(x)
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[dead.node_id], [0.0])
    np.testing.assert_array_equal(dead.grad, [0.0])


def test_backward_keeps_leaf_gradients_and_consumes_tape():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    w = tape.leaf([3.0, -1.0])
    h = (x * w).relu()
    loss = scalar_of(h)
    grads = backward(tape, loss)
    assert set(grads) == {x.node_id, w.node_id}
    np.testing.assert_array_equal(x.grad, [3.0, 0.0])
    np.testing.assert_array_equal(w.grad, [1.0, 0.0])
    assert h.grad is None and loss.grad is None
    assert tape._ops == []
    with pytest.raises(RuntimeError):
        backward(tape, loss)

    tape = Tape()
    y = tape.leaf(2.5)
    grads = backward(tape, y)
    assert list(grads) == [y.node_id] and grads[y.node_id] is y.grad
    np.testing.assert_array_equal(y.grad, 1.0)


def _step2_block_inputs(positions, width, K):
    """(model, features, labels) of a four-class step-2-shaped block."""
    rng = RNG(11)
    features = rng.normal(size=(len(positions), 2))
    labels = rng.integers(0, 4, size=len(positions))
    model = init_unary_model(3, C=4, C_in=2, K=K, block_channels=(width, width),
                             block_strides=(1, 2), C_delta=width // 2,
                             hidden=width, dropout_rate=0.0, offset_scale=4.0)
    return model, features, labels


def _step2_block_tape(positions, stack, width=24, K=12):
    """A training block shaped like a step-2 one, on a fresh tape: the X-Conv
    classifier and, with ``stack``, the six-level refinement stack at r = 5.
    Deterministic, so two calls record identical tapes. Returns (tape, loss,
    the classifier's bindings, the stack's bindings)."""
    C = 4
    model, features, labels = _step2_block_inputs(positions, width, K)
    index = build_index(positions)
    tape = Tape()
    out, binds = unary_graph(tape, positions, features, model, index=index)
    xbinds = {}
    if stack:
        out, xbinds = axcrf_graph(tape, out, positions, features,
                                  AXcrfParams.initial(C, K=K, r=5), index)
    return tape, cross_entropy_graph(tape, out, labels), binds, xbinds


def _check_against_full_map_walk(cloud, stack, wanted):
    rng = RNG(12)
    if cloud == "distinct":
        positions = rng.uniform(0.0, 12.0, size=(160, 3))
    else:
        positions = DUPLICATE_CLOUDS[cloud](rng)
    want = full_map_backward(*_step2_block_tape(positions, stack, width=8, K=8)[:2])
    tape, loss, binds, xbinds = _step2_block_tape(positions, stack, width=8, K=8)
    leaves = list(tape.tensors)
    assert leaves and not {t.node_id for t in leaves} & {i for i, _, _ in tape._ops}
    read = {"all": leaves, "classifier": list(binds.values()),
            "classifier+stack": [*binds.values(), *xbinds.values()]}[wanted]
    got = backward(tape, loss, wanted=None if wanted == "all" else read)
    assert sorted(got) == [t.node_id for t in leaves]
    assert any(np.any(g) for g in got.values())
    read_ids = {t.node_id for t in read}
    for t in leaves:
        assert t.grad is got[t.node_id]
        if t.node_id in read_ids:
            assert got[t.node_id].tobytes() == want[t.node_id].tobytes(), t.node_id
        else:
            # unwanted leaves get zeros, as unreachable ones do
            assert not np.any(got[t.node_id]), t.node_id


@pytest.mark.parametrize("cloud,stack", [("distinct", False), ("distinct", True),
                                         ("resampled", True)])
def test_backward_bit_equal_to_full_map_walk(cloud, stack):
    # resampled: 256 rows drawn from 100 points, as in a recipe block
    _check_against_full_map_walk(cloud, stack, "all")


@pytest.mark.parametrize("cloud,stack,wanted", [
    ("distinct", False, "classifier"), ("distinct", True, "classifier"),
    ("distinct", True, "classifier+stack"), ("resampled", True, "classifier"),
    ("resampled", True, "classifier+stack")])
def test_wanted_gradients_bit_equal_to_full_map_walk(cloud, stack, wanted):
    # "classifier" is an artificial-label epoch's block, with the stack frozen
    _check_against_full_map_walk(cloud, stack, wanted)


def test_wanted_tensors_must_be_leaves_of_the_tape():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    h = x * x
    loss = scalar_of(h)
    with pytest.raises(ValueError, match="leaves"):
        backward(tape, loss, wanted=[h])
    with pytest.raises(ValueError, match="not on this record"):
        backward(tape, loss, wanted=[Tape().leaf([1.0])])
    grads = backward(tape, loss, wanted=[])
    np.testing.assert_array_equal(grads[x.node_id], [0.0, 0.0])


def _spy_op_outputs(monkeypatch):
    """Patch every op kind to log its forwards, holding nothing they made:
    one dict per op with its kind, attrs, output shape, a weakref to the
    output array (None for a numpy scalar), whether that array owns its
    memory and, once the walk reaches an array's op, whether the array was
    still alive then."""
    log = []

    def spying(kind, fn):
        def op(vals, attrs):
            out, bk = fn(vals, attrs)
            # a product of 0-d arrays is a numpy scalar, which takes no weakref
            array = isinstance(out, np.ndarray)
            entry = {"kind": kind, "attrs": attrs, "shape": out.shape,
                     "ref": weakref.ref(out) if array else None,
                     "owned": array and out.base is None, "alive_at_walk": None}
            log.append(entry)
            if bk is None:
                return out, None

            def walked(g, need):
                entry["alive_at_walk"] = array and entry["ref"]() is not None
                return bk(g, need)
            return out, walked
        return op

    for kind, fn in list(autograd._OPS.items()):
        monkeypatch.setitem(autograd._OPS, kind, spying(kind, fn))
    return log


def test_backward_frees_op_outputs_as_it_walks(monkeypatch):
    log = _spy_op_outputs(monkeypatch)
    positions = RNG(13).uniform(0.0, 16.0, size=(64, 3))
    tape, loss, binds, _ = _step2_block_tape(positions, stack=True, width=8, K=8)
    assert len(log) == len(tape._ops)
    leaves = list(tape.tensors)
    # arrays that own their memory; views share it with another tensor
    owned = [e["ref"] for e in log[:-1] if e["owned"]]
    assert len(owned) > 50
    backward(tape, loss)
    assert len(tape.tensors) == len(leaves)
    assert all(t is leaf and isinstance(t.values, np.ndarray)
               for t, leaf in zip(tape.tensors, leaves))
    assert all(ref() is None for ref in owned)
    assert all(np.any(t.grad) for t in binds.values())


def test_tape_holds_only_what_backward_reads(monkeypatch):
    log = _spy_op_outputs(monkeypatch)
    n, K = 64, 8
    positions = RNG(13).uniform(0.0, 16.0, size=(n, 3))
    tape, loss, _, _ = _step2_block_tape(positions, stack=True, width=8, K=K)
    # per X-Conv block: the gathered neighbor features and the lift's
    # non-relu output, both read by no backward
    gathered = [e for e in log if e["kind"] == "gather-rows"]
    lifted = [e for e in log if e["kind"] == "affine" and not e["attrs"].get("relu")
              and e["shape"][0] == n * K]
    assert len(gathered) == len(lifted) == 2
    assert all(e["ref"]() is None for e in gathered + lifted)
    # lift, xform and conv layers of two blocks, and the head's first layer
    relu = [e for e in log if e["kind"] == "affine" and e["attrs"].get("relu")]
    assert len(relu) == 7
    assert all(e["ref"]() is not None for e in relu)
    backward(tape, loss)
    assert all(e["alive_at_walk"] for e in relu)
    assert all(e["ref"]() is None for e in relu)


def test_backward_on_a_non_recording_tape_raises():
    tape = Tape(record=False)
    x = tape.leaf([1.0, 2.0])
    loss = scalar_of((x * x).exp())
    np.testing.assert_array_equal(loss.values, np.exp(1.0) + np.exp(4.0))
    assert tape.tensors == [] and tape._ops == []
    with pytest.raises(ValueError, match="recorded nothing"):
        backward(tape, loss)
    assert x.grad is None


def test_backward_peak_memory_stays_near_forward_size():
    # on a step-2-shaped block (256 points, K = 12, six levels) the
    # walk measured a peak of 1.03x the post-forward size; keeping every
    # gradient and op record to the end, with each weighted gather's (N, K, C)
    # copy held by its closure, measured 1.55x
    positions = RNG(13).uniform(0.0, 16.0, size=(256, 3))
    tracemalloc.start()
    try:
        tape, loss, _, _ = _step2_block_tape(positions, stack=True)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * after_forward


def test_inference_forward_peak_is_well_below_a_recorded_tape():
    # a step-2 block of 512 distinct points (K = 12, six levels): the
    # classifier and stack forward on non-recording tapes measured a peak of
    # 0.52x the recorded tape's size after its forward (6.6 of 12.8 MB)
    positions = RNG(14).uniform(0.0, 16.0, size=(512, 3))
    tracemalloc.start()
    try:
        tape, loss, _, _ = _step2_block_tape(positions, stack=True)
        recorded = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del tape, loss
    model, features, _ = _step2_block_inputs(positions, width=24, K=12)
    stack = AXcrfParams.initial(4, K=12, r=5)
    tracemalloc.start()
    try:
        index = build_index(positions)
        U = unary_forward(positions, features, model, index=index)
        axcrf_forward(U, positions, features, stack, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * recorded


def test_op_kind_registry_covers_required_set():
    required = {"add", "subtract", "elementwise-multiply", "matrix-multiply",
                "exponential", "natural-log", "relu", "softmax-rows", "sum",
                "mean", "concatenate", "gather-rows", "one-hot-argmax",
                "stop-gradient", "dropout-mask"}
    assert required <= set(OP_KINDS)
