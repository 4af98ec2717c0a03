"""Acceptance gate: ten pinned criteria, one test per criterion.

Each criterion is a single test so the -v listing reads as a ten-line
scorecard. Tolerances are module constants; they are contracts, not knobs.

The end-to-end pair (criteria 8 and 9) shares one module fixture that runs
the frozen synthetic recipe twice; expect three to four minutes for the two
runs combined (196 s on 2 vCPUs). Everything else finishes in seconds.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

import axcrf.training as training
from axcrf.autograd import OP_KINDS, Tape, apply, backward, grad_check
from axcrf.crf import (AXcrfParams, XcrfLevelParams, axcrf_forward, predict,
                       xcrf_forward, xcrf_graph)
from axcrf.metrics import confusion_matrix, scores
from axcrf.model import (cross_entropy_graph, init_unary_model,
                         named_param_arrays, unary_graph)
from axcrf.neighbors import NeighborIndex, atrous_gather, atrous_gather_all
from axcrf.pointcloud import PointCloud, generate_synthetic, slice_blocks
from axcrf.training import (EarlyStopper, ModelCheckpoint, TrainConfig,
                            generate_artificial_labels, learning_rate,
                            train_step2)
from refimpl import brute_atrous, ref_xcrf

GRAD_TOL = 1e-3              # criterion 1: relative error, unit-floored
GRAD_SEEDS = 110             # >= 100 random seeds
GRAD_BUDGET_S = 120.0
NEIGHBOR_TRIALS = 200        # criterion 2
NEIGHBOR_BUDGET_S = 10.0
XCRF_TOL = 1e-12             # criterion 3
XCRF_TRIALS = 100
XCRF_BUDGET_S = 10.0
PRESERVE_TRIALS = 1000       # criterion 4
STACK_SUM_TOL = 1e-12        # criterion 5
F1_TABLE = (62.97, 82.59, 91.91, 74.86, 39.87, 94.48, 59.33, 50.75, 82.69)
F1_MEAN = 71.05              # criterion 6
F1_MEAN_TOL = 0.005
ENDTOEND_BUDGET_S = 1200.0   # criterion 8: one full run
STEP1_VAL_OA_MIN = 0.90
IMPROVEMENT_FLOOR_PP = -0.2
# reference-run improvement, pinned. The synthetic partitions are drawn
# i.i.d., so retraining against the model's own test-partition labels has
# no domain gap to close; the validation-selected checkpoint lands a hair
# under the step-1 model on test, well inside the -0.2 pp allowance.
PINNED_IMPROVEMENT_PP = -0.1952648279228697
PINNED_TOL_PP = 1e-9


# -- criterion 1: gradient parity -------------------------------------------------


def _op_closures(rng):
    """One scalar-valued graph per differentiable operation kind.

    Returns {kind: (closure, point)}; the closure rebuilds its graph on the
    leaf's own tape so grad_check can re-evaluate it at shifted points.
    one-hot-argmax and stop-gradient pass no gradient by design and are
    asserted separately.
    """
    n = int(rng.integers(2, 17))
    k = int(rng.integers(2, 9))
    c = int(rng.integers(2, 5))
    A = rng.normal(size=(n, k))
    Wd = rng.normal(size=(k, c))
    probe = rng.normal(size=(n, c))
    probe_nk = rng.normal(size=(n, k))
    idx_rows = rng.integers(0, n, size=n + 2)          # duplicates on purpose
    nbr = rng.integers(0, n, size=(n, k))
    weights = rng.normal(size=(n, k))
    values = rng.normal(size=(n, c))
    bmat = rng.normal(size=(2, k, c))
    drop_seed = int(rng.integers(0, 2**31))

    def scalar(tape, t, coef):
        return apply(tape, "sum",
                     [apply(tape, "elementwise-multiply", [t, tape.leaf(coef)])])

    def chain(builder, point, coef):
        def fn(leaf):
            return scalar(leaf.tape, builder(leaf.tape, leaf), coef)
        return fn, point

    out = {}
    out["add"] = chain(lambda tp, x: apply(tp, "add", [x, tp.leaf(A)]),
                       rng.normal(size=(n, k)), probe_nk)
    out["subtract"] = chain(lambda tp, x: apply(tp, "subtract", [tp.leaf(A), x]),
                            rng.normal(size=(n, k)), probe_nk)
    out["elementwise-multiply"] = chain(
        lambda tp, x: apply(tp, "elementwise-multiply", [x, x]),
        rng.normal(size=(n, k)), probe_nk)
    out["matrix-multiply"] = chain(
        lambda tp, x: apply(tp, "matrix-multiply", [x, tp.leaf(Wd)]),
        rng.normal(size=(n, k)), probe)
    out["batched-matrix-multiply"] = chain(
        lambda tp, x: apply(tp, "batched-matrix-multiply", [x, tp.leaf(bmat)]),
        rng.normal(size=(2, n, k)), rng.normal(size=(2, n, c)))
    out["exponential"] = chain(
        lambda tp, x: apply(tp, "exponential", [x]),
        rng.uniform(-1, 1, size=(n, k)), probe_nk)
    out["natural-log"] = chain(
        lambda tp, x: apply(tp, "natural-log", [x]),
        rng.uniform(0.5, 3.0, size=(n, k)), probe_nk)
    # keep every coordinate away from the relu kink: central differences
    # straddle it and measure the averaged slope
    relu_pt = rng.normal(size=(n, k))
    relu_pt += np.where(relu_pt >= 0, 0.01, -0.01)
    out["relu"] = chain(lambda tp, x: apply(tp, "relu", [x]), relu_pt, probe_nk)
    out["softmax-rows"] = chain(
        lambda tp, x: apply(tp, "softmax-rows", [x]),
        rng.normal(size=(n, c)), probe)
    out["log-softmax-rows"] = chain(
        lambda tp, x: apply(tp, "log-softmax-rows", [x]),
        rng.normal(size=(n, c)), probe)
    out["sum"] = (lambda leaf: apply(leaf.tape, "sum", [leaf]),
                  rng.normal(size=(n, k)))
    out["mean"] = (lambda leaf: apply(leaf.tape, "mean", [leaf]),
                   rng.normal(size=(n, k)))
    out["concatenate"] = chain(
        lambda tp, x: apply(tp, "concatenate", [x, tp.leaf(A)], axis=1),
        rng.normal(size=(n, k)), rng.normal(size=(n, 2 * k)))
    out["gather-rows"] = chain(
        lambda tp, x: apply(tp, "gather-rows", [x], indices=idx_rows),
        rng.normal(size=(n, k)), rng.normal(size=(n + 2, k)))
    out["reshape"] = chain(
        lambda tp, x: apply(tp, "reshape", [x], shape=(k, n)),
        rng.normal(size=(n, k)), rng.normal(size=(k, n)))
    out["dropout-mask"] = chain(
        lambda tp, x: apply(tp, "dropout-mask", [x], rate=0.3,
                            rng=np.random.default_rng(drop_seed)),
        rng.normal(size=(n, k)), probe_nk)
    out["weighted-gather-sum"] = chain(
        lambda tp, x: apply(tp, "weighted-gather-sum",
                            [x, tp.leaf(weights)], indices=nbr),
        rng.normal(size=(n, c)), probe)
    out["weighted-gather-sum/weights"] = chain(
        lambda tp, x: apply(tp, "weighted-gather-sum",
                            [tp.leaf(values), x], indices=nbr),
        rng.normal(size=(n, k)), probe)
    # the fused dense layer, drawn last so the points above stay as they
    # were; its relu form redraws the input until every pre-activation sits
    # off the kink, as the relu closure does
    bias = rng.normal(size=c)
    off_kink = rng.normal(size=(n, k))
    while np.abs(off_kink @ Wd + bias).min() < 0.01:
        off_kink = rng.normal(size=(n, k))
    out["affine"] = chain(
        lambda tp, x: apply(tp, "affine", [x, tp.leaf(Wd), tp.leaf(bias)]),
        rng.normal(size=(n, k)), probe)
    out["affine/relu"] = chain(
        lambda tp, x: apply(tp, "affine", [x, tp.leaf(Wd), tp.leaf(bias)], relu=True),
        off_kink, probe)
    out["affine/weights"] = chain(
        lambda tp, x: apply(tp, "affine", [tp.leaf(A), x, tp.leaf(bias)]),
        rng.normal(size=(k, c)), probe)
    out["affine/bias"] = chain(
        lambda tp, x: apply(tp, "affine", [tp.leaf(A), tp.leaf(Wd), x]),
        rng.normal(size=c), probe)
    # the fused mean-field iteration, drawn after everything above; the
    # previous iterate's argmax sits 1.5 clear, as in _check_xcrf_grads, so
    # the one-hot selection holds under the central differences
    mf_U = rng.normal(size=(n, c))
    mf_hollow = rng.normal(size=(c, c))
    mf_prev = rng.normal(size=(n, c))
    mf_prev[np.arange(n), mf_prev.argmax(axis=1)] += 1.5

    def mean_field(slot):
        def build(tp, x):
            ins = [tp.leaf(v) for v in (mf_U, weights, mf_hollow, mf_prev)]
            ins[slot] = x
            return apply(tp, "mean-field-step", ins, indices=nbr)
        return build

    out["mean-field-step"] = chain(mean_field(0), mf_U, probe)
    out["mean-field-step/filter-weights"] = chain(mean_field(1), weights, probe)
    out["mean-field-step/compat"] = chain(mean_field(2), mf_hollow, probe)
    out["mean-field-step/previous"] = chain(mean_field(3), mf_prev, probe)
    return out


def _model_loss(positions, features, labels, params):
    tape = Tape()
    logits, bindings = unary_graph(tape, positions, features, params)
    loss = cross_entropy_graph(tape, logits, labels)
    return tape, loss, bindings


def _check_model_grads(rng, worst):
    n = int(rng.integers(8, 17))
    c = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    c_in = int(rng.integers(1, 3))
    params = init_unary_model(int(rng.integers(0, 2**31)), C=c, C_in=c_in,
                              K=k, block_channels=(4, 4), block_strides=(1, 2),
                              C_delta=3, hidden=5, dropout_rate=0.0,
                              offset_scale=2.0)
    arrays = named_param_arrays(params)
    # zero-initialized biases sit dead on the relu kink; nudge them
    for name, arr in arrays.items():
        if name.endswith(("b1", "b2", "conv_bias")):
            arr += rng.uniform(0.01, 0.05, size=arr.shape)
    positions = rng.uniform(-3, 3, size=(n, 3))
    features = rng.normal(size=(n, c_in))
    labels = rng.integers(0, c, size=n)

    tape, loss, bindings = _model_loss(positions, features, labels, params)
    backward(tape, loss)
    h = 1e-6
    names = list(arrays)
    for name in rng.choice(names, size=3, replace=False):
        arr = arrays[name]
        analytic = bindings[name].grad
        flat = rng.choice(arr.size, size=min(2, arr.size), replace=False)
        for i in flat:
            keep = arr.flat[i]
            arr.flat[i] = keep + h
            f_plus = float(_model_loss(positions, features, labels, params)[1].values)
            arr.flat[i] = keep - h
            f_minus = float(_model_loss(positions, features, labels, params)[1].values)
            arr.flat[i] = keep
            fd = (f_plus - f_minus) / (2 * h)
            err = abs(analytic.flat[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst


def _check_xcrf_grads(rng, worst):
    n = int(rng.integers(5, 17))
    c = int(rng.integers(2, 5))
    k = int(rng.integers(2, min(8, n - 1) + 1))
    r = int(rng.integers(1, 4))
    U = rng.normal(scale=2.0, size=(n, c))
    U[np.arange(n), U.argmax(axis=1)] += 1.5      # keep argmax flips away
    B = rng.uniform(0.05, 1.0, size=(n, k))
    S = rng.uniform(0.05, 1.0, size=(n, k))
    nbr = np.zeros((n, k), dtype=np.intp)
    for i in range(n):
        nbr[i] = rng.choice(np.delete(np.arange(n), i), size=k, replace=False)
    wb0, ws0 = rng.normal(scale=1.5, size=2)
    Wc0 = rng.normal(size=(c, c)) * (1.0 - np.eye(c))
    coef = rng.normal(size=(n, c))

    def run(tape, wb_t, ws_t, wc_t):
        out = xcrf_graph(tape, tape.leaf(U), B, S, nbr, wb_t, ws_t, wc_t, r=r)
        return apply(tape, "sum",
                     [apply(tape, "elementwise-multiply", [out, tape.leaf(coef)])])

    worst = max(worst, grad_check(
        lambda leaf: run(leaf.tape, leaf, leaf.tape.leaf(ws0),
                         leaf.tape.leaf(Wc0)), np.asarray(wb0)))
    worst = max(worst, grad_check(
        lambda leaf: run(leaf.tape, leaf.tape.leaf(wb0), leaf,
                         leaf.tape.leaf(Wc0)), np.asarray(ws0)))
    worst = max(worst, grad_check(
        lambda leaf: run(leaf.tape, leaf.tape.leaf(wb0),
                         leaf.tape.leaf(ws0), leaf), Wc0))
    return worst


def test_criterion_01_gradient_parity():
    """Analytic gradients match central differences to 1e-3 on every
    differentiable operation, the composite classifier loss, and the
    refinement graph's three parameter groups, over >= 100 seeds."""
    t0 = time.perf_counter()
    worst = 0.0
    covered = set()
    for seed in range(GRAD_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        lane = seed % 3
        if lane == 0:
            closures = _op_closures(rng)
            for kind, (fn, point) in closures.items():
                covered.add(kind.split("/")[0])
                worst = max(worst, grad_check(fn, point))
        elif lane == 1:
            worst = _check_model_grads(rng, worst)
        else:
            worst = _check_xcrf_grads(rng, worst)
    differentiable = set(OP_KINDS) - {"one-hot-argmax", "stop-gradient"}
    assert covered == differentiable, f"missed ops: {differentiable - covered}"
    assert worst < GRAD_TOL, f"worst relative error {worst:.3e}"
    assert time.perf_counter() - t0 < GRAD_BUDGET_S


# -- criterion 2: neighbor selection -----------------------------------------------


def test_criterion_02_neighbor_oracle():
    """Strided neighbor selection equals the sort-then-stride oracle exactly
    on 200 random clouds, and K=64, D=16 reaches sorted rank 1024."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(NEIGHBOR_TRIALS):
        m = int(rng.integers(3, 513))
        K = int(rng.integers(1, 17))
        D = int(rng.integers(1, 9))
        positions = rng.uniform(-10, 10, size=(m, 3))
        if trial % 5 == 0:
            positions[rng.integers(0, m)] = positions[rng.integers(0, m)]
        index = NeighborIndex(positions)
        got_idx, got_dist = atrous_gather_all(index, K, D)
        queries = rng.choice(m, size=min(m, 40), replace=False)
        for q in queries:
            want_idx, want_dist = brute_atrous(positions, q, K, D)
            np.testing.assert_array_equal(got_idx[q], want_idx)
            np.testing.assert_allclose(got_dist[q], want_dist, rtol=0, atol=1e-9)

    # deep-rank anchor: stride 16 with 64 taps reads sorted rank 1024
    m = 1100
    positions = rng.uniform(-10, 10, size=(m, 3))
    index = NeighborIndex(positions)
    nb = atrous_gather(index, query=0, K=64, D=16)
    sorted_idx, _ = index.nearest_others(0, 1024)
    np.testing.assert_array_equal(nb.indices, sorted_idx[15::16])
    assert nb.indices[-1] == sorted_idx[1023]
    # and the same request on a small cloud falls back to cyclic ranks
    small = rng.uniform(-10, 10, size=(100, 3))
    idx_small, _ = atrous_gather_all(NeighborIndex(small), 64, 16)
    want_idx, _ = brute_atrous(small, 7, 64, 16)
    np.testing.assert_array_equal(idx_small[7], want_idx)
    assert time.perf_counter() - t0 < NEIGHBOR_BUDGET_S


# -- criterion 3: refinement vs independent reference ----------------------------------


def _ref_xcrf_vec(U, positions, features, nbr, wb, ws, Wc, ta, tb, tg, r):
    """Loop-free reference: closed-form arrays, no shared code with the
    tape-based production graph."""
    dp = ((positions[:, None, :] - positions[nbr]) ** 2).sum(axis=-1)
    df = ((features[:, None, :] - features[nbr]) ** 2).sum(axis=-1)
    G = (wb * np.exp(-dp / (2 * ta * ta) - df / (2 * tb * tb))
         + ws * np.exp(-dp / (2 * tg * tg)))
    hollow = Wc * (1.0 - np.eye(U.shape[1]))
    u1 = U.copy()
    for _ in range(r):
        z = np.exp(u1 - u1.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        mass = np.einsum("nk,nkc->nc", G, p[nbr])
        u1 = U - mass * hollow[p.argmax(axis=1)]
    return u1


def test_criterion_03_xcrf_oracle():
    """Refinement matches a loop-free reference and a scalar-loop reference
    within 1e-12 on 100 random instances, plus the hand 3-point example."""
    from refimpl import random_instance
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(XCRF_TRIALS):
        U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r = random_instance(rng)
        params = XcrfLevelParams(wb, ws, Wc, ta, tb, tg,
                                 K=nbr.shape[1], D=1, r=r)
        got = xcrf_forward(U, pos, feat, params, NeighborIndex(pos),
                           neighborhoods=nbr)
        vec = _ref_xcrf_vec(U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r)
        loop = ref_xcrf(U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r)
        np.testing.assert_allclose(got, vec, rtol=0, atol=XCRF_TOL)
        np.testing.assert_allclose(got, loop, rtol=0, atol=XCRF_TOL)

    # three collinear points, two classes, one iteration, by hand
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    features = np.zeros((3, 1))
    U = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    Wc = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = XcrfLevelParams(1.0, 1.0, Wc, 1.0, 1.0, 1.0, K=2, D=1, r=1)
    out = xcrf_forward(U, positions, features, params, NeighborIndex(positions))
    p_hi = np.exp(2.0) / (np.exp(2.0) + 1.0)
    g1 = 2.0 * np.exp(-0.5)
    g2 = 2.0 * np.exp(-2.0)
    pen0 = g1 * p_hi + g2 * (1.0 - p_hi)
    pen1 = 2.0 * g1 * p_hi
    expected = np.array([[2.0, -pen0], [-pen1, 2.0], [2.0, -pen0]])
    np.testing.assert_allclose(out, expected, rtol=0, atol=XCRF_TOL)
    assert time.perf_counter() - t0 < XCRF_BUDGET_S


# -- criterion 4: argmax preservation ---------------------------------------------------


def test_criterion_04_argmax_preservation():
    """Non-negative filter weights with a hollow non-negative compatibility
    never flip a per-point argmax: zero violations over 1000 instances."""
    rng = np.random.default_rng(4)
    violations = 0
    for trial in range(PRESERVE_TRIALS):
        n = int(rng.integers(4, 33))
        c = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(8, n - 1) + 1))
        r = int(rng.integers(1, 6))
        pos = rng.uniform(-5, 5, size=(n, 3))
        feat = rng.normal(size=(n, 2))
        U = rng.normal(scale=2.0, size=(n, c))
        ta, tb, tg = rng.uniform(0.3, 3.0, size=3)
        index = NeighborIndex(pos)
        if trial % 5 == 0:
            # default-initialized multi-level stack (weights 1, hollow ones)
            params = AXcrfParams.initial(c, D_list=(1, 2, 3), K=k, r=r,
                                         theta_alpha=ta, theta_beta=tb,
                                         theta_gamma=tg)
            refined = axcrf_forward(U, pos, feat, params, index)
        else:
            wb, ws = rng.uniform(0.0, 2.0, size=2)
            Wc = rng.uniform(0.0, 1.0, size=(c, c)) * (1.0 - np.eye(c))
            params = XcrfLevelParams(wb, ws, Wc, ta, tb, tg, K=k, D=1, r=r)
            refined = xcrf_forward(U, pos, feat, params, index)
        violations += int((predict(refined) != predict(U)).sum())
    assert violations == 0


# -- criterion 5: identities ----------------------------------------------------------------


def test_criterion_05_identity_suite():
    """r=0 and zero-weight levels return U bitwise; one-level stack equals
    the single level; an n-level zero-weight stack returns n*U to 1e-12."""
    rng = np.random.default_rng(5)
    n, c, k = 24, 4, 6
    pos = rng.uniform(-5, 5, size=(n, 3))
    feat = rng.normal(size=(n, 2))
    U = rng.normal(scale=2.0, size=(n, c))
    index = NeighborIndex(pos)
    Wc = rng.normal(size=(c, c)) * (1.0 - np.eye(c))

    zero_iter = XcrfLevelParams(1.3, 0.7, Wc, 1.0, 1.0, 1.0, K=k, D=1, r=0)
    assert np.array_equal(xcrf_forward(U, pos, feat, zero_iter, index), U)

    zero_w = XcrfLevelParams(0.0, 0.0, Wc, 1.0, 1.0, 1.0, K=k, D=1, r=3)
    assert np.array_equal(xcrf_forward(U, pos, feat, zero_w, index), U)

    lvl = XcrfLevelParams(0.9, 0.4, Wc, 1.5, 0.8, 1.1, K=k, D=2, r=3)
    one = AXcrfParams(levels=[lvl], shared=False)
    np.testing.assert_array_equal(axcrf_forward(U, pos, feat, one, index),
                                  xcrf_forward(U, pos, feat, lvl, index))

    levels = [XcrfLevelParams(0.0, 0.0, Wc, 1.0, 1.0, 1.0, K=k, D=d, r=2)
              for d in (1, 2, 3, 4, 8)]
    stack = AXcrfParams(levels=levels, shared=False)
    np.testing.assert_allclose(axcrf_forward(U, pos, feat, stack, index),
                               5.0 * U, rtol=0, atol=STACK_SUM_TOL)


# -- criterion 6: metrics ---------------------------------------------------------------------


def test_criterion_06_metrics_consistency():
    """The nine published per-class F1 values average to 71.05 under the
    package's unweighted mean; the hand confusion matrix reproduces exactly."""
    assert abs(float(np.mean(F1_TABLE)) - F1_MEAN) < F1_MEAN_TOL

    # 10 points, 2 classes: 5 true hits of class 0, 1 swap each way, ...
    pred = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
    truth = np.array([0, 0, 0, 0, 0, 1, 1, 0, 1, 1])
    cm = confusion_matrix(pred, truth, 2)
    np.testing.assert_array_equal(cm, [[5, 1], [2, 2]])
    rep = scores(cm)
    assert rep.precision[0] == pytest.approx(5 / 7, abs=1e-15)
    assert rep.recall[0] == pytest.approx(5 / 6, abs=1e-15)
    assert rep.f1[0] == pytest.approx(10 / 13, abs=1e-15)
    assert rep.overall_accuracy == pytest.approx(0.7, abs=1e-15)


# -- criterion 7: schedule ----------------------------------------------------------------------


def test_criterion_07_schedule_conformance():
    """lr(5000)=0.004 and lr(10000)=0.0032 from lr0=0.005 with decay 0.8
    per 5000 steps; floor 1e-6 never violated; early stop fires after
    exactly 10 stagnant epochs."""
    config = TrainConfig(C=2, lr=0.005)
    assert learning_rate(config, 5000) == pytest.approx(0.004, abs=1e-15)
    assert learning_rate(config, 10000) == pytest.approx(0.0032, abs=1e-15)
    for t in (0, 10**4, 10**6, 10**8):
        assert learning_rate(config, t) >= 1e-6
    assert learning_rate(config, 10**8) == 1e-6

    stopper = EarlyStopper(10)
    assert not stopper.update(0.80)
    fired = [stopper.update(0.80) for _ in range(10)]
    assert fired == [False] * 9 + [True]


# -- criteria 8 and 9: the frozen synthetic recipe, twice ------------------------------------------


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    from axcrf.experiment import ExperimentConfig, run_synthetic_experiment
    runs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"run_{tag}")
        t0 = time.perf_counter()
        report = run_synthetic_experiment(ExperimentConfig(), out_dir=out)
        runs.append((out, report, time.perf_counter() - t0))
    return runs


def test_criterion_08_synthetic_end_to_end(synthetic_runs):
    """Frozen strata recipe: step-1 validation OA >= 90%; step-2 test OA
    within 0.2 pp of step 1; the reference improvement is pinned; one run
    stays under twenty minutes."""
    _, rep, seconds = synthetic_runs[0]
    assert rep["step1_val_oa"] >= STEP1_VAL_OA_MIN
    assert rep["step2_test_oa"] >= rep["step1_test_oa"] + IMPROVEMENT_FLOOR_PP / 100.0
    assert rep["improvement_pp"] >= IMPROVEMENT_FLOOR_PP
    assert abs(rep["improvement_pp"] - PINNED_IMPROVEMENT_PP) < PINNED_TOL_PP
    assert seconds < ENDTOEND_BUDGET_S


def test_criterion_09_determinism(synthetic_runs):
    """Two identically seeded runs write byte-identical checkpoints,
    reports, logs, and predictions."""
    dir_a = synthetic_runs[0][0]
    dir_b = synthetic_runs[1][0]
    for name in ("step1.ckpt", "step2.ckpt", "report.json", "step1.jsonl",
                 "step2.jsonl", "test_predictions.txt", "test_report.txt"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


# -- criterion 10: freezing contract ------------------------------------------------------------------


def _xcrf_snapshot(axcrf):
    return [(lv.bilateral_weight, lv.spatial_weight, lv.compat.copy())
            for lv in axcrf.levels]


def _snapshots_equal(a, b):
    return all(x[0] == y[0] and x[1] == y[1] and np.array_equal(x[2], y[2])
               for x, y in zip(a, b))


def test_criterion_10_freezing_contract(monkeypatch):
    """Refinement parameters are bit-identical across every artificial-label
    epoch and move on every labeled epoch."""
    cloud = generate_synthetic("strata", N=500, C=3, noise=0.1, seed=2)
    blocks = slice_blocks(cloud, side=60.0, shift=30.0, min_points=16)
    half = len(blocks) // 2
    train_blocks, val_blocks = blocks[:half], blocks[half:]
    config = TrainConfig(C=3, lr=0.05, max_epochs=6, seed=0, batch_blocks=2,
                         n_sample=48, K=4, block_channels=(6, 6),
                         block_strides=(1, 2), C_delta=4, hidden=6,
                         dropout_rate=0.0, offset_scale=20.0, D_list=(1, 2),
                         crf_K=4, r=2, patience=10)
    model = init_unary_model(0, C=3, C_in=cloud.n_features, K=4,
                             block_channels=(6, 6), block_strides=(1, 2),
                             C_delta=4, hidden=6, dropout_rate=0.0,
                             offset_scale=20.0)
    ckpt = ModelCheckpoint(model=model, axcrf=None, thetas=None, scaler=None,
                           config=config, best_val_oa=0.0, iteration=0)
    unlabeled = PointCloud(cloud.positions, cloud.features, None, cloud.C)
    artificial = generate_artificial_labels(ckpt, unlabeled, val_blocks)

    records = []
    real_epoch = training._run_epoch

    def spy(*args, **kwargs):
        axcrf = args[1]
        before = _xcrf_snapshot(axcrf)
        result = real_epoch(*args, **kwargs)
        records.append((kwargs["salt"], kwargs["update_xcrf"], before,
                        _xcrf_snapshot(axcrf)))
        return result

    monkeypatch.setattr(training, "_run_epoch", spy)
    train_step2(ckpt, cloud, train_blocks, artificial, val_blocks,
                config=config, thetas=(1.0, 0.5, 1.0))

    labeled = [r for r in records if r[0] == training._SALT_TRAIN]
    frozen = [r for r in records if r[0] == training._SALT_ART]
    assert len(labeled) == 3 and len(frozen) == 3
    for salt, update_xcrf, before, after in frozen:
        assert not update_xcrf
        assert _snapshots_equal(before, after)
    for salt, update_xcrf, before, after in labeled:
        assert update_xcrf
        assert not _snapshots_equal(before, after)
        for _, _, compat in after:
            np.testing.assert_array_equal(np.diag(compat), 0.0)
