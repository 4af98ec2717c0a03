"""Mean-field refinement against an independently coded reference.

The production pass is a vectorized autograd graph (batched gathers and an
einsum aggregation). The reference below re-derives every quantity with
explicit per-point, per-neighbor loops and scalar formulas, sharing no code
with the package beyond numpy itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axcrf.crf
from axcrf.autograd import Tape, apply, backward
from axcrf.crf import (AXcrfParams, XcrfLevelParams, axcrf_forward, axcrf_graph,
                       gaussian_filters, grid_search_thetas, predict,
                       xcrf_forward, xcrf_graph)
from axcrf.model import init_unary_model, unary_forward, unary_graph
from axcrf.neighbors import NeighborIndex, atrous_gather_all
from refimpl import (DUPLICATE_CLOUDS, chain_apply, random_instance, ref_filters,
                     ref_xcrf, triple_outer_grid)


# -- independent reference lives in refimpl.py ------------------------------


def make_params(wb, ws, Wc, ta, tb, tg, k, d, r):
    return XcrfLevelParams(wb, ws, Wc, ta, tb, tg, K=k, D=d, r=r)


# -- filter formulas ----------------------------------------------------------


def test_filters_coincident_points_give_one():
    pos = np.zeros((2, 3))
    feat = np.zeros((2, 2))
    nbr = np.array([[1], [0]])
    params = make_params(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, 1.0, 1, 1, 1)
    resp = gaussian_filters(pos, feat, nbr, params)
    np.testing.assert_array_equal(resp.B_f, np.ones((2, 1)))
    np.testing.assert_array_equal(resp.S_f, np.ones((2, 1)))


def test_filters_unit_distance_pin():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    feat = np.zeros((2, 1))
    nbr = np.array([[1], [0]])
    params = make_params(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, 1.0, 1, 1, 1)
    resp = gaussian_filters(pos, feat, nbr, params)
    assert resp.B_f[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert resp.S_f[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_filters_match_scalar_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r = random_instance(rng)
        params = make_params(wb, ws, Wc, ta, tb, tg, nbr.shape[1], 1, max(r, 1))
        resp = gaussian_filters(pos, feat, nbr, params)
        B, S = ref_filters(pos, feat, nbr, ta, tb, tg)
        np.testing.assert_allclose(resp.B_f, B, atol=1e-12, rtol=0)
        np.testing.assert_allclose(resp.S_f, S, atol=1e-12, rtol=0)


def test_filter_response_bounds():
    rng = np.random.default_rng(1)
    U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r = random_instance(rng)
    params = make_params(2.0, 3.0, Wc, ta, tb, tg, nbr.shape[1], 1, 1)
    resp = gaussian_filters(pos, feat, nbr, params)
    assert np.all(resp.B_f > 0) and np.all(resp.B_f <= 1)
    assert np.all(resp.S_f > 0) and np.all(resp.S_f <= 1)


def test_filter_symmetry_and_monotonicity():
    params = make_params(1.0, 1.0, np.zeros((2, 2)), 1.3, 0.7, 2.1, 1, 1, 1)
    pos = np.array([[0.0, 0, 0], [0.9, 0.2, -0.4]])
    feat = np.array([[0.1, -0.2], [0.4, 0.3]])
    fwd = gaussian_filters(pos, feat, np.array([[1], [0]]), params)
    assert fwd.B_f[0, 0] == pytest.approx(fwd.B_f[1, 0], abs=1e-15)
    assert fwd.S_f[0, 0] == pytest.approx(fwd.S_f[1, 0], abs=1e-15)
    # larger spatial or feature distance strictly lowers the bilateral response
    base = fwd.B_f[0, 0]
    far_pos = gaussian_filters(pos * 2.0, feat, np.array([[1], [0]]), params)
    far_feat = gaussian_filters(pos, feat * 3.0, np.array([[1], [0]]), params)
    assert far_pos.B_f[0, 0] < base
    assert far_feat.B_f[0, 0] < base


def test_filters_validation():
    params = make_params(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, 1.0, 1, 1, 1)
    with pytest.raises(ValueError):
        gaussian_filters(np.zeros((2, 2)), np.zeros((2, 1)), np.array([[1], [0]]), params)
    with pytest.raises(ValueError):
        gaussian_filters(np.zeros((2, 3)), np.zeros((3, 1)), np.array([[1], [0]]), params)
    with pytest.raises(ValueError):
        gaussian_filters(np.zeros((2, 3)), np.zeros((2, 1)), np.array([[1], [5]]), params)


# -- parameter validation -------------------------------------------------------


def test_level_params_validation():
    with pytest.raises(ValueError, match="diagonal"):
        make_params(1.0, 1.0, np.eye(2), 1.0, 1.0, 1.0, 1, 1, 1)
    with pytest.raises(ValueError, match="theta"):
        make_params(1.0, 1.0, np.zeros((2, 2)), 0.0, 1.0, 1.0, 1, 1, 1)
    with pytest.raises(ValueError):
        make_params(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, 1.0, 0, 1, 1)
    with pytest.raises(ValueError):
        make_params(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, 1.0, 1, 1, -1)
    with pytest.raises(ValueError):
        AXcrfParams(levels=[])
    with pytest.raises(ValueError):
        AXcrfParams(levels=[XcrfLevelParams.initial(2), XcrfLevelParams.initial(3)])


def test_initial_params_follow_conventions():
    lv = XcrfLevelParams.initial(3)
    assert lv.bilateral_weight == 1.0 and lv.spatial_weight == 1.0
    np.testing.assert_array_equal(lv.compat, np.ones((3, 3)) - np.eye(3))
    stack = AXcrfParams.initial(3)
    assert stack.D_list == [1, 2, 3, 4, 8, 16]
    assert all(lv.r == 5 and lv.K == 64 for lv in stack.levels)


# -- reference agreement --------------------------------------------------------


def test_hand_example_three_collinear_points():
    # three points one meter apart on a line, two classes, one iteration
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    features = np.zeros((3, 1))
    U = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    Wc = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = make_params(1.0, 1.0, Wc, 1.0, 1.0, 1.0, 2, 1, 1)
    index = NeighborIndex(positions)
    out = xcrf_forward(U, positions, features, params, index)

    # hand execution: softmax rows, penalty at the non-argmax class only
    p_hi = math.exp(2.0) / (math.exp(2.0) + 1.0)    # 0.8807970779778823
    p_lo = 1.0 - p_hi
    g1 = 2.0 * math.exp(-0.5)                        # both filters at 1 m
    g2 = 2.0 * math.exp(-2.0)                        # both filters at 2 m
    # point 0 (argmax 0): neighbors are points 1 and 2
    pen0 = g1 * p_hi + g2 * p_lo                     # class-1 mass seen by 0
    # point 1 (argmax 1): neighbors 0 and 2 at 1 m each, class-0 mass
    pen1 = g1 * p_hi + g1 * p_hi
    expected = np.array([
        [2.0, -pen0],
        [-pen1, 2.0],
        [2.0, -pen0],
    ])
    np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)


def test_matches_reference_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(40):
        U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r = random_instance(rng)
        params = make_params(wb, ws, Wc, ta, tb, tg, nbr.shape[1], 1, r)
        index = NeighborIndex(pos)
        got = xcrf_forward(U, pos, feat, params, index, neighborhoods=nbr)
        want = ref_xcrf(U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, r)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_matches_reference_with_internal_neighborhoods():
    # let production select atrous neighborhoods, mirror them into the oracle
    rng = np.random.default_rng(7)
    for _ in range(10):
        U, pos, feat, _, wb, ws, Wc, ta, tb, tg, r = random_instance(rng, r=3)
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        params = make_params(wb, ws, Wc, ta, tb, tg, k, d, 3)
        index = NeighborIndex(pos)
        got = xcrf_forward(U, pos, feat, params, index)
        nbr, _ = atrous_gather_all(index, k, d)
        want = ref_xcrf(U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, 3)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("D", [1, 2, 16])
@pytest.mark.parametrize("size", ["full", "small"])
@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_matches_reference_in_duplicate_regime(cloud, size, D):
    # production neighborhoods at the recipe's K=12 on duplicate-heavy clouds;
    # the 20-point prefixes hold fewer than K*D others, so their lists tile
    rng = np.random.default_rng(17)
    pos = cloud(rng)
    if size == "small":
        pos = pos[:20]
    n = pos.shape[0]
    feat = np.stack([np.sin(pos.sum(axis=1)), np.cos(3.0 * pos[:, 2])], axis=1)
    U = rng.normal(scale=2.0, size=(n, 4))
    wb, ws = rng.normal(scale=1.5, size=2)
    Wc = rng.normal(size=(4, 4)) * (1.0 - np.eye(4))
    ta, tb, tg = rng.uniform(0.3, 3.0, size=3)
    params = make_params(wb, ws, Wc, ta, tb, tg, 12, D, 3)
    index = NeighborIndex(pos)
    got = xcrf_forward(U, pos, feat, params, index)
    nbr, _ = atrous_gather_all(index, 12, D)
    want = ref_xcrf(U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, 3)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9])
def test_pair_d2_bit_equal_to_broadcast_reduce(width):
    # positions add their three columns explicitly, features keep the reduce,
    # which sums pairwise from 8 columns on; both must match the reduce form
    from axcrf.crf import _pair_d2
    rng = np.random.default_rng(18)
    rows = rng.integers(0, 100, size=256)
    pos = rng.uniform(0, 16, size=(100, 3))[rows]
    feat = rng.normal(size=(100, width))[rows]
    idx = rng.integers(0, 256, size=(256, 12))
    pos_d2, feat_d2 = _pair_d2(pos, feat, idx)
    np.testing.assert_array_equal(pos_d2, ((pos[:, None] - pos[idx]) ** 2).sum(axis=2))
    np.testing.assert_array_equal(feat_d2, ((feat[:, None] - feat[idx]) ** 2).sum(axis=2))


# -- identities -----------------------------------------------------------------


def test_r_zero_returns_input_bitwise():
    rng = np.random.default_rng(3)
    U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, _ = random_instance(rng)
    params = make_params(wb, ws, Wc, ta, tb, tg, nbr.shape[1], 1, 0)
    out = xcrf_forward(U, pos, feat, params, NeighborIndex(pos), neighborhoods=nbr)
    assert np.array_equal(out, U)


def test_zero_filter_weights_return_input():
    rng = np.random.default_rng(4)
    U, pos, feat, nbr, _, _, Wc, ta, tb, tg, _ = random_instance(rng)
    params = make_params(0.0, 0.0, Wc, ta, tb, tg, nbr.shape[1], 1, 4)
    out = xcrf_forward(U, pos, feat, params, NeighborIndex(pos), neighborhoods=nbr)
    assert np.array_equal(out, U)


def test_single_level_stack_equals_level():
    rng = np.random.default_rng(5)
    U, pos, feat, _, wb, ws, Wc, ta, tb, tg, _ = random_instance(rng)
    lv = make_params(wb, ws, Wc, ta, tb, tg, 3, 2, 3)
    stack = AXcrfParams(levels=[lv.copy()])
    index = NeighborIndex(pos)
    np.testing.assert_array_equal(axcrf_forward(U, pos, feat, stack, index),
                                  xcrf_forward(U, pos, feat, lv, index))


def test_zero_weight_stack_returns_scaled_input():
    rng = np.random.default_rng(6)
    U, pos, feat, _, _, _, Wc, ta, tb, tg, _ = random_instance(rng, n=32)
    levels = [make_params(0.0, 0.0, Wc, ta, tb, tg, 3, d, 5) for d in (1, 2, 3, 4, 8)]
    stack = AXcrfParams(levels=levels)
    out = axcrf_forward(U, pos, feat, stack, NeighborIndex(pos))
    np.testing.assert_allclose(out, 5.0 * U, atol=1e-12, rtol=0)
    assert np.array_equal(predict(out), predict(U))


def test_stack_is_sum_of_levels():
    rng = np.random.default_rng(8)
    for _ in range(5):
        U, pos, feat, _, wb, ws, Wc, ta, tb, tg, _ = random_instance(rng, n=24)
        lv1 = make_params(wb, ws, Wc, ta, tb, tg, 3, 1, 2)
        lv2 = make_params(ws, wb, -Wc, tb, tg, ta, 4, 2, 3)
        stack = AXcrfParams(levels=[lv1.copy(), lv2.copy()])
        index = NeighborIndex(pos)
        want = (xcrf_forward(U, pos, feat, lv1, index)
                + xcrf_forward(U, pos, feat, lv2, index))
        np.testing.assert_allclose(axcrf_forward(U, pos, feat, stack, index),
                                   want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("shared, prefixes", [
    (False, ["xcrf.level0", "xcrf.level1", "xcrf.level2"]),
    (True, ["xcrf.shared"])])
def test_weight_groups_name_the_bound_leaves(shared, prefixes):
    U, pos, feat, *_ = random_instance(np.random.default_rng(9), n=24)
    stack = AXcrfParams.initial(U.shape[1], D_list=(1, 2, 3), K=3, r=1, shared=shared)
    groups = stack.weight_groups()
    assert [prefix for prefix, _ in groups] == prefixes
    members = [lv for _, group in groups for lv in group]
    assert len(members) == 3 and all(a is b for a, b in zip(members, stack.levels))
    tape = Tape()
    _, binds = axcrf_graph(tape, tape.leaf(U), pos, feat, stack, NeighborIndex(pos))
    assert list(binds) == [f"{prefix}.{name}" for prefix in prefixes
                           for name in ("bilateral_weight", "spatial_weight", "compat")]


# -- structural invariants --------------------------------------------------------


def test_penalty_zero_at_current_argmax_and_softmax_rows():
    rng = np.random.default_rng(9)
    U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, _ = random_instance(rng)
    params = make_params(wb, ws, Wc, ta, tb, tg, nbr.shape[1], 1, 3)
    states = []
    xcrf_forward(U, pos, feat, params, NeighborIndex(pos), neighborhoods=nbr,
                 collect_state=states)
    assert len(states) == 3
    for s in states:
        np.testing.assert_allclose(s.U_s.sum(axis=1), 1.0, atol=1e-9)
        star = s.U_s.argmax(axis=1)
        np.testing.assert_array_equal(s.U_p[np.arange(len(star)), star], 0.0)


def test_argmax_preserved_with_nonnegative_parameters():
    rng = np.random.default_rng(10)
    for _ in range(150):
        U, pos, feat, nbr, _, _, _, ta, tb, tg, r = random_instance(rng)
        c = U.shape[1]
        wb, ws = rng.uniform(0, 2, size=2)
        Wc = rng.uniform(0, 2, size=(c, c)) * (1.0 - np.eye(c))
        params = make_params(wb, ws, Wc, ta, tb, tg, nbr.shape[1], 1, r)
        out = xcrf_forward(U, pos, feat, params, NeighborIndex(pos), neighborhoods=nbr)
        np.testing.assert_array_equal(out.argmax(axis=1), U.argmax(axis=1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_argmax_preservation_property(seed, r):
    rng = np.random.default_rng(seed)
    U, pos, feat, nbr, _, _, _, ta, tb, tg, _ = random_instance(rng)
    c = U.shape[1]
    Wc = rng.uniform(0, 1, size=(c, c)) * (1.0 - np.eye(c))
    params = make_params(rng.uniform(0, 1), rng.uniform(0, 1), Wc,
                         ta, tb, tg, nbr.shape[1], 1, r)
    out = xcrf_forward(U, pos, feat, params, NeighborIndex(pos), neighborhoods=nbr)
    np.testing.assert_array_equal(out.argmax(axis=1), U.argmax(axis=1))


# -- prediction --------------------------------------------------------------------


def test_predict_basics():
    np.testing.assert_array_equal(predict(np.array([[0.1, 3.0, -1.0]])), [1])
    np.testing.assert_array_equal(predict(np.array([[0.5, 0.5, 0.5]])), [0])
    assert predict(np.zeros((0, 3))).shape == (0,)
    with pytest.raises(ValueError):
        predict(np.zeros(3))


def test_predict_softmax_invariance():
    rng = np.random.default_rng(11)
    U = rng.normal(size=(100, 5))
    e = np.exp(U - U.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(predict(soft), predict(U))


# -- gradients through the refinement ------------------------------------------------


def test_xcrf_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(5):
        U, pos, feat, nbr, wb, ws, Wc, ta, tb, tg, _ = random_instance(
            rng, n=12, c=3, k=3, r=2)
        params = make_params(wb, ws, Wc, ta, tb, tg, 3, 1, 2)
        resp = gaussian_filters(pos, feat, nbr, params)

        tape = Tape()
        wb_t = tape.leaf(wb)
        ws_t = tape.leaf(ws)
        compat_t = tape.leaf(Wc)
        out = xcrf_graph(tape, tape.leaf(U), resp.B_f, resp.S_f, nbr,
                         wb_t, ws_t, compat_t, r=2)
        loss = out.sum()
        grads = backward(tape, loss)

        def loss_at(wb_v, ws_v, Wc_v):
            p = make_params(wb_v, ws_v, Wc_v, ta, tb, tg, 3, 1, 2)
            return xcrf_forward(U, pos, feat, p, NeighborIndex(pos),
                                neighborhoods=nbr).sum()

        h = 1e-6
        fd_wb = (loss_at(wb + h, ws, Wc) - loss_at(wb - h, ws, Wc)) / (2 * h)
        fd_ws = (loss_at(wb, ws + h, Wc) - loss_at(wb, ws - h, Wc)) / (2 * h)
        assert abs(grads[wb_t.node_id] - fd_wb) <= 1e-3 * max(1.0, abs(fd_wb))
        assert abs(grads[ws_t.node_id] - fd_ws) <= 1e-3 * max(1.0, abs(fd_ws))

        g_compat = grads[compat_t.node_id]
        # diagonal is masked inside the graph, so its gradient is exactly zero
        np.testing.assert_array_equal(np.diag(g_compat), np.zeros(3))
        i, j = 0, 1
        dW = np.zeros_like(Wc)
        dW[i, j] = h
        fd = (loss_at(wb, ws, Wc + dW) - loss_at(wb, ws, Wc - dW)) / (2 * h)
        assert abs(g_compat[i, j] - fd) <= 1e-3 * max(1.0, abs(fd))


# -- the fused mean-field record against its six-op chain ------------------------------


# rows whose maximum is a zero of either sign, mixed zeros, ties, or
# infinite; the infinite rows spread nan through their neighbors, so they
# get a case of their own
SPECIAL_ROWS = {
    "zeros-and-ties": [[0.0, -1.0, -2.0, -3.0], [-0.0, -1.0, -2.0, -3.0],
                       [-0.0, 0.0, -1.0, -2.0], [0.0, -0.0, -1.0, -2.0],
                       [-0.0, -0.0, -0.0, -0.0], [1.5, 1.5, -1.0, 1.5]],
    "infinite": [[np.inf, 0.0, 1.0, 2.0], [-np.inf] * 4, [-np.inf, 0.5, -np.inf, 0.5]],
}


def _stack_case(cloud, shared, rows):
    """(U, positions, features, stack, index, coef): six levels at K = 12,
    r = 5, random weights and compatibilities, U's first rows special."""
    rng = np.random.default_rng(30)
    if cloud == "distinct":
        pos = rng.uniform(0.0, 16.0, size=(512, 3))
    else:
        pos = DUPLICATE_CLOUDS[cloud](rng)
    n = len(pos)
    feat = rng.normal(size=(n, 2))
    U = rng.normal(scale=2.0, size=(n, 4))
    U[:len(SPECIAL_ROWS[rows])] = SPECIAL_ROWS[rows]
    stack = AXcrfParams.initial(4, K=12, r=5, shared=shared)
    for lv in stack.levels:
        lv.bilateral_weight, lv.spatial_weight = rng.normal(scale=1.5, size=2)
        lv.compat = rng.normal(size=(4, 4)) * (1.0 - np.eye(4))
    return U, pos, feat, stack, NeighborIndex(pos), rng.normal(size=(n, 4))


def _stack_bytes(U, pos, feat, stack, index, coef):
    """Refined unaries and every leaf gradient (in leaf order), as bytes."""
    tape = Tape()
    out, _ = axcrf_graph(tape, tape.leaf(U), pos, feat, stack, index)
    loss = apply(tape, "sum", [out * tape.leaf(coef)])
    grads = backward(tape, loss)
    return out.values.tobytes(), [grads[i].tobytes() for i in sorted(grads)]


@pytest.mark.parametrize("rows", list(SPECIAL_ROWS))
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("cloud", ["distinct", *DUPLICATE_CLOUDS])
def test_mean_field_step_bit_equal_to_six_op_chain(cloud, shared, rows, monkeypatch):
    case = _stack_case(cloud, shared, rows)
    with np.errstate(invalid="ignore"):
        fused_out, fused_grads = _stack_bytes(*case)
        with monkeypatch.context() as m:
            m.setattr(axcrf.crf, "apply", chain_apply)
            chain_out, chain_grads = _stack_bytes(*case)
    assert fused_out == chain_out
    # U, coef and per level B_f, S_f and the hollow mask, plus the weights
    assert len(fused_grads) == len(chain_grads) == 2 + 6 * 3 + (3 if shared else 18)
    assert fused_grads == chain_grads
    if rows == "zeros-and-ties":
        assert np.isfinite(np.frombuffer(fused_out)).all()


@pytest.mark.parametrize("cloud", ["distinct", "resampled"])
def test_collected_states_equal_the_chain_snapshots(cloud, monkeypatch):
    U, pos, feat, stack, index, _ = _stack_case(cloud, False, "zeros-and-ties")
    level = stack.levels[2]

    def run():
        states = []
        out = xcrf_forward(U, pos, feat, level, index, collect_state=states)
        return out.tobytes(), [[getattr(s, f).tobytes() for f in
                                ("U", "U_1", "U_s", "W_u", "U_G", "U_p")]
                               for s in states]

    fused = run()
    with monkeypatch.context() as m:
        m.setattr(axcrf.crf, "apply", chain_apply)
        chain = run()
    assert len(fused[1]) == level.r
    assert fused == chain


@pytest.mark.parametrize("cloud", ["distinct", *DUPLICATE_CLOUDS])
def test_inference_forwards_bit_equal_to_recorded_graphs(cloud):
    # the inference forwards record nothing; their values must not move
    U, pos, feat, stack, index, _ = _stack_case(cloud, False, "zeros-and-ties")
    model = init_unary_model(3, C=4, C_in=2, K=12, block_channels=(24, 24),
                             block_strides=(1, 2), C_delta=12, hidden=24,
                             dropout_rate=0.0, offset_scale=4.0)
    tape = Tape()
    logits, _ = unary_graph(tape, pos, feat, model, index=index)
    assert tape._ops
    assert unary_forward(pos, feat, model, index=index).tobytes() == logits.values.tobytes()

    tape = Tape()
    out, _ = axcrf_graph(tape, tape.leaf(U), pos, feat, stack, index)
    assert tape._ops
    assert axcrf_forward(U, pos, feat, stack, index).tobytes() == out.values.tobytes()

    fields = ("U", "U_1", "U_s", "W_u", "U_G", "U_p")
    for level in stack.levels:
        nbr_idx, _ = atrous_gather_all(index, level.K, level.D)
        f = gaussian_filters(pos, feat, nbr_idx, level)
        tape, recorded = Tape(), []
        out = xcrf_graph(tape, tape.leaf(U), f.B_f, f.S_f, nbr_idx,
                         tape.leaf(level.bilateral_weight),
                         tape.leaf(level.spatial_weight), tape.leaf(level.compat),
                         level.r, collect=recorded)
        assert len(tape._ops) > level.r
        states = []
        got = xcrf_forward(U, pos, feat, level, index, collect_state=states)
        assert got.tobytes() == out.values.tobytes()
        assert len(states) == len(recorded) == level.r
        assert ([[getattr(s, k).tobytes() for k in fields] for s in states]
                == [[getattr(s, k).tobytes() for k in fields] for s in recorded])


# -- bandwidth grid search -------------------------------------------------------------


def _grid_blocks(rng, n_blocks=2, n=24, c=3):
    blocks = []
    for _ in range(n_blocks):
        pos = rng.uniform(0, 4, size=(n, 3))
        feat = rng.normal(size=(n, 2))
        labels = rng.integers(0, c, size=n)
        U = np.full((n, c), -1.0)
        U[np.arange(n), labels] = 1.0
        noise_at = rng.choice(n, size=n // 4, replace=False)
        U[noise_at] = rng.normal(size=(noise_at.size, c))
        blocks.append((U, pos, feat, labels, NeighborIndex(pos)))
    return blocks


def test_grid_search_returns_candidate_triple():
    rng = np.random.default_rng(13)
    blocks = _grid_blocks(rng)
    res = grid_search_thetas(blocks, 3, D_list=(1, 2), K=4, r=2,
                             alpha_candidates=(0.5, 1.0),
                             beta_candidates=(0.1, 0.5),
                             gamma_candidates=(0.5, 2.0))
    assert res.theta_alpha in (0.5, 1.0)
    assert res.theta_beta in (0.1, 0.5)
    assert res.theta_gamma in (0.5, 2.0)
    assert 0.0 <= res.overall_accuracy <= 1.0
    again = grid_search_thetas(blocks, 3, D_list=(1, 2), K=4, r=2,
                               alpha_candidates=(0.5, 1.0),
                               beta_candidates=(0.1, 0.5),
                               gamma_candidates=(0.5, 2.0))
    assert again == res


def test_grid_search_tie_keeps_earliest_candidate():
    # zero-weight refinement makes every triple score identically
    rng = np.random.default_rng(14)
    pos = rng.uniform(0, 4, size=(16, 3))
    feat = rng.normal(size=(16, 2))
    labels = rng.integers(0, 2, size=16)
    U = np.zeros((16, 2))
    U[np.arange(16), labels] = 1.0
    blocks = [(U, pos, feat, labels, NeighborIndex(pos))]
    res = grid_search_thetas(blocks, 2, D_list=(1,), K=2, r=0,
                             alpha_candidates=(2.0, 0.5),
                             beta_candidates=(0.25, 0.1),
                             gamma_candidates=(4.0, 1.0))
    assert (res.theta_alpha, res.theta_beta, res.theta_gamma) == (2.0, 0.25, 4.0)
    assert res.overall_accuracy == 1.0


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_grid_search_matches_triple_outer_oracle(cloud):
    # recipe shapes: six strides up to rank 12 x 16 = 192 over duplicate-heavy
    # samples; the exhaustive search keeps the first triple at the unary OA
    rng = np.random.default_rng(15)
    blocks = []
    for _ in range(2):
        pos = cloud(rng)
        n = pos.shape[0]
        # a repeated point repeats its features too
        feat = np.stack([np.sin(pos.sum(axis=1)), np.cos(3.0 * pos[:, 2])], axis=1)
        labels = rng.integers(0, 4, size=n)
        U = rng.normal(scale=0.5, size=(n, 4))
        U[np.arange(n), labels] += 0.3
        blocks.append((U, pos, feat, labels, NeighborIndex(pos)))
    grid = dict(D_list=(1, 2, 3, 4, 8, 16), K=12, r=5, alpha_candidates=(0.5, 2.0),
                beta_candidates=(0.05, 0.5), gamma_candidates=(1.0, 4.0))
    res = grid_search_thetas(blocks, 4, **grid)
    triple, oa = triple_outer_grid(blocks, 4, **grid)
    first = (0.5, 0.05, 1.0)
    assert (res.theta_alpha, res.theta_beta, res.theta_gamma) == triple == first
    right = sum(int((predict(U) == labels).sum()) for U, _, _, labels, _ in blocks)
    assert res.overall_accuracy == oa == right / sum(len(U) for U, *_ in blocks)


def _signed_params(rng, C, D_list=(1, 2, 3, 4, 8, 16), K=12):
    # signed weights and compatibilities move argmaxes, unlike the initial ones
    params = AXcrfParams.initial(C, D_list=D_list, K=K, r=3,
                                 theta_alpha=float(rng.uniform(0.5, 2.0)),
                                 theta_beta=float(rng.uniform(0.05, 0.5)),
                                 theta_gamma=float(rng.uniform(0.5, 4.0)))
    for lv in params.levels:
        lv.bilateral_weight, lv.spatial_weight = rng.normal(scale=2.0, size=2)
        lv.compat = rng.normal(size=(C, C)) * (1.0 - np.eye(C))
    return params


@pytest.mark.parametrize("cloud", list(DUPLICATE_CLOUDS.values()), ids=list(DUPLICATE_CLOUDS))
def test_shared_sort_and_geometry_are_bit_equal(cloud):
    # a deeper sort handed in must reproduce the per-call forward
    rng = np.random.default_rng(16)
    pos = cloud(rng)
    feat = np.stack([np.sin(pos.sum(axis=1)), np.cos(3.0 * pos[:, 2])], axis=1)
    U = rng.normal(size=(pos.shape[0], 4))
    index = NeighborIndex(pos)
    deep_i, _ = index.nearest_others_all(200)
    for _ in range(3):
        params = _signed_params(rng, 4)
        want = axcrf_forward(U, pos, feat, params, index)
        assert np.any(predict(want) != predict(U))
        shared = axcrf_forward(U, pos, feat, params, index, deep_i)
        np.testing.assert_array_equal(shared, want)


def test_grid_search_validation():
    with pytest.raises(ValueError):
        grid_search_thetas([], 3)
