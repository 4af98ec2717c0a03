"""Independently coded references shared by the test modules.

Everything here re-derives results with explicit loops and scalar formulas,
sharing no code with the package beyond numpy itself. The production code
is vectorized (dense distance-matrix selection, batched gathers, einsum
aggregation); agreement between the two routes is what the tests certify.
Four exceptions drive package code by an older, plainer route:
``triple_outer_grid`` runs the exhaustive bandwidth search that
``grid_search_thetas`` answers without running, from the package's public
per-call forward, one fresh neighbor sort per (triple, block);
``xconv_forward`` applies one X-Conv block to one point on a tape of its
own; ``chain_apply`` records each dense layer as matrix-multiply, add and
relu, and each mean-field iteration as its six-op chain;
``full_map_backward`` walks a tape keeping every gradient to the end.
"""

import math

import numpy as np


# -- duplicate-heavy point sets ------------------------------------------------


def _resampled(rng):
    # the recipe's regime: 256 samples drawn with replacement from ~100 points
    return rng.normal(size=(100, 3))[rng.integers(0, 100, size=256)]


# name -> rng -> M x 3 positions, each rich in repeated points and tied distances
DUPLICATE_CLOUDS = {
    "resampled": _resampled,
    "lattice": lambda rng: rng.integers(0, 6, size=(300, 3)).astype(float),
    "identical": lambda rng: np.full((200, 3), 1.5),
}


# -- neighbor selection -------------------------------------------------------


def brute_sorted_others(positions, q):
    """All points except q, sorted by (distance, index)."""
    d = np.linalg.norm(positions - positions[q], axis=1)
    idx = np.arange(len(positions))
    keep = idx != q
    idx, d = idx[keep], d[keep]
    order = np.lexsort((idx, d))
    return idx[order], d[order]


def brute_atrous(positions, q, K, D):
    """Sort-then-stride reference: ranks D, 2D, ..., K*D (1-indexed),
    cyclically repeating the sorted list when it is too short."""
    idx, d = brute_sorted_others(positions, q)
    need = K * D
    if idx.size < need:
        reps = -(-need // idx.size)
        idx = np.tile(idx, reps)[:need]
        d = np.tile(d, reps)[:need]
    sel = np.arange(D - 1, need, D)
    return idx[sel], d[sel]


# -- mean-field refinement ------------------------------------------------------


def ref_filters(positions, features, nbr, ta, tb, tg):
    n, k = nbr.shape
    B = np.zeros((n, k))
    S = np.zeros((n, k))
    for i in range(n):
        for a in range(k):
            j = nbr[i, a]
            dp = sum((positions[i, d] - positions[j, d]) ** 2 for d in range(3))
            df = sum((features[i, d] - features[j, d]) ** 2
                     for d in range(features.shape[1]))
            B[i, a] = math.exp(-dp / (2 * ta * ta) - df / (2 * tb * tb))
            S[i, a] = math.exp(-dp / (2 * tg * tg))
    return B, S


def ref_xcrf(U, positions, features, nbr, wb, ws, Wc, ta, tb, tg, r):
    """Straight transliteration of the r-iteration penalty loop."""
    n, c = U.shape
    B, S = ref_filters(positions, features, nbr, ta, tb, tg)
    G = wb * B + ws * S
    hollow = Wc * (1.0 - np.eye(c))
    u1 = U.copy()
    for _ in range(r):
        us = np.zeros_like(u1)
        for i in range(n):
            m = max(u1[i])
            e = [math.exp(u1[i, q] - m) for q in range(c)]
            z = sum(e)
            for q in range(c):
                us[i, q] = e[q] / z
        up = np.zeros_like(u1)
        for i in range(n):
            star = int(np.argmax(us[i]))          # ties to lowest index
            for q in range(c):
                acc = 0.0
                for a in range(nbr.shape[1]):
                    acc += G[i, a] * us[nbr[i, a], q]
                up[i, q] = acc * hollow[star, q]
        u1 = U - up
    return u1


def random_instance(rng, n=None, c=None, k=None, r=None):
    n = n if n is not None else int(rng.integers(4, 65))
    c = c if c is not None else int(rng.integers(2, 6))
    k = k if k is not None else int(rng.integers(1, min(8, n - 1) + 1))
    r = r if r is not None else int(rng.integers(0, 6))
    positions = rng.uniform(-5, 5, size=(n, 3))
    features = rng.normal(size=(n, 2))
    U = rng.normal(scale=2.0, size=(n, c))
    nbr = np.zeros((n, k), dtype=np.intp)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        nbr[i] = rng.choice(others, size=k, replace=False)
    wb, ws = rng.normal(scale=1.5, size=2)
    Wc = rng.normal(size=(c, c)) * (1.0 - np.eye(c))
    ta, tb, tg = rng.uniform(0.3, 3.0, size=3)
    return U, positions, features, nbr, wb, ws, Wc, ta, tb, tg, r


# -- bandwidth grid search --------------------------------------------------------


def triple_outer_grid(blocks, C, D_list, K, r, alpha_candidates, beta_candidates,
                      gamma_candidates):
    """Triples outer, blocks inner, one ``axcrf_forward`` per (triple, block);
    the first triple with the strictly best accuracy wins.
    Returns ((alpha, beta, gamma), overall accuracy)."""
    from axcrf.crf import AXcrfParams, axcrf_forward

    best = None
    for ta in alpha_candidates:
        for tb in beta_candidates:
            for tg in gamma_candidates:
                params = AXcrfParams.initial(C, D_list=D_list, K=K, r=r,
                                             theta_alpha=ta, theta_beta=tb,
                                             theta_gamma=tg)
                correct = total = 0
                for U, positions, features, labels, index in blocks:
                    out = axcrf_forward(U, positions, features, params, index)
                    correct += int((out.argmax(axis=1) == labels).sum())
                    total += labels.size
                oa = correct / total
                if best is None or oa > best[1]:
                    best = ((ta, tb, tg), oa)
    return best


# -- single-point X-Conv block -----------------------------------------------------


def xconv_forward(p, P, F, params):
    """Single-point block application: K neighbor positions and features
    in, C_out features for the representative point out."""
    from axcrf.autograd import Tape, apply
    from axcrf.model import mlp_graph

    p = np.asarray(p, dtype=np.float64).reshape(3)
    P = np.asarray(P, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    if P.shape != (params.K, 3):
        raise ValueError(f"expected {params.K} neighbor positions, got {P.shape}")
    if F.shape != (params.K, params.C_in):
        raise ValueError(f"expected {params.K} x {params.C_in} neighbor features, got {F.shape}")
    tape = Tape()
    bindings = {}
    offsets = (P - p)[None, :, :] / params.offset_scale
    # neighbor features arrive explicitly here, so no gather is involved
    feat_rows = tape.leaf(F)
    cd, ci = params.C_delta, params.C_in
    flat_off = tape.leaf(offsets.reshape(params.K, 3))
    f_delta = mlp_graph(tape, flat_off, params.lift, bindings, "xconv.lift").reshape((1, params.K, cd))
    f_star = apply(tape, "concatenate",
                   [f_delta, feat_rows.reshape((1, params.K, ci))], axis=2)
    xin = tape.leaf(offsets.reshape(1, 3 * params.K))
    x_mat = mlp_graph(tape, xin, params.xform, bindings, "xconv.xform").reshape((1, params.K, params.K))
    f_x = x_mat.bmm(f_star)
    kernel = tape.leaf(params.conv_kernel)
    bias = tape.leaf(params.conv_bias)
    out = (f_x.reshape((1, params.K * (cd + ci))).matmul(kernel) + bias).relu()
    return out.values.reshape(-1).copy()


# -- dense layers ------------------------------------------------------------------


def chain_apply(tape, kind, inputs, **attrs):
    """``autograd.apply`` with each fused record replaced by the chain it
    fuses: ``affine`` by matrix-multiply -> add [-> relu], and
    ``mean-field-step`` by softmax-rows -> one-hot-argmax -> matrix-multiply
    -> weighted-gather-sum -> elementwise-multiply -> subtract, filling a
    ``snapshot`` list with the chain's (u_s, w_u, u_g, u_p) values."""
    from axcrf.autograd import apply

    if kind == "affine":
        x, w, b = inputs
        out = apply(tape, "add", [apply(tape, "matrix-multiply", [x, w]), b])
        return apply(tape, "relu", [out]) if attrs.get("relu") else out
    if kind == "mean-field-step":
        U, g_w, hollow, u_prev = inputs
        u_s = apply(tape, "softmax-rows", [u_prev])
        one_hot = apply(tape, "one-hot-argmax", [u_s])
        w_u = apply(tape, "matrix-multiply", [one_hot, hollow])
        u_g = apply(tape, "weighted-gather-sum", [u_s, g_w], indices=attrs["indices"])
        u_p = apply(tape, "elementwise-multiply", [u_g, w_u])
        if attrs.get("snapshot") is not None:
            attrs["snapshot"].append(tuple(t.values for t in (u_s, w_u, u_g, u_p)))
        return apply(tape, "subtract", [U, u_p])
    return apply(tape, kind, inputs, **attrs)


# -- reverse pass ------------------------------------------------------------------


def full_map_backward(tape, loss):
    """Reverse pass that keeps the gradient of every tape node to the end
    and leaves the op records in place: {leaf node_id: grad}, zeros where
    the loss does not reach. Every op is asked for the gradient of every
    input. Walk and accumulation order match ``autograd.backward``."""
    grads = {loss.node_id: np.ones_like(loss.values)}
    for out_id, in_ids, bk in reversed(tape._ops):
        g = grads.get(out_id)
        if g is None or bk is None:
            continue
        for i, ig in zip(in_ids, bk(g, (True,) * len(in_ids))):
            acc = grads.get(i)
            grads[i] = ig if acc is None else acc + ig
    return {t.node_id: grads.get(t.node_id, np.zeros_like(t.values))
            for t in tape.tensors}
