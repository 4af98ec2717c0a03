"""Per-point classifier built from stacked X-Conv blocks.

One X-Conv block moves each point's K gathered neighbors into a local
frame, lifts the offsets into point features, learns a K x K transformation
of the combined (lifted + input) neighbor features from those same offsets,
and collapses the transformed neighborhood with a trainable kernel. Two
blocks feed a dropout-guarded fully connected head that emits C logits per
point; those logits are the unary potentials the refinement stack consumes.

No downsampling between blocks: every block maps N points to N points, so
block i+1 gathers neighborhoods over the same point set with its own
stride. Batch normalization is deliberately absent; batches here are a
handful of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tape, Tensor, apply
from .neighbors import build_index, atrous_gather_all

__all__ = [
    "MlpParams", "XConvParams", "UnaryModelParams",
    "init_mlp", "init_xconv", "init_unary_model",
    "mlp_graph", "xconv_graph", "unary_graph",
    "unary_forward", "cross_entropy_graph", "cross_entropy",
    "named_param_arrays",
]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


@dataclass
class MlpParams:
    """Two-layer perceptron, relu between the layers, linear output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[1] != self.b2.shape[0]:
            raise ValueError("bias widths do not match weight widths")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError(f"hidden widths differ: {self.w1.shape} then {self.w2.shape}")

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "MlpParams":
        return MlpParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def init_mlp(rng: np.random.Generator, d_in: int, hidden: int, d_out: int) -> MlpParams:
    return MlpParams(
        w1=glorot_uniform(rng, d_in, hidden), b1=np.zeros(hidden),
        w2=glorot_uniform(rng, hidden, d_out), b2=np.zeros(d_out))


@dataclass
class XConvParams:
    """One X-Conv block.

    lift maps a single 3-D local offset to C_delta features (applied per
    neighbor row); xform maps all K offsets, flattened, to a K x K
    transformation matrix; conv_kernel collapses the K transformed rows of
    (C_delta + C_in) features into C_out output channels.
    """

    lift: MlpParams
    xform: MlpParams
    conv_kernel: np.ndarray   # (K * (C_delta + C_in)) x C_out
    conv_bias: np.ndarray     # C_out
    K: int
    C_in: int
    D: int = 1                # atrous stride used to gather this block's neighbors
    # offsets are divided by this before entering the MLPs; equivalent to
    # rescaling the first-layer weights at init, it conditions metric-scale
    # inputs (meters) to the unit range the initialization assumes
    offset_scale: float = 1.0

    def __post_init__(self):
        self.conv_kernel = np.asarray(self.conv_kernel, dtype=np.float64)
        self.conv_bias = np.asarray(self.conv_bias, dtype=np.float64)
        if self.lift.d_in != 3:
            raise ValueError(f"lift must consume 3-D offsets, got d_in={self.lift.d_in}")
        if self.xform.d_in != 3 * self.K:
            raise ValueError(f"xform must consume {3 * self.K} flattened offsets, got {self.xform.d_in}")
        if self.xform.d_out != self.K * self.K:
            raise ValueError(f"xform must emit a {self.K}x{self.K} matrix, got width {self.xform.d_out}")
        expect = self.K * (self.C_delta + self.C_in)
        if self.conv_kernel.shape[0] != expect:
            raise ValueError(f"conv_kernel expects {expect} inputs, got {self.conv_kernel.shape[0]}")
        if self.conv_kernel.shape[1] != self.conv_bias.shape[0]:
            raise ValueError("conv bias width does not match kernel output width")
        for arr in (self.conv_kernel, self.conv_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("conv weights contain non-finite values")
        if self.K < 1 or self.D < 1:
            raise ValueError(f"need K >= 1 and D >= 1, got K={self.K}, D={self.D}")
        if self.offset_scale <= 0:
            raise ValueError(f"offset_scale must be positive, got {self.offset_scale}")

    @property
    def C_delta(self) -> int:
        return self.lift.d_out

    @property
    def C_out(self) -> int:
        return self.conv_kernel.shape[1]

    def copy(self) -> "XConvParams":
        return XConvParams(self.lift.copy(), self.xform.copy(), self.conv_kernel.copy(),
                           self.conv_bias.copy(), self.K, self.C_in, self.D,
                           self.offset_scale)


def init_xconv(rng: np.random.Generator, K: int, C_in: int, C_out: int,
               C_delta: int = 16, hidden: int = 32, D: int = 1,
               offset_scale: float = 1.0) -> XConvParams:
    lift = init_mlp(rng, 3, hidden, C_delta)
    xform = init_mlp(rng, 3 * K, hidden, K * K)
    fan_in = K * (C_delta + C_in)
    return XConvParams(lift=lift, xform=xform,
                       conv_kernel=glorot_uniform(rng, fan_in, C_out),
                       conv_bias=np.zeros(C_out), K=K, C_in=C_in, D=D,
                       offset_scale=offset_scale)


@dataclass
class UnaryModelParams:
    """Stacked X-Conv blocks plus the fully connected classification head."""

    blocks: list[XConvParams]
    head: MlpParams
    dropout_rate: float
    C: int

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if self.head.d_out != self.C:
            raise ValueError(f"head emits {self.head.d_out} logits for {self.C} classes")
        if self.head.d_in != self.blocks[-1].C_out:
            raise ValueError("head input width does not match last block output")
        for i in range(1, len(self.blocks)):
            if self.blocks[i].C_in != self.blocks[i - 1].C_out:
                raise ValueError(f"block {i} consumes {self.blocks[i].C_in} channels, "
                                 f"block {i - 1} emits {self.blocks[i - 1].C_out}")

    @property
    def max_neighbor_rank(self) -> int:
        return max(b.K * b.D for b in self.blocks)

    def copy(self) -> "UnaryModelParams":
        return UnaryModelParams([b.copy() for b in self.blocks], self.head.copy(),
                                self.dropout_rate, self.C)


def init_unary_model(seed: int, C: int, C_in: int, K: int = 16,
                     block_channels=(32, 32), block_strides=(1, 2),
                     C_delta: int = 16, hidden: int = 32,
                     dropout_rate: float = 0.3,
                     offset_scale: float = 1.0) -> UnaryModelParams:
    """Fresh model; weights uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out))."""
    if len(block_channels) != len(block_strides):
        raise ValueError("block_channels and block_strides lengths differ")
    rng = np.random.default_rng(seed)
    blocks = []
    c_prev = C_in
    for c_out, d in zip(block_channels, block_strides):
        blocks.append(init_xconv(rng, K=K, C_in=c_prev, C_out=c_out,
                                 C_delta=C_delta, hidden=hidden, D=d,
                                 offset_scale=offset_scale))
        c_prev = c_out
    head = init_mlp(rng, c_prev, hidden, C)
    return UnaryModelParams(blocks=blocks, head=head, dropout_rate=dropout_rate, C=C)


def _bind(tape: Tape, bindings: dict, name: str, value: np.ndarray) -> Tensor:
    t = tape.leaf(value)
    bindings[name] = t
    return t


def mlp_graph(tape: Tape, x: Tensor, params: MlpParams,
              bindings: dict, prefix: str) -> Tensor:
    w1 = _bind(tape, bindings, f"{prefix}.w1", params.w1)
    b1 = _bind(tape, bindings, f"{prefix}.b1", params.b1)
    w2 = _bind(tape, bindings, f"{prefix}.w2", params.w2)
    b2 = _bind(tape, bindings, f"{prefix}.b2", params.b2)
    h = apply(tape, "affine", [x, w1, b1], relu=True)
    return apply(tape, "affine", [h, w2, b2])


def xconv_graph(tape: Tape, offsets: np.ndarray, nbr_idx: np.ndarray,
                F: Tensor, params: XConvParams, bindings: dict, prefix: str) -> Tensor:
    """One batched X-Conv block over N points.

    offsets are the K neighbor positions per point already moved into the
    point's local frame (N x K x 3, constants); F holds the per-point input
    features (N x C_in) the block mixes with the lifted offsets.
    """
    n, K = nbr_idx.shape
    if K != params.K:
        raise ValueError(f"block expects K={params.K} neighbors, got {K}")
    if offsets.shape != (n, K, 3):
        raise ValueError(f"offsets must be {(n, K, 3)}, got {offsets.shape}")
    if F.shape != (n, params.C_in):
        raise ValueError(f"features must be {(n, params.C_in)}, got {F.shape}")
    cd, ci = params.C_delta, params.C_in
    offsets = offsets / params.offset_scale

    flat_off = tape.leaf(offsets.reshape(n * K, 3))
    f_delta = mlp_graph(tape, flat_off, params.lift, bindings, f"{prefix}.lift")
    f_delta = f_delta.reshape((n, K, cd))

    f_nbr = F.gather_rows(nbr_idx.ravel()).reshape((n, K, ci))
    f_star = apply(tape, "concatenate", [f_delta, f_nbr], axis=2)

    xin = tape.leaf(offsets.reshape(n, 3 * K))
    x_mat = mlp_graph(tape, xin, params.xform, bindings, f"{prefix}.xform").reshape((n, K, K))
    f_x = x_mat.bmm(f_star)

    kernel = _bind(tape, bindings, f"{prefix}.conv_kernel", params.conv_kernel)
    bias = _bind(tape, bindings, f"{prefix}.conv_bias", params.conv_bias)
    flat = f_x.reshape((n, K * (cd + ci)))
    return apply(tape, "affine", [flat, kernel, bias], relu=True)


def unary_graph(tape: Tape, positions: np.ndarray, features: np.ndarray,
                params: UnaryModelParams, training: bool = False,
                dropout_rng: np.random.Generator | None = None,
                index=None,
                sorted_idx: np.ndarray | None = None) -> tuple[Tensor, dict[str, Tensor]]:
    """Record the full classifier; returns (logits tensor, parameter bindings).

    Neighborhoods are gathered over the sampled points themselves, one
    stride per block, all strides sharing a single sorted-neighbor pass at
    ``params.max_neighbor_rank``. Pass ``sorted_idx`` from a deeper
    ``index.nearest_others_all`` to share one sort with the refinement
    stack; its leading columns equal a shallower query bit for bit, as lists
    are sorted by (distance, index).
    """
    positions = np.asarray(positions, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    n = positions.shape[0]
    if features.shape[0] != n:
        raise ValueError(f"{features.shape[0]} feature rows for {n} points")
    if params.blocks[0].C_in != features.shape[1]:
        raise ValueError(f"first block consumes {params.blocks[0].C_in} channels, "
                         f"features have {features.shape[1]}")
    if index is None:
        index = build_index(positions)
    if sorted_idx is None:
        sorted_idx = index.nearest_others_all(params.max_neighbor_rank)[0]

    bindings: dict[str, Tensor] = {}
    feat_t = tape.leaf(features)
    for bi, block in enumerate(params.blocks):
        nbr_idx, _ = atrous_gather_all(index, block.K, block.D,
                                       sorted_idx=sorted_idx)
        offsets = positions.take(nbr_idx, axis=0) - positions[:, None, :]
        feat_t = xconv_graph(tape, offsets, nbr_idx, feat_t, block, bindings, f"unary.block{bi}")

    if training and params.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("training-mode forward needs a dropout rng")
        feat_t = apply(tape, "dropout-mask", [feat_t],
                       rate=params.dropout_rate, rng=dropout_rng)
    logits = mlp_graph(tape, feat_t, params.head, bindings, "unary.head")
    return logits, bindings


def unary_forward(positions: np.ndarray, features: np.ndarray,
                  params: UnaryModelParams, training: bool = False,
                  dropout_rng: np.random.Generator | None = None,
                  index=None, sorted_idx: np.ndarray | None = None) -> np.ndarray:
    """Inference-style forward: N x C logits as plain values, computed on
    a tape that records nothing."""
    tape = Tape(record=False)
    logits, _ = unary_graph(tape, positions, features, params, training=training,
                            dropout_rng=dropout_rng, index=index,
                            sorted_idx=sorted_idx)
    return logits.values.copy()


def named_param_arrays(model: UnaryModelParams) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed by the same names the
    graph builders bind, so gradients can be applied in place."""
    out: dict[str, np.ndarray] = {}
    parts = [(f"unary.block{bi}", b) for bi, b in enumerate(model.blocks)]
    for prefix, block in parts:
        for sub, mlp in (("lift", block.lift), ("xform", block.xform)):
            for w in ("w1", "b1", "w2", "b2"):
                out[f"{prefix}.{sub}.{w}"] = getattr(mlp, w)
        out[f"{prefix}.conv_kernel"] = block.conv_kernel
        out[f"{prefix}.conv_bias"] = block.conv_bias
    for w in ("w1", "b1", "w2", "b2"):
        out[f"unary.head.{w}"] = getattr(model.head, w)
    return out


def cross_entropy_graph(tape: Tape, logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over points of -log softmax probability of the true class."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    mask = np.zeros((n, c))
    mask[np.arange(n), labels] = -1.0
    # fused log-softmax stays finite when the softmax of a class underflows
    picked = logits.log_softmax_rows() * tape.leaf(mask)
    return apply(tape, "sum", [picked]) * (1.0 / n)


def cross_entropy(U: np.ndarray, labels: np.ndarray) -> float:
    tape = Tape(record=False)
    loss = cross_entropy_graph(tape, tape.leaf(np.asarray(U, dtype=np.float64)), labels)
    return float(loss.values)
