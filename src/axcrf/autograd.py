"""Tape-based reverse-mode automatic differentiation on dense float64 arrays.

Deliberately small: only the operations needed to train the X-Conv point
classifier and the CRF refinement stack on a CPU. Every forward pass records
onto a fresh :class:`Tape`; a single :func:`backward` walk then fills the
``grad`` slot of the leaves on that tape (the parameters and constants made
by :meth:`Tape.leaf`). Tensors are immutable after creation (except for grad
population), so forward values are reproducible bit-for-bit in
single-threaded runs.

The tape holds only what a backward reads. Each record is ``(output id,
input ids, backward)``: node ids come from a counter on the tape, and
``Tape.tensors`` lists the leaves alone. An op output therefore lives only
as long as the graph builder or some backward closure holds it. Each
closure keeps what its backward reads and nothing more: ``add``,
``subtract``, ``gather-rows``, ``reshape``, ``sum`` and ``mean`` keep input
shapes rather than input arrays, and ``affine`` keeps its output only when
it applies the relu, whose mask the backward reads. A ``Tape(record=False)``
keeps no record and no leaf: the inference forwards run on one, so their
intermediates die as soon as the next op has read them, and ``backward``
on it raises. Recording changes no numpy call, so values are the same
either way.

The walk computes only the gradients something reads. ``backward`` takes
the leaves the caller wants, marks every tensor that depends on one of them,
and tells each op's backward which of its inputs need a gradient; the op
skips the rest. Ops that pass no gradient (``one-hot-argmax``,
``stop-gradient``) end the marking. Unwanted leaves get zero gradients, as
leaves the loss does not reach do. Every gradient that is computed is
computed as a walk over all leaves computes it, so wanted gradients do not
depend on what else is wanted.

The walk consumes the tape: each op record, with its closure, and each op
output's gradient are released once that record has been passed, so op
outputs keep ``grad`` None and the tape cannot be walked again.

Two records fuse chains of ops, with the same numpy calls in the same order
as the chain, so values and gradients equal the chain's bit for bit:

- ``affine`` is a dense layer, ``x @ w + b``, optionally followed by an
  in-place relu: the ``matrix-multiply`` -> ``add`` -> ``relu`` chain.
- ``mean-field-step`` is one mean-field iteration of the CRF refinement:
  the ``softmax-rows`` -> ``one-hot-argmax`` -> ``matrix-multiply`` ->
  ``weighted-gather-sum`` -> ``elementwise-multiply`` -> ``subtract``
  chain. Its softmax takes the row maximum one column at a time, which can
  differ from ``max(axis=1)`` only in the sign of a zero maximum; that
  shift feeds only ``exp``, and ``x - (+0)`` and ``x - (-0)`` differ only
  at ``x = +-0``, where ``exp`` gives 1 either way.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable

import numpy as np

__all__ = ["Tape", "Tensor", "apply", "backward", "grad_check", "OP_KINDS"]


class Tensor:
    """Dense float64 array registered on a tape, with a gradient slot.

    A tensor refers to its tape weakly, so a dropped tape is freed at once
    rather than by the cyclic collector: keep the tape bound while in use.
    """

    __slots__ = ("_tape", "values", "grad", "node_id")

    def __init__(self, tape: "Tape", values: np.ndarray, node_id: int):
        self._tape = weakref.ref(tape)
        self.values = values
        self.grad: np.ndarray | None = None
        self.node_id = node_id

    @property
    def tape(self) -> "Tape":
        return self._tape()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"

    # -- convenience wrappers over apply() -------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return self.tape.leaf(other)

    def __add__(self, other):
        return apply(self.tape, "add", [self, self._coerce(other)])

    def __radd__(self, other):
        return apply(self.tape, "add", [self._coerce(other), self])

    def __sub__(self, other):
        return apply(self.tape, "subtract", [self, self._coerce(other)])

    def __rsub__(self, other):
        return apply(self.tape, "subtract", [self._coerce(other), self])

    def __mul__(self, other):
        return apply(self.tape, "elementwise-multiply", [self, self._coerce(other)])

    def __rmul__(self, other):
        return apply(self.tape, "elementwise-multiply", [self._coerce(other), self])

    def matmul(self, other: "Tensor") -> "Tensor":
        return apply(self.tape, "matrix-multiply", [self, other])

    def bmm(self, other: "Tensor") -> "Tensor":
        return apply(self.tape, "batched-matrix-multiply", [self, other])

    def exp(self) -> "Tensor":
        return apply(self.tape, "exponential", [self])

    def log(self) -> "Tensor":
        return apply(self.tape, "natural-log", [self])

    def relu(self) -> "Tensor":
        return apply(self.tape, "relu", [self])

    def softmax_rows(self) -> "Tensor":
        return apply(self.tape, "softmax-rows", [self])

    def log_softmax_rows(self) -> "Tensor":
        return apply(self.tape, "log-softmax-rows", [self])

    def sum(self) -> "Tensor":
        return apply(self.tape, "sum", [self])

    def mean(self) -> "Tensor":
        return apply(self.tape, "mean", [self])

    def reshape(self, shape) -> "Tensor":
        return apply(self.tape, "reshape", [self], shape=tuple(shape))

    def gather_rows(self, indices) -> "Tensor":
        return apply(self.tape, "gather-rows", [self], indices=indices)

    def stop_gradient(self) -> "Tensor":
        return apply(self.tape, "stop-gradient", [self])


class Tape:
    """Ordered record of one forward computation.

    Construction is single-writer and topologically ordered by definition:
    an operation can only consume tensors that already exist on the tape.
    Exactly one backward pass is allowed per tape, and it consumes the op
    records. ``tensors`` lists the leaves; a record holds node ids, not
    tensors. With ``record=False`` the tape keeps neither, for forwards
    whose values are all the caller reads.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.tensors: list[Tensor] = []
        self._ops: list[tuple[int, tuple[int, ...], object]] = []
        self._next_id = 0
        self._backward_done = False

    def _tensor(self, values: np.ndarray) -> Tensor:
        t = Tensor(self, values, self._next_id)
        self._next_id += 1
        return t

    def leaf(self, values) -> Tensor:
        """Register a new input tensor (parameter or constant)."""
        t = self._tensor(np.asarray(values, dtype=np.float64))
        if self.record:
            self.tensors.append(t)
        return t

    def _record(self, inputs: list[Tensor], out_values: np.ndarray, backward_fn) -> Tensor:
        for t in inputs:
            if t.tape is not self:
                raise ValueError("input tensor belongs to a different record")
        out = self._tensor(out_values)
        if self.record:
            self._ops.append((out.node_id, tuple(t.node_id for t in inputs),
                              backward_fn))
        return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_broadcast(a: np.ndarray, b: np.ndarray, kind: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{kind}: incompatible shapes {a.shape} and {b.shape}") from None


# Every op returns (output values, backward). The backward takes the
# output's gradient and a tuple saying which inputs need a gradient, and
# returns one gradient per input; an input that needs none may get None.
# An op that passes no gradient returns None for its backward.


def _op_add(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "add")
    out = a + b
    sa, sb = a.shape, b.shape

    def bk(g, need):
        return (_unbroadcast(g, sa) if need[0] else None,
                _unbroadcast(g, sb) if need[1] else None)

    return out, bk


def _op_subtract(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "subtract")
    out = a - b
    sa, sb = a.shape, b.shape

    def bk(g, need):
        return (_unbroadcast(g, sa) if need[0] else None,
                _unbroadcast(-g, sb) if need[1] else None)

    return out, bk


def _op_multiply(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "elementwise-multiply")
    out = a * b

    def bk(g, need):
        return (_unbroadcast(g * b, a.shape) if need[0] else None,
                _unbroadcast(g * a, b.shape) if need[1] else None)

    return out, bk


def _op_matmul(vals, attrs):
    a, b = vals
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matrix-multiply: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matrix-multiply: inner dimensions differ, {a.shape} and {b.shape}")
    out = a @ b

    def bk(g, need):
        return g @ b.T if need[0] else None, a.T @ g if need[1] else None

    return out, bk


def _op_affine(vals, attrs):
    # the matrix-multiply -> add [-> relu] chain's numpy calls in its order,
    # writing one (n, d) array where the chain wrote three
    x, w, b = vals
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"affine: expected 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"affine: inner dimensions differ, {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"affine: bias shape {b.shape} does not match weight width {w.shape[1]}")
    relu = bool(attrs.get("relu", False))
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    # only the relu's mask reads the output
    kept = out if relu else None
    sb = b.shape

    def bk(g, need):
        if kept is not None:
            # out > 0 exactly where the pre-activation is > 0, nan included
            g = g * (kept > 0.0)
        return (g @ w.T if need[0] else None, x.T @ g if need[1] else None,
                _unbroadcast(g, sb) if need[2] else None)

    return out, bk


def _op_batched_matmul(vals, attrs):
    a, b = vals
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"batched-matrix-multiply: expected 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"batched-matrix-multiply: incompatible shapes {a.shape} and {b.shape}")
    out = a @ b

    def bk(g, need):
        return (g @ b.transpose(0, 2, 1) if need[0] else None,
                a.transpose(0, 2, 1) @ g if need[1] else None)

    return out, bk


# An op with one input is walked only when that input needs a gradient, so
# the single-input backwards below ignore ``need``.


def _op_exp(vals, attrs):
    (a,) = vals
    out = np.exp(a)

    def bk(g, need):
        return (g * out,)

    return out, bk


def _op_log(vals, attrs):
    (a,) = vals
    out = np.log(a)

    def bk(g, need):
        return (g / a,)

    return out, bk


def _op_relu(vals, attrs):
    (a,) = vals
    out = np.maximum(a, 0.0)

    def bk(g, need):
        return (g * (a > 0.0),)

    return out, bk


def _softmax_backward(out, g):
    dot = (g * out).sum(axis=1, keepdims=True)
    return out * (g - dot)


def _op_softmax_rows(vals, attrs):
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"softmax-rows: expected 2-D input, got {a.shape}")
    # row-max subtraction keeps exp() in range; mathematically a no-op
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bk(g, need):
        return (_softmax_backward(out, g),)

    return out, bk


def _op_log_softmax_rows(vals, attrs):
    # fused form stays finite where log(softmax(a)) would underflow to log(0)
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"log-softmax-rows: expected 2-D input, got {a.shape}")
    shifted = a - a.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bk(g, need):
        p = np.exp(out)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return out, bk


def _op_sum(vals, attrs):
    (a,) = vals
    out = np.asarray(a.sum())
    shape = a.shape

    def bk(g, need):
        return (g * np.ones(shape),)

    return out, bk


def _op_mean(vals, attrs):
    (a,) = vals
    out = np.asarray(a.mean())
    shape, n = a.shape, a.size

    def bk(g, need):
        return (g * np.full(shape, 1.0 / n),)

    return out, bk


def _op_concatenate(vals, attrs):
    axis = attrs.get("axis", 0)
    ndim = vals[0].ndim
    for v in vals[1:]:
        if v.ndim != ndim:
            raise ValueError(f"concatenate: rank mismatch {[x.shape for x in vals]}")
    try:
        out = np.concatenate(vals, axis=axis)
    except ValueError:
        raise ValueError(f"concatenate: incompatible shapes {[x.shape for x in vals]}") from None
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def bk(g, need):
        # views of g, so an unneeded part costs nothing
        return tuple(np.split(g, splits, axis=axis))

    return out, bk


def _scatter_rows(shape, idx, rows) -> np.ndarray:
    """Zeros of ``shape`` with rows[i] added at row idx[i]; repeated indices
    accumulate. One bincount per column sums in index order, as np.add.at
    does, so the result is bit-equal to it."""
    flat = rows.reshape(idx.size, int(np.prod(shape[1:])))
    out = np.empty((shape[0], flat.shape[1]))
    for j in range(flat.shape[1]):
        out[:, j] = np.bincount(idx, weights=flat[:, j], minlength=shape[0])
    return out.reshape(shape)


def _scatter_weighted(n_rows: int, idx: np.ndarray, w: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """``_scatter_rows((n_rows, C), idx.ravel(), w[:, :, None] * g[:, None, :])``
    without the (N, K, C) product: column c scatters ``w * g[:, c]``, the
    same products in the same order, one bincount per class."""
    flat_idx = idx.ravel()
    out = np.empty((n_rows, g.shape[1]))
    for c in range(g.shape[1]):
        out[:, c] = np.bincount(flat_idx, weights=(w * g[:, c, None]).ravel(),
                                minlength=n_rows)
    return out


def _check_indices(kind: str, idx: np.ndarray, n_rows: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ValueError(f"{kind}: index out of range for {n_rows} rows")


def _op_gather_rows(vals, attrs):
    (a,) = vals
    idx = np.asarray(attrs["indices"], dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather-rows: indices must be 1-D, got shape {idx.shape}")
    if a.ndim < 1:
        raise ValueError("gather-rows: input must have at least one axis")
    _check_indices("gather-rows", idx, a.shape[0])
    out = a.take(idx, axis=0)
    shape = a.shape

    def bk(g, need):
        return (_scatter_rows(shape, idx, g),)

    return out, bk


def _one_hot_argmax(a: np.ndarray) -> np.ndarray:
    am = a.argmax(axis=1)  # ties resolve to the lowest index
    out = np.zeros_like(a)
    out[np.arange(a.shape[0]), am] = 1.0
    return out


def _op_one_hot_argmax(vals, attrs):
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"one-hot-argmax: expected 2-D input, got {a.shape}")
    return _one_hot_argmax(a), None


def _op_stop_gradient(vals, attrs):
    (a,) = vals
    return a, None


def _op_dropout_mask(vals, attrs):
    (a,) = vals
    rate = float(attrs["rate"])
    rng = attrs["rng"]
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout-mask: rate must be in [0, 1), got {rate}")
    # inverted dropout: kept activations scaled by 1/(1-rate)
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = a * mask

    def bk(g, need):
        return (g * mask,)

    return out, bk


def _op_reshape(vals, attrs):
    (a,) = vals
    shape = tuple(attrs["shape"])
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = a.reshape(shape)
    in_shape = a.shape

    def bk(g, need):
        return (g.reshape(in_shape),)

    return out, bk


def _check_weighted_gather(kind: str, x: np.ndarray, w: np.ndarray,
                           idx: np.ndarray) -> None:
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"{kind}: expected 2-D operands, got {x.shape} and {w.shape}")
    if idx.shape != w.shape:
        raise ValueError(f"{kind}: index shape {idx.shape} must match weights {w.shape}")
    _check_indices(kind, idx, x.shape[0])


def _op_weighted_gather_sum(vals, attrs):
    # out[i, :] = sum_j w[i, j] * x[idx[i, j], :]
    x, w = vals
    idx = np.asarray(attrs["indices"], dtype=np.intp)
    _check_weighted_gather("weighted-gather-sum", x, w, idx)
    out = np.einsum("nk,nkc->nc", w, x.take(idx, axis=0))

    def bk(g, need):
        # re-gathered rather than captured: the (N, K, C) copy is the
        # largest array an op would otherwise hold for the tape's life
        dx = _scatter_weighted(x.shape[0], idx, w, g) if need[0] else None
        dw = np.einsum("nkc,nc->nk", x.take(idx, axis=0), g) if need[1] else None
        return dx, dw

    return out, bk


def _row_max(a: np.ndarray) -> np.ndarray:
    """(N, 1) row maxima, one np.maximum per column: a.max(axis=1) up to
    the sign of a zero maximum, and several times faster on narrow rows."""
    m = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        np.maximum(m, a[:, c], out=m)
    return m[:, None]


def _op_mean_field_step(vals, attrs):
    # u_1 = U - (g_w-weighted neighbor sum of u_s) * (one_hot(u_s) @ hollow)
    # with u_s = softmax_rows(u_prev): the six-op chain's numpy calls in its
    # order, apart from the row max (see the module docstring). A list given
    # as ``snapshot`` receives the chain's (u_s, w_u, u_g, u_p) values.
    U, g_w, hollow, u_prev = vals
    idx = np.asarray(attrs["indices"], dtype=np.intp)
    if U.ndim != 2 or u_prev.shape != U.shape:
        raise ValueError(f"mean-field-step: unaries {U.shape} and previous "
                         f"iterate {u_prev.shape} must be the same N x C")
    if hollow.shape != (U.shape[1], U.shape[1]):
        raise ValueError(f"mean-field-step: compatibility shape {hollow.shape} "
                         f"does not match {U.shape[1]} classes")
    if g_w.shape[:1] != U.shape[:1]:
        raise ValueError(f"mean-field-step: filter weights {g_w.shape} do not "
                         f"match {U.shape[0]} points")
    _check_weighted_gather("mean-field-step", u_prev, g_w, idx)
    e = np.exp(u_prev - _row_max(u_prev))
    u_s = e / e.sum(axis=1, keepdims=True)
    one_hot = _one_hot_argmax(u_s)
    w_u = one_hot @ hollow
    u_g = np.einsum("nk,nkc->nc", g_w, u_s.take(idx, axis=0))
    u_p = u_g * w_u
    out = U - u_p
    snapshot = attrs.get("snapshot")
    if snapshot is not None:
        snapshot.append((u_s, w_u, u_g, u_p))

    def bk(g, need):
        need_u, need_gw, need_hollow, need_prev = need
        g_p = -g
        d_gw = d_hollow = d_prev = None
        if need_gw or need_prev:
            d_ug = g_p * w_u
        if need_gw:
            d_gw = np.einsum("nkc,nc->nk", u_s.take(idx, axis=0), d_ug)
        if need_hollow:
            d_hollow = one_hot.T @ (g_p * u_g)
        if need_prev:
            d_prev = _softmax_backward(u_s, _scatter_weighted(u_s.shape[0], idx, g_w, d_ug))
        return g if need_u else None, d_gw, d_hollow, d_prev

    return out, bk


_OPS = {
    "add": _op_add,
    "affine": _op_affine,
    "subtract": _op_subtract,
    "elementwise-multiply": _op_multiply,
    "matrix-multiply": _op_matmul,
    "batched-matrix-multiply": _op_batched_matmul,
    "exponential": _op_exp,
    "natural-log": _op_log,
    "relu": _op_relu,
    "softmax-rows": _op_softmax_rows,
    "log-softmax-rows": _op_log_softmax_rows,
    "sum": _op_sum,
    "mean": _op_mean,
    "concatenate": _op_concatenate,
    "gather-rows": _op_gather_rows,
    "one-hot-argmax": _op_one_hot_argmax,
    "stop-gradient": _op_stop_gradient,
    "dropout-mask": _op_dropout_mask,
    "reshape": _op_reshape,
    "weighted-gather-sum": _op_weighted_gather_sum,
    "mean-field-step": _op_mean_field_step,
}

OP_KINDS = tuple(sorted(_OPS))


def apply(tape: Tape, kind: str, inputs: list[Tensor], **attrs) -> Tensor:
    """Record one operation on the tape and return its output tensor."""
    fn = _OPS.get(kind)
    if fn is None:
        raise ValueError(f"unknown operation kind: {kind!r}")
    vals = [t.values for t in inputs]
    out_values, backward_fn = fn(vals, attrs)
    return tape._record(inputs, out_values, backward_fn)


def backward(tape: Tape, loss: Tensor,
             wanted: Iterable[Tensor] | None = None) -> dict[int, np.ndarray]:
    """Reverse pass from a scalar loss; fills ``grad`` on every leaf.

    ``wanted`` is an iterable of leaf tensors whose gradients the caller
    reads, or None for every leaf. Only gradients into tensors that depend
    on a wanted leaf are computed; each wanted gradient is bit-equal to what
    a walk over every leaf gives. Returns the leaf gradients
    {node_id: grad array}; unwanted leaves and leaves not reachable from the
    loss get zero gradients.

    The walk consumes the tape: as each op record is passed, the record,
    with its backward closure, and its output's gradient are dropped, so op
    outputs keep ``grad`` None and arrays only a closure held are freed
    during the walk. Every consumer of a tensor is recorded after its
    producer, so in reverse recording order a gradient is complete when its
    producer is reached. A tape made with ``record=False`` has nothing to
    walk and raises ValueError.
    """
    if loss.tape is not tape:
        raise ValueError("loss was not produced on this record")
    if not tape.record:
        raise ValueError("backward on a tape made with record=False: it "
                         "recorded nothing to walk")
    if loss.values.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.shape}")
    if tape._backward_done:
        raise RuntimeError("backward already ran once on this record")

    leaves, ops = tape.tensors, tape._ops
    if wanted is None:
        needs = [True] * tape._next_id
    else:
        needs = [False] * tape._next_id
        leaf_ids = {t.node_id for t in leaves}
        for t in wanted:
            if t.tape is not tape:
                raise ValueError("wanted tensor is not on this record")
            if t.node_id not in leaf_ids:
                raise ValueError("wanted tensors must be leaves")
            needs[t.node_id] = True
    # a tensor needs a gradient when a wanted leaf reaches it through ops
    # that pass gradients
    for out_id, in_ids, bk in ops:
        needs[out_id] = bk is not None and any(needs[i] for i in in_ids)
    tape._backward_done = True

    grads: dict[int, np.ndarray] = {}
    if needs[loss.node_id]:
        grads[loss.node_id] = np.ones_like(loss.values)
    while ops:
        out_id, in_ids, bk = ops.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        need = tuple(needs[i] for i in in_ids)
        for i, n, ig in zip(in_ids, need, bk(g, need)):
            if n:
                acc = grads.get(i)
                grads[i] = ig if acc is None else acc + ig

    result: dict[int, np.ndarray] = {}
    for t in leaves:
        g = grads.get(t.node_id)
        if g is None:
            g = np.zeros_like(t.values)
        t.grad = g
        result[t.node_id] = g
    return result


def grad_check(fn, point, step: float = 1e-6) -> float:
    """Compare the analytic gradient of ``fn`` against central differences.

    ``fn`` takes a leaf Tensor (on a tape of its own making or the one
    provided here) and must deterministically return a scalar Tensor.
    Returns max over coordinates of |analytic - fd| / max(1, |fd|).
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    point = np.asarray(point, dtype=np.float64)

    def eval_at(values) -> float:
        tape = Tape(record=False)
        out = fn(tape.leaf(values))
        v = float(out.values)
        if not np.isfinite(v):
            raise ValueError("non-finite forward value")
        return v

    tape = Tape()
    x = tape.leaf(point.copy())
    out = fn(x)
    if out.values.size != 1:
        raise ValueError(f"function must return a scalar, got shape {out.shape}")
    if not np.isfinite(out.values):
        raise ValueError("non-finite forward value")
    backward(tape, out)
    analytic = x.grad.ravel()

    worst = 0.0
    for i in range(point.size):
        bumped = point.copy()
        bumped.flat[i] += step
        f_plus = eval_at(bumped)
        bumped.flat[i] = point.flat[i] - step
        f_minus = eval_at(bumped)
        fd = (f_plus - f_minus) / (2.0 * step)
        err = abs(analytic[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst
