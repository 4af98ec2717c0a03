"""Tape-based reverse-mode automatic differentiation on dense float64 arrays.

Deliberately small: only the operations needed to train the X-Conv point
classifier and the CRF refinement stack on a CPU. Every forward pass records
onto a fresh :class:`Tape`; a single :func:`backward` walk then fills the
``grad`` slot of every leaf on that tape (the parameters and constants made
by :meth:`Tape.leaf`). The walk consumes the tape: each op record and each
op output's gradient is released once propagated, so op outputs keep
``grad`` None and the tape cannot be walked again. Tensors are immutable
after creation (except for grad population), so forward values are
reproducible bit-for-bit in single-threaded runs.

A dense layer is one ``affine`` record: ``x @ w + b``, optionally followed
by an in-place relu. It fuses the ``matrix-multiply`` -> ``add`` -> ``relu``
chain into one output array and one backward step, with the same numpy calls
in the same order, so its values and gradients equal the chain's bit for bit.
"""

from __future__ import annotations

import weakref

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
    records.
    """

    def __init__(self):
        self.tensors: list[Tensor] = []
        self._ops: list[tuple[Tensor, list[Tensor], object]] = []
        self._backward_done = False

    def leaf(self, values) -> Tensor:
        """Register a new input tensor (parameter or constant)."""
        arr = np.asarray(values, dtype=np.float64)
        t = Tensor(self, arr, len(self.tensors))
        self.tensors.append(t)
        return t

    def _record(self, inputs: list[Tensor], out_values: np.ndarray, backward_fn) -> Tensor:
        for t in inputs:
            if t.tape is not self:
                raise ValueError("input tensor belongs to a different record")
        out = Tensor(self, out_values, len(self.tensors))
        self.tensors.append(out)
        self._ops.append((out, inputs, backward_fn))
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


def _op_add(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "add")
    out = a + b

    def bk(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return out, bk


def _op_subtract(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "subtract")
    out = a - b

    def bk(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return out, bk


def _op_multiply(vals, attrs):
    a, b = vals
    _check_broadcast(a, b, "elementwise-multiply")
    out = a * b

    def bk(g):
        return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

    return out, bk


def _op_matmul(vals, attrs):
    a, b = vals
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matrix-multiply: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matrix-multiply: inner dimensions differ, {a.shape} and {b.shape}")
    out = a @ b

    def bk(g):
        return g @ b.T, a.T @ g

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

    def bk(g):
        if relu:
            # out > 0 exactly where the pre-activation is > 0, nan included
            g = g * (out > 0.0)
        return g @ w.T, x.T @ g, _unbroadcast(g, b.shape)

    return out, bk


def _op_batched_matmul(vals, attrs):
    a, b = vals
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"batched-matrix-multiply: expected 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"batched-matrix-multiply: incompatible shapes {a.shape} and {b.shape}")
    out = a @ b

    def bk(g):
        return g @ b.transpose(0, 2, 1), a.transpose(0, 2, 1) @ g

    return out, bk


def _op_exp(vals, attrs):
    (a,) = vals
    out = np.exp(a)

    def bk(g):
        return (g * out,)

    return out, bk


def _op_log(vals, attrs):
    (a,) = vals
    out = np.log(a)

    def bk(g):
        return (g / a,)

    return out, bk


def _op_relu(vals, attrs):
    (a,) = vals
    out = np.maximum(a, 0.0)

    def bk(g):
        return (g * (a > 0.0),)

    return out, bk


def _op_softmax_rows(vals, attrs):
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"softmax-rows: expected 2-D input, got {a.shape}")
    # row-max subtraction keeps exp() in range; mathematically a no-op
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bk(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return out, bk


def _op_log_softmax_rows(vals, attrs):
    # fused form stays finite where log(softmax(a)) would underflow to log(0)
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"log-softmax-rows: expected 2-D input, got {a.shape}")
    shifted = a - a.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bk(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return out, bk


def _op_sum(vals, attrs):
    (a,) = vals
    out = np.asarray(a.sum())

    def bk(g):
        return (g * np.ones_like(a),)

    return out, bk


def _op_mean(vals, attrs):
    (a,) = vals
    out = np.asarray(a.mean())
    n = a.size

    def bk(g):
        return (g * np.full_like(a, 1.0 / n),)

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

    def bk(g):
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


def _op_gather_rows(vals, attrs):
    (a,) = vals
    idx = np.asarray(attrs["indices"], dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather-rows: indices must be 1-D, got shape {idx.shape}")
    if a.ndim < 1:
        raise ValueError("gather-rows: input must have at least one axis")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(f"gather-rows: index out of range for {a.shape[0]} rows")
    out = a.take(idx, axis=0)

    def bk(g):
        return (_scatter_rows(a.shape, idx, g),)

    return out, bk


def _op_one_hot_argmax(vals, attrs):
    (a,) = vals
    if a.ndim != 2:
        raise ValueError(f"one-hot-argmax: expected 2-D input, got {a.shape}")
    am = a.argmax(axis=1)  # ties resolve to the lowest index
    out = np.zeros_like(a)
    out[np.arange(a.shape[0]), am] = 1.0

    def bk(g):
        return (None,)

    return out, bk


def _op_stop_gradient(vals, attrs):
    (a,) = vals

    def bk(g):
        return (None,)

    return a, bk


def _op_dropout_mask(vals, attrs):
    (a,) = vals
    rate = float(attrs["rate"])
    rng = attrs["rng"]
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout-mask: rate must be in [0, 1), got {rate}")
    # inverted dropout: kept activations scaled by 1/(1-rate)
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = a * mask

    def bk(g):
        return (g * mask,)

    return out, bk


def _op_reshape(vals, attrs):
    (a,) = vals
    shape = tuple(attrs["shape"])
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = a.reshape(shape)

    def bk(g):
        return (g.reshape(a.shape),)

    return out, bk


def _op_weighted_gather_sum(vals, attrs):
    # out[i, :] = sum_j w[i, j] * x[idx[i, j], :]
    x, w = vals
    idx = np.asarray(attrs["indices"], dtype=np.intp)
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"weighted-gather-sum: expected 2-D operands, got {x.shape} and {w.shape}")
    if idx.shape != w.shape:
        raise ValueError(f"weighted-gather-sum: index shape {idx.shape} must match weights {w.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(f"weighted-gather-sum: index out of range for {x.shape[0]} rows")
    out = np.einsum("nk,nkc->nc", w, x.take(idx, axis=0))

    def bk(g):
        # re-gathered rather than captured: the (N, K, C) copy is the
        # largest array an op would otherwise hold for the tape's life
        dx = _scatter_rows(x.shape, idx.ravel(), w[:, :, None] * g[:, None, :])
        dw = np.einsum("nkc,nc->nk", x.take(idx, axis=0), g)
        return dx, dw

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


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse pass from a scalar loss; fills ``grad`` on every leaf.

    Returns the leaf gradients {node_id: grad array}; leaves not reachable
    from the loss get zero gradients. The walk consumes the tape: each op
    record is dropped once its backward has run and each op output's
    gradient once it has been propagated, so op outputs keep ``grad`` None.
    Every consumer of a tensor is recorded after its producer, so in reverse
    recording order a gradient is complete when its producer is reached.
    """
    if loss.tape is not tape:
        raise ValueError("loss was not produced on this record")
    if loss.values.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.shape}")
    if tape._backward_done:
        raise RuntimeError("backward already ran once on this record")
    tape._backward_done = True

    ops = tape._ops
    produced = {out.node_id for out, _, _ in ops}
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}
    while ops:
        out, inputs, bk = ops.pop()
        g = grads.pop(out.node_id, None)
        if g is None:
            continue
        for t, ig in zip(inputs, bk(g)):
            if ig is None:
                continue
            acc = grads.get(t.node_id)
            grads[t.node_id] = ig if acc is None else acc + ig

    result: dict[int, np.ndarray] = {}
    for t in tape.tensors:
        if t.node_id in produced:
            continue
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
        tape = Tape()
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
