"""Dense-tensor math with reverse-mode differentiation.

A small define-by-run engine over numpy arrays. Each differentiable
operation appends one entry to a global tape; ``backward`` replays the
tape in reverse and accumulates gradients into leaf tensors. float32 is
the working precision; float64 can be selected (globally or via the
``using_dtype`` context) for high-precision gradient checks.

Training and streaming run the same ops, so an op's fixed Python cost is
paid once per layer and call. The model's dense layers are one ``affine``
op each (``x @ w + b``, the same bits as ``matmul`` then ``add``), and
multi-head attention is one ``masked_attention`` op, which skips the
mask's bias when the mask allows every key, as a streamed causal row over
its cache does.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operation received tensors with incompatible shapes."""


_default_dtype = np.float32
_grad_enabled = True
_uid_counter = itertools.count()


def default_dtype():
    return _default_dtype


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _default_dtype = dtype.type


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default tensor dtype (e.g. float64 for oracles)."""
    global _default_dtype
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _default_dtype = prev


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus an optional same-shape gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_leaf", "_uid")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._leaf = True
        self._uid = next(_uid_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


# (out, inputs, vjp) per recorded op, in execution (topological) order
_tape: list[tuple[Tensor, tuple, Callable]] = []


def reset_tape() -> None:
    _tape.clear()


def tape_length() -> int:
    return len(_tape)


def record_op(out_data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Create an op output and, if any input requires grad, record it.

    ``vjp(grad_out)`` must return one gradient (or None) per input, in order.
    This is the extension hook custom ops (e.g. the CTC loss) use.
    """
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._uid = next(_uid_counter)
    rg = _grad_enabled and any(t.requires_grad for t in inputs)
    out.requires_grad = rg
    out._leaf = not rg
    if rg:
        _tape.append((out, tuple(inputs), vjp))
    return out


def backward(loss: Tensor) -> None:
    """Fill ``grad`` of every requires-grad leaf reachable from ``loss``.

    Gradients accumulate: calling backward twice without zeroing doubles them.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss._uid: np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(_tape):
        g_out = grads.pop(out._uid, None)
        if g_out is None:
            continue
        for t, g in zip(inputs, vjp(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t._leaf:
                t.grad += g
            elif t._uid in grads:
                grads[t._uid] = grads[t._uid] + g
            else:
                grads[t._uid] = g


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, d in enumerate(shape):
        if d == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return record_op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return record_op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return record_op(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def scale(a: Tensor, s: float) -> Tensor:
    return record_op(a.data * s, (a,), lambda g: (g * s,))


def _check_matmul(name: str, a: Tensor, b: Tensor) -> None:
    a, b = a.data, b.data
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} @ {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    _check_matmul("matmul", a, b)
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return record_op(out, (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for 2-D ``x`` and ``w`` as one op: the arithmetic of
    ``add(matmul(x, w), b)``, so the same bits, in one tape entry."""
    _check_matmul("affine", x, w)
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        return g @ w.data.T, x.data.T @ g, _unbroadcast(g, b.shape)

    return record_op(out, (x, w, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return record_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return record_op(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax along ``axis`` with max-subtraction."""
    if x.ndim == 0 or x.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return record_op(y, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.ndim == 0 or x.shape[axis] == 0:
        raise ShapeError(f"log_softmax over empty axis {axis} of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def vjp(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return record_op(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row zero-mean/unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs at least 2 features per row")
    # np.mean's and np.var's own reductions without their Python wrappers: the same bits, less overhead
    dev = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / d + eps)
    y = dev * inv
    out = y * gain.data + bias.data

    def vjp(g):
        gy = g * gain.data
        gx = inv * (gy - np.add.reduce(gy, axis=-1, keepdims=True) / d
                    - y * (np.add.reduce(gy * y, axis=-1, keepdims=True) / d))
        axes = tuple(range(x.ndim - 1))
        return gx, (g * y).sum(axis=axes), g.sum(axis=axes)

    return record_op(out, (x, gain, bias), vjp)


def conv1d_lookahead(x: Tensor, kernel: Tensor, stride: int, lookahead: int,
                     context: np.ndarray | None = None, end: bool = True,
                     lengths=None) -> Tensor:
    """Causal 1-D convolution with a bounded right-context window.

    ``x`` is [T, c_in], ``kernel`` is [K, c_in, c_out]. The input is padded
    with K-1-lookahead rows on the left and ``lookahead`` zeros on the
    right, so output frame t depends only on inputs <= t*stride + lookahead.
    Output length is ceil(T / stride).

    ``lengths`` splits the rows of ``x`` into consecutive sequences (one
    sequence by default). Each is padded on its own and gives
    ceil(T_i / stride) consecutive output rows, all in one op.

    The left rows are zeros, or ``context`` when given: the K-1-lookahead
    input rows that preceded ``x`` in a stream (a constant to the tape).
    ``end=False`` means more input follows, so there is no right padding
    and only the outputs whose window lies inside the input are computed.
    A stream is one sequence.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    K, c_in, _ = kernel.shape
    T = x.shape[0]
    if T < 1 and context is None:
        raise ShapeError("conv1d_lookahead: empty input")
    if x.shape[1] != c_in:
        raise ShapeError(f"conv1d_lookahead: input channels {x.shape[1]} != kernel {c_in}")
    if lookahead > K - 1:
        raise ShapeError(f"lookahead {lookahead} exceeds kernel window {K}; kernel wider than padded input")
    lengths = [T] if lengths is None else [int(n) for n in lengths]
    if sum(lengths) != T or (len(lengths) > 1 and min(lengths) < 1):
        raise ShapeError(f"conv1d_lookahead: sequence lengths {lengths} do not split {T} rows")
    if len(lengths) > 1 and (context is not None or not end):
        raise ValueError("conv1d_lookahead: a stream's context and end apply to one sequence")
    left = K - 1 - lookahead
    if context is None:
        context = np.zeros((left, c_in), dtype=x.data.dtype)
    elif context.shape != (left, c_in):
        raise ShapeError(f"conv1d_lookahead: context shape {context.shape} != {(left, c_in)}")
    right = lookahead if end else 0
    # padded sequences laid end to end; x_at[i] is where sequence i's rows start in xp
    pieces, firsts, x_at = [], [], []
    zeros_left = np.zeros((left, c_in), dtype=x.data.dtype)
    zeros_right = np.zeros((right, c_in), dtype=x.data.dtype)
    at = row = 0
    for i, n in enumerate(lengths):
        pieces += [context if i == 0 else zeros_left, x.data[row:row + n], zeros_right]
        t_out = -(-n // stride) if end else max((n - 1 - lookahead) // stride + 1, 0)
        firsts.append(np.arange(at, at + t_out * stride, stride))
        x_at.append(at + left)
        at += left + n + right
        row += n
    xp = np.concatenate(pieces)
    first = np.concatenate(firsts)
    idx = first[:, None] + np.arange(K)[None, :]
    win = xp[idx]  # [sum t_out, K, c_in]
    out = np.einsum("tkc,kco->to", win, kernel.data)

    def vjp(g):
        flat = win.reshape(win.shape[0], -1)  # [sum t_out, K*c_in]
        gk = (flat.T @ g).reshape(kernel.shape)
        gwin = (g @ kernel.data.reshape(flat.shape[1], -1).T).reshape(win.shape)
        gxp = np.zeros_like(xp)
        for k in range(K):  # windows start at distinct rows, so each k adds to distinct rows
            gxp[first + k] += gwin[:, k]
        return np.concatenate([gxp[a:a + n] for a, n in zip(x_at, lengths)]), gk

    return record_op(out, (x, kernel), vjp)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, n_heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention as one op; mask[i, j]=True
    lets query i see key j, in every head.

    ``q`` [Tq, H*d], ``k`` [Tk, H*d] and ``v`` [Tk, H*dv] are split into
    ``n_heads`` column blocks; head h attends with block h and writes
    output columns h*dv:(h+1)*dv. Disallowed scores get an additive -1e9
    before the softmax. Every query row must have at least one allowed key.
    A full mask (every key allowed, and at least one key), as a streamed
    causal row over its cache has, meets that without a row check and
    adds no bias: adding zeros would change no score.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (q.shape[0], k.shape[0]):
        raise ShapeError(f"mask shape {mask.shape} != (queries {q.shape[0]}, keys {k.shape[0]})")
    full = mask.shape[1] > 0 and mask.all()
    if not full and not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise ValueError(f"attention mask row {bad} allows no keys")
    if q.shape[1] != k.shape[1] or v.shape[0] != k.shape[0]:
        raise ShapeError(f"masked_attention: incompatible q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[1] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(f"masked_attention: {n_heads} heads do not divide widths {q.shape[1]}, {v.shape[1]}")

    def heads(x: np.ndarray) -> np.ndarray:  # [T, H*d] -> [H, T, d] view
        return x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)

    # BLAS rounds by memory layout; with a contiguous k^T and row-major
    # gradients, outputs and gradients equal a per-head loop of 2-D matmuls bit for bit
    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    s = 1.0 / math.sqrt(q.shape[1] // n_heads)
    scores = (qh @ kt) * s
    if not full:
        scores = scores + np.where(mask, 0.0, -1e9).astype(scores.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)  # [H, Tq, Tk]
    out = (w @ vh).transpose(1, 0, 2).reshape(q.shape[0], v.shape[1])

    def vjp(g):
        gh = heads(g)
        gw = gh @ vh.transpose(0, 2, 1)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * s
        gq = gs @ kt.transpose(0, 2, 1)
        gk = (qh.transpose(0, 2, 1) @ gs).transpose(0, 2, 1)
        gv = w.transpose(0, 2, 1) @ gh
        return tuple(np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t.shape)
                     for x, t in ((gq, q), (gk, k), (gv, v)))

    return record_op(out, (q, k, v), vjp)


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    rows_ix = np.arange(x.shape[0])
    out = x.data[rows_ix, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows_ix, idx), g)
        return (gx,)

    return record_op(out, (x,), vjp)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of one target per logit row."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != logits.shape[:1] or not len(targets):
        raise ShapeError(f"cross_entropy needs one target per logit row and at least one row, "
                         f"got targets {targets.shape} for logits {logits.shape}")
    n, n_classes = logits.shape
    bad = (targets < 0) | (targets >= n_classes)
    if bad.any():
        raise ValueError(f"cross_entropy: target {int(targets[bad][0])} outside [0, {n_classes})")
    return scale(reduce_sum(pick(log_softmax(logits, axis=-1), targets)), -1.0 / n)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table."""
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return record_op(out, (table,), vjp)


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = x.data[start:stop].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return record_op(out, (x,), vjp)


def col(x: Tensor, j: int) -> Tensor:
    """Select one column of a 2-D tensor as a 1-D tensor."""
    out = x.data[:, j].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, j] = g
        return (gx,)

    return record_op(out, (x,), vjp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=0)

    def vjp(g):
        offsets = np.cumsum([0] + [p.shape[0] for p in parts])
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return record_op(out, tuple(parts), vjp)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.data.dtype),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).astype(x.data.dtype),)

    return record_op(np.asarray(out), (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or rng is None."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return mul(x, Tensor(keep, dtype=x.data.dtype))


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def uniform_init(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameter tensor."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam moments plus the schedule hyperparameters."""

    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    base_lr: float = 2e-3
    warmup: int = 10000
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update; zeroes gradients afterward."""
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = p.grad
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)
        p.grad[...] = 0.0


def inverse_sqrt_lr(step: int, base: float, warmup: int) -> float:
    """Linear warm-up followed by inverse square-root decay; continuous at warmup."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    return base * min(step / warmup, math.sqrt(warmup / step))
