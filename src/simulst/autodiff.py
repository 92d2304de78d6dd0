"""Dense-tensor math with reverse-mode differentiation.

A small define-by-run engine over numpy arrays. Each differentiable
operation appends one entry to a global tape; ``backward`` replays the
tape in reverse and accumulates gradients into leaf tensors. float32 is
the working precision; the ``using_dtype`` context selects float64 for
high-precision gradient checks (there is no global dtype setter).

Training and streaming run the same ops, so an op's fixed Python cost is
paid once per op and call, and a Transformer sub-layer is one op. An
``attention_sublayer`` is a pre-norm, the q, k and v projections, keys
and values after a cache's past ones, multi-head attention, the output
projection, dropout and the residual, for self- and cross-attention; a
``feedforward_sublayer`` is a pre-norm, affine, ReLU, affine, dropout
and the residual. A convolution is an affine over the matrix of its
input windows, then a ReLU. Each such op has one hand-written VJP, built
from the same array kernels (``_affine``, ``_layer_norm``, ``_relu``,
``_attention``) as the primitive ops, and adds up each input's gradient
in the order the primitive chain's tape entries would, so outputs and
gradients are those of the chain bit for bit.

Attention's one kind of mask is a ``Blocks`` layout: consecutive blocks
of queries, each seeing a prefix of its own block of keys after any
shared past keys. That covers a stream's rows over their cache, one
utterance, beam hypotheses over their shared prefix and a training batch
of sequences; the layout, not an option, picks whether attention runs on
the dense grid of all rows or on a batch of blocks padded to the
longest.

A model's parameters live in one flat buffer (``flat_parameters``), and
their gradients in another: each named parameter is a view of both. So
``adam_step`` updates a trained slice in one in-place pass, and copying
the parameters is one copy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import check_integers, check_real


class ShapeError(ValueError):
    """An operation received tensors with incompatible shapes."""


_default_dtype = np.float32
_grad_enabled = True


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default tensor dtype (e.g. float64 for oracles)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    prev, _default_dtype = _default_dtype, dtype.type
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

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None

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
    An input may be listed more than once; ``backward`` adds its gradients
    in that order. This is the extension hook custom ops (e.g. the CTC
    loss) use.
    """
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    rg = _grad_enabled and any(t.requires_grad for t in inputs)
    out.requires_grad = rg
    if rg:
        _tape.append((out, tuple(inputs), vjp))
    return out


def backward(loss: Tensor) -> None:
    """Fill ``grad`` of every requires-grad leaf reachable from ``loss``.

    Gradients accumulate: calling backward twice without zeroing doubles them.
    A leaf is a tensor that owns a ``grad`` array. Pending gradients are keyed
    by ``id``: the tape holds each tensor it names until this returns.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(_tape):
        g_out = grads.pop(id(out), None)
        if g_out is None:
            continue
        for t, g in zip(inputs, vjp(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.grad is not None:
                t.grad += g
            elif id(t) in grads:
                grads[id(t)] = grads[id(t)] + g
            else:
                grads[id(t)] = g


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

# zero, and the bias of a score attention masks: float32 holds both exactly,
# and as 0-d arrays they leave a float64 operand's dtype as it is
_ZERO, _MASKED = np.zeros((), np.float32), np.full((), -1e9, np.float32)


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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` on arrays: ``out = x @ w``, then ``out += b``."""
    out = x @ w
    out += b
    return out


def _affine_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple:
    """The gradients of ``_affine``'s x, w and b."""
    return g @ w.T, x.T @ g, _unbroadcast(g, b.shape)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for 2-D ``x`` and ``w`` as one op."""
    _check_matmul("affine", x, w)
    return record_op(_affine(x.data, w.data, b.data), (x, w, b), lambda g: _affine_vjp(g, x.data, w.data, b.data))


def _relu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``max(a, 0)`` on an array, and the mask its gradient is multiplied by."""
    mask = a > 0
    return np.where(mask, a, _ZERO), mask


def relu(a: Tensor) -> Tensor:
    out, mask = _relu(a.data)
    return record_op(out, (a,), lambda g: (g * mask,))


def softmax(x: Tensor) -> Tensor:
    """Row-stochastic softmax along the last axis with max-subtraction."""
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax over an empty last axis of shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return record_op(y, (x,), vjp)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis of an array, with max-subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax_vjp(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The gradient of ``_log_softmax``'s input, from its output ``out``."""
    return g - np.exp(out) * g.sum(axis=-1, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax along the last axis."""
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"log_softmax over an empty last axis of shape {x.shape}")
    out = _log_softmax(x.data)
    return record_op(out, (x,), lambda g: (_log_softmax_vjp(g, out),))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the rows of an array: the output, the normalized rows
    ``y`` and their inverse deviations ``inv``, which its VJP reads."""
    d = x.shape[-1]
    # np.mean's and np.var's own reductions without their Python wrappers: the same bits, less overhead
    dev = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / d + 1e-5)  # eps
    y = dev * inv
    return y * gain + bias, y, inv


def _layer_norm_vjp(g: np.ndarray, y: np.ndarray, inv: np.ndarray, gain: np.ndarray) -> tuple:
    """The gradients of ``_layer_norm``'s x, gain and bias."""
    d = y.shape[-1]
    gy = g * gain
    gx = inv * (gy - np.add.reduce(gy, axis=-1, keepdims=True) / d
                - y * (np.add.reduce(gy * y, axis=-1, keepdims=True) / d))
    axes = tuple(range(y.ndim - 1))
    return gx, (g * y).sum(axis=axes), g.sum(axis=axes)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero-mean/unit-variance over the last axis, then affine."""
    if x.shape[-1] < 2:
        raise ShapeError("layer_norm needs at least 2 features per row")
    out, y, inv = _layer_norm(x.data, gain.data, bias.data)
    return record_op(out, (x, gain, bias), lambda g: _layer_norm_vjp(g, y, inv, gain.data))


def conv1d_lookahead(x: Tensor, kernel: Tensor, bias: Tensor, stride: int, lookahead: int,
                     context: np.ndarray | None = None, end: bool = True,
                     lengths=None) -> tuple[Tensor, np.ndarray]:
    """Causal 1-D convolution with a bounded right-context window, plus a
    bias and a ReLU, as one op.

    ``x`` is [T, c_in], ``kernel`` is [K, c_in, c_out], ``bias`` [c_out].
    Each sequence is padded with K-1-lookahead rows on the left and
    ``lookahead`` zeros on the right, so output frame t depends only on
    inputs <= t*stride + lookahead. There is one output per full K-row
    window, windows starting every ``stride`` rows of the padded sequence:
    ceil(T / stride) for a whole one. The windows, flattened, are the rows
    of a [sum t_out, K*c_in] matrix, and the conv is an ``_affine`` over it
    with the kernel as a [K*c_in, c_out] matrix, then a ReLU: one BLAS
    product forward and the two of ``_affine_vjp`` backward, whose window
    gradients are scattered back onto the input rows.

    ``lengths`` splits the rows of ``x`` into consecutive sequences (one
    sequence by default). Each is padded on its own and gives its outputs
    as consecutive rows, all in one op. Returns the output and each
    sequence's output row count.

    The left rows are zeros, or ``context`` when given: a stream's held
    rows (constants to the tape), any number of them, from the first row
    of the next output's window. ``end=False`` means more input follows,
    so there is no right padding. A stream is one sequence.
    """
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    K, c_in, c_out = kernel.shape
    T = x.shape[0]
    if T < 1 and context is None:
        raise ShapeError("conv1d_lookahead: empty input")
    if x.shape[1] != c_in:
        raise ShapeError(f"conv1d_lookahead: input channels {x.shape[1]} != kernel {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d_lookahead: bias {bias.shape} for {c_out} output channels")
    if lookahead > K - 1:
        raise ShapeError(f"lookahead {lookahead} exceeds kernel window {K}; kernel wider than padded input")
    lengths = [T] if lengths is None else [int(n) for n in lengths]
    if sum(lengths) != T or (len(lengths) > 1 and min(lengths) < 1):
        raise ShapeError(f"conv1d_lookahead: sequence lengths {lengths} do not split {T} rows")
    if len(lengths) > 1 and (context is not None or not end):
        raise ValueError("conv1d_lookahead: a stream's context and end apply to one sequence")
    if context is not None and (context.ndim != 2 or context.shape[1] != c_in):
        raise ShapeError(f"conv1d_lookahead: context shape {context.shape} does not have {c_in} columns")
    left = np.zeros((K - 1 - lookahead, c_in), dtype=x.data.dtype) if context is None else context
    right = [np.zeros((lookahead, c_in), dtype=x.data.dtype)] if end and lookahead else []
    if len(lengths) == 1:
        xp = np.concatenate([left, x.data] + right)
        first = np.arange(0, xp.shape[0] - K + 1, stride)  # every start of a full window
        x_at = [left.shape[0]]  # where each sequence's rows start in xp
        out_lengths = np.array([first.size], dtype=np.int64)
    else:  # padded sequences laid end to end; the left rows are zeros
        pieces, firsts, x_at = [], [], []
        at = row = 0
        for n in lengths:
            pieces += [left, x.data[row:row + n]] + right
            span = left.shape[0] + n + lookahead * len(right)
            firsts.append(np.arange(at, at + span - K + 1, stride))
            x_at.append(at + left.shape[0])
            at += span
            row += n
        xp = np.concatenate(pieces)
        first = np.concatenate(firsts)
        out_lengths = np.array([len(f) for f in firsts], dtype=np.int64)
    win = xp[first[:, None] + np.arange(K)].reshape(first.size, K * c_in)  # one window per row
    w = kernel.data.reshape(K * c_in, c_out)
    out, mask = _relu(_affine(win, w, bias.data))
    saved = (win, w, mask, first, xp.shape, xp.dtype, x_at, lengths, kernel.shape, bias.data)
    return record_op(out, (x, kernel, bias), lambda g: _conv1d_lookahead_vjp(saved, g)), out_lengths


def _conv1d_lookahead_vjp(saved: tuple, g: np.ndarray) -> tuple:
    """The gradients of ``conv1d_lookahead``'s x, kernel and bias."""
    win, w, mask, first, xp_shape, dtype, x_at, lengths, kernel_shape, bias = saved
    gwin, gw, gb = _affine_vjp(g * mask, win, w, bias)
    gwin = gwin.reshape(first.size, kernel_shape[0], -1)
    gxp = np.zeros(xp_shape, dtype=dtype)
    for k in range(kernel_shape[0]):  # windows start at distinct rows, so each k adds to distinct rows
        gxp[first + k] += gwin[:, k]
    gx = np.concatenate([gxp[a:a + n] for a, n in zip(x_at, lengths)])
    return gx, gw.reshape(kernel_shape), gb


def packed_offsets(lengths) -> np.ndarray:
    """Index of each row of consecutive sequences of ``lengths`` rows
    within its own sequence."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) == 1:
        return np.arange(lengths[0])
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class Blocks:
    """The layout of an attention op's queries over its keys.

    The keys are ``past`` leading keys, which every query row sees, then
    consecutive key blocks. Query block i, the next ``q_lengths[i]`` rows
    of the queries, attends key block i, the next ``k_lengths[i]`` keys,
    and query row r (in packed order) the first ``counts[r]`` keys of its
    block: a prefix, as causal self-attention and the wait-k-stride-n
    cross rule allow. The counts are checked here once, for every layer
    that shares the layout.

    One block, or blocks over a past (beam hypotheses over their shared
    prefix), run on the dense grid of all query and key rows, with a bias
    on disallowed keys unless every row sees all its keys. Several blocks
    without a past run as one batch padded to the longest block, whose
    gather indices and padded bias are built here.
    """

    def __init__(self, q_lengths, k_lengths, counts, past: int = 0):
        q_lengths, k_lengths, counts = (np.asarray(q_lengths, dtype=np.int64), np.asarray(k_lengths, dtype=np.int64),
                                        np.asarray(counts, dtype=np.int64))
        q_list, k_list = q_lengths.tolist(), k_lengths.tolist()  # a few blocks: Python's sum and min are the cheap ones
        if (q_lengths.ndim != 1 or q_lengths.shape != k_lengths.shape or not q_list
                or min(q_list) < 1 or counts.shape != (sum(q_list),)):
            raise ShapeError(f"Blocks: {counts.shape} counts for query lengths {q_list} "
                             f"and key lengths {k_list}")
        if past < 0:
            raise ValueError(f"Blocks: past must be >= 0, got {past}")
        one = len(q_list) == 1
        if one:  # a stream's few rows: Python's min and max over a list are the cheap ones
            limit = k_list[0]
            c_list = counts.tolist()
            fits = min(c_list) >= 1 and max(c_list) <= limit
        else:
            limit = np.repeat(k_lengths, q_lengths)  # each row's block length
            fits = counts.min() >= 1 and not (counts > limit).any()
        if not fits:
            r = int(np.flatnonzero((counts < 1) | (counts > limit))[0])
            raise ValueError(f"attention mask row {r} allows {counts[r]} of its block's "
                             f"{np.repeat(k_lengths, q_lengths)[r]} keys")
        self.n_queries, self.n_keys, self.past = sum(q_list), past + sum(k_list), past
        self.q_index = self.k_index = self.q_slot = self.k_slot = None
        # float32 holds 0 and -1e9 exactly, so a bias serves float64 scores too
        if one:  # [Tq, Tk] over the block's keys, or none when every row sees all its keys
            self.bias = None if min(c_list) == limit else np.where(
                np.arange(limit) < counts[:, None], _ZERO, _MASKED)
        elif past:  # [Tq, sum Tk] over the blocks' keys: each row sees a prefix of its own block
            blocks = np.arange(len(q_lengths))
            seen = ((np.repeat(blocks, q_lengths)[:, None] == np.repeat(blocks, k_lengths))
                    & (packed_offsets(k_lengths) < counts[:, None]))
            self.bias = np.where(seen, _ZERO, _MASKED)
        else:
            # (block, position in block) of every packed query and key row
            q_at, k_at = ((np.repeat(np.arange(len(n)), n), packed_offsets(n)) for n in (q_lengths, k_lengths))
            # [B, T_max]: the packed row in each padded slot (padding repeats row 0);
            # [T]: each packed row's slot in the flattened [B * T_max] layout
            self.q_index, self.k_index = (np.zeros((len(n), n.max()), dtype=np.int64) for n in (q_lengths, k_lengths))
            self.q_index[q_at] = np.arange(self.n_queries)
            self.k_index[k_at] = np.arange(self.n_keys)
            self.q_slot = q_at[0] * self.q_index.shape[1] + q_at[1]
            self.k_slot = k_at[0] * self.k_index.shape[1] + k_at[1]
            allowed = np.zeros(self.q_index.shape, dtype=np.int64)  # padded query rows see no key
            allowed[q_at] = counts
            self.bias = np.where(np.arange(k_lengths.max()) < allowed[..., None], 0.0, -1e9
                                 ).astype(np.float32)  # [B, Tq_max, Tk_max]


def _check_attention(name: str, q_shape, k_shape, v_shape, blocks: Blocks, n_heads: int) -> None:
    if not isinstance(blocks, Blocks):
        raise TypeError(f"{name} takes an ad.Blocks layout, got {type(blocks).__name__}")
    if (blocks.n_queries, blocks.n_keys) != (q_shape[0], k_shape[0]):
        raise ShapeError(f"Blocks of {blocks.n_queries} queries and {blocks.n_keys} keys "
                         f"for {q_shape[0]} queries and {k_shape[0]} keys")
    if q_shape[1] != k_shape[1] or v_shape[0] != k_shape[0]:
        raise ShapeError(f"{name}: incompatible q {q_shape}, k {k_shape}, v {v_shape}")
    if q_shape[1] % n_heads or v_shape[1] % n_heads:
        raise ShapeError(f"{name}: {n_heads} heads do not divide widths {q_shape[1]}, {v_shape[1]}")


def _heads(x: np.ndarray, n_heads: int, index=None) -> np.ndarray:
    """[T, H*d] -> [H, T, d], or the [H, B, T_max, d] blocks ``index`` gathers."""
    x = x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)
    return x if index is None else x.take(index, axis=1)


def _packed(x: np.ndarray, slot) -> np.ndarray:
    """``_heads``' inverse: back to [T, H*d], the rows of ``slot`` for blocks."""
    if slot is not None:
        x = x.reshape(x.shape[0], -1, x.shape[-1]).take(slot, axis=1)
    return x.transpose(1, 0, 2).reshape(x.shape[1], x.shape[0] * x.shape[2])


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, blocks: Blocks, n_heads: int) -> tuple:
    """Multi-head scaled dot-product attention on arrays: the output, and
    what ``_attention_vjp`` reads.

    ``q`` [Tq, H*d], ``k`` [Tk, H*d] and ``v`` [Tk, H*dv] are split into
    ``n_heads`` column blocks; head h attends with block h and writes
    output columns h*dv:(h+1)*dv. The ``Blocks`` layout says which keys
    each query row sees; disallowed scores get an additive -1e9 before
    the softmax. A layout on the dense grid runs on views of q, k and v;
    a padded one gathers each block's rows into a batch padded to the
    longest block, so the work grows with the sum of squared block
    lengths rather than the square of their sum; padded keys get the bias
    and padded queries are dropped.
    """
    qh, kh, vh = _heads(q, n_heads, blocks.q_index), _heads(k, n_heads, blocks.k_index), \
        _heads(v, n_heads, blocks.k_index)
    # BLAS rounds by memory layout; with a contiguous k^T and row-major gradients,
    # a dense grid's outputs and gradients equal a per-head loop of 2-D matmuls bit for bit
    kt = np.ascontiguousarray(kh.swapaxes(-1, -2))
    s = 1.0 / math.sqrt(q.shape[1] // n_heads)
    scores = (qh @ kt) * s
    if blocks.bias is not None:
        scores[..., blocks.past:] += blocks.bias
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= w.sum(axis=-1, keepdims=True)  # [H, (B,) Tq, Tk]
    return _packed(w @ vh, blocks.q_slot), (w, qh, kt, vh, s, blocks, n_heads)


def _attention_vjp(saved: tuple, g: np.ndarray) -> tuple:
    """The gradients of ``_attention``'s q, k and v."""
    w, qh, kt, vh, s, blocks, n_heads = saved
    gh = _heads(g, n_heads)
    if blocks.q_slot is not None:  # into the padded blocks; padded query rows get no gradient
        gh, rows = np.zeros(w.shape[:-1] + (vh.shape[-1],), dtype=g.dtype), gh
        gh.reshape(n_heads, -1, gh.shape[-1])[:, blocks.q_slot] = rows
    gs = gh @ vh.swapaxes(-1, -2)  # the gradient of w, then in place that of the scores
    gs -= (gs * w).sum(axis=-1, keepdims=True)
    gs *= w
    gs *= s
    gq = gs @ kt.swapaxes(-1, -2)
    gk = gs.swapaxes(-1, -2) @ qh
    gv = w.swapaxes(-1, -2) @ gh
    return _packed(gq, blocks.q_slot), _packed(gk, blocks.k_slot), _packed(gv, blocks.k_slot)


def _dropout_keep(shape, rate: float, rng: np.random.Generator | None, dtype):
    """Inverted dropout's scaled keep mask, or None when rate is 0 or rng is None."""
    if rate <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def attention_sublayer(x: Tensor, weights: Sequence[Tensor], blocks: Blocks, n_heads: int = 1,
                       source: Tensor | None = None, past: tuple | None = None,
                       rate: float = 0.0, rng: np.random.Generator | None = None) -> tuple[Tensor, tuple]:
    """A pre-norm attention sub-layer, ``x + dropout(attend(norm(x)))``, as one op.

    ``weights`` are the norm's gain and bias, then the weight and bias of
    the q, k, v and output projections. The queries are the normed rows of
    ``x``; the keys and values are the ``past`` ones, a pair of arrays
    (constants to the tape; none by default), then those of ``source``'s
    rows, or of the normed rows of ``x`` when ``source`` is None
    (self-attention). A ``source`` of no rows after a past adds none.
    The queries attend the keys over the ``blocks`` layout with
    ``n_heads`` heads (see ``_attention``), the output projection follows,
    and inverted dropout at ``rate`` draws its mask from ``rng``.

    Returns the output and the (keys, values) arrays, past rows first, for
    a key/value cache. The op computes what the chain of primitive ops
    would, in the same arithmetic, and adds up each input's gradient in
    the order their tape entries would.
    """
    gain, bias, wq, bq, wk, bk, wv, bv, wo, bo = [p.data for p in weights]
    shape, src_shape = x.data.shape, (x if source is None else source).data.shape
    if not (len(shape) == len(src_shape) == wq.ndim == wk.ndim == wv.ndim == wo.ndim == 2 and shape[1] >= 2
            and gain.shape == (shape[1],) == (wq.shape[0],) and wk.shape[0] == wv.shape[0] == src_shape[1]
            and wo.shape == (wv.shape[1], shape[1])):
        raise ShapeError(f"attention_sublayer: rows {shape} (at least 2 features for the norm), source rows "
                         f"{src_shape}, norm gain {gain.shape} and projections "
                         f"{[w.shape for w in (wq, wk, wv, wo)]} do not fit")
    normed, y, inv = _layer_norm(x.data, gain, bias)
    q = _affine(normed, wq, bq)
    src = normed if source is None else source.data
    fresh = past is None or src.shape[0] > 0  # keys and values of new rows
    if fresh:
        k, v = _affine(src, wk, bk), _affine(src, wv, bv)
        keys, values = (k, v) if past is None else (np.concatenate((past[0], k)), np.concatenate((past[1], v)))
    else:
        keys, values = past
    _check_attention("attention_sublayer", q.shape, keys.shape, values.shape, blocks, n_heads)
    att, att_saved = _attention(q, keys, values, blocks, n_heads)
    h = _affine(att, wo, bo)
    keep = _dropout_keep(h.shape, rate, rng, h.dtype)
    if keep is not None:
        h = h * keep
    new_rows = slice(keys.shape[0] - src.shape[0], None) if fresh else None  # of the keys and values
    saved = (normed, y, inv, src, new_rows, source is None, att, att_saved, keep,
             (gain, wq, bq, wk, bk, wv, bv, wo, bo))
    inputs = (x, x) + (() if source is None else (source, source)) + tuple(weights)
    return record_op(x.data + h, inputs, lambda g: _attention_sublayer_vjp(saved, g)), (keys, values)


def _attention_sublayer_vjp(saved: tuple, g: np.ndarray) -> tuple:
    """The gradients of ``attention_sublayer``'s inputs, each term added in
    the order the primitive chain's tape entries would add it."""
    normed, y, inv, src, new_rows, self_attention, att, att_saved, keep, arrays = saved
    gain, wq, bq, wk, bk, wv, bv, wo, bo = arrays
    gh = g if keep is None else g * keep
    g_att, g_wo, g_bo = _affine_vjp(gh, att, wo, bo)
    gq, gk, gv = _attention_vjp(att_saved, g_att)
    g_src = g_wk = g_bk = g_wv = g_bv = None
    if new_rows is not None:
        g_src_v, g_wv, g_bv = _affine_vjp(gv[new_rows], src, wv, bv)
        g_src_k, g_wk, g_bk = _affine_vjp(gk[new_rows], src, wk, bk)
        g_src = (g_src_v, g_src_k)
    g_normed, g_wq, g_bq = _affine_vjp(gq, normed, wq, bq)
    if self_attention:  # the normed rows fed the v, k and q projections
        g_normed = g_src[0] + g_src[1] + g_normed
    g_x, g_gain, g_bias = _layer_norm_vjp(g_normed, y, inv, gain)
    # x's residual gradient, then its norm's; a source's from v, then from k
    sources = () if self_attention else (g_src or (None, None))
    return (g, g_x) + sources + (g_gain, g_bias, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo)


def feedforward_sublayer(x: Tensor, weights: Sequence[Tensor], rate: float = 0.0,
                         rng: np.random.Generator | None = None) -> Tensor:
    """A pre-norm feed-forward sub-layer, ``x + dropout(relu(norm(x) @ w1 +
    b1) @ w2 + b2)``, as one op. ``weights`` are the norm's gain and bias,
    then w1, b1, w2 and b2; inverted dropout at ``rate`` draws its mask
    from ``rng``. The op computes what the chain of primitive ops would,
    in the same arithmetic, and adds up each input's gradient in the order
    their tape entries would.
    """
    gain, bias, w1, b1, w2, b2 = arrays = [p.data for p in weights]
    shape = x.data.shape
    if not (len(shape) == w1.ndim == w2.ndim == 2 and shape[1] >= 2 and gain.shape == (shape[1],) == (w1.shape[0],)
            and w2.shape == (w1.shape[1], shape[1])):
        raise ShapeError(f"feedforward_sublayer: rows {shape} (at least 2 features for the norm), norm gain "
                         f"{gain.shape} and weights {w1.shape}, {w2.shape} do not fit")
    normed, y, inv = _layer_norm(x.data, gain, bias)
    hidden, mask = _relu(_affine(normed, w1, b1))
    h = _affine(hidden, w2, b2)
    keep = _dropout_keep(h.shape, rate, rng, h.dtype)
    if keep is not None:
        h = h * keep
    saved = (normed, y, inv, hidden, mask, keep, arrays)
    return record_op(x.data + h, (x, x) + tuple(weights), lambda g: _feedforward_sublayer_vjp(saved, g))


def _feedforward_sublayer_vjp(saved: tuple, g: np.ndarray) -> tuple:
    """The gradients of ``feedforward_sublayer``'s inputs."""
    normed, y, inv, hidden, mask, keep, (gain, _, w1, b1, w2, b2) = saved
    gh = g if keep is None else g * keep
    g_hidden, g_w2, g_b2 = _affine_vjp(gh, hidden, w2, b2)
    g_normed, g_w1, g_b1 = _affine_vjp(g_hidden * mask, normed, w1, b1)
    g_x, g_gain, g_bias = _layer_norm_vjp(g_normed, y, inv, gain)
    return g, g_x, g_gain, g_bias, g_w1, g_b1, g_w2, g_b2  # x's residual gradient, then its norm's


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of one target per logit row, as one op."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != logits.shape[:1] or not len(targets):
        raise ShapeError(f"cross_entropy needs one target per logit row and at least one row, "
                         f"got targets {targets.shape} for logits {logits.shape}")
    n, n_classes = logits.shape
    bad = (targets < 0) | (targets >= n_classes)
    if bad.any():
        raise ValueError(f"cross_entropy: target {int(targets[bad][0])} outside [0, {n_classes})")
    out = _log_softmax(logits.data)
    at = (np.arange(n), targets)

    def vjp(g):
        picked = np.zeros_like(out)  # the gradient of the targets' log-probabilities
        picked[at] += np.broadcast_to(g * (-1.0 / n), (n,)).astype(out.dtype)
        return (_log_softmax_vjp(picked, out),)

    return record_op(np.asarray(out[at].sum()) * (-1.0 / n), (logits,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table."""
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return record_op(out, (table,), vjp)


def col(x: Tensor, j: int) -> Tensor:
    """Select one column of a 2-D tensor as a 1-D tensor."""
    out = x.data[:, j].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, j] = g
        return (gx,)

    return record_op(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or rng is None."""
    keep = _dropout_keep(x.shape, rate, rng, x.data.dtype)
    return x if keep is None else mul(x, Tensor(keep, dtype=x.data.dtype))


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def uniform_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initial values."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def unflatten(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Views of consecutive pieces of the 1-D ``flat``, shaped and named
    by ``shapes``, in its order."""
    views, at = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        views[name] = flat[at:at + n].reshape(shape)
        at += n
    return views


def flat_parameters(shapes: dict[str, tuple]) -> tuple[Tensor, dict[str, Tensor]]:
    """A flat parameter store: one 1-D parameter holding every parameter of
    ``shapes`` end to end, in its order, and those parameters by name, each
    a leaf whose data and grad are views of the flat one's. Values start
    unset and gradients at zero."""
    flat = Tensor(np.empty(sum(math.prod(s) for s in shapes.values()), dtype=_default_dtype), requires_grad=True)
    params = {}
    for (name, data), grad in zip(unflatten(flat.data, shapes).items(), unflatten(flat.grad, shapes).values()):
        p = params[name] = Tensor.__new__(Tensor)
        p.data, p.grad, p.requires_grad = data, grad, True
    return flat, params


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam moments, by parameter name, plus the schedule hyperparameters."""

    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    base_lr: float = 2e-3
    warmup: int = 10000
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        check_real("beta1", self.beta1, "[0, 1)")
        check_real("beta2", self.beta2, "[0, 1)")
        check_real("eps", self.eps, "(0, inf)")
        check_real("base_lr", self.base_lr, "(0, inf)")
        check_integers("warmup", self.warmup, low=1)
        check_integers("step", self.step, low=0)


_ADAM_CHUNK = 1 << 15  # values updated together: a chunk's slices and temporaries stay in cache


def adam_step(param: Tensor, m: np.ndarray, v: np.ndarray, state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update, in place, of the leading ``m.size``
    values of the 1-D ``param`` (a flat store whose leading parameters are
    the trained ones), with first and second moments ``m`` and ``v``;
    zeroes that slice's gradient afterward. Each value goes through the
    arithmetic of a per-tensor update in the same order, so the bits are
    those of updating each parameter on its own. The pass runs over
    cache-sized chunks with two reused temporaries."""
    if param.grad is None:
        raise ValueError("adam_step: the parameter has no gradient")
    if not (param.ndim == m.ndim == 1 and m.shape == v.shape and m.size <= param.data.size):
        raise ShapeError(f"adam_step: moments {m.shape}, {v.shape} for a parameter of shape {param.shape}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    tmp, update = (np.empty(min(m.size, _ADAM_CHUNK), dtype=m.dtype) for _ in range(2))
    for at in range(0, m.size, _ADAM_CHUNK):
        end = min(at + _ADAM_CHUNK, m.size)
        p, g, mc, vc = (a[at:end] for a in (param.data, param.grad, m, v))
        tc, uc = tmp[:end - at], update[:end - at]
        np.multiply(g, 1.0 - b1, out=tc)
        mc *= b1
        mc += tc  # m = b1 * m + (1 - b1) * g
        np.multiply(g, 1.0 - b2, out=tc)
        tc *= g
        vc *= b2
        vc += tc  # v = b2 * v + (1 - b2) * g * g
        np.divide(vc, 1.0 - b2 ** t, out=tc)
        np.sqrt(tc, out=tc)
        tc += state.eps
        np.divide(mc, 1.0 - b1 ** t, out=uc)
        uc *= lr
        uc /= tc  # lr * m_hat / (sqrt(v_hat) + eps)
        p -= uc
        g[...] = 0.0


def inverse_sqrt_lr(step: int, base: float, warmup: int) -> float:
    """Linear warm-up followed by inverse square-root decay; continuous at warmup."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    return base * min(step / warmup, math.sqrt(warmup / step))
