"""Reference ops the package does not use, kept as oracles for its tests.

``matmul``, ``sub``, ``reshape``, ``concat_rows``, ``rows``, ``pick``
and ``reduce_sum`` are plain recorded ops that spell out op chains
(shrinking, ``affine``, a growing key/value cache, the loss terms) step
by step, or reduce an output to a scalar to differentiate.
``ctc_lattice`` is one utterance's CTC lattice, which ``ctc._nll`` runs
for a whole batch at once. ``ctc_nll`` and ``blank_penalty`` are the CTC
NLL of one utterance's grid (on that lattice) and the blank penalty of a
grid as ops of their own, and
``blank_limited_ctc_chain`` and ``cross_entropy_chain`` the chains of one
op per term that ``ctc.blank_limited_ctc_loss`` and ``ad.cross_entropy``
each compute as one op, bit for bit. ``masked_attention`` is the
package's attention kernel as an op of its own, and ``dense_attention``
multi-head attention over the dense grid of all query and key rows,
which that kernel computes block by block. ``attention_chain`` and
``feedforward_chain`` are the primitive op chains that
``ad.attention_sublayer`` and ``ad.feedforward_sublayer`` each compute as
one op, bit for bit. ``per_tensor_adam_step`` is the Adam update of one
named tensor at a time, which the flat in-place ``ad.adam_step`` must
reproduce bit for bit. ``dense_mask`` and ``build_cross_attention_mask``
spell out an ``ad.Blocks`` layout and the wait-k-stride-n rule as
boolean grids.
"""

import math

import numpy as np

from simulst import autodiff as ad
from simulst import ctc, model


def sub(a, b):
    out = a.data - b.data
    return ad.record_op(out, (a, b), lambda g: (ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)))


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    ad._check_matmul("matmul", a, b)
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return ad.record_op(out, (a, b), vjp)


def reshape(a, shape):
    old = a.shape
    return ad.record_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat_rows(parts):
    """The rows of the tensors ``parts``, one after another."""
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=0)

    def vjp(g):
        offsets = np.cumsum([0] + [p.shape[0] for p in parts])
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return ad.record_op(out, tuple(parts), vjp)


def rows(x, start, stop):
    """Rows ``start`` to ``stop`` of a tensor."""
    out = x.data[start:stop].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return ad.record_op(out, (x,), vjp)


def pick(x, idx):
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    rows_ix = np.arange(x.shape[0])
    out = x.data[rows_ix, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows_ix, idx), g)
        return (gx,)

    return ad.record_op(out, (x,), vjp)


def reduce_sum(x):
    """The sum of all values of a tensor."""
    return ad.record_op(np.asarray(x.data.sum()), (x,),
                        lambda g: (np.broadcast_to(g, x.shape).astype(x.data.dtype),))


def ctc_lattice(log_posteriors, labels):
    """-ln of the total probability of all paths collapsing to ``labels``
    on one utterance's array of log posteriors [T, |V|+1], in float64, and
    a function that gives its float64 gradient w.r.t. the log posteriors:
    the per-utterance lattice that ``ctc._nll`` runs for a batch at once,
    with its checks. Beta is the forward recursion over the reversed
    lattice."""
    t_frames, width = log_posteriors.shape
    blank = width - 1
    labels = ctc._checked_labels(labels, t_frames, blank)
    ext = np.full(2 * labels.size + 1, blank, dtype=np.int64)
    ext[1::2] = labels

    def forward(lab, ext):
        # log mass reaching each (frame, state) before that frame's emission
        before = np.full(lab.shape, -np.inf)
        before[0, :2] = 0.0
        skip_ok = np.zeros(ext.size, dtype=bool)
        skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
        for t in range(1, lab.shape[0]):
            alpha = before[t - 1] + lab[t - 1]
            acc = np.logaddexp(alpha, np.concatenate([[-np.inf], alpha[:-1]]))
            skip = np.concatenate([[-np.inf, -np.inf], alpha[:-2]])
            before[t] = np.where(skip_ok, np.logaddexp(acc, skip), acc)
        return before

    lab = log_posteriors.astype(np.float64)[:, ext]
    alpha = forward(lab, ext) + lab
    log_z = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    beta = forward(lab[::-1, ::-1], ext[::-1])[::-1, ::-1]
    occupancy = alpha + beta

    def gradient():
        grad = np.zeros(log_posteriors.shape)
        with np.errstate(invalid="ignore"):
            contrib = np.exp(occupancy - log_z)
        contrib[~np.isfinite(contrib)] = 0.0
        np.subtract.at(grad.T, ext, contrib.T)
        return grad

    return -log_z, gradient


def ctc_nll(log_posteriors, labels):
    """The CTC NLL of ``labels`` on a grid of log posteriors, as an op of
    its own: the per-utterance lattice ``ctc_lattice``, with its checks."""
    nll, gradient = ctc_lattice(log_posteriors.data, labels)
    dtype = log_posteriors.data.dtype
    return ad.record_op(np.asarray(nll, dtype=dtype), (log_posteriors,),
                        lambda g: (float(g) * gradient().astype(dtype),))


def blank_penalty(posteriors, mode="argmax_blank_frames"):
    """The blank posterior mass of the frames ``mode`` selects: those whose
    argmax label is blank (a selection held constant for gradients), or
    all of them."""
    blank = posteriors.shape[1] - 1
    dtype = posteriors.data.dtype
    if mode == "argmax_blank_frames":
        sel = (posteriors.data.argmax(axis=1) == blank).astype(dtype)
    else:
        sel = np.ones(posteriors.shape[0], dtype=dtype)
    return reduce_sum(ad.mul(ad.col(posteriors, blank), ad.Tensor(sel, dtype=dtype)))


def blank_limited_ctc_chain(log_posteriors, posteriors, transcripts, lengths, lam, mode="argmax_blank_frames"):
    """``ctc.blank_limited_ctc_loss`` as a chain of one op per term: each
    utterance's rows and NLL, the weighted penalty, their sum and mean."""
    ends = np.cumsum(lengths)
    terms = [ctc_nll(rows(log_posteriors, end - n, end), labels)
             for labels, n, end in zip(transcripts, lengths, ends)]
    if lam != 0.0:
        terms.append(ad.scale(blank_penalty(posteriors, mode), lam))
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return ad.scale(total, 1.0 / len(transcripts))


def cross_entropy_chain(logits, targets):
    """``ad.cross_entropy`` as its chain of ops: log-softmax, the targets'
    entries, their sum and minus their mean."""
    return ad.scale(reduce_sum(pick(ad.log_softmax(logits), targets)), -1.0 / len(targets))


def masked_attention(q, k, v, blocks, n_heads=1):
    """Multi-head attention of ``q`` over ``k`` and ``v`` on the
    ``ad.Blocks`` layout ``blocks``, as one op: the attention kernel of
    ``ad.attention_sublayer``, with its checks."""
    ad._check_attention("masked_attention", q.shape, k.shape, v.shape, blocks, n_heads)
    out, saved = ad._attention(q.data, k.data, v.data, blocks, n_heads)
    return ad.record_op(out, (q, k, v), lambda g: ad._attention_vjp(saved, g))


def attention_chain(x, weights, blocks, n_heads=1, source=None, past=None, rate=0.0, rng=None):
    """``ad.attention_sublayer`` as the chain of primitive ops it stands
    for: a norm, the q, k and v projections, a cache's past keys and
    values (constants) before the new ones, attention, the output
    projection, dropout and the residual. Returns the output and the
    (keys, values) arrays."""
    gain, bias, wq, bq, wk, bk, wv, bv, wo, bo = weights
    normed = ad.layer_norm(x, gain, bias)
    q = ad.affine(normed, wq, bq)
    kv_in = normed if source is None else source
    if past is not None and kv_in.shape[0] == 0:
        k, v = (ad.Tensor(a, dtype=a.dtype) for a in past)
    else:
        k, v = ad.affine(kv_in, wk, bk), ad.affine(kv_in, wv, bv)
        if past is not None:
            k, v = (concat_rows([ad.Tensor(a, dtype=a.dtype), new]) for a, new in zip(past, (k, v)))
    h = ad.affine(masked_attention(q, k, v, blocks, n_heads), wo, bo)
    return ad.add(x, ad.dropout(h, rate, rng)), (k.data, v.data)


def feedforward_chain(x, weights, rate=0.0, rng=None):
    """``ad.feedforward_sublayer`` as the chain of primitive ops it stands
    for: a norm, affine, ReLU, affine, dropout and the residual."""
    gain, bias, w1, b1, w2, b2 = weights
    h = ad.affine(ad.relu(ad.affine(ad.layer_norm(x, gain, bias), w1, b1)), w2, b2)
    return ad.add(x, ad.dropout(h, rate, rng))


def dense_attention(q, k, v, mask, n_heads=1):
    """Multi-head scaled dot-product attention over the dense [H, Tq, Tk]
    grid; mask[i, j]=True lets query i see key j. A full mask adds no
    bias."""
    mask = np.asarray(mask, dtype=bool)
    full = mask.shape[1] > 0 and mask.all()

    def heads(x):  # [T, H*d] -> [H, T, d] view
        return x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    s = 1.0 / math.sqrt(q.shape[1] // n_heads)
    scores = (qh @ kt) * s
    if not full:
        scores = scores + np.where(mask, 0.0, -1e9).astype(scores.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
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

    return ad.record_op(out, (q, k, v), vjp)


def per_tensor_adam_step(params, state, lr):
    """One bias-corrected Adam update of each named tensor on its own, with
    moments in ``state.m`` and ``state.v`` by name; zeroes gradients."""
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


def zero_moments(param):
    """Fresh Adam moments for every value of the 1-D ``param``."""
    return np.zeros_like(param.data), np.zeros_like(param.data)


def dense_mask(q_lengths, k_lengths, counts, past=0):
    """The [sum(q_lengths), past + sum(k_lengths)] mask of
    ``ad.Blocks(q_lengths, k_lengths, counts, past)``: every row sees the
    ``past`` leading keys, then, block-diagonally, the first
    ``counts[row]`` keys of its block."""
    q_lengths, k_lengths = np.asarray(q_lengths), np.asarray(k_lengths)
    row_block = np.repeat(np.arange(len(q_lengths)), q_lengths)
    col_block = np.repeat(np.arange(len(k_lengths)), k_lengths)
    col_at = np.arange(k_lengths.sum()) - np.repeat(np.cumsum(k_lengths) - k_lengths, k_lengths)
    seen = (row_block[:, None] == col_block[None, :]) & (col_at[None, :] < np.asarray(counts)[:, None])
    return np.hstack([np.ones((len(row_block), past), dtype=bool), seen])


def build_cross_attention_mask(wait_k, stride_n, n_targets, n_source):
    """The boolean [sum(n_targets), sum(n_source)] form of
    ``model.visible_counts``: target row i may attend source unit j. For
    several utterances it is block-diagonal: each utterance's targets see
    only its own units."""
    counts = model.visible_counts(wait_k, stride_n, n_targets, n_source)
    return dense_mask(np.atleast_1d(n_targets), np.atleast_1d(n_source), counts)


def attention_runs(ops_and_masks, q, k, v, n_heads, dtype):
    """For each (op, mask): the output and the q, k and v gradients of the
    sum of the output weighted by fixed random numbers."""
    weights = np.random.default_rng(0).normal(size=(q.shape[0], v.shape[1])).astype(dtype)
    runs = []
    for op, mask in ops_and_masks:
        ad.reset_tape()
        leaves = [ad.Tensor(a, requires_grad=True, dtype=dtype) for a in (q, k, v)]
        out = op(*leaves, mask, n_heads)
        ad.backward(reduce_sum(ad.mul(out, ad.Tensor(weights, dtype=dtype))))
        runs.append([out.data] + [leaf.grad for leaf in leaves])
    return runs
