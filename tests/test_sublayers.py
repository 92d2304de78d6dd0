"""The Transformer sub-layer ops against the primitive op chains they stand
for: outputs, cached keys and values, and every input and parameter
gradient bit for bit, and their VJPs against finite differences."""

import numpy as np
import pytest

from simulst import autodiff as ad
from conftest import central_difference, relative_error
from oracles import attention_chain, feedforward_chain, reduce_sum

D, HEADS, FFN = 8, 2, 12


def leaves(rng, dtype, shapes):
    return [ad.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True, dtype=dtype) for s in shapes]


def attention_weights(rng, dtype):
    return leaves(rng, dtype, [(D,), (D,)] + [(D, D), (D,)] * 4)


def feedforward_weights(rng, dtype):
    return leaves(rng, dtype, [(D,), (D,), (D, FFN), (FFN,), (FFN, D), (D,)])


# (rows per block, source units per block, self-attention past, source past)
CASES = {
    "one utterance": ([5], [4], 0, 0),
    "a stream's rows over their caches": ([3], [2], 4, 3),
    "rows over cached units only": ([2], [0], 3, 5),
    "a batch of blocks": ([3, 1, 4], [2, 3, 2], 0, 0),
    # a padded layout over a cache that holds rows: the first key block starts with the cached units
    "a batch over cached units": ([3, 2], [1, 3], 0, 2),
}


def run_stack(case, dtype, fused, rate, seed=0):
    """Two decoder-like layers over one source, as in ``Model._tf_forward``:
    self-attention, cross-attention and the feed-forward sub-layer each,
    below a rescaled input, so x and the source are inner tape tensors
    whose gradients add up over several ops. Returns the output, the keys
    and values, and every leaf's gradient."""
    rows, units, self_past, source_past = CASES[case]
    rng = np.random.default_rng(3)
    n, m = sum(rows), sum(units)
    x_leaf, source_leaf = leaves(rng, dtype, [(n, D), (m, D)])
    layers = [(attention_weights(rng, dtype), attention_weights(rng, dtype), feedforward_weights(rng, dtype))
              for _ in range(2)]
    pasts = [ad.KVCache.of_rows(*[rng.normal(size=(p, D)).astype(dtype) for _ in range(2)], HEADS) if p else None
             for p in (self_past, source_past)]
    if len(rows) == 1:
        self_blocks = ad.Blocks(rows, rows, np.arange(1, n + 1), past=self_past)
        seen = source_past + m
        cross_blocks = ad.Blocks(rows, [seen], np.minimum(np.arange(n) + 2, seen))
    else:
        keys = np.array(units)
        keys[0] += source_past
        self_blocks = ad.Blocks(rows, rows, ad.packed_offsets(rows) + 1)
        cross_blocks = ad.Blocks(rows, keys, np.minimum(ad.packed_offsets(rows) + 1, np.repeat(keys, rows)))
    probe = ad.Tensor(rng.normal(size=(n, D)).astype(dtype), dtype=dtype)
    dropout_rng = np.random.default_rng(seed) if rate else None
    with ad.using_dtype(dtype):
        ad.reset_tape()
        x, source = ad.scale(x_leaf, 1.5), ad.scale(source_leaf, 0.5)
        caches = []
        for self_weights, cross_weights, ffn_weights in layers:
            for weights, src, blocks, past in ((self_weights, None, self_blocks, pasts[0]),
                                               (cross_weights, source, cross_blocks, pasts[1])):
                if fused:
                    x, kv = ad.attention_sublayer(x, weights, blocks, HEADS, src, past, rate, dropout_rng)
                else:
                    x, kv = attention_chain(x, weights, blocks, HEADS, src, past, rate, dropout_rng)
                caches += kv
            x = (ad.feedforward_sublayer if fused else feedforward_chain)(x, ffn_weights, rate, dropout_rng)
        ad.backward(reduce_sum(ad.mul(x, probe)))
    every_leaf = [x_leaf, source_leaf] + [w for layer in layers for group in layer for w in group]
    return x.data, caches, [leaf.grad for leaf in every_leaf]


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sublayers_are_their_primitive_chains_bit_for_bit(case, dtype, rate):
    out, caches, grads = run_stack(case, dtype, fused=True, rate=rate)
    ref_out, ref_caches, ref_grads = run_stack(case, dtype, fused=False, rate=rate)
    assert out.dtype == dtype and out.tobytes() == ref_out.tobytes()
    assert len(caches) == len(ref_caches) == 8
    for got, want in zip(caches, ref_caches):
        assert got.tobytes() == want.tobytes()
    for i, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), i
    assert case == "rows over cached units only" or np.abs(grads[1]).max() > 0


def test_dropout_draws_in_the_chains_order():
    # one seed, the same masks: a different seed changes the output
    out = run_stack("one utterance", np.float64, fused=True, rate=0.3)[0]
    assert not np.array_equal(out, run_stack("one utterance", np.float64, fused=True, rate=0.3, seed=1)[0])
    assert not np.array_equal(out, run_stack("one utterance", np.float64, fused=True, rate=0.0)[0])


def test_sublayers_record_one_op_each():
    rng = np.random.default_rng(0)
    x, source = leaves(rng, np.float64, [(3, D), (2, D)])
    ad.reset_tape()
    with ad.using_dtype(np.float64):
        y, _ = ad.attention_sublayer(x, attention_weights(rng, np.float64), ad.Blocks([3], [3], [1, 2, 3]), HEADS)
        y, kv = ad.attention_sublayer(y, attention_weights(rng, np.float64), ad.Blocks([3], [2], [2, 2, 2]), HEADS,
                                      source)
        ad.feedforward_sublayer(y, feedforward_weights(rng, np.float64))
    assert ad.tape_length() == 3
    assert all(isinstance(a, np.ndarray) and a.shape == (2, D) for a in kv)


@pytest.mark.parametrize("kind", ["self with a past", "cross", "feed-forward"])
def test_gradcheck(kind):
    rng = np.random.default_rng(4)
    x, source = rng.normal(size=(3, D)), rng.normal(size=(4, D))
    past = ad.KVCache.of_rows(*[rng.normal(size=(2, D)) for _ in range(2)], HEADS)
    shapes = [(D,), (D,), (D, FFN), (FFN,), (FFN, D), (D,)] if kind == "feed-forward" else \
        [(D,), (D,)] + [(D, D), (D,)] * 4
    weights = [rng.normal(size=s) for s in shapes]
    probe = rng.normal(size=(3, D))

    def loss(x, source, *weights):
        if kind == "feed-forward":
            out = ad.feedforward_sublayer(x, weights)
        elif kind == "cross":
            out, _ = ad.attention_sublayer(x, weights, ad.Blocks([3], [4], [2, 3, 4]), HEADS, source)
        else:
            out, _ = ad.attention_sublayer(x, weights, ad.Blocks([3], [3], [1, 2, 3], past=2), HEADS, past=past)
        return reduce_sum(ad.mul(out, ad.Tensor(probe)))

    def f(*arrays):
        ad.reset_tape()
        return loss(*(ad.Tensor(a) for a in arrays)).item()

    arrays = [x, source] + weights
    with ad.using_dtype(np.float64):
        expected = central_difference(f, arrays)
        ad.reset_tape()
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
        ad.backward(loss(*tensors))
    for i, (t, exp) in enumerate(zip(tensors, expected)):
        if i == 1 and kind != "cross":
            assert not t.grad.any()  # not an input of the op
        elif i == 7 and kind == "cross":
            # with no past keys, the key bias shifts all of a row's scores alike, which the softmax ignores
            assert np.abs(t.grad).max() < 1e-12 and np.abs(exp).max() < 1e-8
        else:
            assert relative_error(t.grad, exp) < 1e-6, i


def test_mismatched_shapes_rejected():
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(3, D)))
    weights = attention_weights(rng, np.float64)
    blocks = ad.Blocks([3], [3], [1, 2, 3])
    with pytest.raises(ad.ShapeError, match="attention_sublayer"):
        ad.attention_sublayer(x, weights[:2] + [ad.Tensor(np.zeros((D + 1, D)))] + weights[3:], blocks, HEADS)
    with pytest.raises(ad.ShapeError, match="attention_sublayer"):
        ad.attention_sublayer(x, weights, ad.Blocks([3], [2], [2, 2, 2]), HEADS, ad.Tensor(np.zeros((2, D + 1))))
    with pytest.raises(ad.ShapeError, match="Blocks"):
        ad.attention_sublayer(x, weights, ad.Blocks([2], [2], [1, 2]), HEADS)
    with pytest.raises(ad.ShapeError, match="heads"):
        ad.attention_sublayer(x, weights, blocks, 3)
    with pytest.raises(TypeError, match="Blocks"):
        ad.attention_sublayer(x, weights, np.ones((3, 3), dtype=bool), HEADS)
    with pytest.raises(TypeError, match="KVCache past, got tuple"):  # a (keys, values) pair is no cache
        ad.attention_sublayer(x, weights, ad.Blocks([3], [3], [1, 2, 3], past=2), HEADS,
                              past=(np.zeros((2, D)), np.zeros((2, D))))
    with pytest.raises(ad.ShapeError, match="feedforward_sublayer"):
        ad.feedforward_sublayer(x, feedforward_weights(rng, np.float64)[:4] + [ad.Tensor(np.zeros((FFN, D + 1))),
                                                                             ad.Tensor(np.zeros(D + 1))])
    with pytest.raises(ad.ShapeError, match="feedforward_sublayer"):
        ad.feedforward_sublayer(ad.Tensor(np.zeros((3, 1))), feedforward_weights(rng, np.float64))
