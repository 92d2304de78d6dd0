import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import autodiff as ad
from conftest import central_difference, relative_error
from oracles import (attention_runs, cross_entropy_chain, dense_attention, dense_mask, masked_attention, matmul,
                     per_tensor_adam_step, reduce_sum, zero_moments)


def t64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(matmul(a, b).data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)


class TestAffine:
    def test_equals_matmul_plus_bias_bit_for_bit(self):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=s).astype(np.float32) for s in ((7, 5), (5, 3), (3,))]
        probe = ad.Tensor(rng.normal(size=(7, 3)).astype(np.float32))
        runs = []
        for op in (ad.affine, lambda x, w, b: ad.add(matmul(x, w), b)):
            ad.reset_tape()
            leaves = [ad.Tensor(a, requires_grad=True, dtype=np.float32) for a in arrays]
            out = op(*leaves)
            ad.backward(reduce_sum(ad.mul(out, probe)))
            runs.append([out.data] + [leaf.grad for leaf in leaves])
        assert runs[0][0].dtype == np.float32
        for mine, ref in zip(*runs):
            np.testing.assert_array_equal(mine, ref)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2,))]
        weights = rng.normal(size=(4, 2))

        def loss(x, w, b):
            return reduce_sum(ad.mul(ad.affine(x, w, b), t64(weights)))

        def f(*arrs):
            with ad.using_dtype(np.float64):
                ad.reset_tape()
                return loss(*(t64(a) for a in arrs)).item()

        expected = central_difference(f, arrays)
        with ad.using_dtype(np.float64):
            ad.reset_tape()
            leaves = [t64(a, requires_grad=True) for a in arrays]
            ad.backward(loss(*leaves))
        for leaf, exp in zip(leaves, expected):
            assert relative_error(leaf.grad, exp) < 1e-7

    def test_shape_mismatch_names_both_shapes(self):
        x, w, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))), ad.Tensor(np.zeros(5))
        with pytest.raises(ad.ShapeError, match=r"affine.*\(2, 3\).*\(4, 5\)"):
            ad.affine(x, w, b)


class TestSoftmax:
    def test_symmetry(self):
        y = ad.softmax(ad.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_closed_form(self):
        y = ad.softmax(t64([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(y.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(5, 7)) * 10)
        y = ad.softmax(x)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (y.data >= 0).all()

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8), st.floats(-50, 50))
    def test_shift_invariance(self, row, c):
        x = np.array(row, dtype=np.float64)
        a = ad.softmax(t64(x)).data
        b = ad.softmax(t64(x + c)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_empty_axis_error(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax(ad.Tensor(np.zeros((3, 0))))


class TestConv1dLookahead:
    def test_identity_kernel(self):
        x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        k = ad.Tensor(np.ones((1, 1, 1)))
        y = ad.conv1d_lookahead(x, k, ad.Tensor(np.zeros(1)), stride=1, lookahead=0)[0]
        np.testing.assert_allclose(y.data, x.data)

    def test_output_length_ceil(self):
        x = ad.Tensor(np.zeros((5, 2)))
        k = ad.Tensor(np.zeros((3, 2, 4)))
        y = ad.conv1d_lookahead(x, k, ad.Tensor(np.zeros(4)), stride=2, lookahead=1)[0]
        assert y.shape == (3, 4)

    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (1, 2), (2, 1)])
    def test_causality_by_perturbation(self, stride, lookahead):
        rng = np.random.default_rng(1)
        T = 12
        x = rng.normal(size=(T, 3))
        k = ad.Tensor(rng.normal(size=(3, 3, 2)), dtype=np.float64)
        base = ad.conv1d_lookahead(t64(x), k, t64(np.zeros(2)), stride, lookahead)[0].data
        for t_out in range(base.shape[0]):
            horizon = t_out * stride + lookahead
            if horizon + 1 >= T:
                continue
            x2 = x.copy()
            x2[horizon + 1:] += 100.0
            pert = ad.conv1d_lookahead(t64(x2), k, t64(np.zeros(2)), stride, lookahead)[0].data
            np.testing.assert_array_equal(base[t_out], pert[t_out])

    def test_lookahead_wider_than_kernel_errors(self):
        x = ad.Tensor(np.zeros((4, 1)))
        k = ad.Tensor(np.zeros((2, 1, 1)))
        with pytest.raises(ad.ShapeError):
            ad.conv1d_lookahead(x, k, ad.Tensor(np.zeros(1)), stride=1, lookahead=2)

    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (1, 2), (2, 1), (2, 0)])
    def test_packed_sequences_match_separate_calls(self, stride, lookahead):
        lengths = [3, 1, 6, 2]
        rng = np.random.default_rng(2)
        x = rng.normal(size=(sum(lengths), 3))
        k, b = t64(rng.normal(size=(3, 3, 2))), t64(rng.normal(size=2))
        packed, out_lengths = ad.conv1d_lookahead(t64(x), k, b, stride, lookahead, lengths=lengths)
        packed = packed.data
        ends = np.cumsum(lengths)
        alone = [ad.conv1d_lookahead(t64(x[e - n:e]), k, b, stride, lookahead)[0].data for n, e in zip(lengths, ends)]
        assert [a.shape[0] for a in alone] == [-(-n // stride) for n in lengths]
        assert out_lengths.tolist() == [a.shape[0] for a in alone]
        np.testing.assert_allclose(packed, np.concatenate(alone), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,lookahead", [(1, 1), (2, 1), (2, 0)])
    def test_packed_gradcheck(self, stride, lookahead):
        lengths = [3, 1, 4]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(sum(lengths), 2))
        kernel, bias = rng.normal(size=(3, 2, 2)), rng.normal(size=2)
        weights = rng.normal(size=(sum(-(-n // stride) for n in lengths), 2))

        def f(xv, kv, bv):
            ad.reset_tape()
            y = ad.conv1d_lookahead(t64(xv), t64(kv), t64(bv), stride, lookahead, lengths=lengths)[0]
            return float((y.data * weights).sum())

        expected = central_difference(f, [x, kernel, bias])
        ad.reset_tape()
        xt, kt, bt = t64(x, requires_grad=True), t64(kernel, requires_grad=True), t64(bias, requires_grad=True)
        y = ad.conv1d_lookahead(xt, kt, bt, stride, lookahead, lengths=lengths)[0]
        assert (y.data == 0).any() and (y.data > 0).any()  # the ReLU cuts some outputs
        ad.backward(reduce_sum(ad.mul(y, t64(weights))))
        assert relative_error(xt.grad, expected[0]) < 1e-6
        assert relative_error(kt.grad, expected[1]) < 1e-6
        assert relative_error(bt.grad, expected[2]) < 1e-6

    @staticmethod
    def _held_split(stride, lookahead, extra, rng):
        """A 4-wide kernel, an 11-row input, and a split of its left-padded
        rows after the second window: ``context`` holds K-1-lookahead+extra
        rows from the third window's first row, ``rest`` the rows after it."""
        full, kernel = rng.normal(size=(11, 2)), rng.normal(size=(4, 2, 3))
        padded = np.concatenate([np.zeros((3 - lookahead, 2)), full])
        start = 2 * stride
        cut = start + 3 - lookahead + extra
        return full, kernel, padded[start:cut], padded[cut:]

    @pytest.mark.parametrize("end", [True, False])
    @pytest.mark.parametrize("extra", [1, 2, 5])
    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (1, 2), (2, 1), (2, 0)])
    def test_longer_context_equals_one_call(self, stride, lookahead, extra, end):
        full, kernel, context, rest = self._held_split(stride, lookahead, extra, np.random.default_rng(4))
        bias = t64(np.zeros(3))
        whole = ad.conv1d_lookahead(t64(full), t64(kernel), bias, stride, lookahead, end=end)[0].data
        held, held_lengths = ad.conv1d_lookahead(t64(rest), t64(kernel), bias, stride, lookahead, context, end)
        held = held.data
        np.testing.assert_array_equal(held, whole[2:])
        assert held_lengths.tolist() == [held.shape[0]]  # a stream is one sequence

    @pytest.mark.parametrize("stride,lookahead", [(1, 2), (2, 1), (2, 0)])
    def test_longer_context_gradcheck(self, stride, lookahead):
        rng = np.random.default_rng(5)
        _, kernel, context, rest = self._held_split(stride, lookahead, 2, rng)
        bias = t64(np.zeros(3))
        shape = ad.conv1d_lookahead(t64(rest), t64(kernel), bias, stride, lookahead, context)[0].shape
        weights = rng.normal(size=shape)

        def f(xv):
            ad.reset_tape()
            y = ad.conv1d_lookahead(t64(xv), t64(kernel), bias, stride, lookahead, context)[0]
            return float((y.data * weights).sum())

        expected = central_difference(f, [rest.copy()])
        ad.reset_tape()
        xt = t64(rest, requires_grad=True)
        y = ad.conv1d_lookahead(xt, t64(kernel), bias, stride, lookahead, context)[0]
        ad.backward(reduce_sum(ad.mul(y, t64(weights))))
        assert relative_error(xt.grad, expected[0]) < 1e-6

    def test_lengths_must_split_the_rows(self):
        x, k, b = ad.Tensor(np.zeros((5, 1))), ad.Tensor(np.zeros((2, 1, 1))), ad.Tensor(np.zeros(1))
        for lengths in ([2, 2], [5, 0], [4]):
            with pytest.raises(ad.ShapeError):
                ad.conv1d_lookahead(x, k, b, 1, 0, lengths=lengths)
        with pytest.raises(ValueError, match="one sequence"):
            ad.conv1d_lookahead(x, k, b, 1, 0, end=False, lengths=[2, 3])
        with pytest.raises(ad.ShapeError, match="bias"):
            ad.conv1d_lookahead(x, k, ad.Tensor(np.zeros(2)), 1, 0)

    @pytest.mark.parametrize("lengths", [None, [4, 1, 6]])
    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (2, 1)])
    def test_bias_and_relu_follow_the_convolution(self, stride, lookahead, lengths):
        # float32, bit for bit: max(windows @ kernel + bias, 0), one flattened
        # window per row, each taken from the sequence's own padded rows
        rng = np.random.default_rng(6)
        x, kernel, bias = (rng.normal(size=s).astype(np.float32) for s in ((11, 3), (3, 3, 4), (4,)))
        out, out_lengths = ad.conv1d_lookahead(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias), stride, lookahead,
                                               lengths=lengths)
        windows, at = [], 0
        for n in lengths or [11]:
            padded = np.concatenate([np.zeros((2 - lookahead, 3), np.float32), x[at:at + n],
                                     np.zeros((lookahead, 3), np.float32)])
            windows += [padded[t:t + 3] for t in range(0, len(padded) - 2, stride)]
            at += n
        pre = np.array(windows).reshape(len(windows), 9) @ kernel.reshape(9, 4) + bias
        assert out.data.dtype == np.float32 and out_lengths.sum() == len(windows)
        assert out.data.tobytes() == np.where(pre > 0, pre, np.float32(0)).tobytes()
        assert (out.data == 0).any() and (out.data > 0).any()


class TestMaskedAttention:
    def test_single_key_returns_value_row(self):
        q = ad.Tensor([[1.0, 0.0]])
        k = ad.Tensor([[0.3, -0.2]])
        v = ad.Tensor([[5.0, 6.0, 7.0]])
        out = masked_attention(q, k, v, ad.Blocks([1], [1], [1]))
        np.testing.assert_allclose(out.data, v.data)

    def test_equal_scores_average_values(self):
        q = ad.Tensor([[1.0, 1.0]])
        k = ad.Tensor([[0.0, 0.0], [0.0, 0.0]])
        v = ad.Tensor([[2.0, 0.0], [0.0, 2.0]])
        out = masked_attention(q, k, v, ad.Blocks([1], [2], [2]))
        np.testing.assert_allclose(out.data, [[1.0, 1.0]], atol=1e-6)

    def test_mask_blocks_other_keys(self):
        rng = np.random.default_rng(2)
        q = ad.Tensor(rng.normal(size=(1, 4)))
        k = ad.Tensor(rng.normal(size=(3, 4)))
        v = ad.Tensor(rng.normal(size=(3, 2)))
        out = masked_attention(q, k, v, ad.Blocks([1], [3], [1]))
        np.testing.assert_allclose(out.data, v.data[0:1], atol=1e-5)

    def test_all_false_row_rejected(self):
        q = ad.Tensor(np.zeros((2, 2)))
        k = ad.Tensor(np.zeros((2, 2)))
        v = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="row 1"):
            masked_attention(q, k, v, ad.Blocks([2], [2], [2, 0]))

    def test_boolean_mask_rejected(self):
        q = ad.Tensor(np.zeros((1, 2)))
        with pytest.raises(TypeError, match="Blocks"):
            masked_attention(q, q, q, np.array([[True]]))

    def test_no_keys_rejected(self):
        # a block of no keys leaves its rows none to see
        q, kv = ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="row 0"):
            masked_attention(q, kv, kv, ad.Blocks([2], [0], [0, 0]))


def biased_attention(q, k, v, mask, n_heads):
    """The op's forward arithmetic with the -1e9 bias of disallowed keys
    always added: the path a full mask skips."""
    def heads(x):
        return x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)

    qh, kh, vh = heads(q), heads(k), heads(v)
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    scores = (qh @ kt) * (1.0 / math.sqrt(q.shape[1] // n_heads))
    scores = scores + np.where(mask, 0.0, -1e9).astype(scores.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return (w @ vh).transpose(1, 0, 2).reshape(q.shape[0], v.shape[1])


def per_head_attention(q, k, v, mask, n_heads):
    """numpy reference: each head attends with its own column block, and
    the head outputs sit side by side."""
    outs = []
    for qh, kh, vh in zip(*(np.split(x, n_heads, axis=1) for x in (q, k, v))):
        scores = np.where(mask, qh @ kh.T / math.sqrt(qh.shape[1]), -np.inf)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append(w / w.sum(axis=1, keepdims=True) @ vh)
    return np.concatenate(outs, axis=1)


def cached_past_inputs(seed, n=3, past=2, width=8, v_width=4):
    """q, k, v, the causal layout of n new rows over ``past`` cached ones
    and its dense mask."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, width)), rng.normal(size=(past + n, width)),
              rng.normal(size=(past + n, v_width))]
    return arrays, ad.Blocks([n], [n], np.arange(n) + 1, past), np.tri(n, past + n, past, dtype=bool)


class TestMultiHeadAttention:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_reference(self, n_heads):
        (q, k, v), blocks, mask = cached_past_inputs(n_heads)
        with ad.using_dtype(np.float64):
            out = masked_attention(t64(q), t64(k), t64(v), blocks, n_heads)
        np.testing.assert_allclose(out.data, per_head_attention(q, k, v, mask, n_heads), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_gradcheck_cached_past_mask(self, n_heads):
        arrays, blocks, _ = cached_past_inputs(10 + n_heads)
        weights = np.random.default_rng(n_heads).normal(size=(blocks.n_queries, arrays[2].shape[1]))

        def loss(q, k, v):
            out = masked_attention(q, k, v, blocks, n_heads)
            return reduce_sum(ad.mul(out, t64(weights)))

        def f(*arrs):
            with ad.using_dtype(np.float64):
                ad.reset_tape()
                return loss(*(t64(a) for a in arrs)).item()

        expected = central_difference(f, arrays)
        with ad.using_dtype(np.float64):
            ad.reset_tape()
            leaves = [t64(a, requires_grad=True) for a in arrays]
            ad.backward(loss(*leaves))
        for leaf, exp in zip(leaves, expected):
            assert relative_error(leaf.grad, exp) < 1e-7

    @pytest.mark.parametrize("n_queries, n_keys", [(1, 40), (5, 5), (3, 7)])
    def test_full_mask_equals_the_bias_path_bit_for_bit(self, n_queries, n_keys):
        rng = np.random.default_rng(n_keys)
        q, k, v = (rng.normal(size=(n, 16)).astype(np.float32) for n in (n_queries, n_keys, n_keys))
        mask = np.ones((n_queries, n_keys), dtype=bool)
        blocks = ad.Blocks([n_queries], [n_keys], [n_keys] * n_queries)
        out = masked_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), blocks, n_heads=4)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, biased_attention(q, k, v, mask, 4))

    @pytest.mark.parametrize("widths", [(6, 8), (8, 6)])
    def test_head_count_must_divide_widths(self, widths):
        qk_width, v_width = widths
        q, k = ad.Tensor(np.zeros((2, qk_width))), ad.Tensor(np.zeros((2, qk_width)))
        v = ad.Tensor(np.zeros((2, v_width)))
        with pytest.raises(ad.ShapeError, match="heads"):
            masked_attention(q, k, v, ad.Blocks([2], [2], [2, 2]), n_heads=4)


def packed_at(lengths):
    lengths = np.asarray(lengths)
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def qkv(n_q, n_k, seed, width=16, v_width=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_q, width)), rng.normal(size=(n_k, width)), rng.normal(size=(n_k, v_width))


class TestBlockAttention:
    """A ``Blocks`` layout against the dense op over its block-diagonal mask."""

    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("causal", [True, False])
    def test_self_attention_blocks_equal_the_dense_op(self, causal, n_heads):
        lengths = np.array([5, 1, 8, 3])  # unequal, one of a single row
        counts = packed_at(lengths) + 1 if causal else np.repeat(lengths, lengths)
        q, k, v = qkv(lengths.sum(), lengths.sum(), seed=n_heads)
        with ad.using_dtype(np.float64):
            blocks, dense = attention_runs([(masked_attention, ad.Blocks(lengths, lengths, counts)),
                                            (dense_attention, dense_mask(lengths, lengths, counts))],
                                           q, k, v, n_heads, np.float64)
        for got, want in zip(blocks, dense):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_queries_and_keys_in_blocks_of_their_own_lengths(self):
        q_lengths, k_lengths = np.array([2, 6, 3]), np.array([4, 1, 5])
        counts = np.minimum(packed_at(q_lengths) + 2, np.repeat(k_lengths, q_lengths))
        q, k, v = qkv(q_lengths.sum(), k_lengths.sum(), seed=3)
        with ad.using_dtype(np.float64):
            blocks, dense = attention_runs([(masked_attention, ad.Blocks(q_lengths, k_lengths, counts)),
                                            (dense_attention, dense_mask(q_lengths, k_lengths, counts))],
                                           q, k, v, 2, np.float64)
        for got, want in zip(blocks, dense):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mask", [  # (block lengths, counts, past)
        ([1], [1], 6),  # a streamed row over its cache
        ([3], [1, 2, 3], 4),  # new causal rows over a cached past
        ([2, 2, 2], [1, 2] * 3, 3),  # hypothesis blocks over a shared prefix
    ])
    def test_one_block_is_the_dense_op_bit_for_bit(self, mask):
        lengths, counts, past = mask
        layout, mask = ad.Blocks(lengths, lengths, counts, past), dense_mask(lengths, lengths, counts, past)
        q, k, v = (a.astype(np.float32) for a in qkv(*mask.shape, seed=mask.shape[0]))
        one, dense = attention_runs([(masked_attention, layout), (dense_attention, mask)], q, k, v, 4, np.float32)
        for got, want in zip(one, dense):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_unequal_blocks_over_a_past_equal_the_dense_op(self):
        q_lengths, k_lengths, past = np.array([2, 4, 1]), np.array([3, 1, 5]), 4
        counts = np.minimum(packed_at(q_lengths) + 1, np.repeat(k_lengths, q_lengths))
        q, k, v = qkv(q_lengths.sum(), past + k_lengths.sum(), seed=5)
        with ad.using_dtype(np.float64):
            blocks, dense = attention_runs(
                [(masked_attention, ad.Blocks(q_lengths, k_lengths, counts, past)),
                 (dense_attention, dense_mask(q_lengths, k_lengths, counts, past))], q, k, v, 2, np.float64)
        for got, want in zip(blocks, dense):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_counts_must_lie_within_the_block(self):
        with pytest.raises(ValueError, match="row 3"):
            ad.Blocks([2, 2], [3, 1], [1, 3, 1, 2])
        with pytest.raises(ValueError, match="row 0"):
            ad.Blocks([1, 1], [2, 2], [0, 1])
        with pytest.raises(ad.ShapeError):
            ad.Blocks([2, 2], [3, 1], [1, 1, 1])
        with pytest.raises(ad.ShapeError):
            ad.Blocks([2, 0], [3, 1], [1, 1])
        with pytest.raises(ValueError, match="past"):
            ad.Blocks([2], [2], [1, 2], past=-1)

    def test_layout_must_match_the_rows(self):
        blocks = ad.Blocks([2, 1], [2, 1], [1, 2, 1])
        q = ad.Tensor(np.zeros((3, 4)))
        with pytest.raises(ad.ShapeError, match="Blocks"):
            masked_attention(q, ad.Tensor(np.zeros((4, 4))), ad.Tensor(np.zeros((4, 4))), blocks)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = ad.Tensor([[3.0, 3.0, 3.0]])
        out = ad.layer_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-2)

    def test_two_point_row(self):
        out = ad.layer_norm(t64([[1.0, 3.0]]), t64(np.ones(2)), t64(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_affine_override(self):
        x = ad.Tensor([[1.0, 2.0, 4.0]])
        out = ad.layer_norm(x, ad.Tensor(np.zeros(3)), ad.Tensor(np.full(3, 5.0)))
        np.testing.assert_allclose(out.data, 5.0)

    def test_single_feature_errors(self):
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(ad.Tensor([[1.0]]), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)))

    @pytest.mark.parametrize("shape", [(1, 64), (9, 16), (2, 3, 8)])
    def test_float32_equals_the_mean_var_formula_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        x, probe = (rng.normal(loc=1.0, scale=3.0, size=shape).astype(np.float32) for _ in range(2))
        g, b = (rng.normal(size=shape[-1]).astype(np.float32) for _ in range(2))
        leaves = [ad.Tensor(a, requires_grad=True, dtype=np.float32) for a in (x, g, b)]
        out = ad.layer_norm(*leaves)
        ad.backward(reduce_sum(ad.mul(out, ad.Tensor(probe, dtype=np.float32))))
        # the textbook formula through numpy's mean and var
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        y = (x - x.mean(axis=-1, keepdims=True)) * inv
        gy = probe * g
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, y * g + b)
        np.testing.assert_array_equal(leaves[0].grad, gx)


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        logits = ad.Tensor([[50.0, 0.0, 0.0]])
        loss = ad.cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits(self):
        logits = t64(np.zeros((2, 4)))
        loss = ad.cross_entropy(logits, np.array([1, 3]))
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-9)

    def test_out_of_range_target_errors(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(ad.Tensor(np.zeros((1, 3))), np.array([3]))

    @pytest.mark.parametrize("rows, targets", [(2, [0]), (2, [0, 1, 2]), (2, [[0], [1]]), (0, [])])
    def test_one_target_per_logit_row(self, rows, targets):
        with pytest.raises(ad.ShapeError):
            ad.cross_entropy(ad.Tensor(np.zeros((rows, 3))), np.array(targets, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_op_equals_the_chain_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, n_classes = int(rng.integers(1, 30)), int(rng.integers(2, 12))
            logits = rng.normal(scale=4.0, size=(n, n_classes))
            targets = rng.integers(0, n_classes, size=n)
            runs = []
            for loss_fn in (ad.cross_entropy, cross_entropy_chain):
                ad.reset_tape()
                x = ad.Tensor(logits, requires_grad=True, dtype=dtype)
                loss = loss_fn(x, targets)
                ops = ad.tape_length()
                ad.backward(ad.scale(loss, 0.7))
                runs.append((ops, loss.data, x.grad))
            assert runs[0][0] == 1
            assert runs[0][1].dtype == runs[1][1].dtype == dtype
            for mine, ref in zip(runs[0][1:], runs[1][1:]):
                assert mine.tobytes() == ref.tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([3.0], requires_grad=True)
        loss = reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_unused_parameter_gets_zero(self):
        x = t64([2.0], requires_grad=True)
        p = t64([5.0], requires_grad=True)
        ad.backward(reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.mul(x, x))

    def test_accumulation_doubles_exactly(self):
        x = t64([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        w = t64([[0.2], [0.7]], requires_grad=True)
        loss = reduce_sum(ad.relu(matmul(x, w)))
        ad.backward(loss)
        once = (x.grad.copy(), w.grad.copy())
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * once[0])
        np.testing.assert_array_equal(w.grad, 2 * once[1])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=(4, 3))
        wv = rng.normal(size=(3, 2))
        gv = rng.normal(size=(2,))
        bv = rng.normal(size=(2,))

        def f(xa, wa, ga, ba):
            with ad.using_dtype(np.float64):
                ad.reset_tape()
                h = matmul(ad.Tensor(xa), ad.Tensor(wa))
                h = ad.layer_norm(h, ad.Tensor(ga), ad.Tensor(ba))
                h = ad.softmax(h)
                return reduce_sum(ad.mul(h, h)).item()

        expected = central_difference(f, [xv, wv, gv, bv])
        with ad.using_dtype(np.float64):
            ad.reset_tape()
            x = ad.Tensor(xv, requires_grad=True)
            w = ad.Tensor(wv, requires_grad=True)
            g = ad.Tensor(gv, requires_grad=True)
            b = ad.Tensor(bv, requires_grad=True)
            h = ad.softmax(ad.layer_norm(matmul(x, w), g, b))
            ad.backward(reduce_sum(ad.mul(h, h)))
        for got, exp in zip([x.grad, w.grad, g.grad, b.grad], expected):
            assert relative_error(got, exp) < 1e-4


class TestAdam:
    def _params(self):
        return {"w": t64([1.0, -1.0], requires_grad=True)}

    def test_zero_grad_no_move(self):
        params = self._params()
        before = params["w"].data.copy()
        ad.adam_step(params["w"], *zero_moments(params["w"]), ad.OptimizerState(), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_first_step_magnitude_is_lr(self):
        params = self._params()
        params["w"].grad[...] = [0.3, -7.0]
        ad.adam_step(params["w"], *zero_moments(params["w"]), ad.OptimizerState(), lr=0.05)
        np.testing.assert_allclose(params["w"].data, [1.0 - 0.05, -1.0 + 0.05], rtol=1e-5)

    def test_step_counter(self):
        params = self._params()
        state = ad.OptimizerState()
        moments = zero_moments(params["w"])
        params["w"].grad[...] = 1.0
        ad.adam_step(params["w"], *moments, state, lr=0.01)
        params["w"].grad[...] = 1.0
        ad.adam_step(params["w"], *moments, state, lr=0.01)
        assert state.step == 2

    def test_grads_zeroed_after_step(self):
        params = self._params()
        params["w"].grad[...] = 2.0
        ad.adam_step(params["w"], *zero_moments(params["w"]), ad.OptimizerState(), lr=0.01)
        np.testing.assert_array_equal(params["w"].grad, 0.0)

    def test_missing_grad_errors(self):
        p = ad.Tensor([1.0])
        with pytest.raises(ValueError, match="no gradient"):
            ad.adam_step(p, *zero_moments(p), ad.OptimizerState(), lr=0.01)

    def test_moments_must_fit_the_parameter(self):
        p = ad.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.adam_step(p, np.zeros(4), np.zeros(4), ad.OptimizerState(), lr=0.01)

    @pytest.mark.parametrize("kw", [
        dict(beta1="0.9"), dict(beta1=1.0), dict(beta2=-0.1), dict(beta2=True), dict(eps=0.0),
        dict(eps=math.nan), dict(base_lr=-1e-3), dict(base_lr=math.inf), dict(warmup=0), dict(warmup=2.5),
        dict(step=1.5), dict(step=-1), dict(step=True),
    ])
    def test_bad_scalars_rejected_at_construction(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ad.OptimizerState(**kw)


SHAPES = {"a.w": (3, 4), "a.b": (4,), "b.w": (2, 3, 5), "b.g": (7,)}


class TestFlatAdam:
    """The flat store's one in-place pass against the per-tensor loop."""

    def _stores(self, rng):
        flat, params = ad.flat_parameters(SHAPES)
        for p in params.values():
            p.data[...] = rng.normal(size=p.shape)
        alone = {k: ad.Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        return flat, params, alone

    def test_parameters_are_views_of_the_store(self):
        flat, params = ad.flat_parameters(SHAPES)
        assert flat.data.dtype == np.float32 and flat.shape == (sum(math.prod(s) for s in SHAPES.values()),)
        assert list(params) == list(SHAPES) and all(p.shape == SHAPES[k] for k, p in params.items())
        params["b.w"].data[...] = 2.0
        params["b.w"].grad[...] = 3.0
        np.testing.assert_array_equal(flat.data[16:46], 2.0)
        np.testing.assert_array_equal(flat.grad[16:46], 3.0)
        assert not flat.grad[:16].any() and not flat.grad[46:].any()

    def test_steps_equal_the_per_tensor_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        flat, params, alone = self._stores(rng)
        m, v = zero_moments(flat)
        flat_state, loop_state = ad.OptimizerState(), ad.OptimizerState()
        for step in range(6):
            for name, p in params.items():
                p.grad[...] = rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 2)
                alone[name].grad[...] = p.grad
            lr = ad.inverse_sqrt_lr(step + 1, 2e-3, 3)
            ad.adam_step(flat, m, v, flat_state, lr)
            per_tensor_adam_step(alone, loop_state, lr)
        assert flat_state.step == loop_state.step == 6
        named_m, named_v = ad.unflatten(m, SHAPES), ad.unflatten(v, SHAPES)
        for name, p in params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == alone[name].data.tobytes(), name
            assert named_m[name].tobytes() == loop_state.m[name].tobytes(), name
            assert named_v[name].tobytes() == loop_state.v[name].tobytes(), name
            assert not p.grad.any()

    def test_a_leading_slice_updates_only_its_parameters(self):
        rng = np.random.default_rng(9)
        flat, params, alone = self._stores(rng)
        flat.grad[...] = rng.normal(size=flat.shape)
        lead = {k: alone[k] for k in ("a.w", "a.b")}
        for name, p in lead.items():
            p.grad[...] = params[name].grad
        rest = flat.data[16:].copy(), flat.grad[16:].copy()
        m, v = np.zeros(16, dtype=np.float32), np.zeros(16, dtype=np.float32)
        ad.adam_step(flat, m, v, ad.OptimizerState(), 1e-2)
        per_tensor_adam_step(lead, ad.OptimizerState(), 1e-2)
        for name, p in lead.items():
            assert params[name].data.tobytes() == p.data.tobytes()
        assert flat.data[16:].tobytes() == rest[0].tobytes() and flat.grad[16:].tobytes() == rest[1].tobytes()
        assert not flat.grad[:16].any()


class TestSchedule:
    def test_at_warmup_equals_base(self):
        assert ad.inverse_sqrt_lr(100, 2e-3, 100) == pytest.approx(2e-3)

    def test_linear_branch(self):
        assert ad.inverse_sqrt_lr(50, 2e-3, 100) == pytest.approx(1e-3)

    def test_inverse_sqrt_branch(self):
        assert ad.inverse_sqrt_lr(400, 2e-3, 100) == pytest.approx(1e-3)

    def test_step_zero_errors(self):
        with pytest.raises(ValueError):
            ad.inverse_sqrt_lr(0, 2e-3, 100)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_gradcheck_random_graphs(seed):
    """Random small graphs over several primitives vs central differences."""
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(3, 4))
    wv = rng.normal(size=(4, 4))

    def run(xa, wa):
        ad.reset_tape()
        with ad.using_dtype(np.float64):
            x = ad.Tensor(xa, requires_grad=True)
            w = ad.Tensor(wa, requires_grad=True)
            h = ad.relu(matmul(x, w))
            h = ad.add(h, x)
            p = ad.log_softmax(h)
            loss = ad.scale(reduce_sum(ad.mul(p, p)), 0.5)
        return loss, x, w

    loss, x, w = run(xv, wv)
    ad.backward(loss)
    expected = central_difference(lambda a, b: run(a, b)[0].item(), [xv, wv])
    assert relative_error(x.grad, expected[0]) < 1e-4
    assert relative_error(w.grad, expected[1]) < 1e-4
