import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import autodiff as ad
from conftest import central_difference, relative_error


def t64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)


class TestAffine:
    def test_equals_matmul_plus_bias_bit_for_bit(self):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=s).astype(np.float32) for s in ((7, 5), (5, 3), (3,))]
        probe = ad.Tensor(rng.normal(size=(7, 3)).astype(np.float32))
        runs = []
        for op in (ad.affine, lambda x, w, b: ad.add(ad.matmul(x, w), b)):
            ad.reset_tape()
            leaves = [ad.Tensor(a, requires_grad=True, dtype=np.float32) for a in arrays]
            out = op(*leaves)
            ad.backward(ad.reduce_sum(ad.mul(out, probe)))
            runs.append([out.data] + [leaf.grad for leaf in leaves])
        assert runs[0][0].dtype == np.float32
        for mine, ref in zip(*runs):
            np.testing.assert_array_equal(mine, ref)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2,))]
        weights = rng.normal(size=(4, 2))

        def loss(x, w, b):
            return ad.reduce_sum(ad.mul(ad.affine(x, w, b), t64(weights)))

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
        y = ad.softmax(x, axis=-1)
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
            ad.softmax(ad.Tensor(np.zeros((3, 0))), axis=-1)


class TestConv1dLookahead:
    def test_identity_kernel(self):
        x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        k = ad.Tensor(np.ones((1, 1, 1)))
        y = ad.conv1d_lookahead(x, k, stride=1, lookahead=0)
        np.testing.assert_allclose(y.data, x.data)

    def test_output_length_ceil(self):
        x = ad.Tensor(np.zeros((5, 2)))
        k = ad.Tensor(np.zeros((3, 2, 4)))
        y = ad.conv1d_lookahead(x, k, stride=2, lookahead=1)
        assert y.shape == (3, 4)

    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (1, 2), (2, 1)])
    def test_causality_by_perturbation(self, stride, lookahead):
        rng = np.random.default_rng(1)
        T = 12
        x = rng.normal(size=(T, 3))
        k = ad.Tensor(rng.normal(size=(3, 3, 2)), dtype=np.float64)
        base = ad.conv1d_lookahead(t64(x), k, stride, lookahead).data
        for t_out in range(base.shape[0]):
            horizon = t_out * stride + lookahead
            if horizon + 1 >= T:
                continue
            x2 = x.copy()
            x2[horizon + 1:] += 100.0
            pert = ad.conv1d_lookahead(t64(x2), k, stride, lookahead).data
            np.testing.assert_array_equal(base[t_out], pert[t_out])

    def test_lookahead_wider_than_kernel_errors(self):
        x = ad.Tensor(np.zeros((4, 1)))
        k = ad.Tensor(np.zeros((2, 1, 1)))
        with pytest.raises(ad.ShapeError):
            ad.conv1d_lookahead(x, k, stride=1, lookahead=2)

    @pytest.mark.parametrize("stride,lookahead", [(1, 0), (1, 2), (2, 1), (2, 0)])
    def test_packed_sequences_match_separate_calls(self, stride, lookahead):
        lengths = [3, 1, 6, 2]
        rng = np.random.default_rng(2)
        x = rng.normal(size=(sum(lengths), 3))
        k = t64(rng.normal(size=(3, 3, 2)))
        packed = ad.conv1d_lookahead(t64(x), k, stride, lookahead, lengths=lengths).data
        ends = np.cumsum(lengths)
        alone = [ad.conv1d_lookahead(t64(x[e - n:e]), k, stride, lookahead).data for n, e in zip(lengths, ends)]
        assert [a.shape[0] for a in alone] == [-(-n // stride) for n in lengths]
        np.testing.assert_allclose(packed, np.concatenate(alone), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,lookahead", [(1, 1), (2, 1), (2, 0)])
    def test_packed_gradcheck(self, stride, lookahead):
        lengths = [3, 1, 4]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(sum(lengths), 2))
        kernel = rng.normal(size=(3, 2, 2))
        weights = rng.normal(size=(sum(-(-n // stride) for n in lengths), 2))

        def f(xv, kv):
            ad.reset_tape()
            y = ad.conv1d_lookahead(t64(xv), t64(kv), stride, lookahead, lengths=lengths)
            return float((y.data * weights).sum())

        expected = central_difference(f, [x, kernel])
        ad.reset_tape()
        xt, kt = t64(x, requires_grad=True), t64(kernel, requires_grad=True)
        y = ad.conv1d_lookahead(xt, kt, stride, lookahead, lengths=lengths)
        ad.backward(ad.reduce_sum(ad.mul(y, t64(weights))))
        assert relative_error(xt.grad, expected[0]) < 1e-6
        assert relative_error(kt.grad, expected[1]) < 1e-6

    def test_lengths_must_split_the_rows(self):
        x, k = ad.Tensor(np.zeros((5, 1))), ad.Tensor(np.zeros((2, 1, 1)))
        for lengths in ([2, 2], [5, 0]):
            with pytest.raises(ad.ShapeError):
                ad.conv1d_lookahead(x, k, 1, 0, lengths=lengths)
        with pytest.raises(ValueError, match="one sequence"):
            ad.conv1d_lookahead(x, k, 1, 0, end=False, lengths=[2, 3])


class TestMaskedAttention:
    def test_single_key_returns_value_row(self):
        q = ad.Tensor([[1.0, 0.0]])
        k = ad.Tensor([[0.3, -0.2]])
        v = ad.Tensor([[5.0, 6.0, 7.0]])
        out = ad.masked_attention(q, k, v, np.array([[True]]))
        np.testing.assert_allclose(out.data, v.data)

    def test_equal_scores_average_values(self):
        q = ad.Tensor([[1.0, 1.0]])
        k = ad.Tensor([[0.0, 0.0], [0.0, 0.0]])
        v = ad.Tensor([[2.0, 0.0], [0.0, 2.0]])
        out = ad.masked_attention(q, k, v, np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(out.data, [[1.0, 1.0]], atol=1e-6)

    def test_mask_blocks_other_keys(self):
        rng = np.random.default_rng(2)
        q = ad.Tensor(rng.normal(size=(1, 4)))
        k = ad.Tensor(rng.normal(size=(3, 4)))
        v = ad.Tensor(rng.normal(size=(3, 2)))
        out = ad.masked_attention(q, k, v, np.array([[True, False, False]]))
        np.testing.assert_allclose(out.data, v.data[0:1], atol=1e-5)

    def test_all_false_row_rejected(self):
        q = ad.Tensor(np.zeros((2, 2)))
        k = ad.Tensor(np.zeros((2, 2)))
        v = ad.Tensor(np.zeros((2, 2)))
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError, match="row 1"):
            ad.masked_attention(q, k, v, mask)

    def test_no_keys_rejected(self):
        # an empty mask row is all True, yet it allows no key
        q, kv = ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="row 0"):
            ad.masked_attention(q, kv, kv, np.ones((2, 0), dtype=bool))


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
    """q, k, v and the mask of n new rows over ``past`` cached ones."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, width)), rng.normal(size=(past + n, width)),
              rng.normal(size=(past + n, v_width))]
    return arrays, np.tri(n, past + n, past, dtype=bool)


class TestMultiHeadAttention:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_reference(self, n_heads):
        (q, k, v), mask = cached_past_inputs(n_heads)
        with ad.using_dtype(np.float64):
            out = ad.masked_attention(t64(q), t64(k), t64(v), mask, n_heads)
        np.testing.assert_allclose(out.data, per_head_attention(q, k, v, mask, n_heads), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_gradcheck_cached_past_mask(self, n_heads):
        arrays, mask = cached_past_inputs(10 + n_heads)
        weights = np.random.default_rng(n_heads).normal(size=(mask.shape[0], arrays[2].shape[1]))

        def loss(q, k, v):
            out = ad.masked_attention(q, k, v, mask, n_heads)
            return ad.reduce_sum(ad.mul(out, t64(weights)))

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
        out = ad.masked_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), mask, n_heads=4)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, biased_attention(q, k, v, mask, 4))

    @pytest.mark.parametrize("widths", [(6, 8), (8, 6)])
    def test_head_count_must_divide_widths(self, widths):
        qk_width, v_width = widths
        q, k = ad.Tensor(np.zeros((2, qk_width))), ad.Tensor(np.zeros((2, qk_width)))
        v = ad.Tensor(np.zeros((2, v_width)))
        with pytest.raises(ad.ShapeError, match="heads"):
            ad.masked_attention(q, k, v, np.ones((2, 2), dtype=bool), n_heads=4)


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
        ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(probe, dtype=np.float32))))
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


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([3.0], requires_grad=True)
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_unused_parameter_gets_zero(self):
        x = t64([2.0], requires_grad=True)
        p = t64([5.0], requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.mul(x, x))

    def test_accumulation_doubles_exactly(self):
        x = t64([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        w = t64([[0.2], [0.7]], requires_grad=True)
        loss = ad.reduce_sum(ad.relu(ad.matmul(x, w)))
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
                h = ad.matmul(ad.Tensor(xa), ad.Tensor(wa))
                h = ad.layer_norm(h, ad.Tensor(ga), ad.Tensor(ba))
                h = ad.softmax(h, axis=-1)
                return ad.reduce_sum(ad.mul(h, h)).item()

        expected = central_difference(f, [xv, wv, gv, bv])
        with ad.using_dtype(np.float64):
            ad.reset_tape()
            x = ad.Tensor(xv, requires_grad=True)
            w = ad.Tensor(wv, requires_grad=True)
            g = ad.Tensor(gv, requires_grad=True)
            b = ad.Tensor(bv, requires_grad=True)
            h = ad.softmax(ad.layer_norm(ad.matmul(x, w), g, b), axis=-1)
            ad.backward(ad.reduce_sum(ad.mul(h, h)))
        for got, exp in zip([x.grad, w.grad, g.grad, b.grad], expected):
            assert relative_error(got, exp) < 1e-4


class TestAdam:
    def _params(self):
        return {"w": t64([1.0, -1.0], requires_grad=True)}

    def test_zero_grad_no_move(self):
        params = self._params()
        before = params["w"].data.copy()
        ad.adam_step(params, ad.OptimizerState(), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_first_step_magnitude_is_lr(self):
        params = self._params()
        params["w"].grad[...] = [0.3, -7.0]
        ad.adam_step(params, ad.OptimizerState(), lr=0.05)
        np.testing.assert_allclose(params["w"].data, [1.0 - 0.05, -1.0 + 0.05], rtol=1e-5)

    def test_step_counter(self):
        params = self._params()
        state = ad.OptimizerState()
        params["w"].grad[...] = 1.0
        ad.adam_step(params, state, lr=0.01)
        params["w"].grad[...] = 1.0
        ad.adam_step(params, state, lr=0.01)
        assert state.step == 2

    def test_grads_zeroed_after_step(self):
        params = self._params()
        params["w"].grad[...] = 2.0
        ad.adam_step(params, ad.OptimizerState(), lr=0.01)
        np.testing.assert_array_equal(params["w"].grad, 0.0)

    def test_missing_grad_errors(self):
        p = ad.Tensor([1.0])
        with pytest.raises(ValueError, match="no gradient"):
            ad.adam_step({"p": p}, ad.OptimizerState(), lr=0.01)


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
            h = ad.relu(ad.matmul(x, w))
            h = ad.add(h, x)
            p = ad.log_softmax(h, axis=-1)
            loss = ad.scale(ad.reduce_sum(ad.mul(p, p)), 0.5)
        return loss, x, w

    loss, x, w = run(xv, wv)
    ad.backward(loss)
    expected = central_difference(lambda a, b: run(a, b)[0].item(), [xv, wv])
    assert relative_error(x.grad, expected[0]) < 1e-4
    assert relative_error(w.grad, expected[1]) < 1e-4
