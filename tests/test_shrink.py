import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import autodiff as ad
from simulst import ctc, shrink
from conftest import central_difference, relative_error
from oracles import concat_rows, matmul, reduce_sum, reshape, rows, sub


def seg(*edges):
    """The segment ends of consecutive frame intervals split at ``edges``."""
    return np.array(edges[1:])


def spans(ends):
    return list(zip([0, *ends[:-1]], ends))


def random_case(rng, t_frames=None, d=3):
    t_frames = t_frames or int(rng.integers(1, 9))
    states = rng.normal(size=(t_frames, d))
    blanks = rng.random(t_frames)
    cuts = sorted(set([0, t_frames] + list(rng.integers(1, t_frames, size=rng.integers(0, 3))))) if t_frames > 1 else [0, 1]
    return states, blanks, seg(*cuts)


class TestWeightedShrink:
    def test_mu_zero_is_mean(self):
        states = ad.Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        blanks = ad.Tensor([0.3, 0.9], dtype=np.float64)
        out = shrink.shrink_states(states, blanks, None, seg(0, 2), shrink.ShrinkConfig(temperature=0.0))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-7)

    def test_argmax_mode_selects_min_blank_frame(self):
        states = ad.Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        blanks = ad.Tensor([0.0, 1.0], dtype=np.float64)
        out = shrink.shrink_states(states, blanks, None, seg(0, 2), shrink.ShrinkConfig(mode="argmax_frame"))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_mu_one_closed_form(self):
        # weights e^1/(e^1+e^0) ~ 0.7311 for blanks (0, 1)
        states = ad.Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        blanks = ad.Tensor([0.0, 1.0], dtype=np.float64)
        out = shrink.shrink_states(states, blanks, None, seg(0, 2), shrink.ShrinkConfig(temperature=1.0))
        w = math.e / (math.e + 1.0)
        np.testing.assert_allclose(out.data, [[w, 1.0 - w]], atol=1e-9)

    def test_row_count_equals_segment_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            states, blanks, segments = random_case(rng)
            out = shrink.shrink_states(
                ad.Tensor(states, dtype=np.float64), ad.Tensor(blanks, dtype=np.float64), None, segments,
                shrink.ShrinkConfig(),
            )
            assert out.shape == (len(segments), states.shape[1])

    def test_blank_probs_out_of_range_rejected(self):
        states = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            shrink.shrink_states(states, ad.Tensor([0.5, 1.5]), None, seg(0, 2), shrink.ShrinkConfig())


class TestShrinkLimits:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_limits_and_weight_normalization(self, seed):
        rng = np.random.default_rng(seed)
        states, blanks, segments = random_case(rng)
        s64 = ad.Tensor(states, dtype=np.float64)
        b64 = ad.Tensor(blanks, dtype=np.float64)

        mean_out = shrink.shrink_states(s64, b64, None, segments, shrink.ShrinkConfig(temperature=0.0))
        for i, (a, b) in enumerate(spans(segments)):
            np.testing.assert_allclose(mean_out.data[i], states[a:b].mean(axis=0), atol=1e-7)

        # sharp temperature picks the min-blank frame when the margin is clear;
        # at temperature 1e3 the loser weight is e^(-1000*margin), so unit-scale
        # states need margin >= ~0.02 for 1e-6 closeness
        sharp = shrink.shrink_states(s64, b64, None, segments, shrink.ShrinkConfig(temperature=1e3))
        for i, (a, b) in enumerate(spans(segments)):
            sub = blanks[a:b]
            order = np.sort(sub)
            if order.size > 1 and order[1] - order[0] < 0.02:
                continue
            np.testing.assert_allclose(sharp.data[i], states[a + int(np.argmin(sub))], atol=1e-6)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 8.0))
    def test_weights_sum_to_one(self, seed, mu):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(1, 7))
        blanks = rng.random(t_frames)
        conf = mu * (1.0 - blanks)
        e = np.exp(conf - conf.max())
        w = e / e.sum()
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w >= 0).all()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_min_blank_weight_monotone_in_mu(self, seed):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(2, 7))
        blanks = rng.random(t_frames)
        if np.unique(blanks).size < t_frames:
            blanks = np.linspace(0.1, 0.9, t_frames)
        best = int(np.argmin(blanks))
        prev = -1.0
        for mu in (0.0, 0.5, 1.0, 2.0, 5.0):
            conf = mu * (1.0 - blanks)
            e = np.exp(conf - conf.max())
            w = (e / e.sum())[best]
            assert w >= prev - 1e-12
            prev = w


DROP_BLANK = shrink.ShrinkConfig(mode="drop_blank")


class TestDropBlank:
    def test_blank_frame_dropped(self):
        states = ad.Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        out = shrink.shrink_states(states, ad.Tensor([0.5, 0.5], dtype=np.float64), [0, ctc.BLANK], seg(0, 2),
                                   DROP_BLANK)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_all_blank_falls_back_to_mean(self):
        states = ad.Tensor([[2.0, 0.0], [0.0, 2.0]], dtype=np.float64)
        out = shrink.shrink_states(states, ad.Tensor([0.5, 0.5], dtype=np.float64), [ctc.BLANK, ctc.BLANK],
                                   seg(0, 2), DROP_BLANK)
        np.testing.assert_allclose(out.data, [[1.0, 1.0]])

    def test_inputs_are_checked(self):
        states = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="blank probabilities"):
            shrink.shrink_states(states, ad.Tensor([0.5, 1.5]), [0, 0], seg(0, 2), DROP_BLANK)
        with pytest.raises(ValueError, match="path"):
            shrink.shrink_states(states, ad.Tensor([0.5, 0.5]), [0], seg(0, 2), DROP_BLANK)

    def test_no_blanks_matches_mean_shrink(self):
        rng = np.random.default_rng(1)
        states, blanks, segments = random_case(rng, t_frames=6)
        s64 = ad.Tensor(states, dtype=np.float64)
        b64 = ad.Tensor(blanks, dtype=np.float64)
        via_drop = shrink.shrink_states(s64, b64, [0] * 6, segments, DROP_BLANK)
        via_mean = shrink.shrink_states(s64, b64, None, segments, shrink.ShrinkConfig(mode="average"))
        np.testing.assert_allclose(via_drop.data, via_mean.data, atol=1e-7)


@pytest.mark.parametrize("ends", [[], [0, 3], [2, 1, 3], [2, 2, 3], [1, 2], [1, 4], [[1, 3]], [1.0, 3.0]])
def test_bad_segment_ends_rejected(ends):
    # empty, starting at 0, not increasing, not ending at T = 3, 2-D, not integers
    states = ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="segment ends"):
        shrink.shrink_states(states, ad.Tensor([0.5, 0.5, 0.5]), None, ends, shrink.ShrinkConfig())


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2 ** 31 - 1))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    states, blanks, segments = random_case(rng, t_frames=5, d=2)
    blanks = np.clip(blanks, 0.05, 0.95)

    def f(sv, bv):
        ad.reset_tape()
        with ad.using_dtype(np.float64):
            out = shrink.shrink_states(
                ad.Tensor(sv), ad.Tensor(bv), None, segments, shrink.ShrinkConfig(temperature=1.0)
            )
            return reduce_sum(ad.mul(out, out)).item()

    expected = central_difference(f, [states, blanks])
    ad.reset_tape()
    with ad.using_dtype(np.float64):
        s = ad.Tensor(states, requires_grad=True)
        b = ad.Tensor(blanks, requires_grad=True)
        out = shrink.shrink_states(s, b, None, segments, shrink.ShrinkConfig(temperature=1.0))
        ad.backward(reduce_sum(ad.mul(out, out)))
    assert relative_error(s.grad, expected[0]) < 1e-4
    assert relative_error(b.grad, expected[1]) < 1e-4


def per_segment_reference(states, blank_probs, path, segments, cfg):
    """Shrinking as a chain of primitive ops per segment: the arithmetic
    the one-op shrink keeps."""
    dtype = states.data.dtype
    out_rows = []
    for start, stop in spans(segments):
        seg = rows(states, start, stop)
        if cfg.mode in ("argmax_frame", "drop_blank"):
            if cfg.mode == "argmax_frame":
                w = np.zeros((1, stop - start), dtype=dtype)
                w[0, int(np.argmin(blank_probs.data[start:stop]))] = 1.0
            else:
                keep = np.asarray(path[start:stop]) != ctc.BLANK
                if not keep.any():
                    keep = np.ones(stop - start, dtype=bool)
                w = (keep / keep.sum()).astype(dtype).reshape(1, -1)
            out_rows.append(matmul(ad.Tensor(w, dtype=dtype), seg))
            continue
        mu = 0.0 if cfg.mode == "average" else cfg.temperature
        conf = ad.scale(sub(ad.Tensor(1.0, dtype=dtype), rows(blank_probs, start, stop)), mu)
        w = reshape(ad.softmax(conf), (1, stop - start))
        out_rows.append(matmul(w, seg))
    return concat_rows(out_rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg", [shrink.ShrinkConfig(1.0), shrink.ShrinkConfig(2.5), shrink.ShrinkConfig(mode="average"),
                                 shrink.ShrinkConfig(mode="argmax_frame"), shrink.ShrinkConfig(mode="drop_blank")])
def test_one_op_equals_the_per_segment_chain_bit_for_bit(cfg, dtype):
    rng = np.random.default_rng(11)
    for _ in range(20):
        states, blanks, segments = random_case(rng, t_frames=int(rng.integers(1, 30)), d=5)
        path = np.where(rng.random(states.shape[0]) < 0.4, ctc.BLANK, 0)
        probe = rng.normal(size=(len(segments), 5)).astype(dtype)
        runs = []
        for fn in (shrink.shrink_states, per_segment_reference):
            ad.reset_tape()
            s = ad.Tensor(states, requires_grad=True, dtype=dtype)
            b = ad.Tensor(blanks, requires_grad=True, dtype=dtype)
            out = fn(s, b, path, segments, cfg)
            ops = ad.tape_length()
            ad.backward(reduce_sum(ad.mul(out, ad.Tensor(probe, dtype=dtype))))
            runs.append((ops, out.data, s.grad, b.grad))
        assert runs[0][0] == 1
        for mine, ref in zip(runs[0][1:], runs[1][1:]):
            np.testing.assert_array_equal(mine, ref)
