import dataclasses
import functools
import logging
import math

import numpy as np
import pytest

from simulst import autodiff as ad
from simulst import ctc, data, model


def tiny_cfg(**kw):
    base = dict(
        d_feat=6,
        n_blocks=1,
        conv_lookahead=(0, 0, 1),
        transformer_layers_per_block=1,
        d_model=16,
        n_heads=2,
        ffn_dim=32,
        semantic_layers=1,
        decoder_layers=1,
        src_vocab_size=8,
        tgt_vocab_size=8,
        dropout=0.0,
        wait_k=2,
        stride_n=2,
    )
    base.update(kw)
    return model.ModelConfig(**base)


def tiny_corpus(n=6, seed=0, **kw):
    base = dict(
        vocab_size=5, feature_dim=6, frames_per_token=(2, 4), length_range=(2, 4),
        noise_std=0.05, seed=seed,
    )
    base.update(kw)
    return data.generate_synthetic_corpus(data.SyntheticTaskConfig(**base), n)


class TestConfig:
    def test_downsample_and_frame_ms(self):
        cfg = model.ModelConfig()
        assert cfg.downsample == 8
        assert cfg.output_frame_ms == 80

    def test_fingerprint_changes_with_config(self):
        a = model.ModelConfig().fingerprint()
        b = model.ModelConfig(d_model=128).fingerprint()
        assert a != b and len(a) == 16

    def test_bad_heads_rejected(self):
        with pytest.raises(ValueError):
            model.ModelConfig(d_model=30, n_heads=4)


@pytest.mark.parametrize("kw", [
    dict(shrink_mode="bogus"),
    dict(shrink_temperature=-1.0),
    dict(shrink_temperature=float("nan")),
    dict(blank_penalty_mode="bogus"),
])
def test_bad_loss_settings_rejected_at_construction(kw):
    with pytest.raises(ValueError, match="mode|temperature"):
        model.ModelConfig(**kw)


class TestLookahead:
    def test_no_lookahead_is_zero_ms(self):
        cfg = model.ModelConfig(conv_lookahead=(0, 0, 0))
        assert model.effective_lookahead_ms(cfg) == 0

    def test_paper_architecture_is_140ms(self):
        cfg = model.ModelConfig()  # 3 blocks, lookahead on each block's third conv
        assert model.effective_lookahead_ms(cfg) == 140

    def test_single_conv_stack(self):
        cfg = model.ModelConfig(n_blocks=1, convs_per_block=2, conv_lookahead=(2, 0))
        assert model.effective_lookahead_ms(cfg) == 20


class TestDownsampling:
    def test_output_length_examples(self):
        cfg = model.ModelConfig()
        assert model.output_length(cfg, 16) == 2
        assert model.output_length(cfg, 17) == 3

    def test_encoder_output_length_matches(self):
        m = model.Model(tiny_cfg(n_blocks=2), seed=0)
        rng = np.random.default_rng(0)
        for t in (4, 5, 9, 16, 33):
            states, post = m.acoustic_encode(rng.normal(size=(t, 6)).astype(np.float32))
            want = model.output_length(m.cfg, t)
            assert states.shape == (want, 16)
            assert post.shape == (want, 9)
            np.testing.assert_allclose(post.data.sum(axis=1), 1.0, atol=1e-5)

    def test_too_short_input_rejected(self):
        m = model.Model(tiny_cfg(n_blocks=2), seed=0)
        with pytest.raises(ValueError):
            m.acoustic_encode(np.zeros((3, 6), dtype=np.float32))


class TestCausality:
    def test_acoustic_encoder_receptive_horizon(self):
        cfg = tiny_cfg()
        m = model.Model(cfg, seed=1)
        horizon = model.effective_lookahead_frames(cfg)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 6)).astype(np.float32)
        with ad.no_grad():
            base, _ = m.acoustic_encode(x)
            for t_out in range(base.shape[0]):
                last_needed = t_out * cfg.downsample + horizon
                if last_needed + 1 >= x.shape[0]:
                    continue
                x2 = x.copy()
                x2[last_needed + 1:] += 7.5
                pert, _ = m.acoustic_encode(x2)
                np.testing.assert_array_equal(base.data[t_out], pert.data[t_out])

    def test_bidirectional_flag_breaks_causality(self):
        cfg = tiny_cfg(unidirectional=False)
        m = model.Model(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 6)).astype(np.float32)
        with ad.no_grad():
            base, _ = m.acoustic_encode(x)
            x2 = x.copy()
            x2[-4:] += 7.5
            pert, _ = m.acoustic_encode(x2)
        assert not np.array_equal(base.data[0], pert.data[0])

    def test_semantic_encoder_causal(self):
        m = model.Model(tiny_cfg(), seed=3)
        rng = np.random.default_rng(3)
        s = rng.normal(size=(5, 16)).astype(np.float32)
        with ad.no_grad():
            base = m.semantic_encode(ad.Tensor(s))
            s2 = s.copy()
            s2[4] += 3.0
            pert = m.semantic_encode(ad.Tensor(s2))
        np.testing.assert_array_equal(base.data[:4], pert.data[:4])

    def test_zero_semantic_layers_is_positional_only(self):
        m = model.Model(tiny_cfg(semantic_layers=0), seed=0)
        s = np.ones((3, 16), dtype=np.float32)
        out = m.semantic_encode(ad.Tensor(s))
        pos = model.sinusoidal_positions(3, 16, np.float32)
        np.testing.assert_allclose(out.data, s + pos, atol=1e-6)


class TestCrossAttentionMask:
    def test_first_token_sees_k(self):
        mask = model.build_cross_attention_mask(3, 2, 1, 10)
        assert mask[0].sum() == 3

    def test_hand_case_counts(self):
        mask = model.build_cross_attention_mask(2, 2, 5, 6)
        np.testing.assert_array_equal(mask.sum(axis=1), [2, 2, 4, 4, 6])

    def test_wait_one_degenerate(self):
        mask = model.build_cross_attention_mask(1, 1, 4, 10)
        np.testing.assert_array_equal(mask.sum(axis=1), [1, 2, 3, 4])

    def test_infinite_k_saturates(self):
        mask = model.build_cross_attention_mask(model.WAIT_INF, 2, 3, 5)
        assert mask.all()

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            model.build_cross_attention_mask(1, 1, 3, 0)

    def test_visible_units_of_ints_arrays_and_inf(self):
        written = np.arange(6)
        np.testing.assert_array_equal(model.visible_units(3, 2, written), [3, 3, 5, 5, 7, 7])
        assert [model.visible_units(3, 2, w) for w in range(6)] == [3, 3, 5, 5, 7, 7]
        assert model.visible_units(model.WAIT_INF, 2, 4) == math.inf
        assert (model.visible_units(model.WAIT_INF, 2, written) == math.inf).all()

    def test_monotone_budget_jumps_by_n(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            t_y = int(rng.integers(1, 12))
            s = int(rng.integers(1, 12))
            counts = model.build_cross_attention_mask(k, n, t_y, s).sum(axis=1)
            assert (np.diff(counts) >= 0).all()
            for t in range(t_y):
                assert counts[t] == min(n * (t // n) + k, s)


class TestForwardTrain:
    def test_losses_finite_and_diagnostics(self):
        corpus = tiny_corpus()
        m = model.Model(tiny_cfg(src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens)), seed=0)
        batch = data.make_batches(corpus, max_frames=200)[0]
        loss_st, loss_ctc, diag = m.forward_train(batch)
        assert np.isfinite(loss_st.item())
        assert np.isfinite(loss_ctc.item())
        assert 0.0 <= diag["blank_fraction"] <= 1.0

    def test_alpha_zero_total_is_st_only(self):
        corpus = tiny_corpus()
        m = model.Model(tiny_cfg(ctc_loss_weight=0.0,
                                 src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens)), seed=0)
        batch = data.make_batches(corpus, max_frames=200)[0]
        loss_st, loss_ctc, _ = m.forward_train(batch)
        assert m.total_loss(loss_st, loss_ctc).item() == loss_st.item()

    def test_infeasible_transcripts_skipped(self):
        # 3-block model downsamples 8x; 2-4 frames/token makes transcripts too long
        corpus = tiny_corpus(n=10, length_range=(4, 4))
        m = model.Model(tiny_cfg(n_blocks=3, src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens)), seed=0)
        keep = [u for u in corpus if u.n_frames >= 8]
        assert keep
        batch = data.make_batches(keep, max_frames=400)[0]
        _, _, diag = m.forward_train(batch)
        assert len(diag["skipped_ids"]) > 0

    def test_saturated_mask_equals_full_sentence(self):
        corpus = tiny_corpus()
        kw = dict(src_vocab_size=len(corpus.src_vocab.tokens), tgt_vocab_size=len(corpus.tgt_vocab.tokens))
        m_inf = model.Model(tiny_cfg(wait_k=model.WAIT_INF, **kw), seed=0)
        m_big = model.Model(tiny_cfg(wait_k=99, **kw), seed=0)
        batch = data.make_batches(corpus, max_frames=200)[0]
        ad.reset_tape()
        a = m_inf.forward_train(batch)[0].item()
        ad.reset_tape()
        b = m_big.forward_train(batch)[0].item()
        assert a == pytest.approx(b, rel=1e-6)


ABLATIONS = [
    dict(use_shrink=False),
    dict(use_ctc=False, use_shrink=False),
    dict(gradual_downsample=False),
    dict(shrink_mode="drop_blank"),
    dict(shrink_mode="average"),
    dict(shrink_mode="argmax_frame"),
    dict(blank_penalty_mode="all_frames"),
    dict(unidirectional=False),
]


class TestAblationVariants:
    @pytest.mark.parametrize("kw", ABLATIONS)
    def test_variant_trains_one_step(self, kw):
        corpus = tiny_corpus()
        m = model.Model(tiny_cfg(src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens), **kw), seed=0)
        batch = data.make_batches(corpus, max_frames=200)[0]
        ad.reset_tape()
        loss_st, loss_ctc, _ = m.forward_train(batch)
        total = m.total_loss(loss_st, loss_ctc)
        ad.backward(total)
        ad.adam_step(m.parameters(), ad.OptimizerState(), lr=1e-3)
        assert np.isfinite(total.item())

    def test_minus_gd_same_lookahead_and_length(self):
        cfg_gd = tiny_cfg(n_blocks=2)
        cfg_no = tiny_cfg(n_blocks=2, gradual_downsample=False)
        assert model.effective_lookahead_frames(cfg_gd) == model.effective_lookahead_frames(cfg_no)
        m = model.Model(cfg_no, seed=0)
        states, _ = m.acoustic_encode(np.random.default_rng(0).normal(size=(12, 6)).astype(np.float32))
        assert states.shape[0] == model.output_length(cfg_no, 12)


def test_loss_decreases_under_training():
    """200 optimizer steps on a fixed tiny batch cut the loss by >= 50%."""
    corpus = tiny_corpus(n=4, seed=9)
    cfg = tiny_cfg(src_vocab_size=len(corpus.src_vocab.tokens), tgt_vocab_size=len(corpus.tgt_vocab.tokens))
    m = model.Model(cfg, seed=9)
    batch = data.make_batches(corpus, max_frames=200)[0]
    state = ad.OptimizerState(base_lr=2e-3, warmup=50)
    first = None
    last = None
    for step in range(200):
        ad.reset_tape()
        loss_st, loss_ctc, _ = m.forward_train(batch)
        total = m.total_loss(loss_st, loss_ctc)
        ad.backward(total)
        lr = ad.inverse_sqrt_lr(state.step + 1, state.base_lr, state.warmup)
        ad.adam_step(m.parameters(), state, lr)
        if first is None:
            first = total.item()
        last = total.item()
    assert last <= 0.5 * first, (first, last)


def test_attention_records_one_op_for_any_head_count():
    x = ad.Tensor(np.random.default_rng(0).normal(size=(5, 16)))
    tapes = []
    for n_heads in (1, 4):
        m = model.Model(tiny_cfg(n_heads=n_heads), seed=0)
        ad.reset_tape()
        m._tf_forward("semantic.tf0", x, m._self_mask(5), None)
        tapes.append([(vjp.__qualname__, out.shape) for out, _, vjp in ad._tape])
    assert tapes[0] == tapes[1]
    assert sum(name.startswith("masked_attention") for name, _ in tapes[1]) == 1


class TestStreamingEncode:
    def test_fresh_state_records_the_plain_tape(self):
        m = model.Model(tiny_cfg(n_blocks=2), seed=0)
        x = np.random.default_rng(0).normal(size=(23, 6)).astype(np.float32)
        runs = []
        for state in (None, model.StreamState()):
            ad.reset_tape()
            states, post = m.acoustic_encode(x, state=state)
            ops = [(vjp.__qualname__, out.shape) for out, _, vjp in ad._tape]
            runs.append((ops, states.data, post.data))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    @pytest.mark.parametrize("sizes", [[1] * 30, [3, 0, 7, 2, 18], [30]])
    def test_any_split_matches_one_call(self, sizes):
        # calls may finalize no frame at all; the state carries their rows
        cfg = tiny_cfg(n_blocks=3, transformer_layers_per_block=2)
        x = np.random.default_rng(1).normal(size=(30, 6)).astype(np.float32)
        with ad.using_dtype(np.float64):
            m = model.Model(cfg, seed=2)
            with ad.no_grad():
                whole, whole_post = m.acoustic_encode(x)
                state = model.StreamState()
                outs, pos = [], 0
                for n in sizes:
                    outs.append(m.acoustic_encode(x[pos:pos + n], state=state, end=False))
                    pos += n
                    assert sum(o[0].shape[0] for o in outs) == model.finalized_frames(cfg, pos)
                outs.append(m.acoustic_encode(x[:0], state=state, end=True))
        states = np.concatenate([o[0].data for o in outs])
        post = np.concatenate([o[1].data for o in outs])
        np.testing.assert_allclose(states, whole.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post, whole_post.data, rtol=0, atol=1e-12)

    def test_total_loss_without_translation_loss_is_typed_error(self):
        m = model.Model(tiny_cfg(), seed=0)
        with pytest.raises(model.NoLossError):
            m.total_loss(None, None)


@pytest.mark.parametrize("kw", [
    dict(blank_penalty_weight=-1.0),
    dict(ctc_loss_weight=-1.0),
    dict(ctc_loss_weight=float("nan")),
    dict(dropout=1.5),
    dict(dropout=1.0),
    dict(dropout=-0.1),
    dict(n_heads=0),
    dict(wait_k=1.5),
    dict(stride_n=1.5),
    dict(conv_lookahead=(0, 0, 5)),  # a conv of kernel 3 reads at most 2 future frames
    dict(conv_lookahead=(0, -1, 1)),
    dict(n_blocks=0),
    dict(d_model=1, n_heads=1),
    dict(ffn_dim=0),
    dict(d_feat=0),
    dict(frame_ms=0),
    dict(frame_ms=-10),
    dict(transformer_layers_per_block=-1),
    dict(semantic_layers=-2),
    dict(decoder_layers=-1),
    dict(tgt_vocab_size=1),  # EOS is id 1
    dict(tgt_vocab_size=0),
    dict(src_vocab_size=0),
])
def test_bad_numbers_rejected_at_construction(kw):
    with pytest.raises(ValueError):
        model.ModelConfig(**kw)


@pytest.mark.parametrize("wait_k, stride_n", [(1.5, 2), (0, 2), (2, 0), (2, 1.5)])
def test_mask_rejects_a_bad_schedule(wait_k, stride_n):
    with pytest.raises(ValueError, match="wait_k|stride_n"):
        model.build_cross_attention_mask(wait_k, stride_n, 4, 5)


class TestStreamingDecode:
    """Semantic encoder and decoder states: a fresh state is the plain call,
    and a state carried over calls gives the rows of one whole call."""

    def _source(self, m, n_units, seed=0):
        return ad.Tensor(np.random.default_rng(seed).normal(size=(n_units, m.cfg.d_model)))

    def test_fresh_state_records_the_plain_tape(self):
        m = model.Model(tiny_cfg(semantic_layers=2, decoder_layers=2), seed=0)
        shrunk = ad.Tensor(np.random.default_rng(0).normal(size=(5, 16)).astype(np.float32))
        source = self._source(m, 5)
        ids = np.array([data.EOS, 3, 4, 5])
        mask = model.build_cross_attention_mask(2, 2, 4, 5)
        runs = []
        for sem_state, dec_state in ((None, None), (model.StreamState(), model.StreamState())):
            ad.reset_tape()
            units = m.semantic_encode(shrunk, state=sem_state)
            logits = m.decode_logits(ids, source, mask, state=dec_state)
            ops = [(vjp.__qualname__, out.shape) for out, _, vjp in ad._tape]
            runs.append((ops, units.data, logits.data))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    @pytest.mark.parametrize("sizes", [[1] * 7, [3, 4], [2, 1, 4]])
    def test_semantic_units_in_any_split_match_one_call(self, sizes):
        shrunk = np.random.default_rng(1).normal(size=(7, 16))
        with ad.using_dtype(np.float64):
            m = model.Model(tiny_cfg(semantic_layers=2), seed=1)
            with ad.no_grad():
                whole = m.semantic_encode(ad.Tensor(shrunk))
                state, parts, pos = model.StreamState(), [], 0
                for n in sizes:
                    parts.append(m.semantic_encode(ad.Tensor(shrunk[pos:pos + n]), state=state).data)
                    pos += n
        np.testing.assert_allclose(np.concatenate(parts), whole.data, rtol=0, atol=1e-12)

    def test_cached_rows_and_stacked_blocks_match_whole_prefixes(self):
        # rows EOS and 3 see 2 units, row 4 sees 4 of 6; then three
        # continuations of two tokens are scored in one call on a fork
        vis = [2, 2, 4]
        blocks = [[5, 6], [7, 5], [3, 3]]
        with ad.using_dtype(np.float64):
            m = model.Model(tiny_cfg(decoder_layers=2), seed=2)
            source = self._source(m, 6, seed=2)

            def unseen(lo, hi):  # a stream passes only the units its state has not seen
                return ad.Tensor(source.data[lo:hi])

            def whole(ids, rows_vis):
                mask = np.arange(6)[None, :] < np.array(rows_vis)[:, None]
                return m.decode_logits(np.array(ids), source, mask).data

            with ad.no_grad():
                state = model.StreamState()
                first = m.decode_logits(np.array([data.EOS, 3]), unseen(0, 2), np.ones((2, 2), dtype=bool),
                                        state=state).data
                second = m.decode_logits(np.array([4]), unseen(2, 6), np.arange(6)[None, :] < 4,
                                         state=state).data
                stacked = m.decode_logits(np.array(sum(blocks, [])), unseen(6, 6), np.ones((6, 6), dtype=bool),
                                          state=state.fork(), lengths=[2, 2, 2]).data
                expect = whole([data.EOS, 3, 4], vis)
                expect_blocks = [whole([data.EOS, 3, 4] + b, vis + [6, 6])[3:] for b in blocks]
        assert state.rows == 3  # the fork left the state as it was
        np.testing.assert_allclose(first, expect[:2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(second, expect[2:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked, np.concatenate(expect_blocks), rtol=0, atol=1e-12)

    def test_rows_must_split_into_equal_blocks(self):
        m = model.Model(tiny_cfg(), seed=0)
        for lengths in ([2, 2], [3, 0], [4]):
            with pytest.raises(ValueError, match="blocks"):
                m.decode_logits(np.array([3, 4, 5]), self._source(m, 2), np.ones((3, 2), dtype=bool),
                                state=model.StreamState(), lengths=lengths)

    def test_semantic_state_rejected_when_bidirectional(self):
        m = model.Model(tiny_cfg(unidirectional=False), seed=0)
        with pytest.raises(model.NonCausalEncoderError):
            m.semantic_encode(ad.Tensor(np.zeros((2, 16))), state=model.StreamState())


class TestPackedBatch:
    """A batch runs as one packed pass: its losses and gradients are those
    of its utterances run one at a time."""

    @pytest.mark.parametrize("kw, compute_st", [({}, True), ({}, False), (dict(n_blocks=2, wait_k=1, stride_n=1), True)]
                             + [(kw, True) for kw in ABLATIONS])
    def test_packed_batch_equals_utterances_one_at_a_time(self, kw, compute_st):
        corpus = tiny_corpus(n=7, seed=4, frames_per_token=(3, 5), length_range=(2, 5))
        with ad.using_dtype(np.float64):
            m = model.Model(tiny_cfg(src_vocab_size=len(corpus.src_vocab.tokens),
                                     tgt_vocab_size=len(corpus.tgt_vocab.tokens), **kw), seed=5)
            batch = data.make_batches(corpus, max_frames=10 ** 6)[0]
            # shorter than the downsampling factor: skipped
            batch[2] = dataclasses.replace(batch[2], features=batch[2].features[:1])
            assert len({u.n_frames for u in batch}) > 3 and len({len(u.target) for u in batch}) > 2
            params = m.parameters()

            loss_st, loss_ctc, diag = m.forward_train(batch, compute_st=compute_st)
            ad.backward(m.total_loss(loss_st, loss_ctc) if compute_st else loss_ctc)
            packed = {k: p.grad.copy() for k, p in params.items()}
            for p in params.values():
                p.zero_grad()

            assert batch[2].id in diag["skipped_ids"]
            kept = [i for i in range(len(batch)) if batch[i].id not in diag["skipped_ids"]]
            assert len(kept) > 3
            n_tokens = sum(len(batch[i].target) + 1 for i in kept)
            ctc_weight = (m.cfg.ctc_loss_weight if compute_st else 1.0) / len(kept)
            st_sum = ctc_sum = 0.0
            for i in kept:
                ad.reset_tape()
                st_i, ctc_i, _ = m.forward_train([batch[i]], compute_st=compute_st)
                terms = []
                if compute_st:
                    share = (len(batch[i].target) + 1) / n_tokens
                    terms.append(ad.scale(st_i, share))
                    st_sum += st_i.item() * share
                if m.cfg.use_ctc:
                    terms.append(ad.scale(ctc_i, ctc_weight))
                    ctc_sum += ctc_i.item() / len(kept)
                ad.backward(functools.reduce(ad.add, terms))
        if compute_st:
            assert loss_st.item() == pytest.approx(st_sum, rel=0, abs=1e-10)
        if m.cfg.use_ctc:
            assert loss_ctc.item() == pytest.approx(ctc_sum, rel=0, abs=1e-10)
        for name, p in params.items():
            np.testing.assert_allclose(packed[name], p.grad, rtol=0, atol=1e-10, err_msg=name)

    def test_batch_tape_is_at_most_twice_one_utterance(self):
        corpus = tiny_corpus(n=8, seed=6, frames_per_token=(3, 5))
        m = model.Model(tiny_cfg(src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens)), seed=0)
        batch = data.make_batches(corpus, max_frames=10 ** 6)[0]
        tapes = []
        for b in (batch, [batch[0]]):
            ad.reset_tape()
            loss_st, loss_ctc, diag = m.forward_train(b)
            m.total_loss(loss_st, loss_ctc)
            assert len(diag["skipped_ids"]) == 0
            tapes.append(ad.tape_length())
        assert len(batch) == 8 and tapes[0] <= 2 * tapes[1], tapes

    def test_skips_are_decided_before_encoding_and_listed(self, caplog):
        corpus = tiny_corpus(n=6, seed=1, frames_per_token=(2, 2), length_range=(3, 3))
        m = model.Model(tiny_cfg(n_blocks=2, src_vocab_size=len(corpus.src_vocab.tokens),
                                 tgt_vocab_size=len(corpus.tgt_vocab.tokens)), seed=0)
        batch = data.make_batches(corpus, max_frames=10 ** 6)[0]
        batch[0] = dataclasses.replace(batch[0], features=batch[0].features[:3])
        # 3 tokens at 2 frames each give 2 encoder frames at 4x downsampling: too few
        encoded = []
        encode = m._acoustic_stack
        m._acoustic_stack = lambda feats, *a, **kw: encoded.append(len(feats)) or encode(feats, *a, **kw)
        with caplog.at_level(logging.WARNING, logger="simulst.model"):
            loss_st, loss_ctc, diag = m.forward_train(batch)
        assert loss_st is None and loss_ctc is None and encoded == []
        assert len(diag["skipped_ids"]) == len(batch)
        assert diag["skipped_ids"][batch[0].id] == "3 frames < downsampling factor"
        assert diag["skipped_ids"][batch[1].id] == "transcript too long for 2 encoder frames"
        assert [r.args[0] for r in caplog.records if r.msg.startswith("skipping")] == [u.id for u in batch]
        for i, utt in enumerate(batch):
            assert model.skip_reason(m.cfg, utt.n_frames, utt.source) is not None
            if i > 0:
                with pytest.raises(ctc.InfeasibleAlignmentError):
                    ctc.ctc_nll(ad.Tensor(np.zeros((2, m.cfg.src_vocab_size + 1))), utt.source)

    def test_cross_attention_mask_of_a_batch_is_block_diagonal(self):
        mask = model.build_cross_attention_mask(2, 2, [3, 5], [4, 2])
        assert mask.shape == (8, 6)
        np.testing.assert_array_equal(mask[:3, :4], model.build_cross_attention_mask(2, 2, 3, 4))
        np.testing.assert_array_equal(mask[3:, 4:], model.build_cross_attention_mask(2, 2, 5, 2))
        assert not mask[:3, 4:].any() and not mask[3:, :4].any()
