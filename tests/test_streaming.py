import numpy as np
import pytest

from simulst import autodiff as ad
from simulst import ctc, data, model, shrink, streaming
from simulst.data import EOS


def frame_cfg(**kw):
    """Frame-unit config (no CTC/shrink) so unit completion is length-driven."""
    base = dict(
        d_feat=4, n_blocks=1, conv_lookahead=(0, 0, 1), transformer_layers_per_block=1,
        d_model=8, n_heads=2, ffn_dim=16, semantic_layers=1, decoder_layers=1,
        src_vocab_size=6, tgt_vocab_size=9, dropout=0.0,
        use_ctc=False, use_shrink=False, wait_k=3, stride_n=2,
    )
    base.update(kw)
    return model.ModelConfig(**base)


class ScriptedModel:
    """Stands in for Model: causal 2x-downsampling encoder stub plus a
    scripted next-token distribution (keyed by the decoded prefix)."""

    def __init__(self, cfg, script=None, eos_after=None):
        self.cfg = cfg
        self.script = script or {}
        self.eos_after = eos_after

    def acoustic_encode(self, features, rng=None, state=None, end=True):
        # like Model, return only the frames that became final: of all rows
        # fed so far, the finalized ones (all of them at the end), minus those
        # already returned; the state counts both
        fed = state.kv.get("fed", 0) + len(features)
        final = model.output_length(self.cfg, fed) if end else model.finalized_frames(self.cfg, fed)
        states = np.zeros((final - state.rows, self.cfg.d_feat), dtype=np.float32)
        state.kv["fed"], state.rows = fed, final
        return ad.Tensor(states), None

    def semantic_encode(self, shrunk, rng=None, state=None):
        return shrunk

    def decode_logits(self, prefix_ids, units, cross_mask, rng=None, state=None, lengths=None):
        v = self.cfg.tgt_vocab_size
        cached = [] if state is None else state.kv.get("ids", [])  # the stub's own token prefix
        ends = np.cumsum([len(prefix_ids)] if lengths is None else lengths)
        blocks = np.split(np.asarray(prefix_ids), ends[:-1])
        logits = np.full((len(prefix_ids), v), -20.0, dtype=np.float32)
        for block, end in zip(blocks, ends):
            decoded = tuple(int(t) for t in cached + list(block))[1:]
            probs = self.script.get(decoded)
            if probs is None:
                if self.eos_after is not None and len(decoded) >= self.eos_after:
                    probs = {EOS: 0.99}
                else:
                    probs = {3 + (len(decoded) % 3): 0.99}
            for tok, p in probs.items():
                logits[end - 1, tok] = np.log(p)
        if state is not None:
            state.kv["ids"] = cached + list(prefix_ids)
            state.rows += len(prefix_ids)
        return ad.Tensor(logits)


class TestPolicySchedule:
    def test_read_write_trace_k3_n2(self):
        cfg = frame_cfg()
        m = ScriptedModel(cfg, eos_after=99)
        feats = np.zeros((12, 4), dtype=np.float32)  # T' = 6 frames
        res = streaming.translate_stream(m, feats, chunk_frames=1)
        actions = [a for _, a, _ in res.trace if a in ("READ", "WRITE")]
        # k=3 n=2: R R R W, R R W, then the tail completes at EOS
        assert actions[:7] == ["READ", "READ", "READ", "WRITE", "READ", "READ", "WRITE"]
        assert res.n_units == 6

    def test_visibility_matches_budget_formula(self):
        cfg = frame_cfg(wait_k=2, stride_n=2)
        m = ScriptedModel(cfg, eos_after=99)
        feats = np.zeros((16, 4), dtype=np.float32)  # T' = 8
        session = streaming.StreamSession(m)
        pos = 0
        while True:
            action, _ = session.step()
            if action == streaming.READ:
                if pos < len(feats):
                    session.push_frames(feats[pos:pos + 1])
                    pos += 1
                else:
                    session.end_stream()
            elif action == streaming.FINISH:
                break
        for t, vis in enumerate(session._visibility, start=1):
            budget = 2 * ((t - 1) // 2) + 2
            if session._listen_ms[t - 1] < session._total_ms():
                assert vis == budget
            else:
                assert vis == session.units_completed

    def test_insufficient_context_yields_no_units(self):
        cfg = frame_cfg()
        m = ScriptedModel(cfg)
        session = streaming.StreamSession(m)
        # lookahead horizon is 2 input frames; frame 0 finalizes at 3 buffered
        session.push_frames(np.zeros((2, 4), dtype=np.float32))
        assert session.units_completed == 0
        session.push_frames(np.zeros((1, 4), dtype=np.float32))
        assert session.units_completed == 1

    def test_wait1_stride1_alternation(self):
        cfg = frame_cfg(wait_k=1, stride_n=1)
        m = ScriptedModel(cfg, eos_after=99)
        feats = np.zeros((8, 4), dtype=np.float32)
        res = streaming.translate_stream(m, feats, chunk_frames=1)
        actions = [a for _, a, _ in res.trace if a in ("READ", "WRITE")]
        assert actions[:6] == ["READ", "WRITE", "READ", "WRITE", "READ", "WRITE"]

    def test_k_larger_than_stream_is_offline(self):
        cfg = frame_cfg(wait_k=50, stride_n=2)
        m = ScriptedModel(cfg, eos_after=4)
        feats = np.zeros((10, 4), dtype=np.float32)
        res = streaming.translate_stream(m, feats)
        assert len(res.tokens) == 4
        assert all(d == res.record.total_ms for d in res.record.token_listen_ms)

    def test_larger_k_never_reduces_listening(self):
        feats = np.zeros((20, 4), dtype=np.float32)
        runs = {}
        for k in (1, 3, 5):
            cfg = frame_cfg(wait_k=k, stride_n=2)
            res = streaming.translate_stream(ScriptedModel(cfg, eos_after=6), feats)
            runs[k] = res.record.token_listen_ms
        for small, big in ((1, 3), (3, 5)):
            for a, b in zip(runs[small], runs[big]):
                assert b >= a

    def test_eos_first_commit_gives_empty_hypothesis(self):
        cfg = frame_cfg(wait_k=1, stride_n=1)
        m = ScriptedModel(cfg, eos_after=0)
        res = streaming.translate_stream(m, np.zeros((8, 4), dtype=np.float32))
        assert res.tokens == []

    def test_commit_monotonicity_and_nondecreasing_d(self):
        cfg = frame_cfg(wait_k=2, stride_n=2)
        m = ScriptedModel(cfg, eos_after=7)
        session = streaming.StreamSession(m)
        feats = np.zeros((14, 4), dtype=np.float32)
        pos, written = 0, []
        while True:
            action, tokens = session.step()
            if action == streaming.READ:
                if pos < len(feats):
                    session.push_frames(feats[pos:pos + 1])
                    pos += 1
                else:
                    session.end_stream()
            elif action == streaming.WRITE:
                written += tokens
            else:
                break
        res = session.finalize()
        assert res.tokens == written and written
        d = res.record.token_listen_ms
        assert all(b >= a for a, b in zip(d, d[1:]))

    def test_finalize_needs_an_ended_stream(self):
        cfg = frame_cfg(wait_k=1, stride_n=1)
        session = streaming.StreamSession(ScriptedModel(cfg, eos_after=0))
        session.push_frames(np.zeros((40, 4), dtype=np.float32))
        while session.step()[0] != streaming.FINISH:
            pass
        assert session.units_completed == 19
        with pytest.raises(RuntimeError, match="ended stream"):
            session.finalize()
        session.end_stream()
        record = session.finalize().record
        assert record.source_frames == session.stats.encoder_frames == 20
        assert record.total_ms == 400

    def test_a_stream_too_short_to_encode_stays_open(self):
        cfg = frame_cfg()
        session = streaming.StreamSession(ScriptedModel(cfg))
        session.push_frames(np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="too short"):
            session.end_stream()
        assert not session.ended
        session.push_frames(np.zeros((3, 4), dtype=np.float32))
        session.end_stream()
        assert session.stats.encoder_frames == model.output_length(cfg, 4)

    @pytest.mark.parametrize("end_first", [False, True])
    def test_finish_is_stamped_where_the_output_ended(self, end_first):
        # the write reaching EOS commits two tokens, so FINISH comes one step later
        session = streaming.StreamSession(ScriptedModel(frame_cfg(wait_k=1, stride_n=3), eos_after=2))
        session.push_frames(np.zeros((40, 4), dtype=np.float32))
        action, tokens = session.step()
        assert (action, len(tokens)) == (streaming.WRITE, 2)
        if end_first:
            session.end_stream()
        assert session.step()[0] == streaming.FINISH
        if not end_first:
            session.end_stream()
        stamps = {action: ms for ms, action, _ in session.finalize().trace if action in ("WRITE", "FINISH")}
        assert stamps["WRITE"] < session._total_ms()
        assert stamps["FINISH"] == (session._total_ms() if end_first else stamps["WRITE"])

    def test_reference_length_below_one_rejected(self):
        session = streaming.StreamSession(ScriptedModel(frame_cfg(wait_k=1, stride_n=1), eos_after=2))
        session.push_frames(np.zeros((8, 4), dtype=np.float32))
        session.end_stream()
        while session.step()[0] != streaming.FINISH:
            pass
        assert session.finalize().record.reference_length == 2  # None: the hypothesis length
        for bad in (0, -1, True):
            with pytest.raises(ValueError, match="reference_length"):
                session.finalize(reference_length=bad)

    def test_step_after_finish_rejected(self):
        cfg = frame_cfg(wait_k=1, stride_n=1)
        m = ScriptedModel(cfg, eos_after=0)
        session = streaming.StreamSession(m)
        session.push_frames(np.zeros((8, 4), dtype=np.float32))
        session.end_stream()
        while session.step()[0] != streaming.FINISH:
            pass
        with pytest.raises(RuntimeError):
            session.step()

    @pytest.mark.parametrize("shape", [(4, 8), (2,), (1, 2, 4), (4,)])
    def test_push_of_wrong_width_rejected(self, shape):
        # a [4, 8] array is not taken as 8 frames of 4 features
        session = streaming.StreamSession(ScriptedModel(frame_cfg()))
        with pytest.raises(ValueError, match=r"\[n, 4\] frames, got shape"):
            session.push_frames(np.zeros(shape, dtype=np.float32))
        session.push_frames(np.zeros((0, 4), dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_frames_rejected(self, value):
        feats = np.zeros((40, 4), dtype=np.float32)
        feats[7, 2] = value
        with pytest.raises(ValueError, match="finite"):
            streaming.translate_stream(ScriptedModel(frame_cfg()), feats, beam_size=1)
        with pytest.raises(ValueError, match="finite"):
            streaming.StreamSession(ScriptedModel(frame_cfg())).push_frames(np.full((40, 4), value, dtype=np.float32))

    def test_push_after_end_rejected(self):
        cfg = frame_cfg()
        session = streaming.StreamSession(ScriptedModel(cfg))
        session.push_frames(np.zeros((8, 4), dtype=np.float32))
        session.end_stream()
        with pytest.raises(RuntimeError):
            session.push_frames(np.zeros((1, 4), dtype=np.float32))

    def test_given_schedule_is_used(self):
        cfg = frame_cfg(wait_k=3, stride_n=2)
        session = streaming.StreamSession(ScriptedModel(cfg), wait_k=5, stride_n=1)
        assert (session.wait_k, session.stride_n) == (5, 1)
        res = streaming.translate_stream(ScriptedModel(cfg, eos_after=99), np.zeros((16, 4), dtype=np.float32),
                                         wait_k=5, stride_n=1, chunk_frames=1)
        actions = [a for _, a, _ in res.trace if a in ("READ", "WRITE")]
        # wait-5 stride-1: five reads, then one token a write
        assert actions[:8] == ["READ"] * 5 + ["WRITE", "READ", "WRITE"]

    def test_output_capped_after_end_of_stream(self):
        cfg = frame_cfg(wait_k=1, stride_n=2)
        feats = np.zeros((6, 4), dtype=np.float32)  # 3 units
        res = streaming.translate_stream(ScriptedModel(cfg), feats)  # never writes EOS
        assert len(res.tokens) == 2 * res.n_units + 10

    @pytest.mark.parametrize("chunk", [0, -1, 2.5, 8.0, "8", True, [8]])
    def test_chunk_below_one_rejected_before_streaming(self, monkeypatch, chunk):
        # -1 would otherwise push empty chunks forever; a non-integer fails late in slicing
        def no_session(*args, **kwargs):
            raise AssertionError("a session was started")

        monkeypatch.setattr(streaming, "StreamSession", no_session)
        with pytest.raises(ValueError, match="chunk_frames"):
            streaming.translate_stream(ScriptedModel(frame_cfg()), np.zeros((8, 4)), chunk_frames=chunk)


class TestUnitKinds:
    def test_frame_units_are_the_encoder_frames(self):
        cfg = frame_cfg()
        feats = np.zeros((13, 4), dtype=np.float32)
        session = streaming.StreamSession(ScriptedModel(cfg, eos_after=99))
        for i in range(0, len(feats), 3):
            session.push_frames(feats[i:i + 3])
        session.end_stream()
        while session.step()[0] != streaming.FINISH:
            pass
        res = session.finalize()
        n = model.output_length(cfg, len(feats))
        assert [text for _, action, text in res.trace if action == "READ"] == [f"frame={i}" for i in range(n)]
        assert res.n_units == n
        assert session._ends == list(range(1, n + 1))  # frame unit i ends at frame i + 1

    def test_segment_units_are_counted_as_segments(self):
        res = streaming.translate_stream(real_model(emitting=True), stream_feats(1, seed=2)[0], chunk_frames=3)
        reads = [text for _, action, text in res.trace if action == "READ"]
        assert reads == [f"segment={i}" for i in range(res.n_units)]
        assert res.n_units >= 2


class TestBeamReranking:
    def test_beam_beats_greedy_on_garden_path(self):
        # greedy takes token 4 (p=.6) then is stuck with p=.1; the beam keeps
        # token 5 (p=.4) whose continuation has p=.9 -> higher joint score
        script = {
            (): {4: 0.6, 5: 0.4},
            (4,): {6: 0.1, 7: 0.1, EOS: 0.05},
            (5,): {7: 0.9, EOS: 0.05},
            (4, 6): {EOS: 0.99},
            (4, 7): {EOS: 0.99},
            (5, 7): {EOS: 0.99},
        }
        feats = np.zeros((10, 4), dtype=np.float32)
        cfg = frame_cfg(wait_k=2, stride_n=2)
        greedy = streaming.translate_stream(ScriptedModel(cfg, script), feats, beam_size=1)
        beam = streaming.translate_stream(ScriptedModel(cfg, script), feats, beam_size=5)
        assert greedy.tokens[:2] == [4, 6]
        assert beam.tokens[:2] == [5, 7]

    def test_beam_width_one_matches_argmax(self):
        cfg = frame_cfg(wait_k=1, stride_n=1)
        m = ScriptedModel(cfg, eos_after=5)
        a = streaming.translate_stream(m, np.zeros((12, 4), dtype=np.float32), beam_size=1)
        b = streaming.translate_stream(m, np.zeros((12, 4), dtype=np.float32), beam_size=5)
        assert a.tokens == b.tokens  # scripted distribution is near-deterministic


def real_model(seed=0, emitting=False, **kw):
    """A small untrained model. Its CTC head emits almost only blanks, so a
    stream makes one segment; ``emitting=True`` biases ``ctc.out.b`` so
    that labels change every few frames and a stream makes many segments."""
    cfg_kw = dict(
        d_feat=6, n_blocks=1, conv_lookahead=(0, 0, 1), transformer_layers_per_block=1,
        d_model=16, n_heads=2, ffn_dim=32, semantic_layers=1, decoder_layers=1,
        src_vocab_size=8, tgt_vocab_size=8, dropout=0.0, wait_k=2, stride_n=2,
    )
    cfg_kw.update(kw)
    m = model.Model(model.ModelConfig(**cfg_kw), seed=seed)
    if emitting:
        # cancel each label's mean logit over the states of random input, so
        # the per-frame argmax follows the input, and put blank 0.5 below
        feats = np.random.default_rng(99).normal(size=(64, 6)).astype(np.float32)
        with ad.no_grad():
            states, _ = m.acoustic_encode(feats)
            hidden = ad.relu(m._affine("ctc.hidden", states)).data
        w, b = m.params["ctc.out.w"].data, m.params["ctc.out.b"].data
        w *= 4
        b[:] = -hidden.mean(axis=0) @ w
        b[m.cfg.blank_index] -= 0.5
    return m


class TestChunkingInvariance:
    @pytest.mark.parametrize("kw", [dict(), dict(use_ctc=False, use_shrink=False), dict(use_shrink=False),
                                    dict(emitting=True)])
    def test_any_chunking_matches_single_push(self, kw):
        m = real_model(**kw)
        rng = np.random.default_rng(0)
        for trial in range(6):
            feats = rng.normal(size=(int(rng.integers(10, 40)), 6)).astype(np.float32)
            runs = []
            for chunk in (1, 3, 7, len(feats)):
                res = streaming.translate_stream(m, feats, chunk_frames=chunk)
                # trace line order may interleave differently; the committed
                # hypothesis, stamps, and record must be bit-identical
                runs.append((tuple(res.tokens), tuple(res.record.token_listen_ms),
                             res.record.total_ms, res.record.source_frames,
                             tuple(sorted(res.trace))))
            assert all(r == runs[0] for r in runs[1:])

    def test_finalized_labels_match_offline(self):
        m = real_model()
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(30, 6)).astype(np.float32)
        session = streaming.StreamSession(m)
        for i in range(len(feats)):
            session.push_frames(feats[i:i + 1])
        mid_labels = session._labels.copy()
        session.end_stream()
        from simulst import ctc as ctc_mod
        with ad.no_grad():
            _, post = m.acoustic_encode(feats)
        offline = ctc_mod.greedy_path(post)
        np.testing.assert_array_equal(mid_labels, offline[: len(mid_labels)])
        np.testing.assert_array_equal(session._labels, offline)

    def test_session_segments_match_offline_boundaries(self):
        m = real_model()
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(24, 6)).astype(np.float32)
        res = streaming.translate_stream(m, feats, chunk_frames=5)
        from simulst import ctc as ctc_mod
        with ad.no_grad():
            _, post = m.acoustic_encode(feats)
        offline_segments = ctc_mod.detect_boundaries(ctc_mod.greedy_path(post))
        assert res.n_units == len(offline_segments)


def encoder_cfg(**kw):
    base = dict(
        d_feat=4, n_blocks=3, transformer_layers_per_block=1, d_model=16, n_heads=2, ffn_dim=32,
        semantic_layers=1, decoder_layers=1, src_vocab_size=6, tgt_vocab_size=6, dropout=0.0,
    )
    base.update(kw)
    return model.ModelConfig(**base)


class TestEncoderEquivalence:
    """The session's finalized states and CTC rows equal one offline
    encode of the whole input; float64 leaves only summation-order error."""

    @pytest.mark.parametrize("gradual", [True, False])
    @pytest.mark.parametrize("use_ctc", [True, False])
    @pytest.mark.parametrize("chunk", [1, 8, 13])
    def test_finalized_rows_match_offline(self, gradual, use_ctc, chunk):
        cfg = encoder_cfg(gradual_downsample=gradual, use_ctc=use_ctc, use_shrink=use_ctc)
        feats = np.random.default_rng(chunk).normal(size=(101, 4)).astype(np.float32)
        with ad.using_dtype(np.float64):
            m = model.Model(cfg, seed=3)
            with ad.no_grad():
                off_states, off_post = m.acoustic_encode(feats)
            session = streaming.StreamSession(m)
            for i in range(0, len(feats), chunk):
                session.push_frames(feats[i:i + chunk])
                n = model.finalized_frames(cfg, min(i + chunk, len(feats)))
                if n:
                    states, _ = session._finalized()
                    np.testing.assert_allclose(states, off_states.data[:n], rtol=0, atol=1e-12)
            session.end_stream()
            states, post = session._finalized()
        assert states.dtype == np.float64
        np.testing.assert_allclose(states, off_states.data, rtol=0, atol=1e-12)
        if use_ctc:
            np.testing.assert_allclose(post, off_post.data, rtol=0, atol=1e-12)
        else:
            assert post is None


class TestSessionStats:
    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_each_encoder_frame_computed_once(self, chunk):
        cfg = encoder_cfg()
        m = model.Model(cfg, seed=0)
        feats = np.random.default_rng(0).normal(size=(77, 4)).astype(np.float32)
        session = streaming.StreamSession(m)
        for i in range(0, len(feats), chunk):
            session.push_frames(feats[i:i + chunk])
            pushed = min(i + chunk, len(feats))
            assert session.stats.encoder_frames == model.finalized_frames(cfg, pushed)
        session.end_stream()
        assert session.stats.encoder_frames == model.output_length(cfg, len(feats))

    def test_decoder_work_counted(self):
        m = real_model()
        session = streaming.StreamSession(m, beam_size=3)
        session.push_frames(np.random.default_rng(3).normal(size=(30, 6)).astype(np.float32))
        session.end_stream()
        stats = session.stats
        while True:
            stride_len = min(session.stride_n, 2 * session.units_completed + 10 - len(session._committed))
            calls = stats.decode_logits_calls
            action, _ = session.step()
            # one decoder call per beam step, whatever the beam width
            assert stats.decode_logits_calls - calls <= max(stride_len, 0)
            if action == streaming.FINISH:
                break
        assert stats.encoder_frames == model.output_length(m.cfg, 30)
        assert session.finalize().record.source_frames == stats.encoder_frames
        assert stats.semantic_encode_calls >= 1
        assert stats.decode_logits_calls >= 1
        # a scored hypothesis is extended by at most beam tokens
        assert stats.hypotheses_scored <= stats.beam_expansions <= 3 * stats.hypotheses_scored

    def test_each_unit_semantic_encoded_once(self):
        m = real_model(emitting=True)
        m.params["decoder.out.b"].data[EOS] -= 30.0  # never stop: write up to the output cap
        encoded = []
        encode = m.semantic_encode
        m.semantic_encode = lambda shrunk, *a, **kw: encoded.append(shrunk.shape[0]) or encode(shrunk, *a, **kw)
        feats = np.random.default_rng(4).normal(size=(36, 6)).astype(np.float32)
        session = streaming.StreamSession(m, beam_size=3)
        pos = 0
        while True:
            action, _ = session.step()
            if action == streaming.READ:
                if pos < len(feats):
                    session.push_frames(feats[pos:pos + 3])
                    pos += 3
                else:
                    session.end_stream()
            elif action == streaming.FINISH:
                break
        assert session.units_completed >= 3
        assert sum(encoded) == session.stats.semantic_units == session.units_completed
        assert session.stats.semantic_encode_calls == len(encoded) > 1


def stream_feats(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(rng.integers(10, 40)), 6)).astype(np.float32) for _ in range(n)]


def test_a_stream_leaves_the_tape_empty():
    # the parameters require grad, so an op run outside no_grad would be recorded
    m = real_model(emitting=True)
    assert all(p.requires_grad for p in m.parameters().values())
    res = streaming.translate_stream(m, stream_feats(1, seed=3)[0], chunk_frames=3)
    assert res.n_units >= 2
    assert ad.tape_length() == 0


def test_emitting_model_makes_several_segments_per_stream():
    m = real_model(emitting=True)
    for feats in stream_feats(6):
        assert streaming.translate_stream(m, feats, chunk_frames=3).n_units >= 3


def reference_translate(m, feats, wait_k, stride_n, beam):
    """The session's policy with every write scored from scratch: all visible
    units shrunk and semantic-encoded in one plain call, and every beam
    hypothesis decoded over its whole prefix in a plain call of its own.
    Units and their completion times come from a session's read side."""
    cfg = m.cfg
    session = streaming.StreamSession(m, wait_k=wait_k, stride_n=stride_n)
    session.push_frames(feats)
    ready = list(session._unit_ready_ms)  # units complete before end-of-stream
    session.end_stream()
    states, post = session._finalized()
    n_units, total = session.units_completed, session._total_ms()
    committed, visibility, listen = [], [], []
    while True:
        budget = stride_n * (len(committed) // stride_n) + wait_k
        if budget <= len(ready):
            visible, stamp, stride_len = budget, ready[budget - 1], stride_n
        else:
            visible, stamp = n_units, total
            stride_len = min(stride_n, 2 * n_units + 10 - len(committed))
            if stride_len < 1:
                return committed, listen
        ends = np.array(session._ends[:visible])
        end = ends[-1]
        with ad.no_grad():
            shrunk = shrink.shrink_states(ad.Tensor(states[:end]), ad.Tensor(post[:end, cfg.blank_index]),
                                          session._labels[:end], ends, cfg.shrink_config)
            units = m.semantic_encode(shrunk)
        beams = [((), 0.0, False)]
        for _ in range(stride_len):
            candidates = []
            for tokens, score, ended in beams:
                if ended:
                    candidates.append((tokens, score, ended))
                    continue
                ids = np.array([EOS] + committed + list(tokens))
                vis_rows = np.array(visibility + [visible] * (len(tokens) + 1))
                with ad.no_grad():
                    logits = m.decode_logits(ids, units, ad.Blocks([len(ids)], [visible], vis_rows))
                row = logits.data[-1] - logits.data[-1].max()
                logp = row - np.log(np.exp(row).sum())
                for tok in np.argsort(-logp, kind="stable")[:beam]:
                    candidates.append((tokens + (int(tok),), score + float(logp[tok]), tok == EOS))
            candidates.sort(key=lambda h: (-h[1], h[0]))
            beams = candidates[:beam]
            if all(ended for _, _, ended in beams):
                break
        for tok in beams[0][0]:
            if tok == EOS:
                return committed, listen
            committed.append(tok)
            visibility.append(visible)
            listen.append(stamp)


class TestCachedDecoding:
    """The session encodes each unit once and scores the beam on cached
    decoder rows; in float64 its output equals scoring from scratch."""

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("schedule", [(2, 2), (1, 1), (3, 3)])
    def test_session_matches_uncached_reference(self, beam, schedule):
        wait_k, stride_n = schedule
        with ad.using_dtype(np.float64):
            # two layers each: with one, a cached row's keys and values would
            # not depend on its cross-attention or its predecessors
            m = real_model(seed=1, emitting=True, semantic_layers=2, decoder_layers=2)
            m.params["decoder.out.b"].data[EOS] -= 1.0  # longer outputs, still some stops
            lengths = []
            for feats in stream_feats(4, seed=beam):
                res = streaming.translate_stream(m, feats, wait_k=wait_k, stride_n=stride_n,
                                                 beam_size=beam, chunk_frames=3)
                tokens, listen = reference_translate(m, feats, wait_k, stride_n, beam)
                assert res.tokens == tokens
                assert list(res.record.token_listen_ms) == listen
                lengths.append(len(tokens))
        assert max(lengths) > 2 * stride_n  # several writes extended the caches


class TestSessionArguments:
    @pytest.mark.parametrize("beam_size", [0, -1, 1.5, True, [5]])
    def test_bad_beam_size_rejected(self, beam_size):
        with pytest.raises(ValueError, match="beam_size"):
            streaming.StreamSession(ScriptedModel(frame_cfg()), beam_size=beam_size)

    @pytest.mark.parametrize("schedule", [dict(stride_n=0), dict(wait_k=0), dict(wait_k=1.5),
                                          dict(stride_n=1.5), dict(wait_k=-2), dict(wait_k=True),
                                          dict(stride_n=True), dict(wait_k="3"), dict(stride_n="2")])
    def test_bad_schedule_override_rejected(self, schedule):
        with pytest.raises(ValueError, match="wait_k|stride_n"):
            streaming.StreamSession(ScriptedModel(frame_cfg()), **schedule)


def test_positional_only_semantic_encoder_streams_like_offline():
    # with no semantic layers no cache counts the units; the positions must still run on
    m = real_model(emitting=True, semantic_layers=0)
    feats = stream_feats(1, seed=5)[0]
    session = streaming.StreamSession(m)
    session.push_frames(feats)
    session.end_stream()
    with ad.no_grad():
        states, post = m.acoustic_encode(feats)
        path = ctc.greedy_path(post)
        shrunk = shrink.shrink_states(states, ad.col(post, m.cfg.blank_index), path,
                                      ctc.detect_boundaries(path), m.cfg.shrink_config)
        offline = m.semantic_encode(shrunk).data
        first = session._visible_source(2).data
        units = np.concatenate([first, session._visible_source(session.units_completed).data])
    assert session.units_completed >= 3
    np.testing.assert_allclose(first, offline[:2], rtol=0, atol=1e-6)
    np.testing.assert_allclose(units, offline, rtol=0, atol=1e-6)
