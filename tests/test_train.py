import copy
import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from simulst import autodiff as ad
from simulst import data, metrics, model, train
from oracles import zero_moments


def small_cfg(vocab, **kw):
    base = dict(
        d_feat=6, n_blocks=1, conv_lookahead=(0, 0, 1), transformer_layers_per_block=1,
        d_model=16, n_heads=2, ffn_dim=32, semantic_layers=1, decoder_layers=1,
        src_vocab_size=vocab[0], tgt_vocab_size=vocab[1], dropout=0.1,
        wait_k=2, stride_n=2,
    )
    base.update(kw)
    return model.ModelConfig(**base)


def small_corpus(n=20, seed=0, **kw):
    base = dict(vocab_size=5, feature_dim=6, frames_per_token=(2, 4),
                length_range=(2, 4), noise_std=0.05, seed=seed)
    base.update(kw)
    return data.generate_synthetic_corpus(data.SyntheticTaskConfig(**base), n)


def vocab_sizes(corpus):
    return (len(corpus.src_vocab.tokens), len(corpus.tgt_vocab.tokens))


def settings(**kw):
    base = dict(base_lr=2e-3, warmup=20, max_frames=300, seed=1)
    base.update(kw)
    return train.TrainSettings(**base)


class TestCheckpointIO:
    def test_save_load_roundtrip_bitexact(self, tmp_path):
        corpus = small_corpus(6)
        ckpt = train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 1, settings())
        path = tmp_path / "a.ckpt"
        train.save_checkpoint(ckpt, path)
        loaded = train.load_checkpoint(path)
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.epoch == ckpt.epoch and loaded.stage == ckpt.stage
        assert loaded.rng_state == ckpt.rng_state
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        for name in ckpt.opt.m:
            np.testing.assert_array_equal(loaded.opt.m[name], ckpt.opt.m[name])
        assert loaded.opt.step == ckpt.opt.step

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["length", "header", "payload"])
    def test_truncated_file_rejected_naming_it(self, tmp_path, cut):
        corpus = small_corpus(2)
        path = tmp_path / "a.ckpt"
        train.save_checkpoint(train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 0, settings()), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        keep = {"length": 12, "header": 16 + hlen // 2, "payload": len(raw) - 1}[cut]
        short = tmp_path / f"short-{cut}.ckpt"
        short.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match=f"short-{cut}.ckpt: truncated"):
            train.load_checkpoint(short)

    @pytest.mark.parametrize("corrupt", [
        lambda h: h.pop("stage"), lambda h: h.pop("tensors"),
        lambda h: h["tensors"][0].update(kind="bogus"), lambda h: h["tensors"][0].update(offset=-8),
        lambda h: h["tensors"].__setitem__(0, ["x"]), lambda h: h["tensors"][0].update(dtype="nope"),
        lambda h: h["tensors"][0].update(shape="ab"), lambda h: h["cfg"].update(bogus=1),
        lambda h: h["opt"].update(bogus=1), lambda h: h["cfg"].update(unidirectional=False),
        lambda h: h["cfg"].update(blank_penalty_weight=True), lambda h: h["opt"].update(beta1="0.9"),
        lambda h: h.update(stage="bogus"), lambda h: h.update(epoch=-1),
    ], ids=["no stage", "no tensors", "unknown kind", "negative offset", "tensor entry not an object",
            "unknown dtype", "shape not ints", "unknown cfg key", "unknown opt key", "bidirectional cfg",
            "true weight in cfg", "string beta1", "unknown stage", "negative epoch"])
    def test_malformed_header_rejected_naming_it(self, tmp_path, corrupt):
        corpus = small_corpus(2)
        path = tmp_path / "a.ckpt"
        train.save_checkpoint(train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 0, settings()), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        corrupt(header)
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match="bad.ckpt: malformed header"):
            train.load_checkpoint(bad)

    @pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe{}", b"[]"],
                             ids=["not json", "not utf-8", "a list"])
    def test_undecodable_header_rejected_naming_it(self, tmp_path, blob):
        corpus = small_corpus(2)
        path = tmp_path / "a.ckpt"
        train.save_checkpoint(train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 0, settings()), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match="bad.ckpt: malformed header"):
            train.load_checkpoint(bad)

    def test_epochs_zero_returns_initialization(self):
        corpus = small_corpus(4)
        cfg = small_cfg(vocab_sizes(corpus))
        ckpt = train.pretrain_ctc(corpus, cfg, 0, settings())
        fresh = model.Model(cfg, seed=1)
        for name, p in fresh.parameters().items():
            np.testing.assert_array_equal(ckpt.params[name], p.data)

    def test_negative_epochs_rejected(self):
        corpus = small_corpus(4)
        with pytest.raises(ValueError, match="epochs"):
            train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), -3, settings())

    @pytest.mark.parametrize("epochs", [1.5, True])
    def test_non_integer_epochs_rejected(self, epochs):
        corpus = small_corpus(4)
        with pytest.raises(ValueError, match="epochs"):
            train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), epochs, settings())

    def test_pretraining_without_ctc_rejected(self):
        corpus = small_corpus(4)
        cfg = small_cfg(vocab_sizes(corpus), use_ctc=False, use_shrink=False)
        with pytest.raises(ValueError, match="use_ctc"):
            train.pretrain_ctc(corpus, cfg, 1, settings())

    def test_model_from_checkpoint_draws_no_random_init(self, monkeypatch):
        corpus = small_corpus(4)
        ckpt = train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 0, settings())

        def no_draw(*args, **kwargs):
            raise AssertionError("a checkpoint's model drew random weights")

        monkeypatch.setattr(ad, "uniform_init", no_draw)
        m = train.model_from_checkpoint(ckpt)
        assert set(m.parameters()) == set(ckpt.params)
        for name, p in m.parameters().items():
            np.testing.assert_array_equal(p.data, ckpt.params[name])
            assert p.data is not ckpt.params[name] and not p.grad.any()

    def test_mismatched_parameters_rejected(self):
        corpus = small_corpus(4)
        ckpt = train.pretrain_ctc(corpus, small_cfg(vocab_sizes(corpus)), 0, settings())
        missing = dict(ckpt.params)
        del missing["ctc.out.b"]
        reshaped = {**ckpt.params, "ctc.out.b": np.zeros(3)}
        for params in (missing, reshaped):
            with pytest.raises(train.FingerprintMismatch):
                train.model_from_checkpoint(dataclasses.replace(ckpt, params=params))


class TestResumeDeterminism:
    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_split_training_is_bit_identical(self, tmp_path, stage):
        corpus = small_corpus(16)
        cfg = small_cfg(vocab_sizes(corpus))
        st = settings()
        if stage == "pretrain":
            full = train.pretrain_ctc(corpus, cfg, 4, st)
            half = train.pretrain_ctc(corpus, cfg, 2, st)
            path = tmp_path / "half.ckpt"
            train.save_checkpoint(half, path)
            resumed = train.pretrain_ctc(corpus, cfg, 2, st, start=train.load_checkpoint(path))
        else:
            base = train.pretrain_ctc(corpus, cfg, 1, st)
            full = train.finetune(corpus, base, cfg, 4, st)
            half = train.finetune(corpus, base, cfg, 2, st)
            path = tmp_path / "half.ckpt"
            train.save_checkpoint(half, path)
            resumed = train.finetune(corpus, train.load_checkpoint(path), cfg, 2, st)
        assert full.epoch == resumed.epoch
        assert full.opt.step == resumed.opt.step
        for name in full.params:
            np.testing.assert_array_equal(full.params[name], resumed.params[name])

    def test_resume_leaves_the_checkpoint_as_it_was(self):
        corpus = small_corpus(8)
        cfg = small_cfg(vocab_sizes(corpus))
        ck = train.pretrain_ctc(corpus, cfg, 1, settings())
        before = copy.deepcopy(ck)
        a = train.pretrain_ctc(corpus, cfg, 1, settings(), start=ck)
        b = train.pretrain_ctc(corpus, cfg, 1, settings(), start=ck)
        assert a.opt.step == b.opt.step == 2 * before.opt.step
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert ck.opt.step == before.opt.step and ck.rng_state == before.rng_state
        for table, old in ((ck.params, before.params), (ck.opt.m, before.opt.m), (ck.opt.v, before.opt.v)):
            assert set(table) == set(old)
            for name in old:
                np.testing.assert_array_equal(table[name], old[name])

    def test_wrong_fingerprint_rejected(self):
        corpus = small_corpus(6)
        cfg = small_cfg(vocab_sizes(corpus))
        ckpt = train.pretrain_ctc(corpus, cfg, 0, settings())
        with pytest.raises(train.FingerprintMismatch):
            train.finetune(corpus, ckpt, small_cfg(vocab_sizes(corpus), d_model=32), 1, settings())


class TestGradientFlow:
    def _one_finetune_step(self, alpha):
        corpus = small_corpus(8)
        cfg = small_cfg(vocab_sizes(corpus), ctc_loss_weight=alpha, dropout=0.0)
        m = model.Model(cfg, seed=3)
        before = {k: v.data.copy() for k, v in m.parameters().items()}
        batch = data.make_batches(corpus, 300)[0]
        ad.reset_tape()
        loss_st, loss_ctc, _ = m.forward_train(batch)
        ad.backward(m.total_loss(loss_st, loss_ctc))
        ad.adam_step(m.flat, *zero_moments(m.flat), ad.OptimizerState(), lr=1e-3)
        changed = {k: not np.array_equal(before[k], v.data) for k, v in m.parameters().items()}
        return changed

    def test_alpha_positive_updates_ctc_head_and_decoder(self):
        changed = self._one_finetune_step(alpha=1.0)
        assert changed["ctc.out.w"]
        assert changed["decoder.out.w"]

    def test_alpha_zero_still_reaches_ctc_head_through_shrinking(self):
        changed = self._one_finetune_step(alpha=0.0)
        assert changed["ctc.out.w"]  # via the shrink weights' blank probabilities
        assert changed["decoder.out.w"]

    def test_pretrain_freezes_decoder_and_semantic(self):
        corpus = small_corpus(8)
        cfg = small_cfg(vocab_sizes(corpus))
        init = train.pretrain_ctc(corpus, cfg, 0, settings())
        after = train.pretrain_ctc(corpus, cfg, 1, settings())
        moved = frozen = 0
        for name in init.params:
            same = np.array_equal(init.params[name], after.params[name])
            if name.startswith(("decoder.", "semantic.")):
                assert same, name
                frozen += 1
            elif not same:
                moved += 1
        assert moved > 0 and frozen > 0


class TestAblationMatrix:
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(blank_penalty_weight=0.0),
        dict(use_shrink=False),
        dict(use_ctc=False, use_shrink=False),
        dict(gradual_downsample=False),
    ])
    def test_smoke_train_and_eval(self, kw):
        corpus = small_corpus(50, seed=11)
        cfg = small_cfg(vocab_sizes(corpus), **kw)
        st = settings(max_frames=400)
        if cfg.use_ctc:
            ckpt = train.pretrain_ctc(corpus, cfg, 1, st)
        else:
            ckpt = train.pretrain_ctc(corpus, dataclasses.replace(cfg, use_ctc=True), 0, st)
            ckpt = train.Checkpoint(
                params=ckpt.params, opt=ckpt.opt, epoch=0,
                fingerprint=cfg.fingerprint(), cfg=cfg, rng_state=ckpt.rng_state,
                stage="pretrain",
            )
        tuned = train.finetune(corpus, ckpt, cfg, 1, st)
        m = train.model_from_checkpoint(tuned)
        report = train.evaluate(corpus, m, beam_size=2)
        assert np.isfinite(report["bleu"])
        assert report["rows"]


class TestEvaluate:
    def test_wait_inf_gives_ap_one(self):
        corpus = small_corpus(6)
        cfg = small_cfg(vocab_sizes(corpus), dropout=0.0)
        m = model.Model(cfg, seed=0)
        report = train.evaluate(corpus, m, wait_k=model.WAIT_INF, beam_size=1)
        assert report["mean_ap"] == pytest.approx(1.0)
        assert report["mean_al"] >= model.effective_lookahead_ms(cfg)

    def test_too_short_utterance_skipped(self):
        corpus = small_corpus(3)
        cfg = small_cfg(vocab_sizes(corpus), n_blocks=2, dropout=0.0)
        first = corpus.utterances[0]
        corpus.utterances[0] = dataclasses.replace(first, features=first.features[:3])
        report = train.evaluate(corpus, model.Model(cfg, seed=0), beam_size=1)
        assert len(report["skipped_ids"]) == 1
        assert report["skipped_ids"] == {"syn00000": "3 frames < downsampling factor"}
        assert [r["id"] for r in report["rows"]] == ["syn00001", "syn00002"]

    def test_deterministic_across_runs(self):
        corpus = small_corpus(5)
        cfg = small_cfg(vocab_sizes(corpus), dropout=0.0)
        m = model.Model(cfg, seed=0)
        a = train.evaluate(corpus, m, beam_size=2)
        b = train.evaluate(corpus, m, beam_size=2)
        assert a["bleu"] == b["bleu"]
        assert [r["hypothesis"] for r in a["rows"]] == [r["hypothesis"] for r in b["rows"]]


@pytest.mark.parametrize("kw", [
    dict(base_lr=-1.0),
    dict(base_lr=0.0),
    dict(base_lr=float("nan")),
    dict(base_lr=float("inf")),
    dict(warmup=0),
    dict(max_frames=0),
    dict(seed=-1),
    dict(seed=1.5),
    dict(warmup=2.5),
    dict(max_frames=300.5),
    dict(warmup=[1]),  # one integer, not a sequence of them
    dict(seed=[1]),
    dict(base_lr=True),  # a rate is a real number, not a bool or a string
    dict(base_lr="0.1"),
])
def test_bad_settings_rejected_at_construction(kw):
    with pytest.raises(ValueError):
        train.TrainSettings(**kw)


class TestNoUpdates:
    def test_default_configs_train(self):
        # every batch of the default task updates the default model in both stages
        corpus = data.generate_synthetic_corpus(data.SyntheticTaskConfig(), 3)
        cfg = model.ModelConfig()
        batches = data.make_batches(corpus, settings().max_frames)
        pre = train.pretrain_ctc(corpus, cfg, 1, settings())
        tuned = train.finetune(corpus, pre, cfg, 1, settings())
        assert pre.opt.step == tuned.opt.step == len(batches)

    def test_too_few_frames_per_token_fail_loudly(self):
        # 8x downsampling leaves too few encoder frames for 2-5 frames per
        # token, so every utterance is CTC-infeasible and no batch trains
        task = data.SyntheticTaskConfig(frames_per_token=(2, 5))
        corpus = data.generate_synthetic_corpus(task, 3)
        cfg = model.ModelConfig(src_vocab_size=len(corpus.src_vocab.tokens),
                                tgt_vocab_size=len(corpus.tgt_vocab.tokens))
        with pytest.raises(train.NoUpdatesError):
            train.pretrain_ctc(corpus, cfg, 1, settings())
        start = train.pretrain_ctc(corpus, cfg, 0, settings())
        with pytest.raises(train.NoUpdatesError):
            train.finetune(corpus, start, cfg, 1, settings())


def test_trace_writes_are_the_reported_hypotheses(tmp_path):
    # the trace file and the report describe the same run
    corpus = small_corpus(5)
    m = model.Model(small_cfg(vocab_sizes(corpus), dropout=0.0), seed=0)
    traces = []
    report = train.evaluate(corpus, m, beam_size=2, trace_sink=traces)
    path = tmp_path / "trace.tsv"
    metrics.write_trace_file(path, traces)
    written = {u.id: [] for u in corpus}
    for line in path.read_text().splitlines():
        utt_id, _, action, payload = line.split("\t")
        if action == "WRITE":
            written[utt_id] += payload.split()
    assert [" ".join(written[r["id"]]) for r in report["rows"]] == [r["hypothesis"] for r in report["rows"]]


def test_log_line_carries_the_batch_skip_count_and_stage(tmp_path):
    # 2x downsampling leaves 1-2 encoder frames per token: some transcripts cannot align
    corpus = small_corpus(30, seed=3, frames_per_token=(2, 4), length_range=(2, 6))
    cfg = small_cfg(vocab_sizes(corpus))
    st = settings(max_frames=120, log_path=str(tmp_path / "train.log"))
    expected = []
    for batch in data.make_batches(corpus, st.max_frames):
        reasons = [model.skip_reason(cfg, u.n_frames, u.source) for u in batch]
        if None in reasons:
            expected.append(sum(r is not None for r in reasons))
    assert sum(expected) > 0
    train.pretrain_ctc(corpus, cfg, 1, st)
    rows = [line.split("\t") for line in (tmp_path / "train.log").read_text().splitlines()]
    assert sorted(int(r[5]) for r in rows) == sorted(expected)
    assert all(len(r) == 7 and r[6] == "pretrain" for r in rows)


def test_underflowing_ctc_posteriors_give_a_finite_loss():
    # syn00154 of the benchmark's training pool under the benchmark weights:
    # its 7 encoder frames are exactly the 7 its transcript needs, and some
    # float32 softmax posteriors on that one alignment are exactly 0
    ckpt = train.load_checkpoint(Path(__file__).resolve().parents[1] / "perfbench" / "weights.ckpt")
    m = train.model_from_checkpoint(ckpt)
    task = data.SyntheticTaskConfig(frames_per_token=(8, 16), length_range=(3, 8), seed=0)
    utt = data.generate_synthetic_corpus(task, 155).utterances[154]
    assert (utt.id, utt.n_frames, len(utt.source)) == ("syn00154", 56, 5)
    with ad.no_grad():
        _, posteriors = m.acoustic_encode(utt.features)
        loss_st, loss_ctc, diag = m.forward_train(data.make_batches([utt], utt.n_frames)[0])
    assert (posteriors.data == 0).sum() > 0
    assert len(diag["skipped_ids"]) == 0
    assert np.isfinite(loss_ctc.item()) and np.isfinite(m.total_loss(loss_st, loss_ctc).item())


class TestFlatStore:
    def test_pretraining_updates_only_the_encoder_prefix(self):
        corpus = small_corpus(8)
        cfg = small_cfg(vocab_sizes(corpus))
        before = train.model_from_checkpoint(train.pretrain_ctc(corpus, cfg, 0, settings()))
        ckpt = train.pretrain_ctc(corpus, cfg, 1, settings())
        after = train.model_from_checkpoint(ckpt)
        encoder = after.encoder_parameters()
        assert list(encoder) == list(after.parameters())[:len(encoder)]
        n = sum(p.data.size for p in encoder.values())
        assert (before.flat.data[:n] != after.flat.data[:n]).any()
        assert before.flat.data[n:].tobytes() == after.flat.data[n:].tobytes()
        assert list(ckpt.opt.m) == list(ckpt.opt.v) == list(encoder)

    def test_a_checkpoint_does_not_alias_the_model(self):
        corpus = small_corpus(8)
        m = model.Model(small_cfg(vocab_sizes(corpus), dropout=0.0), seed=3)
        ckpt = train.snapshot(m, ad.OptimizerState(), 0, np.random.default_rng(0), "init")
        kept = copy.deepcopy(ckpt.params)
        assert not any(np.shares_memory(a, m.flat.data) for a in ckpt.params.values())
        ad.reset_tape()
        loss_st, loss_ctc, _ = m.forward_train(data.make_batches(corpus, 300)[0])
        ad.backward(m.total_loss(loss_st, loss_ctc))
        ad.adam_step(m.flat, *zero_moments(m.flat), ad.OptimizerState(), lr=1e-3)
        assert any(not np.array_equal(kept[k], p.data) for k, p in m.parameters().items())
        for name, arr in kept.items():
            np.testing.assert_array_equal(ckpt.params[name], arr)
