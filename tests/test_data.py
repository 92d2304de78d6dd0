import math

import numpy as np
import pytest

from simulst import data


class TestVocab:
    def test_reserved_then_tokens(self):
        v = data.Vocab(["alpha", "beta"])
        assert v.index["<pad>"] == 0
        assert v.index["alpha"] == 3
        assert v.decode([3, 4]) == ["alpha", "beta"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            data.Vocab(["x", "x"])


class TestSynthetic:
    def test_deterministic_under_seed(self):
        cfg = data.SyntheticTaskConfig(seed=42)
        a = data.generate_synthetic_corpus(cfg, 5)
        b = data.generate_synthetic_corpus(cfg, 5)
        for ua, ub in zip(a, b):
            np.testing.assert_array_equal(ua.features, ub.features)
            np.testing.assert_array_equal(ua.target, ub.target)

    def test_noiseless_single_frame_features_are_embeddings(self):
        cfg = data.SyntheticTaskConfig(
            vocab_size=5, frames_per_token=(1, 1), noise_std=0.0, seed=3, feature_dim=6
        )
        corpus = data.generate_synthetic_corpus(cfg, 4)
        emb, _ = data.synthetic_assets(cfg)
        for utt in corpus:
            words = utt.source - len(data.RESERVED)
            np.testing.assert_allclose(utt.features, emb[words].astype(np.float32), rtol=1e-6)

    def test_frame_count_range(self):
        cfg = data.SyntheticTaskConfig(frames_per_token=(2, 5), length_range=(4, 4), seed=1)
        corpus = data.generate_synthetic_corpus(cfg, 20)
        for utt in corpus:
            assert 8 <= utt.n_frames <= 20
            assert len(utt.source) == 4

    def test_reorder_confined_to_blocks(self):
        base = data.SyntheticTaskConfig(vocab_size=9, reorder_window=0, seed=7, length_range=(4, 6))
        swapped = data.SyntheticTaskConfig(vocab_size=9, reorder_window=2, seed=7, length_range=(4, 6))
        a = data.generate_synthetic_corpus(base, 30)
        b = data.generate_synthetic_corpus(swapped, 30)
        _, mapping = data.synthetic_assets(base)
        changed = 0
        for ua, ub in zip(a, b):
            np.testing.assert_array_equal(ua.source, ub.source)
            # per aligned pair, the target multiset matches the mapped source pair
            words = ua.source - len(data.RESERVED)
            tgt = ub.target - len(data.RESERVED)
            for s in range(0, len(words) - 1, 2):
                assert sorted(tgt[s:s + 2]) == sorted(mapping[words[s:s + 2]])
                if list(tgt[s:s + 2]) != list(mapping[words[s:s + 2]]):
                    changed += 1
        assert changed > 0

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            data.generate_synthetic_corpus(data.SyntheticTaskConfig(), 0)

    @pytest.mark.parametrize("name,value", [
        ("vocab_size", 0), ("feature_dim", 0),
        ("length_range", (0, 2)), ("length_range", (5, 3)),
        ("frames_per_token", (0, 0)), ("frames_per_token", (4, 2)),
        ("noise_std", -1.0), ("noise_std", math.nan), ("noise_std", math.inf),
        ("swap_probability", 2.0), ("swap_probability", -0.5), ("reorder_window", -3),
        ("seed", -1), ("seed", 1.5), ("vocab_size", 2.5), ("feature_dim", 4.0), ("reorder_window", 1.5),
        ("length_range", (3.5, 8)), ("frames_per_token", (8, 16.0)),
    ])
    def test_bad_values_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            data.SyntheticTaskConfig(**{name: value})


class TestBatching:
    def _utt(self, uid, frames):
        return data.Utterance(
            uid,
            np.zeros((frames, 2), dtype=np.float32),
            np.array([3, 4]),
            np.array([3]),
        )

    def test_packing_arithmetic(self):
        utts = [self._utt(f"u{i}", 100) for i in range(10)]
        batches = data.make_batches(utts, max_frames=400)
        assert [len(b) for b in batches] == [4, 4, 2]
        for b in batches:
            assert max(u.n_frames for u in b) * len(b) <= 400

    def test_single_long_utterance_gets_own_batch(self):
        utts = [self._utt("long", 300), self._utt("short", 10)]
        batches = data.make_batches(utts, max_frames=300)
        sizes = sorted(len(b) for b in batches)
        assert sizes == [1, 1]

    def test_oversized_utterance_rejected(self):
        with pytest.raises(ValueError):
            data.make_batches([self._utt("u", 500)], max_frames=400)

    def test_every_utterance_appears_once(self):
        rng = np.random.default_rng(2)
        utts = [self._utt(f"u{i}", int(rng.integers(5, 50))) for i in range(37)]
        batches = data.make_batches(utts, max_frames=200)
        seen = [u.id for b in batches for u in b]
        assert sorted(seen) == sorted(u.id for u in utts)
