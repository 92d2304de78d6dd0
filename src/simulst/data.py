"""Corpus handling: vocab, batching, and the synthetic speech-translation
task generator the pipeline trains and evaluates on. Corpora live in
memory; there is no on-disk corpus format. ``check_integers`` and
``check_real`` are the number rule of every config field and count: a bool
or a string is no number, and each rejection is a ValueError naming the field.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

EOS = 1
RESERVED = ("<pad>", "</s>", "<unk>")


def check_integers(name: str, value, ndim: int = 0, low=None) -> None:
    """Raise ValueError unless ``value`` is one integer (``ndim=0``) or one
    flat sequence of them (``ndim=1``), each >= ``low`` if given; a bool is not one."""
    items = np.asarray(value, dtype=object)  # a ragged sequence too, its items as they are
    if items.ndim != ndim or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in items.flat):
        raise ValueError(f"{name} must be {'a flat sequence of integers' if ndim else 'one integer'}, got {value!r}")
    if low is not None and any(v < low for v in items.flat):
        raise ValueError(f"{name} must be {'integers ' if ndim else ''}>= {low}, got {value!r}")


def check_real(name: str, value, interval: str) -> None:
    """Raise ValueError unless ``value`` is one real number, not a bool or a
    string, in ``interval``: "[0, 1)", or "[1, inf]" to admit inf; NaN is in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (lo < value or lo == value and interval[0] == "[")
            and (value < hi or value == hi and interval[-1] == "]")):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")


class Vocab:
    """Token/id bijection with pad, end-of-sentence, and unk reserved."""

    def __init__(self, tokens):
        self.tokens = list(RESERVED) + list(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


@dataclass
class Utterance:
    id: str
    features: np.ndarray  # [T, d_feat] float32
    source: np.ndarray  # transcript token ids
    target: np.ndarray  # translation token ids

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Corpus:
    utterances: list[Utterance]
    src_vocab: Vocab
    tgt_vocab: Vocab

    def __len__(self):
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


# ---------------------------------------------------------------------------
# Synthetic task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """A learnable toy task: each source token emits a few noisy copies of a
    fixed embedding; the translation relabels tokens through a bijection and
    may locally reorder them inside aligned blocks."""

    vocab_size: int = 20
    # 80-160 ms a token at 10 ms frames, which the default ModelConfig's 8x
    # downsampling leaves 1-2 encoder frames: enough for CTC to align
    frames_per_token: tuple[int, int] = (8, 16)
    feature_dim: int = 16
    noise_std: float = 0.1
    reorder_window: int = 0  # 0/1: monotone; w>=2: content-keyed reorder per block
    swap_probability: float = 1.0
    length_range: tuple[int, int] = (3, 8)
    seed: int = 0

    def __post_init__(self):
        for name, low in (("vocab_size", 1), ("feature_dim", 1), ("reorder_window", 0), ("seed", 0)):
            check_integers(name, getattr(self, name), low=low)
        for name in ("frames_per_token", "length_range"):
            pair = getattr(self, name)
            check_integers(name, pair, ndim=1, low=1)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"{name} must be one (lo, hi) pair with lo <= hi, got {pair!r}")
        check_real("noise_std", self.noise_std, "[0, inf)")
        check_real("swap_probability", self.swap_probability, "[0, 1]")


def synthetic_assets(cfg: SyntheticTaskConfig) -> tuple[np.ndarray, np.ndarray]:
    """The task's fixed token embeddings and source->target word bijection."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    embeddings = rng.normal(size=(cfg.vocab_size, cfg.feature_dim))
    mapping = rng.permutation(cfg.vocab_size)
    return embeddings, mapping


def generate_synthetic_corpus(cfg: SyntheticTaskConfig, size: int) -> Corpus:
    check_integers("size", size, low=1)
    # separate streams: assets (child 0), content (child 1), reorder (child 2),
    # so the reorder knob does not perturb sampled words/features
    seq = np.random.SeedSequence(cfg.seed).spawn(3)
    rng = np.random.default_rng(seq[1])
    reorder_rng = np.random.default_rng(seq[2])
    embeddings, mapping = synthetic_assets(cfg)
    src_vocab = Vocab([f"s{i}" for i in range(cfg.vocab_size)])
    tgt_vocab = Vocab([f"t{i}" for i in range(cfg.vocab_size)])

    utterances = []
    lo, hi = cfg.length_range
    flo, fhi = cfg.frames_per_token
    for n in range(size):
        length = int(rng.integers(lo, hi + 1))
        words = rng.integers(0, cfg.vocab_size, size=length)
        counts = rng.integers(flo, fhi + 1, size=length)
        frames = np.repeat(embeddings[words], counts, axis=0)
        if cfg.noise_std > 0:
            frames = frames + rng.normal(scale=cfg.noise_std, size=frames.shape)
        ordered = words.copy()
        if cfg.reorder_window >= 2:
            w = cfg.reorder_window
            for start in range(0, length - w + 1, w):
                if reorder_rng.random() < cfg.swap_probability:
                    block = ordered[start:start + w]
                    ordered[start:start + w] = block[np.argsort(-block, kind="stable")]
        source = words + len(RESERVED)
        target = mapping[ordered] + len(RESERVED)
        utterances.append(
            Utterance(
                id=f"syn{n:05d}",
                features=frames.astype(np.float32),
                source=source.astype(np.int64),
                target=target.astype(np.int64),
            )
        )
    return Corpus(utterances, src_vocab, tgt_vocab)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def make_batches(corpus_or_utts, max_frames: int) -> list[list[Utterance]]:
    """Length-bucketed batches of the utterances themselves. Sorted by
    (frames, id), utterances fill a batch while its longest utterance's
    frames times its size stay <= max_frames."""
    utts = list(corpus_or_utts)
    longest = max((u.n_frames for u in utts), default=0)
    if longest > max_frames:
        raise ValueError(f"utterance of {longest} frames exceeds max_frames={max_frames}")
    batches: list[list[Utterance]] = []
    group: list[Utterance] = []
    for utt in sorted(utts, key=lambda u: (u.n_frames, u.id)):
        # sorted, so utt is the longest of the group it joins
        if group and utt.n_frames * (len(group) + 1) > max_frames:
            batches.append(group)
            group = []
        group.append(utt)
    if group:
        batches.append(group)
    return batches
