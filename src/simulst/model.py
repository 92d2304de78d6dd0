"""The full network: gradually-downsampling acoustic encoder with a CTC
head, weighted shrinking into segment states, a semantic encoder, and a
prefix-to-prefix decoder whose cross-attention follows the
wait-k-stride-n schedule.

Everything operates on one utterance at a time (desk scale); batches are
loops with padding sliced off before any computation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import shrink as shrink_mod
from .autodiff import Tensor
from .data import EOS, PAD, Batch
from .shrink import ShrinkConfig

log = logging.getLogger(__name__)

WAIT_INF = math.inf


class NonCausalEncoderError(ValueError):
    """The encoder sees future frames, so it cannot encode a stream as it arrives."""


class NoLossError(ValueError):
    """No utterance of the batch produced the loss term asked for."""


def check_schedule(wait_k, stride_n) -> None:
    """The wait-k-stride-n rule: wait_k is a positive integer or inf and
    stride_n a positive integer; anything else raises ValueError."""
    if wait_k != WAIT_INF and not (wait_k >= 1 and float(wait_k).is_integer()):
        raise ValueError(f"wait_k must be a positive integer or inf, got {wait_k}")
    if not (stride_n >= 1 and float(stride_n).is_integer()):
        raise ValueError(f"stride_n must be a positive integer, got {stride_n}")


@dataclass(frozen=True)
class ModelConfig:
    d_feat: int = 16
    n_blocks: int = 3
    convs_per_block: int = 3
    conv_kernel: int = 3
    conv_lookahead: tuple[int, ...] = (0, 0, 1)  # per conv inside each block
    transformer_layers_per_block: int = 2
    d_model: int = 64
    n_heads: int = 4
    ffn_dim: int = 128
    semantic_layers: int = 6
    decoder_layers: int = 4
    src_vocab_size: int = 23
    tgt_vocab_size: int = 23
    shrink_temperature: float = 1.0
    shrink_mode: str = "weighted"
    blank_penalty_weight: float = 0.5
    blank_penalty_mode: str = "argmax_blank_frames"
    ctc_loss_weight: float = 1.0
    wait_k: float = 3
    stride_n: int = 2
    unidirectional: bool = True
    dropout: float = 0.1
    use_ctc: bool = True
    use_shrink: bool = True
    gradual_downsample: bool = True
    frame_ms: int = 10

    def __post_init__(self):
        if self.convs_per_block < 2:
            raise ValueError("need at least 2 convs per block (the second carries stride 2)")
        if len(self.conv_lookahead) != self.convs_per_block:
            raise ValueError("conv_lookahead needs one entry per conv in a block")
        if self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        check_schedule(self.wait_k, self.stride_n)
        for name in ("blank_penalty_weight", "ctc_loss_weight"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        self.shrink_config  # ShrinkConfig rejects a bad mode or temperature
        if self.blank_penalty_mode not in ctc_mod.BLANK_PENALTY_MODES:
            raise ValueError(f"blank_penalty_mode must be one of {ctc_mod.BLANK_PENALTY_MODES}, "
                             f"got {self.blank_penalty_mode!r}")

    @property
    def shrink_config(self) -> ShrinkConfig:
        return ShrinkConfig(self.shrink_temperature, self.shrink_mode)

    @property
    def downsample(self) -> int:
        return 2 ** self.n_blocks

    @property
    def output_frame_ms(self) -> int:
        """Milliseconds of audio per post-encoder frame (T_s)."""
        return self.frame_ms * self.downsample

    @property
    def blank_index(self) -> int:
        return self.src_vocab_size

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _conv_layout(cfg: ModelConfig) -> list[tuple[int, int, int]]:
    """(block, index-in-block, stride) for every conv in execution order."""
    layout = []
    for b in range(cfg.n_blocks):
        for i in range(cfg.convs_per_block):
            layout.append((b, i, 2 if i == 1 else 1))
    return layout


def effective_lookahead_frames(cfg: ModelConfig) -> int:
    """Total right-context of the conv stack, in input frames."""
    total = 0
    cumulative_stride = 1
    for _, i, stride in _conv_layout(cfg):
        total += cfg.conv_lookahead[i] * cumulative_stride
        cumulative_stride *= stride
    return total


def effective_lookahead_ms(cfg: ModelConfig) -> int:
    return effective_lookahead_frames(cfg) * cfg.frame_ms


def finalized_frames(cfg: ModelConfig, buffered: int) -> int:
    """How many encoder output frames are final given ``buffered`` input
    frames: frame t needs inputs up to t*downsample + lookahead."""
    horizon = effective_lookahead_frames(cfg)
    if buffered <= horizon:
        return 0
    return (buffered - 1 - horizon) // cfg.downsample + 1


def output_length(cfg: ModelConfig, t_input: int) -> int:
    out = t_input
    for _ in range(cfg.n_blocks):
        out = -(-out // 2)
    return out


def build_cross_attention_mask(wait_k, stride_n: int, n_targets: int, n_source: int) -> np.ndarray:
    """Boolean [n_targets, n_source]: target position t (1-indexed) may
    attend the first stride_n*floor((t-1)/stride_n) + wait_k source units."""
    if n_source < 1:
        raise ValueError("mask needs at least one source unit")
    check_schedule(wait_k, stride_n)
    t = np.arange(1, n_targets + 1)
    budget = stride_n * ((t - 1) // stride_n) + wait_k
    counts = np.minimum(budget, n_source).astype(np.int64)
    return np.arange(n_source)[None, :] < counts[:, None]


def sinusoidal_positions(n: int, d: int, dtype, start: int = 0) -> np.ndarray:
    """Encodings of positions start, .., start+n-1."""
    pos = np.arange(start, start + n)[:, None].astype(np.float64)
    dim = np.arange((d + 1) // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d)
    out = np.zeros((n, d))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle[:, : d // 2])
    return out.astype(dtype)


@dataclass
class AcousticState:
    """What one stream's acoustic encoder keeps between calls.

    ``conv`` holds, per conv, the input rows its next outputs still read:
    the left context of the next output's window and any rows after it.
    ``kv`` holds, per self-attention layer, the keys and values of every
    row computed so far. A fresh state is the start of a stream: zero left
    context and empty caches. Rows carried between calls are constants to
    the tape, so a live state serves inference only.
    """

    conv: dict[str, np.ndarray] = field(default_factory=dict)
    kv: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)


@dataclass
class SemanticState:
    """What one stream's semantic encoder keeps between calls: the count of
    units encoded so far and, per self-attention layer, their keys and
    values. Like ``AcousticState``, a live state serves inference only."""

    units: int = 0
    kv: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)


@dataclass
class DecoderState:
    """What one stream's decoder keeps between calls.

    ``ids`` are the input tokens of the rows computed so far; ``kv`` holds,
    per decoder layer, the self-attention keys and values of those rows and
    the cross-attention keys and values of the source units seen so far.
    Every call extends both; ``fork`` gives a copy whose extension leaves
    this state as it is. A live state serves inference only.
    """

    kv: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def fork(self) -> "DecoderState":
        return DecoderState(dict(self.kv), self.ids)


def _cached_rows(kv: dict, prefix: str) -> int:
    """Rows (or source units) whose keys and values ``kv`` holds under ``prefix``."""
    past = kv.get(prefix)
    return 0 if past is None else past[0].shape[0]


@dataclass
class EncoderOutput:
    """Everything the decoder and the policy need about one source prefix."""

    states: Tensor  # [T', d_model] acoustic states
    posteriors: Optional[Tensor]  # [T', |V|+1] CTC grid, blank last
    path: Optional[np.ndarray]  # greedy labels, BLANK sentinel for blank
    segments: Optional[ctc_mod.SegmentSet]
    units: Tensor  # [S, d_model] decoder-facing source states

    @property
    def n_units(self) -> int:
        return self.units.shape[0]


class Model:
    """Parameter container plus forward passes; training mutates params only
    through the optimizer."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self._build(rng)

    # -- parameter construction -------------------------------------------

    def _linear(self, name: str, fan_in: int, fan_out: int, rng) -> None:
        self.params[f"{name}.w"] = ad.uniform_init((fan_in, fan_out), fan_in, rng)
        self.params[f"{name}.b"] = ad.zeros_param(fan_out)

    def _norm(self, name: str) -> None:
        self.params[f"{name}.g"] = Tensor(np.ones(self.cfg.d_model), requires_grad=True)
        self.params[f"{name}.b"] = ad.zeros_param(self.cfg.d_model)

    def _tf_block(self, prefix: str, rng, cross: bool = False) -> None:
        d = self.cfg.d_model
        self._norm(f"{prefix}.ln1")
        for p in ("q", "k", "v", "o"):
            self._linear(f"{prefix}.attn.{p}", d, d, rng)
        if cross:
            self._norm(f"{prefix}.lnx")
            for p in ("q", "k", "v", "o"):
                self._linear(f"{prefix}.xattn.{p}", d, d, rng)
        self._norm(f"{prefix}.ln2")
        self._linear(f"{prefix}.ffn.1", d, self.cfg.ffn_dim, rng)
        self._linear(f"{prefix}.ffn.2", self.cfg.ffn_dim, d, rng)

    def _build(self, rng) -> None:
        cfg = self.cfg
        c_in = cfg.d_feat
        for b, i, _ in _conv_layout(cfg):
            k = cfg.conv_kernel
            self.params[f"acoustic.conv{b}.{i}.w"] = ad.uniform_init(
                (k, c_in, cfg.d_model), k * c_in, rng
            )
            self.params[f"acoustic.conv{b}.{i}.b"] = ad.zeros_param(cfg.d_model)
            c_in = cfg.d_model
        for b in range(cfg.n_blocks):
            for l in range(cfg.transformer_layers_per_block):
                self._tf_block(f"acoustic.block{b}.tf{l}", rng)
        self._linear("ctc.hidden", cfg.d_model, cfg.d_model, rng)
        self._linear("ctc.out", cfg.d_model, cfg.src_vocab_size + 1, rng)
        for l in range(cfg.semantic_layers):
            self._tf_block(f"semantic.tf{l}", rng)
        self.params["decoder.embed"] = ad.uniform_init(
            (cfg.tgt_vocab_size, cfg.d_model), cfg.d_model, rng
        )
        for l in range(cfg.decoder_layers):
            self._tf_block(f"decoder.tf{l}", rng, cross=True)
        self._norm("decoder.ln_out")
        self._linear("decoder.out", cfg.d_model, cfg.tgt_vocab_size, rng)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def encoder_parameters(self) -> dict[str, Tensor]:
        """Acoustic encoder + CTC head, the subset the pre-training stage updates."""
        return {k: v for k, v in self.params.items() if k.startswith(("acoustic.", "ctc."))}

    # -- forward pieces ----------------------------------------------------

    def _affine(self, name: str, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _multihead(self, prefix: str, q_in: Tensor, kv_in: Tensor, mask: np.ndarray,
                   kv_cache: dict | None = None) -> Tensor:
        """Multi-head attention, all ``cfg.n_heads`` heads in one op; with
        ``kv_cache`` the keys and values of earlier calls (held under
        ``prefix``) precede those of ``kv_in``'s rows, and the cache is
        extended by them."""
        q = self._affine(f"{prefix}.q", q_in)
        past = None if kv_cache is None else kv_cache.get(prefix)
        if past is not None and kv_in.shape[0] == 0:
            k, v = past
        else:
            k = self._affine(f"{prefix}.k", kv_in)
            v = self._affine(f"{prefix}.v", kv_in)
            if past is not None:
                k, v = ad.concat_rows([past[0], k]), ad.concat_rows([past[1], v])
            if kv_cache is not None:
                kv_cache[prefix] = (k, v)
        return self._affine(f"{prefix}.o", ad.masked_attention(q, k, v, mask, self.cfg.n_heads))

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        return self._affine(f"{prefix}.2", ad.relu(self._affine(f"{prefix}.1", x)))

    def _norm_of(self, name: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _tf_forward(self, prefix: str, x: Tensor, self_mask: np.ndarray, rng,
                    cross_kv: Tensor | None = None, cross_mask: np.ndarray | None = None,
                    kv_cache: dict | None = None) -> Tensor:
        p = self.cfg.dropout
        normed = self._norm_of(f"{prefix}.ln1", x)
        h = self._multihead(f"{prefix}.attn", normed, normed, self_mask, kv_cache)
        x = ad.add(x, ad.dropout(h, p, rng))
        if cross_kv is not None:
            h = self._multihead(f"{prefix}.xattn", self._norm_of(f"{prefix}.lnx", x), cross_kv,
                                cross_mask, kv_cache)
            x = ad.add(x, ad.dropout(h, p, rng))
        h = self._ffn(f"{prefix}.ffn", self._norm_of(f"{prefix}.ln2", x))
        return ad.add(x, ad.dropout(h, p, rng))

    def _self_mask(self, n: int, past: int = 0) -> np.ndarray:
        """[n, past+n]: n new rows over ``past`` cached rows and themselves."""
        if self.cfg.unidirectional:
            return np.tri(n, past + n, past, dtype=bool)
        return np.ones((n, past + n), dtype=bool)

    def _conv(self, b: int, i: int, x: Tensor, state: AcousticState, end: bool) -> Tensor:
        name = f"acoustic.conv{b}.{i}"
        kernel = self.params[f"{name}.w"]
        stride, lookahead = (2 if i == 1 else 1), self.cfg.conv_lookahead[i]
        left = kernel.shape[0] - 1 - lookahead
        # a stream starts with a zero left context
        held = state.conv.get(name, np.zeros((left, x.shape[1]), dtype=x.data.dtype))
        rows = np.concatenate([held, x.data])
        if rows.shape[0] <= left:  # nothing of the next output's window has arrived
            state.conv[name] = rows
            return Tensor(np.zeros((0, kernel.shape[2]), dtype=x.data.dtype))
        if held.shape[0] != left:  # the context ends inside x, or held rows follow it
            x = Tensor(rows[left:], dtype=x.data.dtype)
        y = ad.conv1d_lookahead(x, kernel, stride, lookahead, rows[:left], end)
        state.conv[name] = rows[y.shape[0] * stride:]
        return ad.relu(ad.add(y, self.params[f"{name}.b"]))

    def acoustic_encode(self, features: np.ndarray, rng=None, state: AcousticState | None = None,
                        end: bool = True) -> tuple[Tensor, Optional[Tensor]]:
        """Conv-Transformer stack plus the CTC grid (None when CTC is off).

        Without ``state`` this encodes one whole utterance. With one it
        continues a stream: ``features`` are the rows that arrived since
        the last call, and the result holds only the output frames that
        became final, each computed once. ``end=False`` means more rows
        follow; ``end=True`` pads the stream's end with zeros and so
        closes its remaining frames.
        """
        cfg = self.cfg
        if state is None:
            if features.shape[0] < cfg.downsample:
                raise ValueError(
                    f"input of {features.shape[0]} frames is shorter than the "
                    f"downsampling factor {cfg.downsample}"
                )
            state = AcousticState()
        elif not cfg.unidirectional:
            raise NonCausalEncoderError("bidirectional attention cannot encode a stream incrementally")
        x = Tensor(np.asarray(features, dtype=ad.default_dtype()))

        def convs_of_block(b: int, x: Tensor) -> Tensor:
            for i in range(cfg.convs_per_block):
                x = self._conv(b, i, x, state, end)
            return x

        def transformers_of_block(b: int, x: Tensor) -> Tensor:
            if x.shape[0] == 0:  # no new rows: the caches stand as they are
                return x
            mask = self._self_mask(x.shape[0], _cached_rows(state.kv, f"acoustic.block{b}.tf0.attn"))
            for l in range(cfg.transformer_layers_per_block):
                x = self._tf_forward(f"acoustic.block{b}.tf{l}", x, mask, rng, kv_cache=state.kv)
            return x

        if cfg.gradual_downsample:
            for b in range(cfg.n_blocks):
                x = convs_of_block(b, x)
                x = transformers_of_block(b, x)
        else:
            # ablation: all downsampling convs first, Transformer layers after
            for b in range(cfg.n_blocks):
                x = convs_of_block(b, x)
            for b in range(cfg.n_blocks):
                x = transformers_of_block(b, x)

        posteriors = None
        if cfg.use_ctc:
            hidden = ad.relu(self._affine("ctc.hidden", x))
            posteriors = ad.softmax(self._affine("ctc.out", hidden), axis=-1)
        return x, posteriors

    def semantic_encode(self, shrunk: Tensor, rng=None, state: SemanticState | None = None) -> Tensor:
        """Self-attention stack over shrunk segment states, one row per unit.

        Without ``state`` this encodes the units of one whole utterance.
        With one it continues a stream: ``shrunk`` holds the units after
        those already encoded, which take the next positions and attend to
        the cached units, and the caches are extended by them.
        """
        if state is None:
            state = SemanticState()
        elif not self.cfg.unidirectional:
            raise NonCausalEncoderError("bidirectional attention cannot encode a stream incrementally")
        past = state.units
        pos = sinusoidal_positions(shrunk.shape[0], self.cfg.d_model, shrunk.data.dtype, past)
        x = ad.add(shrunk, Tensor(pos, dtype=shrunk.data.dtype))
        mask = self._self_mask(x.shape[0], past)
        for l in range(self.cfg.semantic_layers):
            x = self._tf_forward(f"semantic.tf{l}", x, mask, rng, kv_cache=state.kv)
        state.units += x.shape[0]
        return x

    def encode_source(self, features: np.ndarray, rng=None) -> EncoderOutput:
        """Acoustic encoding, boundary detection, shrinking, semantic encoding."""
        cfg = self.cfg
        states, posteriors = self.acoustic_encode(features, rng)
        path = segments = None
        units = states
        if cfg.use_ctc:
            path = ctc_mod.greedy_path(posteriors)
            segments = ctc_mod.detect_boundaries(path)
            if cfg.use_shrink:
                blank_probs = ad.col(posteriors, cfg.blank_index)
                shrunk = shrink_mod.shrink_states(
                    states, blank_probs, path, segments, cfg.shrink_config
                )
                units = self.semantic_encode(shrunk, rng)
        return EncoderOutput(states, posteriors, path, segments, units)

    def decode_logits(self, prefix_ids: np.ndarray, source: EncoderOutput, cross_mask: np.ndarray,
                      rng=None, state: DecoderState | None = None, hyps: int = 1) -> Tensor:
        """Decoder logits, one row per input row; ``cross_mask[i, j]`` lets
        row i see source unit j.

        Without ``state`` the rows are the teacher-forced inputs
        [EOS, y_1, ..] of one utterance. With one they continue the rows
        the state holds: ``prefix_ids`` is ``hyps`` equal-length blocks,
        each a continuation of the cached rows, and a row sees the cached
        rows and the rows before it in its own block. Source units past
        those the state has seen get their cross-attention keys and values
        computed once, here. The state is extended by the new rows, so
        scoring several blocks at once is meant for a ``fork``.
        """
        cfg = self.cfg
        if state is None:
            state = DecoderState()
        n_rows, past = len(prefix_ids), len(state.ids)
        if hyps < 1 or n_rows % hyps:
            raise ValueError(f"{n_rows} rows do not split into {hyps} equal blocks")
        block = n_rows // hyps
        emb = ad.scale(ad.embedding(self.params["decoder.embed"], prefix_ids), math.sqrt(cfg.d_model))
        pos = np.tile(sinusoidal_positions(block, cfg.d_model, emb.data.dtype, past), (hyps, 1))
        x = ad.dropout(ad.add(emb, Tensor(pos, dtype=emb.data.dtype)), cfg.dropout, rng)
        own_block = np.kron(np.eye(hyps, dtype=bool), np.tri(block, dtype=bool))
        self_mask = np.concatenate([np.ones((n_rows, past), dtype=bool), own_block], axis=1)
        seen = _cached_rows(state.kv, "decoder.tf0.xattn")
        units = source.units if seen == 0 else Tensor(source.units.data[seen:])
        for l in range(cfg.decoder_layers):
            x = self._tf_forward(f"decoder.tf{l}", x, self_mask, rng,
                                 cross_kv=units, cross_mask=cross_mask, kv_cache=state.kv)
        state.ids = np.concatenate([state.ids, prefix_ids])
        return self._affine("decoder.out", self._norm_of("decoder.ln_out", x))

    # -- training objective -------------------------------------------------

    def forward_train(self, batch: Batch, rng=None, compute_st: bool = True,
                      wait_k=None) -> tuple[Optional[Tensor], Optional[Tensor], dict]:
        """Mean token NLL under the wait-k-stride-n mask plus the CTC term.

        Utterances whose transcript cannot align to the downsampled length
        (or that are shorter than the downsampling factor) are skipped with
        a warning and counted in the diagnostics. ``compute_st=False``
        restricts the pass to the CTC objective (pre-training). ``wait_k``
        overrides the configured schedule for this pass only.
        """
        cfg = self.cfg
        k = cfg.wait_k if wait_k is None else wait_k
        st_terms: list[Tensor] = []
        ctc_terms: list[Tensor] = []
        n_tokens = 0
        correct = 0
        blank_frames = 0
        total_frames = 0
        skipped = 0
        seg_counts: list[int] = []
        for i in range(len(batch)):
            feats = batch.features[i, : batch.frame_lengths[i]]
            transcript = batch.source[i, : batch.source_lengths[i]]
            translation = batch.target[i, : batch.target_lengths[i]]
            if feats.shape[0] < cfg.downsample:
                skipped += 1
                log.warning("skipping %s: %d frames < downsampling factor", batch.ids[i], feats.shape[0])
                continue
            if compute_st:
                enc = self.encode_source(feats, rng)
            else:
                states, posteriors = self.acoustic_encode(feats, rng)
                path = ctc_mod.greedy_path(posteriors)
                enc = EncoderOutput(states, posteriors, path, ctc_mod.detect_boundaries(path), states)
            if cfg.use_ctc:
                try:
                    ctc_terms.append(
                        ctc_mod.blank_limited_ctc_loss(
                            enc.posteriors, transcript,
                            lam=cfg.blank_penalty_weight, mode=cfg.blank_penalty_mode,
                        )
                    )
                except ctc_mod.InfeasibleAlignmentError:
                    skipped += 1
                    log.warning("skipping %s: transcript too long for %d encoder frames",
                                batch.ids[i], enc.states.shape[0])
                    continue
                blank_frames += int((enc.path == ctc_mod.BLANK).sum())
                total_frames += enc.path.size
                seg_counts.append(len(enc.segments))
            if not compute_st:
                continue
            prefix = np.concatenate([[EOS], translation])
            target_out = np.concatenate([translation, [EOS]])
            mask = build_cross_attention_mask(k, cfg.stride_n, len(target_out), enc.n_units)
            logits = self.decode_logits(prefix, enc, mask, rng)
            st_terms.append(ad.scale(ad.cross_entropy(logits, target_out, PAD), float(len(target_out))))
            n_tokens += len(target_out)
            correct += int((logits.data.argmax(axis=1) == target_out).sum())
        loss_st = ad.scale(functools.reduce(ad.add, st_terms), 1.0 / n_tokens) if st_terms else None
        loss_ctc = ad.scale(functools.reduce(ad.add, ctc_terms), 1.0 / len(ctc_terms)) if ctc_terms else None
        diagnostics = {
            "tokens": n_tokens,
            "token_correct": correct,
            "token_accuracy": correct / max(n_tokens, 1),
            "blank_fraction": blank_frames / max(total_frames, 1),
            "skipped": skipped,
            "segment_counts": seg_counts,
        }
        return loss_st, loss_ctc, diagnostics

    def total_loss(self, loss_st: Optional[Tensor], loss_ctc: Optional[Tensor]) -> Tensor:
        if loss_st is None:
            raise NoLossError("no utterance of the batch produced a translation loss")
        if loss_ctc is None or self.cfg.ctc_loss_weight == 0.0:
            return loss_st
        return ad.add(loss_st, ad.scale(loss_ctc, self.cfg.ctc_loss_weight))
