"""The full network: gradually-downsampling acoustic encoder with a CTC
head, weighted shrinking into segment states, a semantic encoder, and a
prefix-to-prefix decoder whose cross-attention follows the
wait-k-stride-n schedule.

Every Transformer layer is one attention sub-layer op per attention
(self-attention, and cross-attention in the decoder) and one
feed-forward sub-layer op (``ad.attention_sublayer``,
``ad.feedforward_sublayer``), and every conv, with its bias and ReLU, is
one op: training and streaming record the same ops, and a streamed
acoustic layer makes two op calls.

A training batch is a list of utterances, packed: they are laid end to
end as one sequence of rows per stage, so each layer runs once per
batch. Convolutions pad each utterance on its own and report each one's
output length, attention runs block by block and positions restart with
each utterance. Each loss term is one op: the CTC loss runs its forward
algorithm per utterance inside its op. One utterance is the packed case
with one sequence. Every attention mask is an ``ad.Blocks`` layout:
causal blocks for self-attention, the wait-k-stride-n rule for
cross-attention, and for a stream's rows the cached rows before them as
the layout's past. Every self-attention is causal, in the encoders as in
the decoder, so training and streaming encode the same frames;
``ModelConfig.unidirectional`` accepts only True.

The stages pass plain tensors: ``acoustic_encode`` gives encoder frames
and the CTC grid, ``semantic_encode`` turns shrunk segment states into
source units, and ``decode_logits`` takes those units. A stream calls the
same three methods with a ``StreamState`` each, which carries the stage's
caches from one call to the next, and gives each call only the input its
state lacks: the new feature rows, shrunk segments, units and tokens.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import shrink as shrink_mod
from .autodiff import Tensor
from .data import EOS, Utterance, check_integers, check_real
from .shrink import ShrinkConfig

log = logging.getLogger(__name__)

WAIT_INF = math.inf


class NoLossError(ValueError):
    """No utterance of the batch produced the loss term asked for."""


def check_schedule(wait_k, stride_n) -> None:
    """The wait-k-stride-n rule: wait_k is a positive integer or inf and
    stride_n a positive integer, where an integer-valued float counts and a
    bool or a string does not; a rejection is a ValueError naming the field."""
    check_real("wait_k", wait_k, "[1, inf]")
    check_real("stride_n", stride_n, "[1, inf)")
    for name, value in (("wait_k", wait_k), ("stride_n", stride_n)):
        if value != WAIT_INF and not float(value).is_integer():
            raise ValueError(f"{name} must be a whole number, got {value!r}")


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
        # each count sizes arrays or loops, or counts milliseconds; the floors:
        for name, low in (("d_feat", 1), ("n_blocks", 1), ("conv_kernel", 1), ("n_heads", 1), ("ffn_dim", 1),
                          ("src_vocab_size", 1), ("frame_ms", 1), ("transformer_layers_per_block", 0),
                          ("semantic_layers", 0), ("decoder_layers", 0),
                          ("convs_per_block", 2),  # the second conv of a block carries stride 2
                          ("d_model", 2),  # layer norm needs two features
                          ("tgt_vocab_size", EOS + 1)):  # the decoder starts from and ends with EOS
            check_integers(name, getattr(self, name), low=low)
        check_integers("conv_lookahead", self.conv_lookahead, ndim=1, low=0)
        object.__setattr__(self, "conv_lookahead", tuple(self.conv_lookahead))
        for name in ("use_ctc", "use_shrink", "gradual_downsample"):  # a string or a count would be truthy
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))  # np.bool_ fingerprints as "True"
        if len(self.conv_lookahead) != self.convs_per_block:
            raise ValueError("conv_lookahead needs one entry per conv in a block")
        if not all(a < self.conv_kernel for a in self.conv_lookahead):
            raise ValueError(f"conv_lookahead entries must lie in [0, {self.conv_kernel - 1}], "
                             f"got {self.conv_lookahead}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        check_schedule(self.wait_k, self.stride_n)
        for name in ("blank_penalty_weight", "ctc_loss_weight", "shrink_temperature"):
            check_real(name, getattr(self, name), "[0, inf)")
        check_real("dropout", self.dropout, "[0, 1)")
        if self.unidirectional is not True:  # kept as a field only so that checkpoint headers load
            raise ValueError(f"unidirectional must be True (self-attention is causal), got {self.unidirectional!r}")
        if self.use_shrink and not self.use_ctc:
            raise ValueError("use_shrink needs use_ctc: segments are cut on the CTC path")
        for name, modes in (("shrink_mode", shrink_mod.MODES), ("blank_penalty_mode", ctc_mod.BLANK_PENALTY_MODES)):
            if getattr(self, name) not in modes:
                raise ValueError(f"{name} must be one of {modes}, got {getattr(self, name)!r}")
        # built once; attributes, not fields, so asdict, fingerprints and checkpoint headers leave them out
        object.__setattr__(self, "shrink_config", ShrinkConfig(self.shrink_temperature, self.shrink_mode))
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        object.__setattr__(self, "_fingerprint", hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16])

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
        """The first 16 hex digits of the SHA-256 of the fields as sorted JSON."""
        return self._fingerprint


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


def skip_reason(cfg: ModelConfig, frames: int, transcript) -> Optional[str]:
    """Why an utterance cannot train, or None: it is shorter than the
    downsampling factor, or (with CTC) its transcript needs more encoder
    frames than it has, the case the CTC loss raises
    ``InfeasibleAlignmentError`` for. With an empty transcript only the
    length floor is left, which encoding and streaming also apply."""
    if frames < cfg.downsample:
        return f"{frames} frames < downsampling factor"
    if cfg.use_ctc and ctc_mod.min_path_length(transcript) > output_length(cfg, frames):
        return f"transcript too long for {output_length(cfg, frames)} encoder frames"
    return None


def visible_units(wait_k, stride_n: int, written):
    """Source units the wait-k-stride-n schedule shows the decoder once
    ``written`` target tokens are out (an int or an array of them):
    stride_n*floor(written/stride_n) + wait_k, inf for wait_k=inf."""
    return stride_n * (written // stride_n) + wait_k


def visible_counts(wait_k, stride_n: int, n_targets, n_source) -> np.ndarray:
    """Source units each target row may attend: target position t
    (1-indexed) the first ``visible_units(wait_k, stride_n, t - 1)``, at
    most all of them. With sequences of lengths for ``n_targets`` and
    ``n_source`` (one pair per utterance), one count per row of the
    utterances' targets laid end to end, each over its own units."""
    n_targets, n_source = np.atleast_1d(n_targets), np.atleast_1d(n_source)
    if (n_source < 1).any():
        raise ValueError("mask needs at least one source unit")
    check_schedule(wait_k, stride_n)
    budget = visible_units(wait_k, stride_n, ad.packed_offsets(n_targets))
    return np.minimum(budget, np.repeat(n_source, n_targets)).astype(np.int64)


def sinusoidal_positions(n: int, d: int, dtype, start: int = 0) -> np.ndarray:
    """Encodings of positions start, .., start+n-1."""
    pos = np.arange(start, start + n)[:, None].astype(np.float64)
    dim = np.arange((d + 1) // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d)
    out = np.zeros((n, d))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle[:, : d // 2])
    return out.astype(dtype)


def packed_positions(lengths, d: int, dtype, start: int = 0) -> np.ndarray:
    """Encodings of consecutive sequences' rows; each sequence's positions
    run from ``start``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return sinusoidal_positions(int(lengths.max(initial=0)), d, dtype, start)[ad.packed_offsets(lengths)]


@dataclass
class StreamState:
    """What one stream keeps of one stage (the acoustic encoder, the
    semantic encoder or the decoder) between calls.

    ``rows`` counts the rows the semantic encoder or the decoder has
    computed so far, source units or decoder rows; the next rows take the
    positions after them. (The acoustic encoder's blocks, each of its own
    length, read their counts off ``kv``.) ``kv`` holds, per attention
    sub-layer, an ``ad.KVCache`` of the keys and values of those rows, and
    for the decoder's cross-attention of the source units seen so far; a
    call writes only its new rows into it. ``conv`` holds, per conv of
    the acoustic encoder, the input rows its next outputs still read: the
    left context of the next output's window and any rows after it. A
    fresh state is the start of a stream: zero left context and empty
    caches. Every call extends the state. ``fork`` gives a state that
    shares this one's caches copy-on-write: of the two, the first to
    extend a cache writes into its spare room and the other copies the
    cache's rows at its own next extension, so extending either leaves
    the other's rows as they are. Rows carried between calls are
    constants to the tape, so a live state serves inference only.
    """

    rows: int = 0
    kv: dict[str, ad.KVCache] = field(default_factory=dict)
    conv: dict[str, np.ndarray] = field(default_factory=dict)

    def fork(self) -> "StreamState":
        return StreamState(self.rows, dict(self.kv), dict(self.conv))


def _cached_rows(kv: dict, prefix: str) -> int:
    """Rows whose keys and values ``kv`` holds under ``prefix``."""
    past = kv.get(prefix)
    return 0 if past is None else past.n


@dataclass(frozen=True)
class ParamLayout:
    """What a config fixes about its model's parameters, built once per
    config by ``param_layout`` and shared, read only, by its models."""

    flat: ad.Layout  # the flat store: every parameter, the acoustic encoder and CTC head first
    init: dict[str, tuple[Optional[int], float]]  # name -> fan_in to draw uniform(±1/sqrt(fan_in)), else fill
    # per Transformer layer prefix, each sub-layer's op weight names: the
    # norm's gain and bias, then the linears'; None for a missing cross-attention
    sublayers: dict[str, tuple[Optional[tuple[str, ...]], ...]]
    encoder: ad.Layout  # the acoustic encoder and CTC head, the parameters pre-training updates


@functools.lru_cache(maxsize=16)
def param_layout(cfg: ModelConfig) -> ParamLayout:
    """Declares every parameter of ``cfg``'s model, in the order weights
    are drawn and laid out in the flat store."""
    specs: dict[str, tuple[tuple, Optional[int], float]] = {}  # name -> shape, fan_in, fill
    sublayers = {}
    d = cfg.d_model

    def param(name: str, shape: tuple, fan_in: Optional[int] = None, fill: float = 0.0) -> None:
        specs[name] = (shape, fan_in, fill)

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        param(f"{name}.w", (fan_in, fan_out), fan_in)
        param(f"{name}.b", (fan_out,))

    def norm(name: str) -> None:
        param(f"{name}.g", (d,), fill=1.0)
        param(f"{name}.b", (d,))

    def sublayer(norm_name: str, prefix: str, linears) -> tuple[str, ...]:
        """A pre-norm and its ``(suffix, fan_in, fan_out)`` linears; their names in op order."""
        norm(norm_name)
        for suffix, fan_in, fan_out in linears:
            linear(prefix + suffix, fan_in, fan_out)
        return (f"{norm_name}.g", f"{norm_name}.b") + tuple(f"{prefix}{suffix}.{t}" for suffix, _, _ in linears
                                                            for t in "wb")

    def tf_block(prefix: str, cross: bool = False) -> None:
        attention = [(f".{p}", d, d) for p in "qkvo"]
        sublayers[prefix] = (sublayer(f"{prefix}.ln1", f"{prefix}.attn", attention),
                             sublayer(f"{prefix}.lnx", f"{prefix}.xattn", attention) if cross else None,
                             sublayer(f"{prefix}.ln2", f"{prefix}.ffn", [(".1", d, cfg.ffn_dim), (".2", cfg.ffn_dim, d)]))

    c_in = cfg.d_feat
    for b, i, _ in _conv_layout(cfg):
        param(f"acoustic.conv{b}.{i}.w", (cfg.conv_kernel, c_in, d), cfg.conv_kernel * c_in)
        param(f"acoustic.conv{b}.{i}.b", (d,))
        c_in = d
    for b in range(cfg.n_blocks):
        for l in range(cfg.transformer_layers_per_block):
            tf_block(f"acoustic.block{b}.tf{l}")
    linear("ctc.hidden", d, d)
    linear("ctc.out", d, cfg.src_vocab_size + 1)
    encoder = len(specs)
    for l in range(cfg.semantic_layers):
        tf_block(f"semantic.tf{l}")
    param("decoder.embed", (cfg.tgt_vocab_size, d), d)
    for l in range(cfg.decoder_layers):
        tf_block(f"decoder.tf{l}", cross=True)
    norm("decoder.ln_out")
    linear("decoder.out", d, cfg.tgt_vocab_size)
    flat = ad.Layout({name: shape for name, (shape, _, _) in specs.items()})
    return ParamLayout(flat, {name: (fan_in, fill) for name, (_, fan_in, fill) in specs.items()},
                       sublayers, flat.head(encoder))


class Model:
    """Parameter container plus forward passes; training mutates params only
    through the optimizer.

    The parameters live in one flat store laid out by ``layout.flat``:
    ``flat`` is a 1-D parameter holding them all end to end, and each entry
    of ``params`` is a view of a piece of its data and of its gradient. The
    acoustic encoder and the CTC head come first, so the parameters
    pre-training updates are a leading slice of the store.
    """

    def __init__(self, cfg: ModelConfig, seed: Optional[int] = 0):
        """Weights are drawn from ``seed``. ``seed=None`` draws nothing and
        leaves them unset, for a caller that loads every parameter next
        (``train.load_params``)."""
        self.cfg = cfg
        self.layout = param_layout(cfg)
        self.flat, self.params = ad.flat_parameters(self.layout.flat)
        p = self.params
        # per layer prefix, each sub-layer's op weights
        self._sublayers = {prefix: tuple(None if names is None else [p[name] for name in names] for names in table)
                           for prefix, table in self.layout.sublayers.items()}
        if seed is None:
            return
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        for name, (fan_in, fill) in self.layout.init.items():  # drawn in declaration order
            p[name].data[...] = fill if fan_in is None else ad.uniform_init(p[name].shape, fan_in, rng)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    # -- forward pieces ----------------------------------------------------

    def _affine(self, name: str, x: Tensor) -> Tensor:
        return ad.affine(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _tf_forward(self, prefix: str, x: Tensor, self_mask: ad.Blocks, rng, kv_cache: dict,
                    cross_kv: Tensor | None = None, cross_mask: ad.Blocks | None = None) -> Tensor:
        """One Transformer layer: self-attention, cross-attention over
        ``cross_kv`` when given, and the feed-forward net, one op each.
        Each attention's keys and values follow those ``kv_cache`` holds
        under its name (none in a fresh cache), which it extends."""
        attention, cross, ffn = self._sublayers[prefix]
        n_heads, rate = self.cfg.n_heads, self.cfg.dropout
        x, kv_cache[prefix + ".attn"] = ad.attention_sublayer(x, attention, self_mask, n_heads, None,
                                                              kv_cache.get(prefix + ".attn"), rate, rng)
        if cross_kv is not None:
            x, kv_cache[prefix + ".xattn"] = ad.attention_sublayer(x, cross, cross_mask, n_heads, cross_kv,
                                                                   kv_cache.get(prefix + ".xattn"), rate, rng)
        return ad.feedforward_sublayer(x, ffn, rate, rng)

    @staticmethod
    def _self_mask(lengths, past: int = 0) -> ad.Blocks:
        """The causal self-attention layout of rows in consecutive sequences
        of ``lengths``: each row sees the ``past`` cached rows and the rows
        of its own sequence up to itself."""
        lengths = np.atleast_1d(lengths)
        return ad.Blocks(lengths, lengths, ad.packed_offsets(lengths) + 1, past)

    def _conv(self, b: int, i: int, stride: int, x: Tensor, lengths: np.ndarray,
              state: Optional[StreamState], end: bool) -> tuple[Tensor, np.ndarray]:
        """Conv ``i`` of block ``b`` with its bias and ReLU, one op, over packed
        sequences of ``lengths`` rows, or over a stream's new rows when
        ``state`` is given; returns the output and its sequence lengths."""
        name = f"acoustic.conv{b}.{i}"
        kernel, bias = self.params[f"{name}.w"], self.params[f"{name}.b"]
        lookahead = self.cfg.conv_lookahead[i]
        if state is None:
            return ad.conv1d_lookahead(x, kernel, bias, stride, lookahead, lengths=lengths)
        held = state.conv.get(name)
        if held is None:  # a stream starts with a zero left context
            held = np.zeros((kernel.shape[0] - 1 - lookahead, x.shape[1]), dtype=x.data.dtype)
        y, lengths = ad.conv1d_lookahead(x, kernel, bias, stride, lookahead, held, end)
        state.conv[name] = np.concatenate([held, x.data])[y.shape[0] * stride:]
        return y, lengths

    def _acoustic_stack(self, features: np.ndarray, rng, state: Optional[StreamState], end: bool,
                        lengths) -> tuple[Tensor, np.ndarray]:
        """The conv-Transformer stack's output frames and their sequence lengths."""
        cfg = self.cfg
        if state is None:
            lengths = np.array([features.shape[0]] if lengths is None else lengths, dtype=np.int64)
            reason = skip_reason(cfg, int(lengths.min()), ())
            if reason is not None:
                raise ValueError(f"cannot encode: {reason}")
        kv = {} if state is None else state.kv
        x = Tensor(np.asarray(features, dtype=ad.default_dtype()))
        layout = _conv_layout(cfg)

        def convs_of_block(b: int, x: Tensor, lengths: np.ndarray):
            for _, i, stride in layout[b * cfg.convs_per_block:(b + 1) * cfg.convs_per_block]:
                x, lengths = self._conv(b, i, stride, x, lengths, state, end)
            return x, lengths

        def transformers_of_block(b: int, x: Tensor, lengths: np.ndarray) -> Tensor:
            if x.shape[0] == 0:  # no new rows: the caches stand as they are
                return x
            mask = self._self_mask(lengths, _cached_rows(kv, f"acoustic.block{b}.tf0.attn"))
            for l in range(cfg.transformer_layers_per_block):
                x = self._tf_forward(f"acoustic.block{b}.tf{l}", x, mask, rng, kv_cache=kv)
            return x

        if cfg.gradual_downsample:
            for b in range(cfg.n_blocks):
                x, lengths = convs_of_block(b, x, lengths)
                x = transformers_of_block(b, x, lengths)
        else:
            # ablation: all downsampling convs first, Transformer layers after
            for b in range(cfg.n_blocks):
                x, lengths = convs_of_block(b, x, lengths)
            for b in range(cfg.n_blocks):
                x = transformers_of_block(b, x, lengths)
        return x, lengths

    def _ctc_head(self, states: Tensor) -> tuple[Optional[Tensor], Optional[Tensor]]:
        """CTC logits and their softmax grid; (None, None) when CTC is off."""
        if not self.cfg.use_ctc:
            return None, None
        logits = self._affine("ctc.out", ad.relu(self._affine("ctc.hidden", states)))
        return logits, ad.softmax(logits)

    def acoustic_encode(self, features: np.ndarray, state: StreamState | None = None,
                        end: bool = True) -> tuple[Tensor, Optional[Tensor]]:
        """Conv-Transformer stack plus the CTC grid (None when CTC is off).

        Without ``state`` this encodes one whole utterance. With one it
        continues a stream: ``features`` are the rows that arrived since
        the last call, and the result holds only the output frames that
        became final, each computed once. ``end=False`` means more rows
        follow; ``end=True`` pads the stream's end with zeros and so closes
        its remaining frames.
        """
        states, _ = self._acoustic_stack(features, None, state, end, None)
        return states, self._ctc_head(states)[1]

    def semantic_encode(self, shrunk: Tensor, rng=None, state: StreamState | None = None,
                        lengths=None) -> Tensor:
        """Self-attention stack over shrunk segment states, one row per unit.

        Without ``state`` this encodes the units of whole utterances: one,
        or consecutive sequences of ``lengths`` units, each with its own
        positions and attending within itself. With one it continues a
        stream: ``shrunk`` holds the units after those already encoded,
        which take the next positions and attend to the cached units, and
        the caches are extended by them.
        """
        if state is None:
            state = StreamState()
        elif lengths is not None:
            raise ValueError("a stream is one sequence; it takes no sequence lengths")
        past = state.rows
        lengths = [shrunk.shape[0]] if lengths is None else lengths
        pos = packed_positions(lengths, self.cfg.d_model, shrunk.data.dtype, past)
        x = ad.add(shrunk, Tensor(pos, dtype=shrunk.data.dtype))
        mask = self._self_mask(lengths, past)
        for l in range(self.cfg.semantic_layers):
            x = self._tf_forward(f"semantic.tf{l}", x, mask, rng, kv_cache=state.kv)
        state.rows += x.shape[0]
        return x

    def decode_logits(self, prefix_ids: np.ndarray, units: Tensor, cross_mask: ad.Blocks,
                      rng=None, state: StreamState | None = None, lengths=None) -> Tensor:
        """Decoder logits, one row per input row; ``cross_mask`` is the
        ``ad.Blocks`` layout of the rows over the source units, those the
        state holds followed by ``units``: one block of rows over all of
        them, or one block of rows per utterance over its own units.

        The rows are consecutive blocks of ``lengths`` rows (one block by
        default), each with its own positions and attending causally
        within itself. Without ``state`` each block is the teacher-forced
        inputs [EOS, y_1, ..] of one utterance. With one, every block
        continues the rows the state holds and also sees them; ``units`` are
        only the source units it has not seen (all for a fresh state), whose
        cross-attention keys and values are computed here, once. The state
        is extended by the new rows and units, so scoring several blocks at
        once is meant for a ``fork``.
        """
        cfg = self.cfg
        if state is None:
            state = StreamState()
        n_rows, past = len(prefix_ids), state.rows
        lengths = np.array([n_rows] if lengths is None else lengths, dtype=np.int64)
        if lengths.sum() != n_rows or (lengths < 1).any():
            raise ValueError(f"{n_rows} rows do not split into blocks of {lengths.tolist()}")
        emb = ad.scale(ad.embedding(self.params["decoder.embed"], prefix_ids), math.sqrt(cfg.d_model))
        pos = packed_positions(lengths, cfg.d_model, emb.data.dtype, past)
        x = ad.dropout(ad.add(emb, Tensor(pos, dtype=emb.data.dtype)), cfg.dropout, rng)
        self_mask = self._self_mask(lengths, past)
        for l in range(cfg.decoder_layers):
            x = self._tf_forward(f"decoder.tf{l}", x, self_mask, rng,
                                 cross_kv=units, cross_mask=cross_mask, kv_cache=state.kv)
        state.rows += n_rows
        normed = ad.layer_norm(x, self.params["decoder.ln_out.g"], self.params["decoder.ln_out.b"])
        return self._affine("decoder.out", normed)

    # -- training objective -------------------------------------------------

    def forward_train(self, batch: Sequence[Utterance], rng=None,
                      compute_st: bool = True) -> tuple[Optional[Tensor], Optional[Tensor], dict]:
        """Mean token NLL under the wait-k-stride-n mask plus the CTC term,
        over the batch's utterances packed into one pass.

        Utterances ``skip_reason`` rejects are skipped before encoding, with
        a warning. The diagnostics hold ``blank_fraction``, the share of
        blank frames on the greedy CTC path (0.0 without CTC), and
        ``skipped_ids``, each skipped utterance's id with its reason.
        ``compute_st=False`` restricts the pass to the CTC objective
        (pre-training).
        """
        cfg = self.cfg
        keep, skipped_ids = [], {}
        for utt in batch:
            reason = skip_reason(cfg, utt.n_frames, utt.source)
            if reason is None:
                keep.append(utt)
            else:
                log.warning("skipping %s: %s", utt.id, reason)
                skipped_ids[utt.id] = reason
        diagnostics = {"blank_fraction": 0.0, "skipped_ids": skipped_ids}
        if not keep:
            return None, None, diagnostics
        lengths = np.array([utt.n_frames for utt in keep], dtype=np.int64)
        feats = np.concatenate([utt.features for utt in keep])
        states, frames = self._acoustic_stack(feats, rng, None, True, lengths)
        ctc_logits, posteriors = self._ctc_head(states)
        units, unit_lengths = states, frames  # without shrinking the units are the encoder frames
        loss_ctc = None
        if cfg.use_ctc:
            path = ctc_mod.greedy_path(posteriors)
            if compute_st and cfg.use_shrink:
                ends = ctc_mod.detect_boundaries(path, frames)
                counts = np.diff(np.searchsorted(ends, np.cumsum(frames), side="right"), prepend=0)
                shrunk = shrink_mod.shrink_states(states, ad.col(posteriors, cfg.blank_index), path, ends,
                                                  cfg.shrink_config)
                units, unit_lengths = self.semantic_encode(shrunk, rng, lengths=counts), counts
            loss_ctc = ctc_mod.blank_limited_ctc_loss(
                ad.log_softmax(ctc_logits), posteriors, [utt.source for utt in keep], frames,
                lam=cfg.blank_penalty_weight, mode=cfg.blank_penalty_mode,
            )
            diagnostics["blank_fraction"] = float((path == ctc_mod.BLANK).mean())
        if not compute_st:
            return None, loss_ctc, diagnostics
        prefix = np.concatenate([np.concatenate([[EOS], utt.target]) for utt in keep])
        target_out = np.concatenate([np.concatenate([utt.target, [EOS]]) for utt in keep])
        rows = np.array([len(utt.target) + 1 for utt in keep])
        mask = ad.Blocks(rows, unit_lengths, visible_counts(cfg.wait_k, cfg.stride_n, rows, unit_lengths))
        logits = self.decode_logits(prefix, units, mask, rng, lengths=rows)
        return ad.cross_entropy(logits, target_out), loss_ctc, diagnostics

    def total_loss(self, loss_st: Optional[Tensor], loss_ctc: Optional[Tensor]) -> Tensor:
        if loss_st is None:
            raise NoLossError("no utterance of the batch produced a translation loss")
        if loss_ctc is None or self.cfg.ctc_loss_weight == 0.0:
            return loss_st
        return ad.add(loss_st, ad.scale(loss_ctc, self.cfg.ctc_loss_weight))
