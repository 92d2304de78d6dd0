"""Incremental wait-k-stride-n inference.

A session consumes audio frames. Each of the model's three stages, the
acoustic encoder, the semantic encoder and the decoder, keeps one
``model.StreamState`` per session: its conv context (acoustic encoder
only), its per-layer keys and values, and the count of rows it has
computed. The acoustic encoder returns each output frame once, at the
input length where its look-ahead window is satisfied, and the session
counts the frames it returns as final; those lengths do not depend on
how the caller chunks the audio, so any chunking yields the same run.
That count is also the stream's length once ``end_stream`` has closed
it, so a result needs an ended stream.
Finalized values match an offline pass up to float rounding (the two
compute the same sums over row blocks of different sizes). The session
detects segment boundaries online and alternates reading n new source
units with beam-reranked writes of n tokens. Every self-attention of the
model is causal, so a frame or unit, once computed, never changes.

Every call gives a stage only what its state lacks, so the session keeps
no source unit, only how many it gave the decoder, and every unit, frame
or segment, is its end frame. The semantic encoder's and the decoder's
states are extended only at writes. A write that may see ``visible``
units first shrinks and semantic-encodes the units in [given, visible)
over the cached ones. Beam step 0 gives them to the decoder, which
computes their cross-attention keys and values once, with the rows of
[EOS] + committed it lacks: a row's cross-attention is fixed once the
token it predicts is committed, so from that write on it is final. Later
beam steps score all live hypotheses in one decoder call on a fork of
that state, with no new units, and leave it as it was. Both ends of
every extension come from the schedule (units visible, tokens
committed), never from when audio arrived, so row blocks, and with them
float rounding, do not depend on the chunking either.

A write, and with it the listening times d(y_i) of its tokens, is stamped
with the minimal audio prefix that completed its last visible unit, or
the whole stream after its end, which makes the stamps invariant to how
the caller chunks the audio; ``StreamSession.step`` decides each write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import metrics
from . import model as model_mod
from . import shrink as shrink_mod
from .autodiff import Tensor
from .data import EOS, check_integers
from .model import Model, visible_units

READ, WRITE, FINISH = "read", "write", "finish"


@dataclass(frozen=True)
class BeamHypothesis:
    tokens: tuple[int, ...]
    score: float  # cumulative log-probability
    ended: bool = False


@dataclass
class SessionStats:
    """Work one session did."""

    encoder_frames: int = 0  # acoustic encoder output frames computed, all final
    acoustic_encode_calls: int = 0
    semantic_encode_calls: int = 0
    semantic_units: int = 0  # source units the semantic encoder encoded
    decode_logits_calls: int = 0
    hypotheses_scored: int = 0  # beam hypotheses the decoder scored a next token for
    beam_expansions: int = 0  # candidates made by extending a hypothesis by one token


@dataclass
class SessionResult:
    """A finished session over an ended stream."""

    tokens: list[int]
    record: metrics.LatencyRecord
    trace: list[tuple[float, str, str]]
    n_units: int  # source units, frames or (with shrinking) CTC segments


_FIRST_ROWS = 256  # encoder frames: 20 s of audio at 80 ms per frame


class _Rows:
    """Rows added at the end of one buffer, whose capacity doubles when
    full. It starts with room for ``_FIRST_ROWS`` rows, so a typical
    stream allocates it once: a run of small regrowths, interleaved with
    training in one process, was seen to make the heap return training's
    large buffers to the system and fault them back in at every
    ``finetune`` call."""

    def __init__(self):
        self._buffer: Optional[np.ndarray] = None
        self._n = 0

    def add(self, rows: np.ndarray) -> None:
        n = self._n + rows.shape[0]
        if self._buffer is None:
            self._buffer = ad.grow(rows[:0], 0, max(n, _FIRST_ROWS))
        elif n > self._buffer.shape[0]:
            self._buffer = ad.grow(self._buffer, self._n, n)
        self._buffer[self._n:n] = rows
        self._n = n

    @property
    def rows(self) -> Optional[np.ndarray]:
        """The rows added so far, a view; None before the first ``add``."""
        return None if self._buffer is None else self._buffer[:self._n]


def _log_softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - math.log(np.exp(shifted).sum())


class StreamSession:
    """One simultaneous translation; strictly single-threaded. A given
    ``wait_k`` or ``stride_n`` replaces the one the model was trained with."""

    def __init__(self, model: Model, wait_k=None, stride_n=None, beam_size: int = 5, tgt_vocab=None):
        cfg = model.cfg
        self.model = model
        self.wait_k = cfg.wait_k if wait_k is None else wait_k
        self.stride_n = cfg.stride_n if stride_n is None else stride_n
        model_mod.check_schedule(self.wait_k, self.stride_n)
        check_integers("beam_size", beam_size, low=1)
        self.beam_size = beam_size
        self.tgt_vocab = tgt_vocab
        self.unit_kind = "segment" if cfg.use_shrink else "frame"
        self.stats = SessionStats()
        self._enc_state = model_mod.StreamState()
        self._n_fed = 0  # input frames pushed
        self._unencoded = np.zeros((0, cfg.d_feat), dtype=np.float32)  # pushed, not yet encoded
        self._states = _Rows()  # finalized acoustic states
        self._posteriors = _Rows()  # their CTC rows, when CTC is on
        self._path = _Rows()  # their greedy CTC labels, when shrinking is on
        self._semantic = model_mod.StreamState()
        self._decoder = model_mod.StreamState()
        self._n_given = 0  # source units given to the decoder
        self._ends: list[int] = []  # end frame of each closed unit
        self._unit_ready_ms: list[float] = []
        self._committed: list[int] = []
        self._visibility: list[int] = []
        self._listen_ms: list[float] = []
        self._trace: list[tuple[float, str, str]] = []
        self._ended = False
        self._finished = False
        self._eos_stamp: Optional[float] = None  # stamp of the write that reached EOS

    # -- bookkeeping ---------------------------------------------------------

    @property
    def units_completed(self) -> int:
        return len(self._unit_ready_ms)

    @property
    def ended(self) -> bool:
        return self._ended

    def _total_ms(self) -> float:
        """The stream's duration; final only after ``end_stream``."""
        return self.stats.encoder_frames * self.model.cfg.output_frame_ms

    # -- encoding ------------------------------------------------------------

    def _finalized(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Finalized acoustic states and their CTC rows (None without CTC)."""
        return self._states.rows, self._posteriors.rows

    @property
    def _labels(self) -> np.ndarray:
        """The greedy CTC label of each finalized frame."""
        return self._path.rows

    def _advance(self, rows: np.ndarray, end: bool = False) -> list[int]:
        """Encode ``rows``, the input since the last call; the frames the
        encoder returns are final, and ``stats.encoder_frames`` counts
        them. Returns the end frames of the units they complete."""
        done = self.stats.encoder_frames
        with ad.no_grad():
            states, posteriors = self.model.acoustic_encode(rows, state=self._enc_state, end=end)
        self.stats.acoustic_encode_calls += 1
        self.stats.encoder_frames += states.shape[0]
        self._states.add(states.data)
        if posteriors is not None:
            self._posteriors.add(posteriors.data)
        if self.unit_kind == "frame":  # frame unit i ends at frame i + 1
            return list(range(done + 1, self.stats.encoder_frames + 1))
        self._path.add(ctc_mod.greedy_path(posteriors))
        return ctc_mod.boundary_cuts(self._labels, max(done - 1, 0)).tolist()

    def _close_unit(self, end: int, stamp: float) -> None:
        """Record the next unit, frame or segment, which ends at frame ``end``."""
        self._trace.append((stamp, "READ", f"{self.unit_kind}={len(self._ends)}"))
        self._ends.append(end)
        self._unit_ready_ms.append(stamp)

    def push_frames(self, frames: np.ndarray) -> None:
        """Feed audio. The encoder advances at each input length where a
        frame finalizes, whatever the chunking, so completion stamps and
        encoder outputs are chunking-invariant."""
        if self._ended:
            raise RuntimeError("push_frames after end-of-stream")
        cfg = self.model.cfg
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[1] != cfg.d_feat:
            raise ValueError(f"push_frames takes [n, {cfg.d_feat}] frames, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise ValueError("push_frames takes finite frames, got NaN or inf")
        rows = np.concatenate([self._unencoded, frames])
        first = self._n_fed - self._unencoded.shape[0]  # stream index of rows[0]
        self._n_fed += frames.shape[0]
        horizon = model_mod.effective_lookahead_frames(cfg)
        for t in range(self.stats.encoder_frames, model_mod.finalized_frames(cfg, self._n_fed)):
            # frame t is final once input t*downsample + horizon has arrived
            n = t * cfg.downsample + horizon + 1
            for unit_end in self._advance(rows[: n - first]):
                self._close_unit(unit_end, n * cfg.frame_ms)
            rows, first = rows[n - first:], n
        self._unencoded = rows

    def end_stream(self) -> None:
        """No more audio: finalize every frame, so the encoder's count is the
        stream's length, and close the units left, stamped with it."""
        if self._ended:
            raise RuntimeError("end_stream called twice")
        reason = model_mod.skip_reason(self.model.cfg, self._n_fed, ())
        if reason is not None:
            raise ValueError(f"stream ended too short to encode: {reason}")
        self._ended = True
        ends = self._advance(self._unencoded, end=True)
        if self.unit_kind == "segment":
            # the open tail always closes at end-of-stream; an all-blank stream
            # yields this single segment so the decoder has at least one unit
            ends.append(self.stats.encoder_frames)
        for unit_end in ends:
            self._close_unit(unit_end, self._total_ms())

    # -- decoding --------------------------------------------------------------

    def _visible_source(self, visible: int) -> Tensor:
        """Source units [given, visible), after the ``given`` ones the decoder
        has seen: the frames [lo, hi) up to those units' end frames. Segments
        are shrunk and semantic-encoded here, over the cached units, so each
        unit is encoded once."""
        given, self._n_given = self._n_given, visible
        states, post = self._finalized()
        lo, hi = (self._ends[given - 1] if given else 0), self._ends[visible - 1]
        if self.unit_kind == "frame" or visible == given:
            return Tensor(states[lo:hi])
        cfg = self.model.cfg
        with ad.no_grad():
            shrunk = shrink_mod.shrink_states(
                Tensor(states[lo:hi]), Tensor(post[lo:hi, cfg.blank_index]), self._labels[lo:hi],
                np.array(self._ends[given:visible]) - lo, cfg.shrink_config,
            )
            units = self.model.semantic_encode(shrunk, state=self._semantic)
        self.stats.semantic_encode_calls += 1
        self.stats.semantic_units += visible - given
        return units

    def _score(self, units: Tensor, rows: list[int], vis_rows: list[int],
               state: model_mod.StreamState, hyps: int = 1) -> list[np.ndarray]:
        """Log-probabilities of the next token after each of ``hyps`` equal
        blocks of ``rows``, which continue the rows ``state`` holds, given
        the ``units`` it has not seen. The rows are one block over every
        unit, the state's and then ``units``; row j sees the first
        ``vis_rows[j]``."""
        cross = ad.Blocks([len(rows)], [vis_rows[-1]], vis_rows)
        with ad.no_grad():
            logits = self.model.decode_logits(np.array(rows, dtype=np.int64), units, cross,
                                              state=state, lengths=[len(rows) // hyps] * hyps)
        self.stats.decode_logits_calls += 1
        self.stats.hypotheses_scored += hyps
        ends = logits.data[len(rows) // hyps - 1::len(rows) // hyps]
        return [_log_softmax_row(row.astype(np.float64)) for row in ends]

    def _beam_stride(self, units: Tensor, visible: int, stride_len: int) -> list[BeamHypothesis]:
        """Beam search over the next ``stride_len`` tokens, one decoder call
        per step. Step 0 extends the decoder state by the ``units`` and the
        rows not yet in it, [EOS] + committed, whose cross-attention is
        final from this write on, and scores the empty hypothesis. Each
        later step scores every live hypothesis at once on a fork of that
        state, with no new units, so the state keeps committed rows only."""
        beams = [BeamHypothesis((), 0.0)]
        for step in range(stride_len):
            if step == 0:
                cached = self._decoder.rows
                rows = ([EOS] + self._committed)[cached:]
                vis_rows = (self._visibility + [visible])[cached:]
                scores = iter(self._score(units, rows, vis_rows, self._decoder))
                units = Tensor(units.data[:0])  # the decoder state holds them now
            else:
                live = [h for h in beams if not h.ended]
                rows = [tok for h in live for tok in h.tokens]
                scores = iter(self._score(units, rows, [visible] * len(rows),
                                          self._decoder.fork(), len(live)))
            candidates = []
            for hyp in beams:
                if hyp.ended:
                    candidates.append(hyp)
                    continue
                logp = next(scores)
                order = np.argsort(-logp, kind="stable")[: self.beam_size]
                self.stats.beam_expansions += len(order)
                for tok in order:
                    candidates.append(
                        BeamHypothesis(hyp.tokens + (int(tok),), hyp.score + float(logp[tok]),
                                       ended=int(tok) == EOS)
                    )
            candidates.sort(key=lambda h: (-h.score, h.tokens))
            beams = candidates[: self.beam_size]
            if all(h.ended for h in beams):
                break
        return beams

    def _write_stride(self, visible: int, stamp: float, stride_len: int) -> list[int]:
        """Beam search over the next ``stride_len`` tokens, which see the
        first ``visible`` units; commits the best continuation up to any
        EOS, each token stamped ``stamp``."""
        best = self._beam_stride(self._visible_source(visible), visible, stride_len)[0]
        committed = []
        for tok in best.tokens:
            if tok == EOS:
                self._eos_stamp = stamp
                break
            committed.append(tok)
            self._committed.append(tok)
            self._visibility.append(visible)
            self._listen_ms.append(stamp)
        if committed:
            text = " ".join(self._token_text(t) for t in committed)
            self._trace.append((stamp, "WRITE", text))
        return committed

    def _token_text(self, tok: int) -> str:
        if self.tgt_vocab is not None:
            return self.tgt_vocab.tokens[tok]
        return str(tok)

    def _finish(self, stamp: float) -> tuple[str, None]:
        """End the session, its FINISH stamped ``stamp``."""
        self._finished = True
        self._trace.append((stamp, "FINISH", ""))
        return FINISH, None

    def step(self) -> tuple[str, Optional[list[int]]]:
        """Advance the policy one action: read, write, or finish. Before
        end-of-stream a write sees the ``visible_units`` budget (READ while
        fewer units are complete), is stamped when its last unit completed and
        commits up to ``stride_n`` tokens; after it, a write sees every unit,
        is stamped at the stream's end and keeps the output within 2 * units
        + 10 tokens. FINISH follows a write that reaches EOS, or that cap, and
        is stamped at the stream's end if it has ended, else at that write's."""
        if self._finished:
            raise RuntimeError("step on a finished session")
        if self._ended:
            visible, stamp = self.units_completed, self._total_ms()
            stride_len = min(self.stride_n, 2 * visible + 10 - len(self._committed))
        elif self._eos_stamp is not None:
            return self._finish(self._eos_stamp)
        else:
            visible = visible_units(self.wait_k, self.stride_n, len(self._committed))
            if self.units_completed < visible:
                return READ, None
            visible, stride_len = int(visible), self.stride_n
            stamp = self._unit_ready_ms[visible - 1]
        if self._eos_stamp is not None or stride_len < 1:
            return self._finish(stamp)
        tokens = self._write_stride(visible, stamp, stride_len)
        return (WRITE, tokens) if tokens else self._finish(stamp)

    def finalize(self, reference_length: Optional[int] = None) -> SessionResult:
        """Assemble the hypothesis, latency record, and trace. A result needs
        a finished session over an ended stream: the record's source length
        is the encoder's frame count, which only ``end_stream`` makes final."""
        if not (self._finished and self._ended):
            raise RuntimeError("finalize needs a finished session and an ended stream")
        if reference_length is not None:
            check_integers("reference_length", reference_length, low=1)
        cfg = self.model.cfg
        record = metrics.LatencyRecord(
            token_listen_ms=tuple(self._listen_ms),
            total_ms=self._total_ms(),
            source_frames=self.stats.encoder_frames,
            frame_ms=cfg.output_frame_ms,
            reference_length=max(len(self._committed), 1) if reference_length is None else reference_length,
            lookahead_offset_ms=model_mod.effective_lookahead_ms(cfg),
        )
        meta = (0.0, "META", f"frames={record.source_frames} frame_ms={record.frame_ms} "
                f"total_ms={record.total_ms:g} offset_ms={record.lookahead_offset_ms}")
        return SessionResult(list(self._committed), record, [meta] + self._trace, self.units_completed)


def translate_stream(model: Model, features: np.ndarray, *, wait_k=None, stride_n=None,
                     beam_size: int = 5, chunk_frames: Optional[int] = None,
                     reference_length: Optional[int] = None, tgt_vocab=None) -> SessionResult:
    """Drive one utterance through a session, pushing fixed-size chunks."""
    chunk = model.cfg.downsample if chunk_frames is None else chunk_frames
    check_integers("chunk_frames", chunk, low=1)
    session = StreamSession(model, wait_k=wait_k, stride_n=stride_n, beam_size=beam_size, tgt_vocab=tgt_vocab)
    feats = np.asarray(features, dtype=np.float32)
    pos = 0
    while True:
        action, _ = session.step()
        if action == READ:
            if pos < feats.shape[0]:
                session.push_frames(feats[pos: pos + chunk])
                pos += chunk
            else:
                session.end_stream()
        elif action == FINISH:
            break
    if pos < feats.shape[0]:
        # an early end-of-sequence stopped the writes; feed the rest so the
        # source-duration accounting matches a single-push run
        session.push_frames(feats[pos:])
    if not session.ended:
        session.end_stream()
    return session.finalize(reference_length)
