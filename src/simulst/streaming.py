"""Incremental wait-k-stride-n inference.

A session consumes audio frames and finalizes encoder outputs once their
look-ahead window is satisfied. Each of the model's three stages, the
acoustic encoder, the semantic encoder and the decoder, keeps one
``model.StreamState`` per session: its conv context (acoustic encoder
only), its per-layer keys and values, and the count of rows it has
computed. The acoustic encoder computes each output frame once, at the
input length where it becomes final; those lengths do not depend on how
the caller chunks the audio, so any chunking yields the same run.
Finalized values match an offline pass up to float rounding (the two
compute the same sums over row blocks of different sizes). The session
detects segment boundaries online and alternates reading n new source
units with beam-reranked writes of n tokens. The encoder must be
unidirectional: a bidirectional one is rejected with
``NonCausalEncoderError``.

Every call gives a stage only what its state lacks, so the session keeps
no source unit, only how many it gave the decoder, and a segment is its
end frame. The semantic encoder's and the decoder's states are extended
only at writes. A write that may see ``visible`` units first shrinks and
semantic-encodes the units in [given, visible) over the cached ones.
Beam step 0 gives them to the decoder, which computes their
cross-attention keys and values once, with the rows of [EOS] + committed
it lacks: a row's cross-attention is fixed once the token it predicts is
committed, so from that write on it is final. Later beam steps score all
live hypotheses in one decoder call on a fork of that state, with no new
units, and leave it as it was. Both ends of every extension come from
the schedule (units visible, tokens committed), never from when audio
arrived, so row blocks, and with them float rounding, do not depend on
the chunking either.

Listening times d(y_i) are stamped with the minimal audio prefix that
completed the stride's required unit, which makes them invariant to how
the caller chunks the audio.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import metrics
from . import model as model_mod
from . import shrink as shrink_mod
from .autodiff import Tensor
from .data import EOS
from .model import Model, NonCausalEncoderError, visible_units

READ, WRITE, FINISH = "read", "write", "finish"


@dataclass(frozen=True)
class BeamHypothesis:
    tokens: tuple[int, ...]
    score: float  # cumulative log-probability
    ended: bool = False


@dataclass
class SessionStats:
    """Work one session did."""

    encoder_frames: int = 0  # acoustic encoder output frames computed
    acoustic_encode_calls: int = 0
    semantic_encode_calls: int = 0
    semantic_units: int = 0  # source units the semantic encoder encoded
    decode_logits_calls: int = 0
    hypotheses_scored: int = 0  # beam hypotheses the decoder scored a next token for
    beam_expansions: int = 0  # candidates made by extending a hypothesis by one token


@dataclass
class SessionResult:
    tokens: list[int]
    record: metrics.LatencyRecord
    trace: list[tuple[float, str, str]]
    n_units: int
    segment_count: Optional[int]  # segments detected by the CTC head, if any


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """The rows of ``chunks``, which are joined in place into one chunk."""
    if len(chunks) > 1:
        chunks[:] = [np.concatenate(chunks)]
    return chunks[0]


def _log_softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - math.log(np.exp(shifted).sum())


class StreamSession:
    """One simultaneous translation; strictly single-threaded. A given
    ``wait_k`` or ``stride_n`` replaces the one the model was trained with."""

    def __init__(self, model: Model, wait_k=None, stride_n=None, beam_size: int = 5, tgt_vocab=None):
        cfg = model.cfg
        if not cfg.unidirectional:
            raise NonCausalEncoderError(
                "streaming needs a unidirectional encoder; with bidirectional attention "
                "no frame is final before end-of-stream"
            )
        self.model = model
        self.wait_k = cfg.wait_k if wait_k is None else wait_k
        self.stride_n = cfg.stride_n if stride_n is None else stride_n
        model_mod.check_schedule(self.wait_k, self.stride_n)
        if not isinstance(beam_size, numbers.Integral) or beam_size < 1:
            raise ValueError(f"beam_size must be a positive integer, got {beam_size!r}")
        self.beam_size = beam_size
        self.tgt_vocab = tgt_vocab
        self.unit_kind = "segment" if (cfg.use_ctc and cfg.use_shrink) else "frame"
        self.stats = SessionStats()
        self._enc_state = model_mod.StreamState()
        self._n_fed = 0  # input frames pushed
        self._unencoded = np.zeros((0, cfg.d_feat), dtype=np.float32)  # pushed, not yet encoded
        self._states: list[np.ndarray] = []  # finalized acoustic states, in chunks
        self._posteriors: list[np.ndarray] = []  # their CTC rows, when CTC is on
        self._n_final = 0
        self._semantic = model_mod.StreamState()
        self._decoder = model_mod.StreamState()
        self._n_given = 0  # source units given to the decoder
        self._labels = np.zeros(0, dtype=np.int64)
        self._ends: list[int] = []  # end frame of each closed segment
        self._unit_ready_ms: list[float] = []
        self._committed: list[int] = []
        self._visibility: list[int] = []
        self._listen_ms: list[float] = []
        self._trace: list[tuple[float, str, str]] = []
        self._ended = False
        self._finished = False
        self._eos = False
        self._last_stamp: Optional[float] = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def units_completed(self) -> int:
        return len(self._unit_ready_ms)

    @property
    def ended(self) -> bool:
        return self._ended

    def _fed_ms(self) -> float:
        return self._n_fed * self.model.cfg.frame_ms

    def _total_frames_out(self) -> int:
        return model_mod.output_length(self.model.cfg, self._n_fed)

    def _total_ms(self) -> float:
        return self._total_frames_out() * self.model.cfg.output_frame_ms

    # -- encoding ------------------------------------------------------------

    def _finalized(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Finalized acoustic states and CTC rows, joined into one chunk each."""
        return _joined(self._states), (_joined(self._posteriors) if self._posteriors else None)

    def _advance(self, rows: np.ndarray, n_final: int, stamp: float, end: bool = False) -> None:
        """Encode ``rows``, the input since the last call, which makes frames
        [self._n_final, n_final) final, and close the segments they complete."""
        with ad.no_grad():
            states, posteriors = self.model.acoustic_encode(rows, state=self._enc_state, end=end)
        self.stats.acoustic_encode_calls += 1
        self.stats.encoder_frames += states.shape[0]
        self._states.append(states.data)
        if posteriors is not None:
            self._posteriors.append(posteriors.data)
        if self.unit_kind == "frame":
            for idx in range(self._n_final, n_final):
                self._unit_ready_ms.append(stamp)
                self._trace.append((stamp, "READ", f"frame={idx}"))
        else:
            self._labels = np.concatenate([self._labels, ctc_mod.greedy_path(posteriors)])
            for cut in ctc_mod.boundary_cuts(self._labels, max(self._n_final - 1, 0)):
                self._close_segment(int(cut), stamp)
        self._n_final = n_final

    def _close_segment(self, end: int, stamp: float) -> None:
        self._ends.append(end)
        self._unit_ready_ms.append(stamp)
        self._trace.append((stamp, "READ", f"segment={len(self._ends) - 1}"))

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
        rows = np.concatenate([self._unencoded, frames])
        first = self._n_fed - self._unencoded.shape[0]  # stream index of rows[0]
        horizon = model_mod.effective_lookahead_frames(cfg)
        for t in range(self._n_final, model_mod.finalized_frames(cfg, first + rows.shape[0])):
            # frame t is final once input t*downsample + horizon has arrived
            self._n_fed = t * cfg.downsample + horizon + 1
            self._advance(rows[: self._n_fed - first], t + 1, self._fed_ms())
            rows, first = rows[self._n_fed - first:], self._n_fed
        self._n_fed = first + rows.shape[0]
        self._unencoded = rows

    def end_stream(self) -> None:
        """No more audio: finalize every frame and close the last segment."""
        if self._ended:
            raise RuntimeError("end_stream called twice")
        self._ended = True
        cfg = self.model.cfg
        reason = model_mod.skip_reason(cfg, self._n_fed, ())
        if reason is not None:
            raise ValueError(f"stream ended too short to encode: {reason}")
        t_out = self._total_frames_out()
        total = self._total_ms()
        self._advance(self._unencoded, t_out, total, end=True)
        if self.unit_kind == "segment":
            # the open tail always closes at end-of-stream; an all-blank stream
            # yields this single segment so the decoder has at least one unit
            self._close_segment(t_out, total)

    # -- decoding --------------------------------------------------------------

    def _visible_source(self, visible: int) -> Tensor:
        """Source units [given, visible), after the ``given`` ones the decoder
        has seen; segments are shrunk and semantic-encoded here, over the
        cached units, so each unit is encoded once."""
        given, self._n_given = self._n_given, visible
        states, post = self._finalized()
        if self.unit_kind == "frame" or visible == given:
            return Tensor(states[given:visible])
        cfg = self.model.cfg
        lo, hi = (self._ends[given - 1] if given else 0), self._ends[visible - 1]
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
        the ``units`` it has not seen; row j sees the first ``vis_rows[j]``."""
        mask = np.arange(vis_rows[-1])[None, :] < np.array(vis_rows)[:, None]
        with ad.no_grad():
            logits = self.model.decode_logits(np.array(rows, dtype=np.int64), units, mask,
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

    def _stride_len(self) -> int:
        """Tokens the next write may commit. After end-of-stream the output
        is capped at 2 * units + 10 tokens, so a session always finishes."""
        if not self._ended:
            return self.stride_n
        return min(self.stride_n, 2 * self.units_completed + 10 - len(self._committed))

    def _write_stride(self) -> list[int]:
        """Beam search over the next stride; commits the best continuation."""
        if self._ended:
            visible = self.units_completed
            stamp = self._total_ms()
        else:
            visible = int(visible_units(self.wait_k, self.stride_n, len(self._committed)))
            stamp = self._unit_ready_ms[visible - 1]
        self._last_stamp = stamp
        best = self._beam_stride(self._visible_source(visible), visible, self._stride_len())[0]
        committed = []
        for tok in best.tokens:
            if tok == EOS:
                self._eos = True
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

    def _finish(self) -> tuple[str, None]:
        self._finished = True
        if self._ended:
            stamp = self._total_ms()
        else:
            stamp = self._last_stamp if self._last_stamp is not None else self._fed_ms()
        self._trace.append((stamp, "FINISH", ""))
        return FINISH, None

    def step(self) -> tuple[str, Optional[list[int]]]:
        """Advance the policy one action: read, write, or finish."""
        if self._finished:
            raise RuntimeError("step on a finished session")
        if self._eos or self._stride_len() < 1:
            return self._finish()
        budget = visible_units(self.wait_k, self.stride_n, len(self._committed))
        if not self._ended and self.units_completed < budget:
            return READ, None
        tokens = self._write_stride()
        if tokens:
            return WRITE, tokens
        return self._finish()

    def finalize(self, reference_length: Optional[int] = None) -> SessionResult:
        """Assemble the hypothesis, latency record, and trace."""
        if not self._finished:
            raise RuntimeError("finalize before the session finished")
        cfg = self.model.cfg
        total = self._total_ms()
        meta = (0.0, "META",
                f"frames={self._total_frames_out()} frame_ms={cfg.output_frame_ms} "
                f"total_ms={total:g} offset_ms={model_mod.effective_lookahead_ms(cfg)}")
        record = metrics.LatencyRecord(
            token_listen_ms=tuple(self._listen_ms),
            total_ms=total,
            source_frames=self._total_frames_out(),
            frame_ms=cfg.output_frame_ms,
            reference_length=reference_length if reference_length else max(len(self._committed), 1),
            lookahead_offset_ms=model_mod.effective_lookahead_ms(cfg),
        )
        seg_count = len(self._ends) if (cfg.use_ctc and self.unit_kind == "segment") else None
        return SessionResult(
            tokens=list(self._committed),
            record=record,
            trace=[meta] + self._trace,
            n_units=self.units_completed,
            segment_count=seg_count,
        )


def translate_stream(model: Model, features: np.ndarray, *, wait_k=None, stride_n=None,
                     beam_size: int = 5, chunk_frames: Optional[int] = None,
                     reference_length: Optional[int] = None, tgt_vocab=None) -> SessionResult:
    """Drive one utterance through a session, pushing fixed-size chunks."""
    chunk = model.cfg.downsample if chunk_frames is None else chunk_frames
    if not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(f"chunk_frames must be a positive integer, got {chunk_frames!r}")
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
