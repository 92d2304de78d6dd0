"""CTC alignment machinery over per-frame posterior grids.

A posterior grid is a Tensor of shape [T', |V|+1]: one distribution per
downsampled frame, blank fixed as the LAST column. The negative
log-likelihood runs the forward algorithm in log space (float64), its
backward variable being the same recursion over the reversed lattice
(Graves et al., 2006), with a hand-written gradient w.r.t. the grid that
composes with the autodiff tape through the upstream log-softmax.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class InfeasibleAlignmentError(ValueError):
    """The label sequence admits no CTC path of the given length."""


BLANK = -1  # blank marker in label-sequence form (grids keep blank as the last column)
BLANK_PENALTY_MODES = ("argmax_blank_frames", "all_frames")


@dataclass(frozen=True)
class SegmentSet:
    """Ordered half-open frame intervals partitioning [0, total_frames)."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("SegmentSet needs at least one interval")
        if self.intervals[0][0] != 0:
            raise ValueError("first segment must start at frame 0")
        for (s, e), (s2, _) in zip(self.intervals, self.intervals[1:]):
            if e != s2:
                raise ValueError(f"gap or overlap at frame {e}")
        for s, e in self.intervals:
            if e <= s:
                raise ValueError(f"empty segment [{s}, {e})")

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def total_frames(self) -> int:
        return self.intervals[-1][1]


def min_path_length(labels) -> int:
    """Shortest frame count admitting a valid path: repeats need a blank."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0
    return int(labels.size + (labels[1:] == labels[:-1]).sum())


def _extended_labels(labels: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * labels.size + 1, blank, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _forward(lab: np.ndarray, ext: np.ndarray, blank: int) -> np.ndarray:
    """Log mass of the paths that reach each (frame, state) before that
    frame's emission, for emission log-probs ``lab`` [T, S] over the
    extended labels ``ext``. Beta is this recursion over the reversed
    lattice: its skip rule holds there too, since ``ext[s]`` and
    ``ext[s+2]`` are both blank or both labels."""
    before = np.full(lab.shape, -np.inf)
    before[0, :2] = 0.0
    skip_ok = np.zeros(ext.size, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    for t in range(1, lab.shape[0]):
        alpha = before[t - 1] + lab[t - 1]
        acc = np.logaddexp(alpha, np.concatenate([[-np.inf], alpha[:-1]]))
        skip = np.concatenate([[-np.inf, -np.inf], alpha[:-2]])
        before[t] = np.where(skip_ok, np.logaddexp(acc, skip), acc)
    return before


def ctc_nll(log_posteriors: Tensor, labels) -> Tensor:
    """-ln of the total probability of all paths collapsing to ``labels``,
    from a grid of log posteriors (a log-softmax stays finite where a
    float32 softmax underflows to zero)."""
    labels = np.asarray(labels, dtype=np.int64)
    t_frames, width = log_posteriors.shape
    blank = width - 1
    if labels.size == 0:
        raise ValueError("ctc_nll: empty label sequence")
    if ((labels < 0) | (labels >= blank)).any():
        raise ValueError(f"ctc_nll: labels must lie in [0, {blank})")
    need = min_path_length(labels)
    if t_frames < need:
        raise InfeasibleAlignmentError(
            f"{t_frames} frames cannot align {labels.size} labels (need >= {need})"
        )

    ext = _extended_labels(labels, blank)
    lab = log_posteriors.data.astype(np.float64)[:, ext]  # [T, S] emission log-probs per extended state
    alpha = _forward(lab, ext, blank) + lab
    log_z = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    # beta excludes the emission at its own frame: the forward pass over the reversed lattice
    beta = _forward(lab[::-1, ::-1], ext[::-1], blank)[::-1, ::-1]
    occupancy = alpha + beta  # log path mass through each (frame, state)

    def vjp(g):
        # d(-ln Z)/d(ln p[t, k]) is minus the posterior occupancy of label k at frame t
        grad = np.zeros_like(log_posteriors.data, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            contrib = np.exp(occupancy - log_z)
        contrib[~np.isfinite(contrib)] = 0.0
        np.subtract.at(grad.T, ext, contrib.T)  # unbuffered: states sharing a label all count
        return (float(g) * grad.astype(log_posteriors.data.dtype),)

    value = np.asarray(-log_z, dtype=log_posteriors.data.dtype)
    return ad.record_op(value, (log_posteriors,), vjp)


def greedy_path(posteriors) -> np.ndarray:
    """Per-frame argmax labels; blank mapped to the BLANK sentinel.

    Ties break toward the lowest index, so a non-blank label beats an
    equally probable blank (blank sits in the last column).
    """
    grid = posteriors.data if isinstance(posteriors, Tensor) else np.asarray(posteriors)
    blank = grid.shape[1] - 1
    path = grid.argmax(axis=1)
    return np.where(path == blank, BLANK, path)


def boundary_cuts(path, start: int = 0) -> np.ndarray:
    """Frames that open a segment, scanning from frame ``start``: a boundary
    sits between frames t and t+1 (t >= start) when frame t is non-blank
    and frame t+1 carries a different label. It becomes known with frame
    t+1, so a stream that extends its path rescans from its last old frame."""
    path = np.asarray(path)
    prev, nxt = path[start:-1], path[start + 1:]
    return np.flatnonzero((prev != BLANK) & (nxt != prev)) + start + 1


def detect_boundaries(path, lengths=None) -> SegmentSet:
    """Segment a label path at its ``boundary_cuts``. Leading and trailing
    blanks fold into the first and last segments. ``lengths`` splits the
    path into consecutive sequences, each segmented as if alone: every
    sequence also opens a segment."""
    path = np.asarray(path)
    if path.size < 1:
        raise ValueError("detect_boundaries: empty path")
    lengths = np.array([path.size] if lengths is None else lengths, dtype=np.int64)
    if lengths.sum() != path.size or (lengths < 1).any():
        raise ValueError(f"detect_boundaries: lengths {lengths.tolist()} do not split {path.size} frames")
    # a cut between two sequences is one of their starts, so the union leaves each one's own cuts
    cuts = [*np.union1d(np.cumsum(lengths) - lengths, boundary_cuts(path)).tolist(), path.size]
    return SegmentSet(tuple(zip(cuts[:-1], cuts[1:])))


def blank_penalty(posteriors: Tensor, mode: str = "argmax_blank_frames") -> Tensor:
    """Accumulated blank posterior mass, per the blank-limited loss.

    ``argmax_blank_frames`` sums p(blank) over frames whose argmax label is
    blank (the argmax selection is held constant for gradients);
    ``all_frames`` sums p(blank) over every frame.
    """
    if mode not in BLANK_PENALTY_MODES:
        raise ValueError(f"blank_penalty_mode must be one of {BLANK_PENALTY_MODES}, got {mode!r}")
    blank = posteriors.shape[1] - 1
    if mode == "argmax_blank_frames":
        sel = (posteriors.data.argmax(axis=1) == blank).astype(posteriors.data.dtype)
    else:
        sel = np.ones(posteriors.shape[0], dtype=posteriors.data.dtype)
    return ad.reduce_sum(ad.mul(ad.col(posteriors, blank), Tensor(sel, dtype=posteriors.data.dtype)))


def blank_limited_ctc_loss(
    log_posteriors: Tensor,
    posteriors: Tensor,
    transcripts,
    lengths,
    lam: float,
    mode: str = "argmax_blank_frames",
) -> Tensor:
    """Mean over utterances of ctc_nll plus ``lam`` times the blank penalty.

    ``log_posteriors`` and ``posteriors`` are one grid of consecutive
    utterances, ``lengths[i]`` frames each, in log and linear form;
    ``transcripts[i]`` are utterance i's labels. The NLL runs per
    utterance on its rows of the log grid; the penalty is a sum over
    frames, so the whole grid's penalty is the sum of the utterances'.
    """
    if lam < 0:
        raise ValueError(f"blank penalty weight must be >= 0, got {lam}")
    if len(transcripts) != len(lengths) or sum(lengths) != log_posteriors.shape[0]:
        raise ValueError(f"{len(transcripts)} transcripts and lengths {list(lengths)} do not "
                         f"split {log_posteriors.shape[0]} frames")
    ends = np.cumsum(lengths)
    terms = [ctc_nll(ad.rows(log_posteriors, end - n, end), labels)
             for labels, n, end in zip(transcripts, lengths, ends)]
    if lam != 0.0:
        terms.append(ad.scale(blank_penalty(posteriors, mode), lam))
    return ad.scale(functools.reduce(ad.add, terms), 1.0 / len(transcripts))


def shrink_quality(segment_counts, transcript_lengths) -> dict[int, float]:
    """Fraction of utterances whose |#segments - transcript length| <= 2, 4, 6."""
    counts = np.asarray(segment_counts, dtype=np.int64)
    lengths = np.asarray(transcript_lengths, dtype=np.int64)
    if counts.size == 0 or counts.size != lengths.size:
        raise ValueError("shrink_quality: need one segment count per transcript")
    diff = np.abs(counts - lengths)
    return {n: float((diff <= n).mean() * 100.0) for n in (2, 4, 6)}
