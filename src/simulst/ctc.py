"""CTC alignment machinery over per-frame posterior grids.

A posterior grid has shape [T', |V|+1]: one distribution per downsampled
frame, blank fixed as the LAST column. The negative log-likelihood runs
the forward algorithm in log space (float64), its backward variable being
the same recursion over the reversed lattice (Graves et al., 2006). The
utterances of a packed grid share one padded lattice, so the forward and
backward variables of all of them take one loop over frames. The
blank-limited loss over a packed grid of utterances is one op whatever
their number, with a hand-written gradient w.r.t. the log and linear grids.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class InfeasibleAlignmentError(ValueError):
    """The label sequence admits no CTC path of the given length."""


BLANK = -1  # blank marker in label-sequence form (grids keep blank as the last column)
BLANK_PENALTY_MODES = ("argmax_blank_frames", "all_frames")


def min_path_length(labels) -> int:
    """Shortest frame count admitting a valid path: repeats need a blank."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0
    return int(labels.size + (labels[1:] == labels[:-1]).sum())


def _checked_labels(labels, t_frames: int, blank: int) -> np.ndarray:
    """``labels`` as int64, once they are known to be non-empty, to lie
    below ``blank`` and to admit a path of ``t_frames`` frames."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("CTC: empty label sequence")
    if ((labels < 0) | (labels >= blank)).any():
        raise ValueError(f"CTC: labels must lie in [0, {blank})")
    need = min_path_length(labels)
    if t_frames < need:
        raise InfeasibleAlignmentError(f"{t_frames} frames cannot align {labels.size} labels (need >= {need})")
    return labels


def _skip_ok(ext: np.ndarray, blank: int) -> np.ndarray:
    """Which states of the extended label rows ``ext`` [B, S] a path may
    enter from two states back: a label unlike the one before its blank."""
    ok = np.zeros(ext.shape, dtype=bool)
    ok[:, 2:] = (ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])
    return ok


def _forward(lab: np.ndarray, skip_ok: np.ndarray) -> np.ndarray:
    """Log mass of the paths that reach each (frame, state) before that
    frame's emission, for a batch of emission log-prob grids ``lab``
    [B, T, S] padded with -inf, whose states ``skip_ok`` [B, S] may be
    entered from two states back. Padding gets no mass onto a real state:
    a state reads only lower ones, and a frame only earlier ones."""
    before = np.full(lab.shape, -np.inf)
    before[:, 0, :2] = 0.0
    shifted = np.full((lab.shape[0], lab.shape[2] + 2), -np.inf)  # shifted[:, s + 2] is alpha[:, s]
    for t in range(1, lab.shape[1]):
        alpha = before[:, t - 1] + lab[:, t - 1]
        shifted[:, 2:] = alpha
        acc = np.logaddexp(alpha, shifted[:, 1:-1])
        before[:, t] = np.where(skip_ok, np.logaddexp(acc, shifted[:, :-2]), acc)
    return before


def _nll(log_posteriors: np.ndarray, transcripts, lengths) -> tuple:
    """-ln of the total probability of all paths collapsing to each
    utterance's labels, from an array of log posteriors [sum(lengths),
    |V|+1] of consecutive utterances of ``lengths`` frames (a log-softmax
    stays finite where a float32 softmax underflows to zero), in float64;
    and a function that gives their sum's float64 gradient w.r.t. the log
    posteriors.

    All utterances share one lattice: a [B, T_max, S_max] grid of
    emission log-probs over the extended labels (a blank between, before
    and after the labels), padded with -inf. Beta is the forward
    recursion over each utterance's own reversed block: its skip rule
    holds there too, since ``ext[s]`` and ``ext[s+2]`` are both blank or
    both labels. Alpha and beta run as one batch, one loop over frames;
    each utterance's total is read at its own last frame and states. The
    per-element arithmetic is that of one utterance's lattice alone."""
    blank = log_posteriors.shape[1] - 1
    frames = np.asarray(lengths, dtype=np.int64)
    labels = [_checked_labels(y, n, blank) for y, n in zip(transcripts, frames)]
    states = np.array([2 * y.size + 1 for y in labels])
    B, t_at, s_at = len(labels), np.arange(frames.max()), np.arange(states.max())
    ext = np.full((B, s_at.size), blank, dtype=np.int64)
    for b, y in enumerate(labels):
        ext[b, 1:2 * y.size:2] = y
    t_ok, s_ok = t_at < frames[:, None], s_at < states[:, None]
    ok = t_ok[:, :, None] & s_ok[:, None, :]
    rows = (np.cumsum(frames) - frames)[:, None, None] + np.where(t_ok, t_at, 0)[:, :, None]  # [B, T, 1]
    t_rev = np.where(t_ok, frames[:, None] - 1 - t_at, 0)
    s_rev = np.where(s_ok, states[:, None] - 1 - s_at, 0)

    def reversed_blocks(a: np.ndarray) -> np.ndarray:
        # each utterance's block of a [B, T, S] grid reversed in frames and states, padded with -inf
        return np.where(ok, a[np.arange(B)[:, None, None], t_rev[:, :, None], s_rev[:, None, :]], -np.inf)

    lab = np.where(ok, log_posteriors.astype(np.float64)[rows, ext[:, None, :]], -np.inf)
    skip_ok = _skip_ok(ext, blank), _skip_ok(np.take_along_axis(ext, s_rev, axis=1), blank)
    before = _forward(np.concatenate([lab, reversed_blocks(lab)]), np.concatenate(skip_ok))
    alpha = before[:B] + lab
    last = (np.arange(B), frames - 1)
    log_z = np.logaddexp(alpha[last + (states - 1,)], alpha[last + (states - 2,)])
    beta = reversed_blocks(before[B:])  # excludes the emission at its own frame
    occupancy = alpha + beta  # log path mass through each (frame, state)

    def gradient() -> np.ndarray:
        # d(-ln Z)/d(ln p[t, k]) is minus the posterior occupancy of label k at frame t
        grad = np.zeros(log_posteriors.shape)
        with np.errstate(invalid="ignore"):
            contrib = np.exp(occupancy - log_z[:, None, None])
        contrib[~np.isfinite(contrib)] = 0.0
        at = (np.broadcast_to(rows, ok.shape)[ok], np.broadcast_to(ext[:, None, :], ok.shape)[ok])
        np.subtract.at(grad, at, contrib[ok])  # unbuffered, states in order: those sharing a label all count
        return grad

    return -log_z, gradient


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


def detect_boundaries(path, lengths=None) -> np.ndarray:
    """The end frames, ascending to the path's length, of the segments a
    label path splits into at its ``boundary_cuts``; leading and trailing
    blanks fold into the first and last segments. ``lengths`` splits the
    path into consecutive sequences, each segmented as if alone."""
    path = np.asarray(path)
    if path.size < 1:
        raise ValueError("detect_boundaries: empty path")
    lengths = np.array([path.size] if lengths is None else lengths, dtype=np.int64)
    if lengths.sum() != path.size or (lengths < 1).any():
        raise ValueError(f"detect_boundaries: lengths {lengths.tolist()} do not split {path.size} frames")
    # a cut at a sequence's start is the previous sequence's end, so the union holds each once
    return np.union1d(np.cumsum(lengths), boundary_cuts(path))


def blank_limited_ctc_loss(
    log_posteriors: Tensor,
    posteriors: Tensor,
    transcripts,
    lengths,
    lam: float,
    mode: str = "argmax_blank_frames",
) -> Tensor:
    """Mean over utterances of the CTC NLL plus ``lam`` times the blank
    penalty, as one op.

    ``log_posteriors`` and ``posteriors`` are one grid of consecutive
    utterances, ``lengths[i]`` frames each, in log and linear form;
    ``transcripts[i]`` are utterance i's labels. The NLLs come from one
    lattice over all utterances' rows of the log grid (``_nll``). The
    penalty is the accumulated blank posterior mass:
    ``argmax_blank_frames`` sums p(blank) over frames whose argmax label
    is blank (the selection is held constant for gradients),
    ``all_frames`` over every frame. The terms add up in the grid's dtype,
    the NLLs in order, then the penalty: the arithmetic, gradients
    included, of a chain of one op per term.
    """
    if lam < 0:
        raise ValueError(f"blank penalty weight must be >= 0, got {lam}")
    if mode not in BLANK_PENALTY_MODES:
        raise ValueError(f"blank_penalty_mode must be one of {BLANK_PENALTY_MODES}, got {mode!r}")
    if not len(transcripts) or len(transcripts) != len(lengths) or sum(lengths) != log_posteriors.shape[0]:
        raise ValueError(f"{len(transcripts)} transcripts and lengths {list(lengths)} do not "
                         f"split {log_posteriors.shape[0]} frames")
    grid, probs = log_posteriors.data, posteriors.data
    nlls, gradient = _nll(grid, transcripts, lengths)
    total = None
    for nll in nlls:
        term = np.asarray(nll, dtype=grid.dtype)
        total = term if total is None else total + term
    if lam != 0.0:
        blank = probs.shape[1] - 1
        sel = (probs.argmax(axis=1) == blank if mode == "argmax_blank_frames"
               else np.ones(probs.shape[0], dtype=bool)).astype(probs.dtype)
        total = total + np.asarray((probs[:, blank] * sel).sum()) * lam
    mean = 1.0 / len(transcripts)

    def vjp(g):
        # the NLLs' gradient on every row, the penalty's on the blank column
        g = g * mean
        g_log = float(g) * gradient().astype(grid.dtype)
        if lam == 0.0:
            return g_log, None
        g_probs = np.zeros_like(probs)
        g_probs[:, blank] = np.broadcast_to(g * lam, sel.shape).astype(probs.dtype) * sel
        return g_log, g_probs

    return ad.record_op(total * mean, (log_posteriors, posteriors), vjp)


def shrink_quality(segment_counts, transcript_lengths) -> dict[int, float]:
    """Fraction of utterances whose |#segments - transcript length| <= 2, 4, 6."""
    counts = np.asarray(segment_counts, dtype=np.int64)
    lengths = np.asarray(transcript_lengths, dtype=np.int64)
    if counts.size == 0 or counts.size != lengths.size:
        raise ValueError("shrink_quality: need one segment count per transcript")
    diff = np.abs(counts - lengths)
    return {n: float((diff <= n).mean() * 100.0) for n in (2, 4, 6)}
