"""Collapsing per-frame encoder states into per-segment states.

Each segment becomes one vector: a softmax over the frames' non-blank
confidence mu * (1 - p_blank) weights the frames, so frames the alignment
head considers informative dominate. mu=0 degenerates to a plain average
and mu -> infinity to picking the single most confident frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ctc
from .autodiff import Tensor
from .data import check_real

MODES = ("weighted", "average", "drop_blank", "argmax_frame")


@dataclass(frozen=True)
class ShrinkConfig:
    temperature: float = 1.0
    mode: str = "weighted"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"shrink mode must be one of {MODES}, got {self.mode!r}")
        check_real("temperature", self.temperature, "[0, inf)")


def _check_inputs(states: Tensor, blank_probs: Tensor, ends) -> list[tuple[int, int]]:
    """Each segment's (start, stop) frames, once the inputs are checked."""
    t_frames, ends = states.shape[0], np.asarray(ends)
    if blank_probs.shape != (t_frames,):
        raise ad.ShapeError(f"blank_probs shape {blank_probs.shape} != ({t_frames},)")
    if (ends.ndim != 1 or ends.dtype.kind not in "iu" or ends[-1:].tolist() != [t_frames]
            or (np.diff(ends, prepend=0) < 1).any()):
        raise ValueError(f"segment ends {ends.tolist()} must be ints rising strictly from above 0 "
                         f"to the {t_frames} frames")
    if ((blank_probs.data < 0) | (blank_probs.data > 1)).any():
        raise ValueError("blank probabilities must lie in [0, 1]")
    return list(zip([0, *ends[:-1].tolist()], ends.tolist()))


def _shrink(states: Tensor, blank_probs: Tensor | None, spans: list[tuple[int, int]], mu: float,
            weights: list[np.ndarray] | None) -> Tensor:
    """Row i = w_i @ states[segment i], all segments in one recorded op.

    Segment i spans the frames ``spans[i]``. w_i is the constant row
    ``weights[i]`` when given; otherwise the softmax over the segment's
    frames of mu * (1 - p_blank), and gradients also flow into
    ``blank_probs``. Each segment keeps the arithmetic of a chain of
    primitive ops (scale, max-shifted softmax, a [1, n] @ [n, d] matmul),
    so outputs and gradients equal that chain's bit for bit.
    """
    dtype = states.data.dtype
    if weights is None:
        weights = []
        for start, stop in spans:
            conf = (np.asarray(1.0, dtype=dtype) - blank_probs.data[start:stop]) * mu
            e = np.exp(conf - conf.max(axis=-1, keepdims=True))
            weights.append((e / e.sum(axis=-1, keepdims=True)).reshape(1, stop - start))
        inputs = (states, blank_probs)
    else:
        inputs = (states,)
    out = np.concatenate([w @ states.data[start:stop] for w, (start, stop) in zip(weights, spans)])

    def vjp(g):
        g_states = np.zeros_like(states.data)
        g_blank = None if len(inputs) == 1 else np.zeros_like(blank_probs.data)
        for i, (w, (start, stop)) in enumerate(zip(weights, spans)):
            g_row = g[i:i + 1]
            g_states[start:stop] = w.T @ g_row
            if g_blank is not None:
                y = w.reshape(stop - start)
                g_w = (g_row @ states.data[start:stop].T).reshape(stop - start)
                g_blank[start:stop] = -((y * (g_w - (g_w * y).sum(axis=-1, keepdims=True))) * mu)
        return (g_states,) if g_blank is None else (g_states, g_blank)

    return ad.record_op(out, inputs, vjp)


def shrink_states(states: Tensor, blank_probs: Tensor, path, ends, cfg: ShrinkConfig) -> Tensor:
    """One output row per segment, one recorded op: segment i spans frames
    [ends[i-1], ends[i]), from frame 0 for i = 0, with ``ends`` rising
    strictly to the frame count as ``ctc.detect_boundaries`` gives them.
    The mode picks each segment's frame weights: ``weighted`` the softmax
    of temperature * (1 - p_blank), ``average`` equal ones,
    ``argmax_frame`` the earliest frame of least blank probability, and
    ``drop_blank`` (the prior-work baseline) an average of the frames the
    greedy ``path`` labels non-blank, of all of them when every one is
    blank. Gradients flow into states and, in the first two modes,
    blank_probs."""
    spans = _check_inputs(states, blank_probs, ends)
    if cfg.mode in ("weighted", "average"):
        return _shrink(states, blank_probs, spans, cfg.temperature if cfg.mode == "weighted" else 0.0, None)
    if cfg.mode == "drop_blank" and len(path) != states.shape[0]:
        raise ValueError(f"path has {len(path)} labels, states have {states.shape[0]} frames")
    weights = []
    for start, stop in spans:
        if cfg.mode == "argmax_frame":
            keep = np.arange(stop - start) == np.argmin(blank_probs.data[start:stop])
        else:
            keep = np.asarray(path[start:stop]) != ctc.BLANK
            if not keep.any():
                keep = np.ones(stop - start, dtype=bool)
        weights.append((keep / keep.sum()).astype(states.data.dtype).reshape(1, -1))
    return _shrink(states, None, spans, 0.0, weights)
