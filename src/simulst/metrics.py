"""Latency metrics (average proportion, average lagging) and corpus BLEU,
plus writers for the per-utterance report and the streaming engine's
action traces.

Trace line: ``utt_id <TAB> wall_ms <TAB> ACTION <TAB> payload`` where ACTION
is META (frames/frame_ms/total_ms/offset_ms key=value pairs), READ, WRITE
(payload: the committed tokens, space-joined), or FINISH.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyRecord:
    """Per-token listening durations for one utterance, in milliseconds."""

    token_listen_ms: tuple[float, ...]  # d(y_i), non-decreasing
    total_ms: float  # source_frames * frame_ms
    source_frames: int  # post-encoder frame count
    frame_ms: float  # audio represented by one post-encoder frame
    reference_length: int
    lookahead_offset_ms: float = 0.0

    def __post_init__(self):
        d = self.token_listen_ms
        if any(x < 0 or x > self.total_ms + 1e-9 for x in d):
            raise ValueError("listening durations must lie in [0, total duration]")
        if any(b < a for a, b in zip(d, d[1:])):
            raise ValueError("listening durations must be non-decreasing")


def average_proportion(rec: LatencyRecord) -> float:
    """Mean fraction of the source consumed per emitted token, in (0, 1]."""
    n = len(rec.token_listen_ms)
    if n == 0:
        raise ValueError("average_proportion needs at least one token")
    if rec.total_ms <= 0 or rec.source_frames <= 0:
        raise ValueError("average_proportion needs a positive source duration")
    frames_listened = sum(d / rec.frame_ms for d in rec.token_listen_ms)
    return frames_listened / (rec.source_frames * n)


def average_lagging(rec: LatencyRecord) -> float:
    """Mean milliseconds behind an ideally synchronized translator, plus the
    encoder's fixed look-ahead offset."""
    d = rec.token_listen_ms
    if not d:
        raise ValueError("average_lagging needs at least one token")
    if rec.reference_length <= 0:
        raise ValueError("average_lagging needs a nonempty reference")
    tau = len(d)
    for i, x in enumerate(d, start=1):
        if x >= rec.total_ms:
            tau = i
            break
    rate = rec.source_frames / rec.reference_length * rec.frame_ms
    lag = sum(d[i] - rate * i for i in range(tau)) / tau
    return lag + rec.lookahead_offset_ms


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

BLEU_ORDER = 4  # the longest n-gram scored


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references) -> float:
    """Corpus-level BLEU in [0, 100]: geometric mean of modified n-gram
    precisions, n up to ``BLEU_ORDER``, times the brevity penalty.
    Whitespace/plain-token n-grams, case-sensitive; any zero precision
    zeroes the score."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("corpus_bleu needs at least one pair")
    hyp_len = 0
    ref_len = 0
    matched = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            total[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    log_precision = 0.0
    orders = 0
    for n in range(BLEU_ORDER):
        if total[n] == 0:
            continue
        if matched[n] == 0:
            return 0.0
        log_precision += math.log(matched[n] / total[n])
        orders += 1
    if orders == 0 or hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision / orders)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def write_trace_file(path, entries) -> None:
    """entries: iterable of (utt_id, trace) with trace = [(ms, action, payload)]."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, trace in entries:
            for ms, action, payload in trace:
                fh.write(f"{utt_id}\t{ms:g}\t{action}\t{payload}\n")


def summarize(utterances) -> dict:
    """BLEU over all utterances, mean AP and AL over those with a
    hypothesis, and one report row per utterance. ``utterances`` yields
    ``(utt_id, hypothesis tokens, reference tokens, LatencyRecord)``."""
    rows = []
    hyps, refs = [], []
    ap_values, al_values = [], []
    for utt_id, hyp, ref, rec in utterances:
        ap = al = float("nan")
        if hyp:
            ap = average_proportion(rec)
            al = average_lagging(rec)
            ap_values.append(ap)
            al_values.append(al)
        hyps.append(hyp)
        refs.append(ref)
        rows.append({
            "id": utt_id,
            "hypothesis": " ".join(hyp),
            "reference": " ".join(ref),
            "ap": ap,
            "al": al,
        })
    return {
        "bleu": corpus_bleu(hyps, refs) if hyps else float("nan"),
        "mean_ap": sum(ap_values) / len(ap_values) if ap_values else float("nan"),
        "mean_al": sum(al_values) / len(al_values) if al_values else float("nan"),
        "rows": rows,
    }


def write_report(path, summary: dict, extra: dict | None = None) -> str:
    """TSV report: one row per utterance plus a SUMMARY row, which is
    returned."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\thypothesis\treference\tAP\tAL\n")
        for row in summary["rows"]:
            fh.write(f"{row['id']}\t{row['hypothesis']}\t{row['reference']}\t"
                     f"{row['ap']:.4f}\t{row['al']:.1f}\n")
        fields = {"BLEU": f"{summary['bleu']:.2f}",
                  "mean_AP": f"{summary['mean_ap']:.4f}",
                  "mean_AL": f"{summary['mean_al']:.1f}"}
        for key, val in (extra or {}).items():
            fields[key] = str(val)
        line = "SUMMARY\t" + " ".join(f"{k}={v}" for k, v in fields.items())
        fh.write(f"{line}\t\t\t\n")
    return line
