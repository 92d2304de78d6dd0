import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import metrics


def record(d, total=800.0, frames=10, frame_ms=80.0, ref=5, offset=140.0):
    return metrics.LatencyRecord(
        token_listen_ms=tuple(d),
        total_ms=total,
        source_frames=frames,
        frame_ms=frame_ms,
        reference_length=ref,
        lookahead_offset_ms=offset,
    )


class TestAverageProportion:
    def test_fully_offline_is_one(self):
        rec = record([800.0] * 5)
        assert metrics.average_proportion(rec) == pytest.approx(1.0)

    def test_arithmetic_series(self):
        # d_i = (i/4) * total for 4 tokens -> (1+2+3+4)/16
        rec = record([200.0, 400.0, 600.0, 800.0], ref=4)
        assert metrics.average_proportion(rec) == pytest.approx(0.625)

    def test_single_token_half_audio(self):
        rec = record([400.0], ref=1)
        assert metrics.average_proportion(rec) == pytest.approx(0.5)

    def test_decreasing_any_d_lowers_ap(self):
        base = metrics.average_proportion(record([400.0, 800.0]))
        lower = metrics.average_proportion(record([320.0, 800.0]))
        assert lower < base

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            metrics.average_proportion(record([]))


class TestAverageLagging:
    def test_hand_case_300(self):
        rec = record([160.0, 320.0, 480.0, 640.0, 800.0])
        assert metrics.average_lagging(rec) == pytest.approx(300.0)

    def test_in_sync_equals_offset(self):
        d = [160.0 * i for i in range(5)]  # d_1 = 0, perfectly synced
        rec = record(d)
        assert metrics.average_lagging(rec) == pytest.approx(140.0)

    def test_fully_offline_single_token(self):
        rec = record([800.0], ref=1)
        assert metrics.average_lagging(rec) == pytest.approx(800.0 + 140.0)

    def test_zero_offset_in_sync_is_zero(self):
        d = [160.0 * i for i in range(5)]
        rec = record(d, offset=0.0)
        assert metrics.average_lagging(rec) == pytest.approx(0.0)

    def test_tau_stops_at_first_full_consumption(self):
        # token 2 already consumed everything; later tokens are ignored
        rec = record([400.0, 800.0, 800.0, 800.0], ref=4, offset=0.0)
        expected = ((400.0 - 0.0) + (800.0 - 200.0)) / 2
        assert metrics.average_lagging(rec) == pytest.approx(expected)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            metrics.average_lagging(record([100.0], ref=0))


class TestLatencyRecordValidation:
    def test_decreasing_d_rejected(self):
        with pytest.raises(ValueError):
            record([500.0, 400.0])

    def test_over_total_rejected(self):
        with pytest.raises(ValueError):
            record([900.0])


class TestCorpusBleu:
    def test_identity_is_100(self):
        pairs = [["a", "b", "c"], ["x", "y"]]
        assert metrics.corpus_bleu(pairs, pairs) == pytest.approx(100.0)

    def test_zero_overlap_is_zero(self):
        assert metrics.corpus_bleu([["a", "b"]], [["c", "d"]]) == 0.0

    def test_brevity_penalty_closed_form(self):
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d", "e"]]
        assert metrics.corpus_bleu(hyp, ref) == pytest.approx(100.0 * math.exp(-0.25), abs=1e-6)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics.corpus_bleu([["a"]], [["a"], ["b"]])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        vocab = list("abcdefg")
        hyps = [[vocab[i] for i in rng.integers(0, 7, size=rng.integers(1, 8))] for _ in range(5)]
        refs = [[vocab[i] for i in rng.integers(0, 7, size=rng.integers(1, 8))] for _ in range(5)]
        base = metrics.corpus_bleu(hyps, refs)
        perm = rng.permutation(5)
        shuffled = metrics.corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm])
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestTraces:
    def _trace_lines(self):
        return [
            (0.0, "META", "frames=10 frame_ms=80 total_ms=800 offset_ms=140"),
            (160.0, "READ", "segment=0"),
            (160.0, "WRITE", "hello"),
            (320.0, "WRITE", "world again"),
            (800.0, "FINISH", ""),
        ]

    def test_trace_file_lines(self, tmp_path):
        path = tmp_path / "trace.tsv"
        metrics.write_trace_file(path, [("u1", self._trace_lines()), ("u2", self._trace_lines()[:1])])
        lines = path.read_text().splitlines()
        assert lines[0] == "u1\t0\tMETA\tframes=10 frame_ms=80 total_ms=800 offset_ms=140"
        assert lines[3] == "u1\t320\tWRITE\tworld again"
        assert lines[-1].startswith("u2\t0\tMETA\t")
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_report_file(self, tmp_path):
        hyp = ["hello", "world", "again"]
        summary = metrics.summarize([("u1", hyp, hyp, record([160.0, 320.0, 320.0], ref=3))])
        report = tmp_path / "report.tsv"
        line = metrics.write_report(report, summary, extra={"diff_le_2": "100.0"})
        text = report.read_text()
        assert text.startswith("id\t")
        assert "SUMMARY" in text and "BLEU=100.00" in text and "diff_le_2=100.0" in text
        assert text.splitlines()[-1].startswith(line)
