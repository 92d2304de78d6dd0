import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("stream_curve", REPO / "tools" / "stream_curve.py")
stream_curve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stream_curve)
run = stream_curve.run

ROW_S = 1e-3  # the stubbed clock's seconds per streamed input row


class FakeHost:
    """A stubbed clock that an encode call advances by ``ROW_S`` per row, and
    a ``run.HostReference`` stand-in whose samples cycle through ``samples``."""

    def __init__(self, samples):
        self.now, self.samples, self.taken, self.calls = 0.0, samples, [], []

    def perf_counter(self):
        return self.now

    def encode(self, rows, end):
        self.calls.append((rows.shape[0], end))
        self.now += rows.shape[0] * ROW_S

    def sample(self):
        self.taken.append(self.samples[len(self.taken) % len(self.samples)])
        return self.taken[-1]

    def typical_s(self):
        return float(np.median(self.taken))


@pytest.fixture
def host(monkeypatch):
    fake = FakeHost([run.REFERENCE_S, 2 * run.REFERENCE_S, run.REFERENCE_S / 2])
    monkeypatch.setattr(stream_curve, "time", types.SimpleNamespace(perf_counter=fake.perf_counter))
    return fake


def test_each_stretch_is_scaled_by_the_sample_after_it(host):
    # stretches of 1,600, 1,600 and 800 rows at 1x, 0.5x and 2x reference speed
    total = stream_curve.scaled_stream(host.encode, np.zeros((4000, 2)), host)
    assert total == pytest.approx(1.6 + 1.6 / 2 + 0.8 * 2)
    assert len(host.taken) == 3
    assert host.calls[:-1] == [(run.CHUNK_FRAMES, False)] * (4000 // run.CHUNK_FRAMES)
    assert host.calls[-1] == (0, True)  # the stream ends inside the last stretch


def test_curve_gives_best_median_and_ratio():
    per_frame, ratio = stream_curve.curve({1600: [[3.2], [1.6], [2.4]], 12800: [[19.2], [38.4], [25.6]]})
    assert per_frame["1600"] == pytest.approx({"best_ms_per_frame": 1.0, "median_ms_per_frame": 1.5})
    assert per_frame["12800"] == pytest.approx({"best_ms_per_frame": 1.5, "median_ms_per_frame": 2.0})
    assert ratio == pytest.approx(1.5)


def test_curve_takes_the_best_of_each_repeats_mean():
    # four short streams per repeat, one long one: a repeat's short time is its four's mean,
    # so the one fast short stream (0.8 s) sets no best on its own
    short = [[2.4, 0.8, 1.6, 1.6], [1.6, 1.6, 3.2, 3.2], [3.2, 3.2, 3.2, 3.2]]
    per_frame, ratio = stream_curve.curve({1600: short, 12800: [[19.2], [25.6], [38.4]]})
    assert per_frame["1600"] == pytest.approx({"best_ms_per_frame": 1.0, "median_ms_per_frame": 1.5})
    assert per_frame["12800"] == pytest.approx({"best_ms_per_frame": 1.5, "median_ms_per_frame": 2.0})
    assert ratio == pytest.approx(1.5)


def test_main_streams_every_length_each_repeat(host, monkeypatch, capsys):
    model = types.SimpleNamespace(cfg=types.SimpleNamespace(d_feat=2),
                                  acoustic_encode=lambda rows, state, end: host.encode(rows, end))
    monkeypatch.setattr(run, "load_weights", lambda: (None, model))
    monkeypatch.setattr(run, "HostReference", lambda: host)
    assert stream_curve.main(["--repeats", "2"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line["repeats"], line["chunk_frames"]) == (2, run.CHUNK_FRAMES)
    # a warm-up stream, then per repeat the shortest four times and each longer length once;
    # one end per stream and one sample per stretch
    frames = [stream_curve.FRAMES[0]] + list(stream_curve.ORDER) * 2
    assert sorted(stream_curve.ORDER) == [1600] * 4 + [3200, 6400, 12800]
    assert [n for n, end in host.calls if end] == [0] * len(frames)
    assert sum(n for n, _ in host.calls) == sum(frames)
    assert sum(end for _, end in host.calls) == len(frames)
    assert len(host.taken) == sum(n // stream_curve.STRETCH_FRAMES for n in frames)
    assert set(line["ms_per_input_frame"]) == {str(n) for n in stream_curve.FRAMES}
    best = {n: c["best_ms_per_frame"] for n, c in line["ms_per_input_frame"].items()}
    assert line["longest_to_shortest"] == pytest.approx(best["12800"] / best["1600"])


def test_no_repeats_rejected():
    with pytest.raises(SystemExit) as err:
        stream_curve.main(["--repeats", "0"])
    assert err.value.code == 2
