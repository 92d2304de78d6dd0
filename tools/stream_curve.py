"""Time streaming acoustic encoding against stream length.

    python3 tools/stream_curve.py --repeats 3 --seed 12

Each run streams random features through ``Model.acoustic_encode`` alone,
from the benchmark weights (``perfbench/weights.ckpt``), in 8-frame chunks
(80 ms, the benchmark's push size) under ``no_grad``, then ends the stream;
streams are 1,600, 3,200, 6,400 and 12,800 input frames long. Every repeat
runs the shortest stream four times and each longer one once, interleaved
as ``ORDER`` lists them, so a slower host stretches all lengths alike. A
repeat's time for a length is the mean of its streams: the shortest
one's four, each an eighth of the longest stream's frames, give the
ratio below a steadier denominator. Each stream's time is stated at
reference host speed, as ``perfbench/run.py`` states its times, stretch
by stretch: a ``run.HostReference`` sample is taken right after each
1,600-frame stretch (the last one also ends the stream), the stretch's
time is multiplied by ``run.REFERENCE_S`` over that sample's, and the
stream's time is the sum, so a host that changes speed within a long
stream is tracked. The script prints one JSON line: per length the best
and the median over the repeats of the scaled time per input frame in
ms, the ratio of the longest stream's best to the shortest's, which is
1.0 when streaming cost grows linearly with audio length, and the median
raw reference sample in ms. It runs on one BLAS thread, as the benchmark
does; the seed picks the features.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (sets one BLAS thread before numpy loads)

FRAMES = (1600, 3200, 6400, 12800)
ORDER = (1600, 3200, 1600, 6400, 1600, 12800, 1600)  # the streams of one repeat
STRETCH_FRAMES = 1600  # input frames timed between two reference samples


def scaled_stream(encode, x, reference) -> float:
    """The time to stream ``x`` through ``encode(rows, end)`` in
    ``run.CHUNK_FRAMES`` chunks and end it, at reference host speed: each
    ``STRETCH_FRAMES`` stretch's time over the ``reference`` sample taken
    right after it, times ``run.REFERENCE_S``, summed."""
    total = 0.0
    for lo in range(0, x.shape[0], STRETCH_FRAMES):
        hi = min(lo + STRETCH_FRAMES, x.shape[0])
        start = time.perf_counter()
        for at in range(lo, hi, run.CHUNK_FRAMES):
            encode(x[at:min(at + run.CHUNK_FRAMES, hi)], False)
        if hi == x.shape[0]:
            encode(x[:0], True)
        elapsed = time.perf_counter() - start
        total += elapsed * run.REFERENCE_S / reference.sample()
    return total


def curve(times: dict[int, list[list[float]]]) -> tuple[dict, float]:
    """Per stream length, from each repeat's scaled stream times, the best
    and the median over the repeats of the scaled time per input frame in
    ms, a repeat's time being the mean of its streams of that length; and
    the longest stream's best over the shortest's."""
    per_frame = {}
    for n, repeats in times.items():
        t = [statistics.fmean(streams) for streams in repeats]
        per_frame[str(n)] = {"best_ms_per_frame": min(t) * 1e3 / n, "median_ms_per_frame": statistics.median(t) * 1e3 / n}
    return per_frame, per_frame[str(max(times))]["best_ms_per_frame"] / per_frame[str(min(times))]["best_ms_per_frame"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    run.import_package()
    import numpy as np
    from simulst import autodiff as ad
    from simulst import model as model_mod

    _, model = run.load_weights()
    rng = np.random.default_rng(args.seed)
    features = {n: rng.normal(size=(n, model.cfg.d_feat)).astype(np.float32) for n in FRAMES}
    reference = run.HostReference()

    def stream(x) -> float:
        state = model_mod.StreamState()
        with ad.no_grad():
            return scaled_stream(lambda rows, end: model.acoustic_encode(rows, state=state, end=end), x, reference)

    stream(features[FRAMES[0]])  # warm-up
    times = {n: [] for n in FRAMES}
    for _ in range(args.repeats):
        for repeats in times.values():
            repeats.append([])
        for n in ORDER:
            times[n][-1].append(stream(features[n]))
    per_frame, ratio = curve(times)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "chunk_frames": run.CHUNK_FRAMES,
                      "ms_per_input_frame": per_frame, "longest_to_shortest": ratio,
                      "reference_ms": reference.typical_s() * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
