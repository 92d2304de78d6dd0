"""Time streaming acoustic encoding against stream length.

    python3 tools/stream_curve.py --repeats 3 --seed 12

Each run streams random features through ``Model.acoustic_encode`` alone,
from the benchmark weights (``perfbench/weights.ckpt``), in 8-frame chunks
(80 ms, the benchmark's push size) under ``no_grad``, then ends the stream;
streams are 1,600, 3,200, 6,400 and 12,800 input frames long. Every repeat
runs each length once, lengths interleaved, so a slower host stretches all
lengths alike. Each stream's time is stated at reference host speed, as
``perfbench/run.py`` states its times: a ``run.HostReference`` sample is
taken right after the stream, and the stream's time is multiplied by
``run.REFERENCE_S`` over that sample's. The script prints one JSON line:
per length the best and the median over the repeats of the scaled time per
input frame in ms, the ratio of the longest stream's best to the
shortest's, which is 1.0 when streaming cost grows linearly with audio
length, and the median raw reference sample in ms. It runs on one BLAS
thread, as the benchmark does; the seed picks the features.
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

    def stream(x: np.ndarray) -> float:
        state = model_mod.StreamState()
        start = time.perf_counter()
        with ad.no_grad():
            for at in range(0, x.shape[0], run.CHUNK_FRAMES):
                model.acoustic_encode(x[at:at + run.CHUNK_FRAMES], state=state, end=False)
            model.acoustic_encode(x[:0], state=state, end=True)
        return time.perf_counter() - start

    stream(features[FRAMES[0]])  # warm-up
    reference = run.HostReference()
    times = {n: [] for n in FRAMES}
    for _ in range(args.repeats):
        for n in FRAMES:
            elapsed = stream(features[n])
            times[n].append(elapsed * run.REFERENCE_S / reference.sample())
    curve = {str(n): {"best_ms_per_frame": min(t) * 1e3 / n, "median_ms_per_frame": statistics.median(t) * 1e3 / n}
             for n, t in times.items()}
    ratio = curve[str(FRAMES[-1])]["best_ms_per_frame"] / curve[str(FRAMES[0])]["best_ms_per_frame"]
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "chunk_frames": run.CHUNK_FRAMES,
                      "ms_per_input_frame": curve, "longest_to_shortest": ratio,
                      "reference_ms": reference.typical_s() * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
