"""Time one training step against batch size.

    python3 tools/train_step_curve.py --repeats 7 --seed 12

Each step is one ``train.finetune`` call over a one-batch corpus of B short
utterances, from the benchmark weights (``perfbench/weights.ckpt``), for B in
4, 8 and 16. The call includes its set-up: building the model from the
checkpoint (one copy of its flat parameter store) and zeroing Adam's
moments; it hands out the model's own store as the new checkpoint's
parameters, uncopied. Every repeat times each batch once, batch sizes
interleaved, so a slower host stretches all sizes alike. Each call's
time is stated at reference host speed, as ``perfbench/run.py`` states its
times: a ``run.HostReference`` sample is taken right after the call, and
the call's time is multiplied by ``run.REFERENCE_S`` over that sample's.
The script prints one JSON line: per batch size the median and quartiles
of the scaled step time in ms over all calls, the median per utterance, and
the tape entries that one ``forward_train`` plus ``total_loss`` records on
the size's first batch, a count that does not drift with the host; and the
median raw reference sample in ms. It runs on one BLAS thread, as the
benchmark does; the seed picks the utterances.
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

BATCH_SIZES = (4, 8, 16)
BATCHES_PER_SIZE = 3


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    run.import_package()
    import numpy as np
    from simulst import autodiff as ad
    from simulst import data, train

    ckpt, net = run.load_weights()
    pool = run.make_pool(run.SHORT)
    count = BATCHES_PER_SIZE * sum(BATCH_SIZES)
    picked = run.pick_utterances(pool, run.SHORT, count, np.random.default_rng(args.seed),
                                 run.load_strata()["train_loss"])
    batches, at = [], 0
    for size in BATCH_SIZES:
        for _ in range(BATCHES_PER_SIZE):
            batches.append((size, data.Corpus(picked[at:at + size], pool.src_vocab, pool.tgt_vocab)))
            at += size

    def step(size: int, corpus) -> float:
        # a budget that holds any B utterances of the pool as one batch
        settings = train.TrainSettings(max_frames=size * run.SHORT[1] * run.FRAMES_PER_TOKEN[1], seed=args.seed)
        start = time.perf_counter()
        out = train.finetune(corpus, ckpt, ckpt.cfg, 1, settings)
        elapsed = time.perf_counter() - start
        if out.opt.step != 1:
            raise RuntimeError(f"a batch of {size} made {out.opt.step} updates, not one")
        return elapsed

    def tape_entries(corpus) -> int:
        ad.reset_tape()
        loss_st, loss_ctc, _ = net.forward_train(corpus.utterances, rng=np.random.default_rng(args.seed))
        net.total_loss(loss_st, loss_ctc)
        entries = ad.tape_length()
        ad.reset_tape()
        return entries

    tape = {str(size): tape_entries(corpus) for size, corpus in batches[::BATCHES_PER_SIZE]}
    for size, corpus in batches:  # warm-up
        step(size, corpus)
    reference = run.HostReference()
    times = {size: [] for size in BATCH_SIZES}
    for _ in range(args.repeats):
        for size, corpus in batches:
            elapsed = step(size, corpus)
            times[size].append(elapsed * run.REFERENCE_S / reference.sample())
    curve = {}
    for size, values in times.items():
        stats = quartiles(values)
        curve[str(size)] = {**stats, "ms_per_utt": stats["median_ms"] / size, "calls": len(values),
                            "tape_entries": tape[str(size)]}
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "step_ms": curve,
                      "reference_ms": reference.typical_s() * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
