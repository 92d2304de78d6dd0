"""Run the desk-scale RealTranS recipe end to end.

    python -m simulst OUT_DIR

Blank-limited CTC pre-training of the acoustic encoder, joint fine-tuning
of the whole model, then simultaneous decoding of held-out utterances,
scored by BLEU, AP and AL. Writes ``train.log`` (one row per optimizer
step, its last column the stage), ``model.ckpt``, ``report.tsv`` (one row
per held-out utterance plus SUMMARY) and ``trace.tsv`` (the sessions'
read/write actions) to OUT_DIR and prints the SUMMARY line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import metrics, train
from .data import SyntheticTaskConfig, generate_synthetic_corpus
from .model import ModelConfig

# The recipe is the one that trains the benchmark weights (perfbench/weights.json):
# pre-training on short utterances, then fine-tuning on utterances of up to 40 tokens.
MODEL = ModelConfig()
PRETRAIN_TASK = SyntheticTaskConfig()
FINETUNE_TASK = dataclasses.replace(PRETRAIN_TASK, length_range=(3, 40))
PRETRAIN_UTTERANCES = 64
FINETUNE_UTTERANCES = 64
EVAL_UTTERANCES = 32  # drawn after the fine-tuning ones, from the same task
PRETRAIN_EPOCHS = 40  # of 17 batches: 680 steps
FINETUNE_EPOCHS = 15  # of 33 batches: 495 steps
PRETRAIN_SETTINGS = train.TrainSettings(base_lr=5e-3, warmup=30, max_frames=300, seed=1)
FINETUNE_SETTINGS = train.TrainSettings(base_lr=2e-3, warmup=30, max_frames=700, seed=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="simulst", description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", metavar="OUT_DIR", type=Path,
                        help="directory for train.log, model.ckpt, report.tsv and trace.tsv")
    out = parser.parse_args(argv).out_dir
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train.log"
    log_path.unlink(missing_ok=True)  # both stages append to it

    pre_corpus = generate_synthetic_corpus(PRETRAIN_TASK, PRETRAIN_UTTERANCES)
    corpus = generate_synthetic_corpus(FINETUNE_TASK, FINETUNE_UTTERANCES + EVAL_UTTERANCES)
    tune_corpus = dataclasses.replace(corpus, utterances=corpus.utterances[:FINETUNE_UTTERANCES])
    eval_corpus = dataclasses.replace(corpus, utterances=corpus.utterances[FINETUNE_UTTERANCES:])

    pre = train.pretrain_ctc(pre_corpus, MODEL, PRETRAIN_EPOCHS,
                             dataclasses.replace(PRETRAIN_SETTINGS, log_path=str(log_path)))
    tuned = train.finetune(tune_corpus, pre, MODEL, FINETUNE_EPOCHS,
                           dataclasses.replace(FINETUNE_SETTINGS, log_path=str(log_path)))
    train.save_checkpoint(tuned, out / "model.ckpt")

    traces = []
    report = train.evaluate(eval_corpus, train.model_from_checkpoint(tuned), trace_sink=traces)
    metrics.write_trace_file(out / "trace.tsv", traces)
    shrink = report["shrink_quality"]
    extra = {"skipped": len(report["skipped_ids"]),
             "shrink_quality": ",".join(f"le{n}:{pct:.1f}" for n, pct in shrink.items()) if shrink else None}
    print(metrics.write_report(out / "report.tsv", report, extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
