"""Regenerate the output lengths the benchmark stratifies its inputs by.

    python3 perfbench/make_strata.py

Run from the repository root, after ``make_weights.py``. Under the
benchmark weights the number of tokens a session commits varies from 0 to
35 between utterances of the same source length, and a session's cost
follows it (correlation about 0.8 on both stream pools). A seed that drew
utterances at random would change the mix of output lengths, and so the
cost, as much as a slow host does. This script streams the first
utterances of each stream pool once, with the beam its workloads use, and
writes their committed token counts and AL to ``strata.json``. ``run.py``
sorts the candidates by tokens per input frame and takes one utterance
from each of as many equal bins as it needs, each from a different AL
quantile of its bin, so the seed changes the content but not the mix of
output lengths or of lags.

The training loss varies as much between utterances, so the table also
holds each training-pool utterance's dropout-free loss under the weights,
and ``run.py`` stratifies the training inputs by it within each source
length. The table records the weights' SHA-256; ``run.py`` refuses a table
made for other weights.
"""

from __future__ import annotations

import json
import sys
import time

import run

STRATA = run.HERE / "strata.json"


def train_losses(model) -> dict:
    """Dropout-free total loss of every finite training-pool utterance."""
    import math

    from simulst import autodiff as ad
    from simulst import data

    excluded = set(run.recipe()["train_exclude"]["ids"])
    losses = {}
    with ad.no_grad():
        for utt in run.make_pool(run.SHORT):
            if utt.id in excluded:
                continue
            batch = data.make_batches([utt], utt.n_frames)[0]
            loss_st, loss_ctc, _ = model.forward_train(batch, rng=None)
            loss = model.total_loss(loss_st, loss_ctc).item()
            if math.isfinite(loss):
                losses[utt.id] = round(loss, 4)
    return losses


def main() -> int:
    run.import_package()
    from simulst import metrics

    _, model = run.load_weights()
    start = time.perf_counter()
    table = {"weights_sha256": run.recipe()["sha256"], "pools": {}}
    for name, (length_range, beam, candidates) in run.STREAM_POOLS.items():
        pool = run.make_pool(length_range).utterances[:candidates]
        tokens, lagging = {}, {}
        for u in pool:
            out = run.stream_utterance(model, u, beam)
            tokens[u.id] = len(out.tokens)
            # AL is undefined without tokens; such utterances sort first
            lagging[u.id] = round(metrics.average_lagging(out.record), 2) if out.tokens else -1.0
        table["pools"][name] = {"length_range": list(length_range), "beam": beam,
                                "tokens": tokens, "al_ms": lagging}
        print(f"{name}: {len(tokens)} utterances, {sum(tokens.values())} tokens", flush=True)
    table["train_loss"] = train_losses(model)
    table["seconds"] = round(time.perf_counter() - start, 1)
    STRATA.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.HERE))
    sys.exit(main())
