"""Streaming and training benchmark for the simulst package.

    python3 perfbench/run.py --workload stream_short --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it names the workload's output digest and any failures.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the engine is single-threaded and the host has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WEIGHTS = HERE / "weights.ckpt"
RECIPE = HERE / "weights.json"
STRATA = HERE / "strata.json"
OUT = HERE / "out"

CHUNK_FRAMES = 8  # 80 ms of 10 ms frames per push_frames call
FRAMES_PER_TOKEN = (8, 16)  # 80-160 ms of audio per token: 1-2 encoder frames at 8x
ASSET_SEED = 0  # the synthetic task's embeddings and word mapping the weights learned
POOL_SKIP = 64  # make_weights.py trained on the first 64 utterances of a pool's range
POOL_SIZE = 512
SETUP_REPEATS = 9
REFERENCE_S = 0.003  # HostReference's typical time on an undisturbed 2-vCPU Xeon VM

SHORT = (3, 8)
LONG = (36, 40)
# stream pool -> (source tokens per utterance, beam, utterances make_strata.py tables)
STREAM_POOLS = {"short": (SHORT, 5, 320), "long": (LONG, 1, 150)}


@dataclass(frozen=True)
class Workload:
    """One round streams ``stream_utterances`` utterances of a stream pool
    and runs ``train_batches`` one-batch ``finetune`` calls, interleaved;
    rounds repeat for the run's seconds. Every workload has both phases, so
    every end-to-end metric exists on every workload; the sizes set which
    phase dominates."""

    stream_pool: str
    stream_utterances: int
    train_batches: int

    @property
    def beam(self) -> int:
        return STREAM_POOLS[self.stream_pool][1]


BATCH = 8  # training utterances per batch
# finetune's budget in padded frames: any eight utterances of at most 8 tokens
# x 16 frames stay one batch
BATCH_FRAMES = BATCH * SHORT[1] * FRAMES_PER_TOKEN[1]
WORKLOADS = {
    "stream_short": Workload("short", 24, 6),
    "stream_long": Workload("long", 10, 6),
    "train": Workload("short", 12, 12),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_package():
    if not (SRC / "simulst" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import simulst  # noqa: F401


def recipe() -> dict:
    return json.loads(RECIPE.read_text(encoding="utf-8"))


def load_weights():
    from simulst import train

    digest = hashlib.sha256(WEIGHTS.read_bytes()).hexdigest()
    if digest != recipe()["sha256"]:
        raise SetupError(f"{WEIGHTS.name}: sha256 {digest} does not match {RECIPE.name}")
    ckpt = train.load_checkpoint(WEIGHTS)
    return ckpt, train.model_from_checkpoint(ckpt)


def load_strata() -> dict:
    """``make_strata.py``'s table: committed tokens per tabled utterance of
    each stream pool, and the training pool's losses."""
    table = json.loads(STRATA.read_text(encoding="utf-8"))
    if table["weights_sha256"] != recipe()["sha256"]:
        raise SetupError(f"{STRATA.name} was made for other weights; rerun make_strata.py")
    return table


def pick_utterances(pool, length_range, count, rng, loss: dict):
    """``count`` utterances cycling through the source lengths in
    ``length_range``. Within one length, each pick comes from the next of
    equal bins of the utterances sorted by ``loss``. The seed changes the
    content but not the mix of lengths, which sets the training cost, nor
    the mix of losses."""
    import numpy as np

    lengths = range(length_range[0], length_range[1] + 1)
    per_length = -(-count // len(lengths))
    bins = {n: np.array_split(np.array(sorted((u for u in pool if u.id in loss and
                                                len(u.source) == n),
                                               key=lambda u: (loss[u.id], u.id))), per_length)
            for n in lengths}
    picked = []
    for i in range(count):
        b = bins[lengths[i % len(lengths)]][i // len(lengths)]
        picked.append(b[int(rng.integers(len(b)))])
    return picked


def pick_by_output_length(pool, table: dict, count: int, rng):
    """One utterance from each of ``count`` equal bins of the tabled
    utterances sorted by committed tokens per input frame. A session's cost
    is roughly linear in its frames and its tokens, so ``rtf`` and
    ``ms_per_token`` both follow that ratio; the bins fix its mix. Within
    its bin, sorted by AL, each pick comes from a different one of
    ``count`` quantiles, in seeded order, which fixes the mix of AL too. The
    seed changes the content."""
    import numpy as np

    tokens, lagging = table["tokens"], table["al_ms"]
    tabled = sorted((u for u in pool if u.id in tokens),
                    key=lambda u: (tokens[u.id] / u.n_frames, u.id))
    quantile = rng.permutation(count)
    picked = []
    for q, b in zip(quantile, np.array_split(np.array(tabled), count)):
        b = sorted(b, key=lambda u: (lagging[u.id], u.id))
        lo = q * len(b) // count
        hi = max(lo + 1, (q + 1) * len(b) // count)
        picked.append(b[int(rng.integers(lo, hi))])
    return picked


def make_pool(length_range):
    """The fixed utterance pool for one length range. The synthetic task's
    seed fixes both the embeddings the weights learned and the content, so
    run seeds select from pools of the weights' task seed."""
    from simulst import data

    task = data.SyntheticTaskConfig(frames_per_token=FRAMES_PER_TOKEN,
                                    length_range=length_range, seed=ASSET_SEED)
    corpus = data.generate_synthetic_corpus(task, POOL_SKIP + POOL_SIZE)
    corpus.utterances = corpus.utterances[POOL_SKIP:]
    return corpus


@dataclass
class Inputs:
    stream: list  # utterances
    train: list  # one-batch corpora
    check_utt: object  # the utterance of the chunking check
    warm_utt: object


def make_inputs(workload: Workload, seed: int, strata: dict) -> Inputs:
    """Seeded inputs: the stream utterances, the training batches, the
    utterance of the chunking check, and the fixed warm-up utterance."""
    import numpy as np
    from simulst import data

    stream_range = STREAM_POOLS[workload.stream_pool][0]
    pools = {r: make_pool(r) for r in {stream_range, SHORT}}
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    stream = pick_by_output_length(pools[stream_range].utterances,
                                   strata["pools"][workload.stream_pool],
                                   workload.stream_utterances, rngs[0])
    short = pools[SHORT]
    # the loss table leaves out the utterances weights.json excludes
    train_utts = pick_utterances(short, SHORT, workload.train_batches * BATCH, rngs[1],
                                 strata["train_loss"])
    # consecutive picks cycle through the lengths, so every batch holds a
    # like mix and about as many padded frames
    train = [data.Corpus(train_utts[i: i + BATCH], short.src_vocab, short.tgt_vocab)
             for i in range(0, len(train_utts), BATCH)]
    check_utt = short.utterances[int(rngs[2].integers(len(short)))]
    return Inputs(stream, train, check_utt, short.utterances[0])


@dataclass
class Setup:
    ckpt: object
    model: object
    inputs: Inputs
    seconds: float


def setup(workload: Workload, seed: int) -> Setup:
    """Load and check the weights and the strata, generate the inputs,
    stream one fixed short utterance to warm up."""
    start = time.perf_counter()
    ckpt, model = load_weights()
    inputs = make_inputs(workload, seed, load_strata())
    stream_utterance(model, inputs.warm_utt, beam=5)
    return Setup(ckpt, model, inputs, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


@dataclass
class StreamOutput:
    tokens: list[int]
    record: object  # metrics.LatencyRecord
    n_units: int
    kinds: list[str]  # per session call: open, push, step, write, end, finalize
    seconds: list[float]  # per session call
    committed: list[int]  # tokens each call committed


def stream_utterance(model, utt, beam: int) -> StreamOutput:
    """Drive one session like ``translate_stream`` with 80 ms chunks,
    timing every session call, the constructor included."""
    from simulst import streaming

    clock = time.perf_counter
    kinds, seconds, committed = [], [], []

    def timed(kind, fn, *args):
        t = clock()
        out = fn(*args)
        seconds.append(clock() - t)
        kinds.append(kind)
        committed.append(0)
        return out

    session = timed("open", partial(streaming.StreamSession, model, beam_size=beam))
    feats = utt.features
    pos = 0

    def push() -> None:
        nonlocal pos
        timed("push", session.push_frames, feats[pos: pos + CHUNK_FRAMES])
        pos += CHUNK_FRAMES

    while True:
        action, tokens = timed("step", session.step)
        if action == streaming.WRITE:
            kinds[-1] = "write"
            committed[-1] = len(tokens)
        elif action == streaming.READ:
            if pos < feats.shape[0]:
                push()
            else:
                timed("end", session.end_stream)
        else:
            break
    # an early end-of-sequence stopped the writes; the rest of the audio
    # still arrives, as in translate_stream
    while pos < feats.shape[0]:
        push()
    if not session.ended:
        timed("end", session.end_stream)
    result = timed("finalize", partial(session.finalize, reference_length=len(utt.target)))
    return StreamOutput(result.tokens, result.record, result.n_units, kinds, seconds, committed)


def computation_aware_al(record, compute_ms) -> float:
    """The paper's AL with each d(y_i) raised by the compute milliseconds
    spent up to the call that committed y_i (SimulEval's AL_CA).

    The cut-off tau is taken from the audio-time delays, so both ALs average
    the same tokens and AL_CA - AL is the mean compute lag over them. With
    zero compute this equals ``metrics.average_lagging``.
    """
    d = record.token_listen_ms
    if not d:
        raise ValueError("computation-aware AL needs at least one token")
    tau = next((i for i, x in enumerate(d, start=1) if x >= record.total_ms), len(d))
    rate = record.source_frames / record.reference_length * record.frame_ms
    lag = sum(d[i] + compute_ms[i] - rate * i for i in range(tau)) / tau
    return lag + record.lookahead_offset_ms


@dataclass
class StreamedUtt:
    """One input utterance across rounds: its outputs from the first round
    and, for every round, each session call's seconds with the index of the
    reference sample taken right after that round's operation."""

    audio_s: float
    out: StreamOutput
    runs: list  # (reference sample index, seconds per call)

    def call_s(self, reference) -> list[float]:
        """Each call's median over the rounds of its time at reference speed."""
        scaled = [[x * reference.scale(i) for x in seconds] for i, seconds in self.runs]
        return [statistics.median(call) for call in zip(*scaled)]

    def token_compute_ms(self, reference) -> list[float]:
        """Session ms up to the call that committed each token."""
        spent, per_token = 0.0, []
        for x, n in zip(self.call_s(reference), self.out.committed):
            spent += x * 1e3
            per_token += [spent] * n
        return per_token


@dataclass
class StreamStats:
    reference: HostReference = field(default_factory=lambda: HostReference())
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    utts: dict = field(default_factory=dict)  # utt id -> StreamedUtt
    mismatched: list = field(default_factory=list)
    # totals over every streamed utterance of every round, for the traced run
    utterances: int = 0
    src_tokens: int = 0
    tokens: int = 0
    units: int = 0
    frames: int = 0
    final_frames: int = 0

    def add(self, utt, out: StreamOutput, model) -> None:
        from simulst import model as model_mod

        run = (len(self.reference.seconds), out.seconds)  # the sample taken next
        seen = self.utts.get(utt.id)
        if seen is None:
            self.utts[utt.id] = StreamedUtt(utt.n_frames * model.cfg.frame_ms / 1e3, out, [run])
        elif (out.tokens, out.record.token_listen_ms, out.kinds) != \
                (seen.out.tokens, seen.out.record.token_listen_ms, seen.out.kinds):
            self.mismatched.append(utt.id)
        else:
            seen.runs.append(run)
        self.utterances += 1
        self.src_tokens += len(utt.source)
        self.tokens += len(out.tokens)
        self.units += out.n_units
        self.frames += utt.n_frames
        self.final_frames += model_mod.output_length(model.cfg, utt.n_frames)

    def call_ms(self, *kinds) -> list[float]:
        return [s * 1e3 for u in self.utts.values()
                for k, s in zip(u.out.kinds, u.call_s(self.reference)) if k in kinds]

    def outputs(self) -> dict:
        return {i: (u.out.tokens, list(u.out.record.token_listen_ms))
                for i, u in self.utts.items()}


def stream_one(model, utt, beam, stats: StreamStats, tracer) -> None:
    """One stream operation; an exception fails it."""
    stats.attempted += 1
    if tracer is not None:
        tracer.set_op(f"stream:{utt.id}")
    try:
        stats.add(utt, stream_utterance(model, utt, beam), model)
    except Exception as exc:  # a failed operation is counted, the run goes on
        stats.failed += 1
        stats.errors.append(f"{utt.id}: {exc!r}")


def interleave(a: list, b: list) -> list:
    """``a`` and ``b`` merged with each spread evenly over the round."""
    placed = [((i + 0.5) / len(a), 0, op) for i, op in enumerate(a)]
    placed += [((i + 0.5) / len(b), 1, op) for i, op in enumerate(b)]
    return [op for _, _, op in sorted(placed, key=lambda p: p[:2])]


class HostReference:
    """A fixed numpy loop, independent of the package, timed after every
    operation.

    The host's speed changes by up to 1.8x within minutes, and the
    package's calls slow with it. The loop, timed right after an operation,
    tracks that speed (its times correlate at 0.94 with those of a streamed
    utterance, over windows of six utterances), so each time the operation
    measured is multiplied by ``REFERENCE_S`` over the loop's: times at the
    speed at which the loop takes ``REFERENCE_S``. A change to the package
    leaves the loop as it is, so it moves the scaled times as it moves the
    raw ones.
    """

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0)
        self.x = g.standard_normal((40, 64)).astype(np.float32)  # d_model 64, as the model
        self.w = (g.standard_normal((64, 64)) * 0.1).astype(np.float32)
        self.seconds: list[float] = []

    def sample(self) -> float:
        import numpy as np

        t = time.perf_counter()
        x = self.x
        for _ in range(60):
            h = x @ self.w
            h = np.exp(h - h.max(axis=-1, keepdims=True))
            h = h / h.sum(axis=-1, keepdims=True)
            x = ((h - h.mean(axis=-1, keepdims=True))
                 / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5))
            x = np.concatenate([x[1:], x[:1]])
        self.seconds.append(time.perf_counter() - t)
        return self.seconds[-1]

    def scale(self, i: int) -> float:
        """Factor that states a time measured just before sample ``i`` at
        reference speed."""
        return REFERENCE_S / self.seconds[i]

    def typical_s(self) -> float:
        """The run's median sample."""
        return statistics.median(self.seconds)


def run_rounds(ops, seconds: float, reference: HostReference) -> float:
    """Run ``ops`` in turn, round after round, until ``seconds`` have passed
    and at least one whole round has run; return the rounds run. The
    metrics take each operation's median over its runs, so every operation
    counts once whether or not the last round is whole, and the input mix
    does not depend on how many rounds fit. The reference loop runs after
    every operation."""
    clock = time.perf_counter
    start = clock()
    done = 0
    while done < len(ops) or clock() - start < seconds:
        ops[done % len(ops)]()
        reference.sample()
        done += 1
    return done / len(ops)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class SkipLog(logging.Handler):
    """Collects the ids of utterances ``forward_train`` skips."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.ids: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("skipping") and record.args:
            self.ids.append(str(record.args[0]))


@dataclass
class TrainedBatch:
    """One input batch across rounds: its losses from the first round and,
    for every round, the ``finetune`` call's wall time with the index of
    the reference sample taken right after it."""

    utterances: int  # trained, skipped ones not counted
    updates: int
    losses: list  # total loss per update
    runs: list  # (reference sample index, seconds)

    def wall_s(self, reference) -> float:
        """Median over the rounds of the call's time at reference speed."""
        return statistics.median(x * reference.scale(i) for i, x in self.runs)


@dataclass
class TrainStats:
    reference: HostReference = field(default_factory=lambda: HostReference())
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    batches: dict = field(default_factory=dict)  # batch index -> TrainedBatch
    mismatched: list = field(default_factory=list)
    # totals over every call of every round, for the traced run
    calls: int = 0
    utterances: int = 0
    updates: int = 0
    skipped: int = 0


def train_batch(ckpt, corpus, key: int, seed: int, stats: TrainStats,
                tracer) -> None:
    """One ``finetune`` epoch over a one-batch corpus from the benchmark
    weights: one operation. It fails when it raises, gives a non-finite
    loss, skips an utterance or makes no update."""
    from simulst import train

    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"train-{os.getpid()}.log"
    log_path.unlink(missing_ok=True)
    skips = SkipLog()
    model_log = logging.getLogger("simulst.model")
    model_log.addHandler(skips)
    if tracer is not None:
        tracer.set_op(f"train:batch{key}")
    settings = train.TrainSettings(max_frames=BATCH_FRAMES, seed=seed, log_path=str(log_path))
    error = None
    start = time.perf_counter()
    try:
        train.finetune(corpus, ckpt, ckpt.cfg, 1, settings)
    except Exception as exc:  # counted below as a failed batch
        error = exc
    finally:
        wall = time.perf_counter() - start
        model_log.removeHandler(skips)
    rows = [ln.split("\t") for ln in log_path.read_text(encoding="utf-8").splitlines()] \
        if log_path.exists() else []
    log_path.unlink(missing_ok=True)
    losses = [float(r[2]) + ckpt.cfg.ctc_loss_weight * float(r[3]) for r in rows]
    if error is None and not all(math.isfinite(x) for x in losses):
        error = ValueError("non-finite loss")
    stats.attempted += 1
    stats.calls += 1
    stats.utterances += len(corpus) - len(set(skips.ids))
    stats.updates += len(rows)
    stats.skipped += len(set(skips.ids))
    if error is not None or skips.ids or not rows:
        stats.failed += 1
        stats.errors.append(f"batch {key}: {error!r}, skipped {sorted(set(skips.ids))}, "
                            f"{len(rows)} updates")
        return
    run = (len(stats.reference.seconds), wall)  # the sample taken next
    seen = stats.batches.get(key)
    if seen is None:
        stats.batches[key] = TrainedBatch(len(corpus), len(rows), losses, [run])
    elif losses != seen.losses:
        stats.mismatched.append(key)
    else:
        seen.runs.append(run)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def chunking_check(model, utt) -> bool:
    """translate_stream pushing one frame at a time must give the tokens and
    d(y_i) of this benchmark's 80 ms session loop."""
    from simulst import streaming

    ref = streaming.translate_stream(model, utt.features, beam_size=5, chunk_frames=1,
                                     reference_length=len(utt.target))
    mine = stream_utterance(model, utt, beam=5)
    return ref.tokens == mine.tokens and ref.record.token_listen_ms == mine.record.token_listen_ms


def output_digest(stream: StreamStats, training: TrainStats) -> str:
    blob = json.dumps({"stream": sorted(stream.outputs().items()),
                       "train_losses": sorted((k, b.losses) for k, b in training.batches.items())})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def rows_of_first_arg(args, kwargs) -> int:
    return args[0].shape[0]


def model_targets(model):
    """The benchmark model's layers; ``StreamSession`` calls them through
    the instance it is given."""
    from tracing import Target

    return [
        Target(model, "acoustic_encode", "model.acoustic_encode", count=rows_of_first_arg),
        Target(model, "semantic_encode", "model.semantic_encode", count=rows_of_first_arg),
        Target(model, "decode_logits", "model.decode_logits", count=rows_of_first_arg),
    ]


def module_targets():
    """Module and class attributes, which also reach the ``Model`` that
    ``finetune`` builds for itself."""
    from simulst import autodiff, ctc, data, shrink, streaming, train
    from simulst.model import Model
    from tracing import Target

    return [
        Target(Model, "forward_train", "model.forward_train"),
        Target(ctc, "greedy_path", "ctc.greedy_path", count=rows_of_first_arg),
        Target(ctc, "blank_limited_ctc_loss", "ctc.blank_limited_ctc_loss"),
        Target(shrink, "shrink_states", "shrink.shrink_states", count=lambda a, k: len(a[3])),
        Target(autodiff, "backward", "autodiff.backward",
               count=lambda a, k: autodiff.tape_length()),
        Target(autodiff, "adam_step", "autodiff.adam_step"),
        Target(autodiff, "record_op", "autodiff.record_op"),
        Target(streaming.StreamSession, "push_frames", "streaming.push_frames"),
        Target(streaming.StreamSession, "step", "streaming.step"),
        Target(streaming.StreamSession, "end_stream", "streaming.end_stream"),
        Target(train, "finetune", "train.finetune"),
        Target(train, "load_checkpoint", "train.load_checkpoint"),
        Target(data, "generate_synthetic_corpus", "data.generate_synthetic_corpus"),
    ]


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end_metrics(setup_s, stream: StreamStats, training: TrainStats) -> dict:
    """Every session and training time is a sum or percentile of per-call
    times: each call's median over the rounds (each call repeats identical
    work) of its time at reference speed (see ``HostReference``).
    ``setup_s`` comes scaled by the reference timed right after each
    set-up."""
    from simulst import metrics

    utts = list(stream.utts.values())
    ref = stream.reference
    session_s = sum(sum(u.call_s(ref)) for u in utts)
    with_tokens = [u for u in utts if u.out.tokens]  # AL is undefined without tokens
    batches = list(training.batches.values())
    return {
        "setup_s": (setup_s, "s"),
        "rtf": (session_s / sum(u.audio_s for u in utts), "s/s"),
        "ms_per_token": (session_s * 1e3 / sum(len(u.out.tokens) for u in utts), "ms"),
        "push_ms_p75": (percentile(stream.call_ms("push"), 75), "ms"),
        "push_ms_p90": (percentile(stream.call_ms("push"), 90), "ms"),
        "write_ms_p75": (percentile(stream.call_ms("write"), 75), "ms"),
        "write_ms_p90": (percentile(stream.call_ms("write"), 90), "ms"),
        "al_ms": (statistics.fmean(metrics.average_lagging(u.out.record)
                                   for u in with_tokens), "ms"),
        "al_ca_ms": (statistics.fmean(computation_aware_al(u.out.record, u.token_compute_ms(ref))
                                      for u in with_tokens), "ms"),
        "train_utt_per_s": (sum(b.utterances for b in batches)
                            / sum(b.wall_s(training.reference) for b in batches), "1/s"),
        "train_step_ms_p50": (statistics.median(b.wall_s(training.reference) * 1e3 / b.updates
                                                for b in batches), "ms"),
        "train_loss": (statistics.fmean(x for b in batches for x in b.losses), "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer_metrics(tracer, setups: int, batches: int, stream: StreamStats,
                      training: TrainStats, overhead_pct: float, reference_s: float) -> dict:
    """Self time and work counts per layer. Streaming layers are reported
    per streamed utterance from the run's stream phase, training layers per
    optimizer step from its train phase, set-up layers per set-up, and the
    training counts per round of the workload's batches. Self times are
    multiplied by ``REFERENCE_S`` over the run's median reference sample,
    which ``host.reference_ms`` reports."""
    import numpy as np
    from tracing import self_times

    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    phase_of_op = np.array([label.split(":", 1)[0] for label in tracer.ops] + ["none"])
    phase = phase_of_op[a["op_id"]]  # op_id -1 picks "none"

    def pick(name, ph):
        if name not in tracer.names:
            return np.zeros(len(own), dtype=bool)
        return (a["name_id"] == tracer.names.index(name)) & (phase == ph)

    def self_ms(name, ph):
        return float(own[pick(name, ph)].sum() * 1e3 * REFERENCE_S / reference_s)

    def calls(name, ph):
        return int(pick(name, ph).sum())

    def work(name, ph):
        return float(a["count"][pick(name, ph)].sum())

    utts, steps = stream.utterances, training.updates
    return {
        "model.acoustic_encode.ms": (self_ms("model.acoustic_encode", "stream") / utts, "ms"),
        "model.acoustic_encode.calls": (calls("model.acoustic_encode", "stream") / utts, "count"),
        "model.acoustic_encode.frames_per_pushed_frame":
            (work("model.acoustic_encode", "stream") / stream.frames, "ratio"),
        "ctc.greedy_path.ms": (self_ms("ctc.greedy_path", "stream") / utts, "ms"),
        "ctc.greedy_path.frames_per_final_frame":
            (work("ctc.greedy_path", "stream") / stream.final_frames, "ratio"),
        "streaming.push_frames.self_ms": (self_ms("streaming.push_frames", "stream") / utts, "ms"),
        "streaming.step.self_ms": (self_ms("streaming.step", "stream") / utts, "ms"),
        "model.semantic_encode.ms": (self_ms("model.semantic_encode", "stream") / utts, "ms"),
        "model.semantic_encode.units_per_unit":
            (work("model.semantic_encode", "stream") / stream.units, "ratio"),
        "shrink.shrink_states.ms": (self_ms("shrink.shrink_states", "stream") / utts, "ms"),
        "shrink.shrink_states.segments_per_unit":
            (work("shrink.shrink_states", "stream") / stream.units, "ratio"),
        "model.decode_logits.ms": (self_ms("model.decode_logits", "stream") / utts, "ms"),
        "model.decode_logits.calls_per_token":
            (calls("model.decode_logits", "stream") / stream.tokens, "ratio"),
        "model.decode_logits.positions_per_token":
            (work("model.decode_logits", "stream") / stream.tokens, "ratio"),
        "autodiff.record_op.calls_per_stream_utt":
            (calls("autodiff.record_op", "stream") / utts, "count"),
        "streaming.units_per_src_token": (stream.units / stream.src_tokens, "ratio"),
        "streaming.tokens_per_src_token": (stream.tokens / stream.src_tokens, "ratio"),
        "model.forward_train.ms": (self_ms("model.forward_train", "train") / steps, "ms"),
        "ctc.blank_limited_ctc_loss.ms":
            (self_ms("ctc.blank_limited_ctc_loss", "train") / steps, "ms"),
        "autodiff.backward.ms": (self_ms("autodiff.backward", "train") / steps, "ms"),
        "autodiff.adam_step.ms": (self_ms("autodiff.adam_step", "train") / steps, "ms"),
        "autodiff.record_op.ms": (self_ms("autodiff.record_op", "train") / steps, "ms"),
        "autodiff.record_op.calls_per_train_utt":
            (calls("autodiff.record_op", "train") / training.utterances, "count"),
        "autodiff.tape_entries_per_utt":
            (work("autodiff.backward", "train") / training.utterances, "count"),
        "train.updates": (training.updates * batches / training.calls, "count"),
        "train.skipped_utts": (training.skipped * batches / training.calls, "count"),
        "data.generate_synthetic_corpus.ms":
            (self_ms("data.generate_synthetic_corpus", "setup") / setups, "ms"),
        "train.load_checkpoint.ms": (self_ms("train.load_checkpoint", "setup") / setups, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "host.reference_ms": (reference_s * 1e3, "ms"),
    }


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    from tracing import Target, Tracer

    def noop():
        return None

    traced = Tracer().wrap(Target(None, "noop", "noop"), noop)
    clock = time.perf_counter
    t = clock()
    for _ in range(calls):
        noop()
    plain = clock() - t
    t = clock()
    for _ in range(calls):
        traced()
    return max(clock() - t - plain, 0.0) / calls


def measure(workload: Workload, seed: int, seconds: float, tracer) -> dict:
    from contextlib import ExitStack

    traced_from = time.perf_counter()
    with ExitStack() as patches:
        if tracer is not None:
            tracer.set_op("setup")
            patches.enter_context(tracer.patched(module_targets()))
        setups, setup_scaled_s = [], []
        setup_reference = HostReference()
        for _ in range(SETUP_REPEATS):
            setups.append(setup(workload, seed))
            ref_s = statistics.median(setup_reference.sample() for _ in range(3))
            setup_scaled_s.append(setups[-1].seconds * REFERENCE_S / ref_s)
        s = setups[-1]
        if tracer is not None:
            patches.enter_context(tracer.patched(model_targets(s.model)))
        reference = HostReference()
        stream, training = StreamStats(reference), TrainStats(reference)
        ops = interleave(
            [partial(stream_one, s.model, utt, workload.beam, stream, tracer)
             for utt in s.inputs.stream],
            [partial(train_batch, s.ckpt, corpus, key, seed, training, tracer)
             for key, corpus in enumerate(s.inputs.train)])
        rounds = run_rounds(ops, max(seconds, 1e-9), reference)
        reference_s = reference.typical_s()
    traced_s = time.perf_counter() - traced_from
    chunking_ok = chunking_check(s.model, s.inputs.check_utt)
    failures = stream.errors + training.errors
    if not chunking_ok:
        failures.append("chunking: translate_stream(chunk_frames=1) differs from the "
                        "80 ms session loop")
    if stream.mismatched or training.mismatched:
        failures.append(f"rounds disagree: {stream.mismatched[:3]} {training.mismatched[:3]}")
    usable = any(u.out.tokens for u in stream.utts.values()) and bool(training.batches)
    setup_s = statistics.median(setup_scaled_s)
    metrics = {}
    if usable and tracer is None:
        metrics = end_to_end_metrics(setup_s, stream, training)
    elif usable:
        overhead = len(tracer) * wrapper_cost_s() / traced_s * 100
        metrics = per_layer_metrics(tracer, len(setups), len(s.inputs.train), stream, training,
                                    overhead, reference_s)
    correct = (usable and chunking_ok and not stream.mismatched and not training.mismatched
               and all(math.isfinite(v) for v, _ in metrics.values()))
    return {
        "correct": bool(correct),
        "attempted": stream.attempted + training.attempted,
        "failed": stream.failed + training.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digest": output_digest(stream, training),
        "failures": failures,
        "rounds": rounds,
        "reference_ms": reference_s * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": result.pop("rounds"),
                      "reference_ms": result.pop("reference_ms"),
                      "output_digest": result.pop("digest"), "failures": result.pop("failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
