"""Two-stage training (CTC pre-training, then joint fine-tuning),
checkpointing with bit-exact resume, and the evaluation loop driving the
streaming engine.

Checkpoint file: magic "RTCK0001", u64 little-endian JSON header length,
a JSON header (config, fingerprint, optimizer scalars, RNG state, tensor
manifest), then the raw little-endian tensor payload.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import metrics as metrics_mod
from . import streaming
from .autodiff import OptimizerState
from .data import Corpus, check_integers, check_real, make_batches
from .model import Model, ModelConfig, skip_reason

log = logging.getLogger(__name__)

CKPT_MAGIC = b"RTCK0001"
STAGES = ("init", "pretrain", "finetune")  # a checkpoint resumes training only in its own stage


class NumericError(RuntimeError):
    """Training hit a non-finite loss."""


class FingerprintMismatch(ValueError):
    """A checkpoint was produced under a different model configuration."""


class NoUpdatesError(ValueError):
    """A training epoch made no optimizer update: every batch was skipped."""


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    opt: OptimizerState
    epoch: int
    fingerprint: str
    cfg: ModelConfig
    rng_state: dict
    stage: str  # one of STAGES


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors = []
    payload = bytearray()
    for kind, table in (("param", ckpt.params), ("m", ckpt.opt.m), ("v", ckpt.opt.v)):
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name])
            le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            tensors.append({
                "name": name, "kind": kind, "shape": list(arr.shape),
                "dtype": str(arr.dtype), "offset": len(payload), "nbytes": le.nbytes,
            })
            payload.extend(le.tobytes())
    header = {
        "fingerprint": ckpt.fingerprint,
        "cfg": dataclasses.asdict(ckpt.cfg),
        "epoch": ckpt.epoch,
        "stage": ckpt.stage,
        "rng_state": ckpt.rng_state,
        "opt": {k: getattr(ckpt.opt, k) for k in ("beta1", "beta2", "eps", "base_lr", "warmup", "step")},
        "tensors": tensors,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if raw[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated, {len(raw)} bytes hold no header length")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if 16 + hlen > len(raw):
        raise ValueError(f"{path}: truncated, {len(raw)} bytes hold no {hlen}-byte header")
    body = raw[16 + hlen:]
    tables: dict[str, dict[str, np.ndarray]] = {"param": {}, "m": {}, "v": {}}
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        for entry in header["tensors"]:
            kind, name = entry["kind"], entry["name"]
            dtype = np.dtype(entry["dtype"]).newbyteorder("<")
            count = int(np.prod(entry["shape"], dtype=np.int64))
            if entry["offset"] + count * dtype.itemsize > len(body):
                break  # truncated: raised below, past the malformed-header handler
            tables[kind][name] = np.frombuffer(body, dtype=dtype, count=count, offset=entry["offset"]
                                               ).reshape(entry["shape"]).astype(entry["dtype"])
        else:
            check_integers("epoch", header["epoch"], low=0)
            if header["stage"] not in STAGES:
                raise ValueError(f"stage must be one of {STAGES}, got {header['stage']!r}")
            return Checkpoint(
                params=tables["param"],
                opt=OptimizerState(**header["opt"], m=tables["m"], v=tables["v"]),
                epoch=header["epoch"],
                fingerprint=header["fingerprint"],
                cfg=ModelConfig(**header["cfg"]),
                rng_state=header["rng_state"],
                stage=header["stage"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    raise ValueError(f"{path}: truncated, the payload ends before {kind} tensor {name!r}")


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """A model holding the checkpoint's parameters; nothing is drawn at random."""
    model = Model(ckpt.cfg, seed=None)
    load_params(model, ckpt.params)
    return model


def load_params(model: Model, params: dict[str, np.ndarray]) -> None:
    own = model.parameters()
    if set(own) != set(params):
        missing = set(own) ^ set(params)
        raise FingerprintMismatch(f"parameter names disagree: {sorted(missing)[:4]}...")
    for name, arr in params.items():
        if own[name].data.shape != arr.shape:
            raise FingerprintMismatch(f"shape mismatch for {name}")
        own[name].data[...] = arr
    model.flat.zero_grad()


def _shapes(params: dict) -> dict[str, tuple]:
    return {name: p.shape for name, p in params.items()}


def snapshot(model: Model, opt: OptimizerState, epoch: int, rng: np.random.Generator,
             stage: str) -> Checkpoint:
    """A checkpoint of the model and ``opt``. Its parameters are views of
    one copy of the model's flat store, so training the model further
    leaves it as it is; ``opt`` is taken as it is (``_train`` hands over
    moment buffers that it writes no more)."""
    return Checkpoint(
        params=ad.unflatten(model.flat.data.copy(), _shapes(model.parameters())),
        opt=opt,
        epoch=epoch,
        fingerprint=model.cfg.fingerprint(),
        cfg=model.cfg,
        rng_state=rng.bit_generator.state,
        stage=stage,
    )


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainSettings:
    base_lr: float = 2e-3
    warmup: int = 400
    max_frames: int = 2000
    seed: int = 1
    log_path: Optional[str] = None  # appends a "step lr st ctc blank skipped stage" row per update

    def __post_init__(self):
        check_real("base_lr", self.base_lr, "(0, inf)")
        for name, low in (("warmup", 1), ("max_frames", 1), ("seed", 0)):
            check_integers(name, getattr(self, name), low=low)


def _train(corpus: Corpus, cfg: ModelConfig, epochs: int, stage: str,
           settings: TrainSettings, start: Optional[Checkpoint]) -> Checkpoint:
    check_integers("epochs", epochs, low=0)
    finetuning = stage == "finetune"  # all parameters on the total loss; else the encoder's on CTC
    if not finetuning and not cfg.use_ctc:
        raise ValueError("CTC pre-training requires use_ctc=true")
    if start is not None and start.fingerprint != cfg.fingerprint():
        raise FingerprintMismatch(
            f"checkpoint fingerprint {start.fingerprint} != config {cfg.fingerprint()}"
        )
    model = Model(cfg, seed=settings.seed if start is None else None)
    if start is not None:
        load_params(model, start.params)
    # the trained parameters lead the flat store; Adam's moments are flat
    # buffers over them, which the optimizer state holds by name as views
    trained = _shapes(model.parameters() if finetuning else model.encoder_parameters())
    n = sum(math.prod(s) for s in trained.values())
    m, v = np.empty(n, dtype=model.flat.data.dtype), np.empty(n, dtype=model.flat.data.dtype)
    # zeroed by writing: a fresh page then faults once, where calloc's pages would
    # fault twice in Adam's in-place update (a read of the zero page, then a write)
    m[...] = v[...] = 0.0
    named_m, named_v = ad.unflatten(m, trained), ad.unflatten(v, trained)
    if start is not None and start.stage == stage:
        # resuming the same stage: restore optimizer and data-order RNG,
        # into new buffers so the caller's checkpoint stays as it was
        for named, old in ((named_m, start.opt.m), (named_v, start.opt.v)):
            for name, arr in old.items():
                named[name][...] = arr
        opt = dataclasses.replace(start.opt, m=named_m, v=named_v)
        rng = np.random.default_rng()
        rng.bit_generator.state = start.rng_state
        epoch0 = start.epoch
    else:
        opt = OptimizerState(base_lr=settings.base_lr, warmup=settings.warmup, m=named_m, v=named_v)
        rng = np.random.default_rng(settings.seed)
        epoch0 = 0

    log_fh = open(settings.log_path, "a", encoding="utf-8") if settings.log_path else None
    try:
        batches = make_batches(corpus, settings.max_frames)
        for epoch in range(epoch0, epoch0 + epochs):
            order = rng.permutation(len(batches))
            updates = 0
            for bi in order:
                batch = batches[bi]
                ad.reset_tape()
                loss_st, loss_ctc, diag = model.forward_train(batch, rng=rng, compute_st=finetuning)
                if (loss_st if finetuning else loss_ctc) is None:
                    continue  # no utterance of the batch could train
                total = model.total_loss(loss_st, loss_ctc) if finetuning else loss_ctc
                total_val = total.item()
                if not np.isfinite(total_val):
                    raise NumericError(f"non-finite loss at step {opt.step + 1}")
                ad.backward(total)
                lr = ad.inverse_sqrt_lr(opt.step + 1, opt.base_lr, opt.warmup)
                ad.adam_step(model.flat, m, v, opt, lr)
                updates += 1
                if log_fh:
                    st_val, ctc_val = (float("nan") if x is None else x.item() for x in (loss_st, loss_ctc))
                    log_fh.write(f"{opt.step}\t{lr:.6g}\t{st_val:.6g}\t{ctc_val:.6g}\t"
                                 f"{diag['blank_fraction']:.4f}\t{len(diag['skipped_ids'])}\t{stage}\n")
            if updates == 0:
                raise NoUpdatesError(
                    f"{stage} epoch {epoch + 1} made no update: no batch had an utterance "
                    f"at least {cfg.downsample} frames long whose transcript aligns to its "
                    f"encoder frames"
                )
            log.info("%s epoch %d done (step %d)", stage, epoch + 1, opt.step)
    finally:
        if log_fh:
            log_fh.close()
    ad.reset_tape()
    return snapshot(model, opt, epoch0 + epochs, rng, stage)


def pretrain_ctc(corpus: Corpus, cfg: ModelConfig, epochs: int,
                 settings: TrainSettings = TrainSettings(),
                 start: Optional[Checkpoint] = None) -> Checkpoint:
    """Optimize the blank-limited CTC loss only; semantic encoder and
    decoder stay at their random initialization."""
    return _train(corpus, cfg, epochs, "pretrain", settings, start)


def finetune(corpus: Corpus, start: Checkpoint, cfg: ModelConfig, epochs: int,
             settings: TrainSettings = TrainSettings()) -> Checkpoint:
    """Joint objective: token NLL plus the weighted CTC term, end to end."""
    return _train(corpus, cfg, epochs, "finetune", settings, start)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(corpus: Corpus, model: Model, *, wait_k=None, stride_n=None, beam_size: int = 5,
             trace_sink: Optional[list] = None) -> dict:
    """Run the streaming engine per utterance; aggregate BLEU, AP, AL, the
    shrink-quality histogram and the utterances too short to encode
    (``skipped_ids``, each with its reason)."""
    seg_counts, transcript_lens = [], []
    utterances = []
    skipped_ids = {}
    for utt in corpus:
        reason = skip_reason(model.cfg, utt.n_frames, ())
        if reason is not None:
            skipped_ids[utt.id] = reason
            continue
        res = streaming.translate_stream(
            model, utt.features, wait_k=wait_k, stride_n=stride_n, beam_size=beam_size,
            reference_length=len(utt.target), tgt_vocab=corpus.tgt_vocab,
        )
        utterances.append((utt.id, corpus.tgt_vocab.decode(res.tokens),
                           corpus.tgt_vocab.decode(utt.target), res.record))
        if model.cfg.use_shrink:
            seg_counts.append(res.n_units)
            transcript_lens.append(len(utt.source))
        if trace_sink is not None:
            trace_sink.append((utt.id, res.trace))
    report = metrics_mod.summarize(utterances)
    report["shrink_quality"] = ctc_mod.shrink_quality(seg_counts, transcript_lens) if seg_counts else None
    report["skipped_ids"] = skipped_ids
    return report
