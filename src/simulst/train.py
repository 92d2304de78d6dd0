"""Two-stage training (CTC pre-training, then joint fine-tuning),
checkpointing with bit-exact resume, and the evaluation loop driving the
streaming engine.

A checkpoint holds its parameters, and Adam's moments, as ``ad.FlatViews``:
one flat buffer per table in the layout the config gives its parameters
(``model.param_layout``), the moments over the trained leading ones. A
training call starts its model with one copy of the start's buffer, and
hands out that model's own store as the new checkpoint's parameters: the
model ends with the call, so nothing else writes the store.

Checkpoint file: magic "RTCK0001", u64 little-endian JSON header length,
a JSON header (config, fingerprint, optimizer scalars, RNG state, tensor
manifest), then the raw little-endian tensor payload. Loading reads each
tensor straight into its slot of its table's buffer.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from collections.abc import Mapping
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
from .model import Model, ModelConfig, param_layout, skip_reason

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
    params: Mapping[str, np.ndarray]
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
    """The checkpoint at ``path``. Its parameters must be those its config
    declares, and each moment table the config's leading parameters."""
    raw = Path(path).read_bytes()
    if raw[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated, {len(raw)} bytes hold no header length")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if 16 + hlen > len(raw):
        raise ValueError(f"{path}: truncated, {len(raw)} bytes hold no {hlen}-byte header")
    body = memoryview(raw)[16 + hlen:]
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        cfg = ModelConfig(**header["cfg"])
        layout = param_layout(cfg).flat
        entries: dict[str, list] = {"param": [], "m": [], "v": []}
        for entry in header["tensors"]:
            entries[entry["kind"]].append(entry)
        tables = {kind: _read_table(body, group, layout if kind == "param" else layout.head(len(group)), kind)
                  for kind, group in entries.items()}
        check_integers("epoch", header["epoch"], low=0)
        if header["stage"] not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {header['stage']!r}")
        return Checkpoint(
            params=tables["param"],
            opt=OptimizerState(**header["opt"], m=tables["m"], v=tables["v"]),
            epoch=header["epoch"],
            fingerprint=header["fingerprint"],
            cfg=cfg,
            rng_state=header["rng_state"],
            stage=header["stage"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    except EOFError as exc:
        raise ValueError(f"{path}: truncated, {exc}") from None


def _read_table(body: memoryview, entries: list, layout: ad.Layout, kind: str) -> ad.FlatViews:
    """The ``kind`` tensors that ``entries`` place in the payload ``body``,
    read into one buffer laid out by ``layout``, whose names they must be.
    Raises ``EOFError`` when the payload ends before a tensor does."""
    if sorted(e["name"] for e in entries) != sorted(layout.shapes):
        raise ValueError(f"the {kind} tensors are not the config's {len(layout.shapes)} leading parameters")
    dtype = np.dtype(entries[0]["dtype"]) if entries else ad.default_dtype()
    flat = np.empty(layout.size, dtype=dtype)
    for entry in entries:
        name = entry["name"]
        if np.dtype(entry["dtype"]) != dtype or tuple(entry["shape"]) != layout.shapes[name]:
            raise ValueError(f"{kind} tensor {name!r} is not {dtype} of shape {layout.shapes[name]}")
        start, end = layout.spans[name]
        if entry["offset"] + (end - start) * dtype.itemsize > len(body):
            raise EOFError(f"the payload ends before {kind} tensor {name!r}")
        flat[start:end] = np.frombuffer(body, dtype=dtype.newbyteorder("<"), count=end - start, offset=entry["offset"])
    return ad.FlatViews(layout, flat)


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """A model holding the checkpoint's parameters; nothing is drawn at random."""
    model = Model(ckpt.cfg, seed=None)
    load_params(model, ckpt.params)
    return model


def load_params(model: Model, params: Mapping[str, np.ndarray]) -> None:
    """Writes ``params`` into the model's flat store, leaving its gradients
    as they are (zero in a fresh model)."""
    _fill(model.flat.data, model.layout.flat, params)


def _fill(flat: np.ndarray, layout: ad.Layout, named: Mapping[str, np.ndarray]) -> None:
    """Writes the arrays ``named`` into the 1-D ``flat`` laid out by
    ``layout``: one copy from ``FlatViews`` in that layout, else one per
    name. Other names or shapes raise ``FingerprintMismatch``."""
    if isinstance(named, ad.FlatViews) and named.layout == layout:
        flat[...] = named.data
        return
    if set(named) != set(layout.shapes):
        missing = set(layout.shapes) ^ set(named)
        raise FingerprintMismatch(f"parameter names disagree: {sorted(missing)[:4]}...")
    for name, arr in named.items():
        if arr.shape != layout.shapes[name]:
            raise FingerprintMismatch(f"shape mismatch for {name}")
        layout.view(flat, name)[...] = arr


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
    # buffers over them, which the optimizer state holds as FlatViews
    trained = model.layout.flat if finetuning else model.layout.encoder
    m, v = (np.empty(trained.size, dtype=model.flat.data.dtype) for _ in range(2))
    if start is not None and start.stage == stage:
        # resuming the same stage: restore optimizer and data-order RNG,
        # into new buffers so the caller's checkpoint stays as it was
        _fill(m, trained, start.opt.m)
        _fill(v, trained, start.opt.v)
        opt = dataclasses.replace(start.opt, m=ad.FlatViews(trained, m), v=ad.FlatViews(trained, v))
        rng = np.random.default_rng()
        rng.bit_generator.state = start.rng_state
        epoch0 = start.epoch
    else:
        # zeroed by writing: a fresh page then faults once, where calloc's pages would
        # fault twice in Adam's in-place update (a read of the zero page, then a write)
        m[...] = v[...] = 0.0
        opt = OptimizerState(base_lr=settings.base_lr, warmup=settings.warmup,
                             m=ad.FlatViews(trained, m), v=ad.FlatViews(trained, v))
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
    # the model ends with this call, so its store is handed out, not copied
    return Checkpoint(params=ad.FlatViews(model.layout.flat, model.flat.data), opt=opt, epoch=epoch0 + epochs,
                      fingerprint=cfg.fingerprint(), cfg=cfg, rng_state=rng.bit_generator.state, stage=stage)


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
