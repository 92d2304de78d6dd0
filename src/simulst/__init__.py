"""Desk-scale simultaneous speech translation pipeline.

Submodules:
    autodiff   dense tensors with reverse-mode differentiation, Adam, lr schedule
    ctc        CTC loss, blank-limited variant, greedy paths, boundary detection
    shrink     weighted shrinking of frame states into segment states
    model      acoustic encoder, semantic encoder, decoder, wait-k-stride-n masks
    streaming  incremental read/write inference engine with local beam reranking
    metrics    AP / AL latency metrics and corpus BLEU
    data       synthetic task generator, feature I/O, vocab, batching
    train      two-stage training, checkpointing, evaluation
"""

__version__ = "0.1.0"
