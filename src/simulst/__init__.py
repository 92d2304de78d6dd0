"""Desk-scale simultaneous speech translation pipeline.

``python -m simulst OUT_DIR`` runs the whole recipe: CTC pre-training,
joint fine-tuning, and streaming evaluation of held-out utterances.

Submodules:
    autodiff   dense tensors with reverse-mode differentiation, Adam, lr schedule
    ctc        CTC loss, blank-limited variant, greedy paths, boundary detection
    shrink     weighted shrinking of frame states into segment states
    model      acoustic encoder, semantic encoder, decoder, wait-k-stride-n masks
    streaming  incremental read/write inference engine with local beam reranking
    metrics    AP / AL latency metrics, corpus BLEU, report and trace writers
    data       synthetic task generator, vocab, batching
    train      two-stage training, checkpointing, evaluation
    __main__   the end-to-end recipe behind ``python -m simulst``
"""

__version__ = "0.1.0"
