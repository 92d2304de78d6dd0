"""Tests of the benchmark's own arithmetic, failure counting and workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Target, Tracer, self_times  # noqa: E402

from simulst import data, metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nesting_counts_and_restores():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)
    owner.outer = lambda x: owner.inner(x) * 2
    original_inner = owner.inner
    tracer = Tracer()
    targets = [Target(owner, "outer", "outer"),
               Target(owner, "inner", "inner", count=lambda a, k: a[0])]
    tracer.set_op("stream:u1")
    with tracer.patched(targets):
        assert owner.outer(3) == 8
    assert owner.inner is original_inner
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_id"]] == ["outer", "inner"]
    assert list(spans["parent"]) == [-1, 0]
    assert list(spans["count"]) == [0.0, 3.0]
    assert [tracer.ops[i] for i in spans["op_id"]] == ["stream:u1", "stream:u1"]


def test_instance_wrapper_falls_back_to_the_class_method():
    class Layer:
        def forward(self):
            return "class"

    layer = Layer()
    with Tracer().patched([Target(layer, "forward", "layer.forward")]):
        assert "forward" in vars(layer)
        assert layer.forward() == "class"
    assert "forward" not in vars(layer)


def test_al_ca_equals_al_without_compute():
    record = metrics.LatencyRecord(token_listen_ms=(160.0, 320.0, 480.0, 640.0, 640.0),
                                   total_ms=640.0, source_frames=8, frame_ms=80.0,
                                   reference_length=4, lookahead_offset_ms=20.0)
    zero = [0.0] * 5
    assert run.computation_aware_al(record, zero) == pytest.approx(
        metrics.average_lagging(record), abs=1e-12)
    # compute only adds lag over the tokens before the cut-off
    slow = [10.0, 20.0, 30.0, 40.0, 1000.0]
    assert run.computation_aware_al(record, slow) == pytest.approx(
        metrics.average_lagging(record) + 25.0)


@pytest.fixture(scope="module")
def weights():
    run.import_package()
    return run.load_weights()


def test_al_ca_equals_al_on_a_session_without_compute(weights):
    _, model = weights
    utt = run.make_pool(run.SHORT).utterances[0]
    out = run.stream_utterance(model, utt, beam=5)
    assert out.tokens
    assert run.computation_aware_al(out.record, [0.0] * len(out.tokens)) == pytest.approx(
        metrics.average_lagging(out.record), abs=1e-9)


def test_infeasible_utterances_fail_their_batches(weights):
    ckpt, _ = weights
    task = data.SyntheticTaskConfig(frames_per_token=(2, 5), length_range=(3, 8), seed=0)
    corpus = data.generate_synthetic_corpus(task, 6)
    stats = run.TrainStats()
    run.train_batch(ckpt, corpus, 0, 0, stats, None)
    assert stats.attempted == stats.failed == 1
    assert stats.updates == 0
    assert stats.skipped == len(corpus)
    assert not stats.batches


def fake_output(seconds, tokens=(5,)):
    record = metrics.LatencyRecord(token_listen_ms=(80.0,) * len(tokens), total_ms=80.0,
                                   source_frames=8, frame_ms=10.0, reference_length=1)
    return run.StreamOutput(list(tokens), record, 1, ["open", "push", "write", "finalize"],
                            list(seconds), [0, 0, len(tokens), 0])


def test_stream_stats_take_each_calls_median_at_reference_speed():
    model = types.SimpleNamespace(cfg=types.SimpleNamespace(frame_ms=10.0, n_blocks=3))
    utt = types.SimpleNamespace(id="u", n_frames=8, source=[1, 2])
    stats = run.StreamStats()
    # the third round ran at half the reference speed
    rounds = [([1.0, 4.0, 2.0, 1.0], 1.0), ([2.0, 3.0, 5.0, 1.0], 1.0), ([3.0, 8.0, 4.0, 2.0], 2.0)]
    for seconds, slowdown in rounds:
        stats.add(utt, fake_output(seconds), model)
        stats.reference.seconds.append(run.REFERENCE_S * slowdown)
    assert stats.utts["u"].call_s(stats.reference) == pytest.approx([1.5, 4.0, 2.0, 1.0])
    assert stats.call_ms("push") == pytest.approx([4000.0])
    assert stats.utts["u"].token_compute_ms(stats.reference) == pytest.approx([7500.0])
    stats.add(utt, fake_output([1.0] * 4, tokens=(6,)), model)
    assert stats.mismatched == ["u"]


def test_output_length_bins_fix_the_mix():
    # three utterances at each of four output tokens per input frame
    pool = [types.SimpleNamespace(id=f"u{i}", n_frames=10 + i) for i in range(12)]
    tokens = {u.id: (i % 4) * u.n_frames for i, u in enumerate(pool)}
    table = {"tokens": tokens, "al_ms": {u.id: float(i) for i, u in enumerate(pool)}}
    for seed in range(5):
        picked = run.pick_by_output_length(pool, table, 4, np.random.default_rng(seed))
        assert sorted(tokens[u.id] / u.n_frames for u in picked) == [0, 1, 2, 3]


def test_interleave_spreads_the_shorter_list():
    assert run.interleave(list("abcd"), ["X"]) == ["a", "b", "X", "c", "d"]


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload,
                               stream_utterances=1 if name == "stream_long" else 3,
                               train_batches=1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(weights, name):
    result = run.measure(tiny(name), seed=3, seconds=0, tracer=None)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric(weights):
    result = run.measure(tiny("stream_short"), seed=3, seconds=0, tracer=Tracer())
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["streaming.units_per_src_token"]["value"] >= 0.5


def test_cli_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
