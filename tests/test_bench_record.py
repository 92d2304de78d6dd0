import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", REPO / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """bench_record pointed at a scratch root holding only BENCHMARK.json, with git stubbed out."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "" if args[0] == "status" else "abc123")
    return tmp_path


def fake_runner(calls, bad=lambda workload, run: {}):
    """A stand-in for run_json: perfbench runs give run-numbered rtf values, curves a fixed line.

    ``bad(workload, run)`` returns fields that override the run's final line or head line.
    """
    counts = {}

    def run_json(argv):
        calls.append(argv)
        if argv[0] != "perfbench/run.py":
            return [{"curve": argv[0]}]
        w = argv[argv.index("--workload") + 1]
        counts[w] = counts.get(w, 0) + 1
        override = bad(w, counts[w])
        head = {"workload": w, "output_digest": override.get("output_digest", "d" * 64), "failures": 0}
        last = {"correct": override.get("correct", True), "failed": override.get("failed", 0),
                "metrics": {"rtf": {"value": float(counts[w]), "unit": "s/s"},
                            "not_end_to_end": {"value": 1.0, "unit": "x"}}}
        return [head, last]

    return run_json


def test_summary_gives_median_and_inclusive_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0, 5.0], "ms") == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "unit": "ms"}


def test_summary_of_one_run_uses_its_value_for_every_statistic():
    assert bench_record.summary([0.5], "s") == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1, "unit": "s"}


@pytest.mark.parametrize("argv", [["--runs", "0"], ["--seconds", "0"], ["--seconds", "nan"]])
def test_bad_options_rejected(argv, fake_repo, monkeypatch):
    monkeypatch.setattr(bench_record, "run_json", fake_runner([]))
    with pytest.raises(SystemExit) as err:
        bench_record.main(["--label", "t", *argv])
    assert err.value.code == 2
    assert not (fake_repo / "BENCH_t.json").exists()


def test_record_holds_summaries_digests_and_curves(fake_repo, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record, "run_json", fake_runner(calls))
    assert bench_record.main(["--label", "t", "--runs", "3", "--seconds", "2"]) == 0

    record = json.loads((fake_repo / "BENCH_t.json").read_text())
    assert record["commit"] == "abc123" and record["tree_modified"] is False
    assert (record["seed"], record["runs"], record["seconds"]) == (12, 3, 2.0)
    assert set(record["workloads"]) == set(WORKLOADS)
    for w in WORKLOADS:
        assert record["workloads"][w]["output_digest"] == "d" * 64
        # only metrics that BENCHMARK.json declares end-to-end are summarised
        assert record["workloads"][w]["metrics"] == {"rtf": {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 3, "unit": "s/s"}}
    assert record["curves"] == {"stream_curve": {"curve": "tools/stream_curve.py"},
                                "train_step_curve": {"curve": "tools/train_step_curve.py"}}

    bench = [argv for argv in calls if argv[0] == "perfbench/run.py"]
    # workloads interleaved: one run of each before the next round, all at seed 12 and the given seconds
    assert [argv[argv.index("--workload") + 1] for argv in bench] == WORKLOADS * 3
    assert all(argv[argv.index("--seed") + 1] == "12" and argv[argv.index("--seconds") + 1] == "2.0"
               for argv in bench)


def test_curve_repeats_follow_runs_capped_at_three(fake_repo, monkeypatch):
    for runs, repeats in [(1, "1"), (5, "3")]:
        calls = []
        monkeypatch.setattr(bench_record, "run_json", fake_runner(calls))
        assert bench_record.main(["--label", "t", "--runs", str(runs), "--seconds", "1"]) == 0
        curves = [argv for argv in calls if argv[0].startswith("tools/")]
        assert len(curves) == 2
        assert all(argv[argv.index("--repeats") + 1] == repeats for argv in curves)


@pytest.mark.parametrize("bad, reason", [
    (lambda w, run: {"correct": False} if run == 2 else {}, "correct=False"),
    (lambda w, run: {"failed": 1} if w == WORKLOADS[-1] else {}, "failed=1"),
    (lambda w, run: {"output_digest": "e" * 64} if run == 3 else {}, "output digests differ"),
], ids=["incorrect run", "failed operation", "digest changes"])
def test_bad_run_exits_1_without_a_file(bad, reason, fake_repo, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_record, "run_json", fake_runner(calls, bad))
    assert bench_record.main(["--label", "t", "--runs", "3", "--seconds", "1"]) == 1
    assert reason in capsys.readouterr().err
    assert not (fake_repo / "BENCH_t.json").exists()
    assert not any(argv[0].startswith("tools/") for argv in calls), "curves run after a failed check"
