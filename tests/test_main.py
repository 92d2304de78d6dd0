import pytest

from simulst import __main__ as driver
from simulst import train


def test_no_out_dir_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        driver.main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: simulst")


def test_tiny_recipe_end_to_end(tmp_path, monkeypatch, capsys):
    for name, value in dict(PRETRAIN_UTTERANCES=4, FINETUNE_UTTERANCES=4, EVAL_UTTERANCES=3,
                            PRETRAIN_EPOCHS=1, FINETUNE_EPOCHS=1).items():
        monkeypatch.setattr(driver, name, value)
    out = tmp_path / "run"
    assert driver.main([str(out)]) == 0

    summary = capsys.readouterr().out.strip()
    report = (out / "report.tsv").read_text().splitlines()
    assert report[0].startswith("id\t") and len(report) == 1 + 3 + 1
    assert report[-1].startswith(summary) and summary.startswith("SUMMARY\tBLEU=")
    assert "skipped=0" in summary
    eval_ids = {f"syn{n:05d}" for n in range(4, 7)}
    assert {row.split("\t")[0] for row in report[1:-1]} == eval_ids
    trace = [line.split("\t") for line in (out / "trace.tsv").read_text().splitlines()]
    assert sorted(utt for utt, _, action, _ in trace if action == "META") == sorted(eval_ids)
    m = train.model_from_checkpoint(train.load_checkpoint(out / "model.ckpt"))
    assert m.cfg == driver.MODEL
    log = [row.split("\t") for row in (out / "train.log").read_text().splitlines()]
    assert log and all(len(row) == 7 for row in log)
    stages = [row[-1] for row in log]
    n_pretrain, n_finetune = stages.count("pretrain"), stages.count("finetune")
    assert n_pretrain and n_finetune and stages == ["pretrain"] * n_pretrain + ["finetune"] * n_finetune
