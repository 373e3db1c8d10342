"""A corrupted output counts as a failed operation."""

import json
import os
import shutil

import pytest

from perfbench import checks
from perfbench.run import Call, _digest_outputs, run_cli
from perfbench.workloads import CHECKPOINT_DIR, CONFIG_NAME, OUTPUT_FILES, WORKLOADS

SEED = 1


@pytest.fixture(scope="module")
def eval_large(tmp_path_factory):
    """A set-up checkpoint and one eval -> calibrate cycle of eval-large."""
    from novnet import cli

    workload = WORKLOADS["eval-large"]
    d = str(tmp_path_factory.mktemp("eval-large"))
    workload.write_inputs(SEED, d)
    for argv in workload.setup_calls(d)[:1] + workload.cycle_calls(d):
        assert run_cli(cli, argv).rc == 0
    sizes = {"n_known_classes": 4}
    return workload, d, sizes


def _copy(d, tmp_path):
    target = str(tmp_path / "copy")
    shutil.copytree(d, target)
    return target


def _judge(workload, d, sizes, command):
    argv = next(a for a in workload.cycle_calls(d) if a[0] == command)
    return checks.judge_op(workload.name, argv, os.path.join(d, "out"), SEED, sizes)


def _tally_one(workload, d, sizes, command):
    """attempted, failed for two cycles of one call judged on d."""
    argv = next(a for a in workload.cycle_calls(d) if a[0] == command)
    call = Call(argv, 0, 0.1, "")
    outputs = _digest_outputs(os.path.join(d, "out"), command, OUTPUT_FILES)
    verdicts = [_judge(workload, d, sizes, command)]
    attempted, failed, _ = checks.tally([([call], [outputs])] * 2, verdicts)
    return attempted, failed


def test_clean_outputs_pass(eval_large):
    workload, d, sizes = eval_large
    assert _judge(workload, d, sizes, "eval") == [[]]
    assert _judge(workload, d, sizes, "calibrate") == [[]]
    assert checks.check_train(os.path.join(d, CHECKPOINT_DIR), os.path.join(d, CONFIG_NAME)) == []
    assert _tally_one(workload, d, sizes, "eval") == (2, 0)


def test_wrong_auc_fails(eval_large, tmp_path):
    workload, d, sizes = eval_large
    d = _copy(d, tmp_path)
    roc = os.path.join(d, "out", "roc.csv")
    with open(roc) as fh:
        lines = fh.read().splitlines()
    auc = float(lines[-1].split(",")[1])
    lines[-1] = f"auc,{auc + 1e-9!r}"
    with open(roc, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("oracle" in p for p in _judge(workload, d, sizes, "eval")[0])
    assert _tally_one(workload, d, sizes, "eval") == (2, 2)


def test_wrong_summary_auc_fails(eval_large, tmp_path):
    workload, d, sizes = eval_large
    d = _copy(d, tmp_path)
    path = os.path.join(d, "out", "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["auc"] = round(summary["auc"] + 0.001, 4)
    with open(path, "w") as fh:
        json.dump(summary, fh)
    assert _tally_one(workload, d, sizes, "eval") == (2, 2)


def test_flipped_checkpoint_byte_fails(eval_large, tmp_path):
    workload, d, _ = eval_large
    d = _copy(d, tmp_path)
    path = os.path.join(d, CHECKPOINT_DIR, "checkpoint.nvfg")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] ^= 0x01  # inside the last parameter's float64 payload
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    problems = checks.check_train(os.path.join(d, CHECKPOINT_DIR), os.path.join(d, CONFIG_NAME))
    assert any("differs from the library's training run" in p for p in problems)
    call = Call(workload.cycle_calls(d)[0], 0, 0.1, "")
    attempted, failed, _ = checks.tally([([call], [{}])], [[[]]], problems)
    assert (attempted, failed) == (1, 1)


@pytest.mark.parametrize("command, name", [("eval", "summary.json"), ("eval", "scores.csv"),
                                           ("calibrate", "threshold.json")])
def test_missing_report_file_fails(eval_large, tmp_path, command, name):
    workload, d, sizes = eval_large
    d = _copy(d, tmp_path)
    os.remove(os.path.join(d, "out", name))
    assert f"missing {name}" in _judge(workload, d, sizes, command)[0]
    assert _tally_one(workload, d, sizes, command) == (2, 2)


def test_outputs_differing_from_the_first_cycle_fail(eval_large):
    workload, d, sizes = eval_large
    argv = workload.cycle_calls(d)[0]
    call = Call(argv, 0, 0.1, "")
    outputs = _digest_outputs(os.path.join(d, "out"), "eval", OUTPUT_FILES)
    changed = dict(outputs, **{"scores.csv": "0" * 64})
    attempted, failed, _ = checks.tally([([call], [outputs]), ([call], [changed])], [[[]]])
    assert (attempted, failed) == (2, 1)


def test_a_call_that_fails_counts_as_failed(tmp_path):
    from novnet import cli

    call = run_cli(cli, ["eval", "--config", str(tmp_path / "absent.json"),
                         "--checkpoint", str(tmp_path / "absent.nvfg"), "--out", str(tmp_path)])
    assert call.rc == 1
    attempted, failed, problems = checks.tally([([call], [{}])], [[[]]])
    assert (attempted, failed) == (1, 1) and "exited 1" in problems[0]


def test_ablation_row_with_a_wrong_auc_fails(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = [("ce-only", "0", 0.75, 0.9, []), ("dual-full", "3", 0.8, 0.9, [])]
    text = "mode,seed,auc,accuracy\nce-only,0,0.75,0.9\ndual-full,3,0.8000001,0.9\n" \
           "ce-only,mean,0.75,\ndual-full,mean,0.8000001,\n"
    (out / "ablation.csv").write_text(text)
    per_row = checks.check_ablation(str(out), rows, 2)
    assert per_row[0] == []
    assert any("oracle" in p for p in per_row[1])
