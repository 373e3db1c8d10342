"""Golden outputs: fixed configs must keep producing bit-identical files.

The hashes pin the checkpoint and `history.csv` that `novnet train`
writes for `configs/benchmark-quick.json` in every training mode and for
`configs/conv-demo.json`, the `eval`/`calibrate` reports for the
benchmark-quick checkpoint, and the exact AUC and accuracy of four rows
of the ablation matrix on `configs/benchmark.json`, two of them from
later reps. A refactor that changes any of them changes behaviour.
Regenerate only for a change that is meant to alter results, and say so
where the change is recorded.
"""

import hashlib
import os

import pytest

from novnet import cli, experiments

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
QUICK = os.path.join(CONFIGS, "benchmark-quick.json")
BENCHMARK = os.path.join(CONFIGS, "benchmark.json")

TRAIN_GOLDEN = {
    # (config, --mode override): (checkpoint.nvfg sha256, history.csv sha256)
    ("benchmark-quick.json", "ce-only"): (
        "f4f3db9824bd6e783a38a933249167521102ed4e5847a22bb830c3c7f6165a46",
        "60c775b6a3b17d4b774914f08d326956a501e6be604ee953cae0cd264fb61350"),
    ("benchmark-quick.json", "ce+membership"): (
        "3ab0a56f5dd60f1bf240616aed6f76582ef81980c96b1a0c5710178552d61d37",
        "b100769153109fb5cf0097e1021fdee335d61b090e4309d00e8213a1206c9b69"),
    ("benchmark-quick.json", "dual-ce"): (
        "efe74e8c9deb3615439916f7196e7a3beb3ffc71b37c4acf2e212c66a5636667",
        "358937d11114f4bacc6a147da0684cd5a520024e5c2cda9fe23be49ec5d0b331"),
    ("benchmark-quick.json", "dual-full"): (
        "bc9e09b5610de91f59480110868e4ee6d3383435db003021c050a1c99c0b09ca",
        "da11a2d6842515f22ccee6411214ff2c1fb7271001ff3cea8661fa8fbd069df5"),
    ("benchmark-quick.json", "finetune-cC"): (
        "6df689cfa5784cc6f734c812b38c04c3f090c4886f8e673717b0adfc8f124176",
        "18114e8dcff4f6bdb4d20b8c2b567980fb0eed43be8157dec592b77af39efb39"),
    ("conv-demo.json", None): (
        "0bd35ecf05633ea70f52b961186b8d3195e99297a221a920a5e434c25f71fccb",
        "837cfb9374fd72585d0b9e6efa342741c8fa72c79e66e526cfdc274522bc91e8"),
}

EVAL_GOLDEN = {
    # file written by eval/calibrate for the benchmark-quick dual-full checkpoint
    "scores.csv": "d528a3c8f22f91d7d14144484bd4a9caaab9529ca5729e795c139d42da865740",
    "roc.csv": "14268856db8eecd8d216a808a8962a7d7db9d8de2cc0deb413d4eab4e8f880a9",
    "summary.json": "7cdc0374b94fe7697247dc73ecb25ce17852e06b94e7b8c559e6e8024bb38912",
    "threshold.json": "70caafdb6d05399e50c63d6a4436a6672e7e49fba3e861a93aab4313a58b5570",
}

ABLATION_GOLDEN = [
    # (mode, seed, repr(auc), repr(accuracy))
    ("ce-only", 0, "0.7675468750000012", "0.8925"),
    ("dual-full", 3, "0.7822156249999984", "0.8975"),
]

LATER_REP_GOLDEN = [
    # rows of reps 1 and 9, so every rep's data and seeds are exercised
    ("dual-ce", 6, "0.70901875", "0.8975"),
    ("ce+membership", 37, "0.7522593750000022", "0.88"),
]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _train(config, mode, out) -> None:
    argv = ["train", "--config", config, "--out", str(out)]
    if mode is not None:
        argv += ["--mode", mode]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("config,mode", list(TRAIN_GOLDEN))
def test_train_outputs_bit_identical(tmp_path, capsys, config, mode):
    _train(os.path.join(CONFIGS, config), mode, tmp_path)
    got = (_sha256(tmp_path / "checkpoint.nvfg"), _sha256(tmp_path / "history.csv"))
    assert got == TRAIN_GOLDEN[(config, mode)]


def test_eval_and_calibrate_outputs_bit_identical(tmp_path, capsys):
    _train(QUICK, None, tmp_path / "train")
    checkpoint = str(tmp_path / "train" / "checkpoint.nvfg")
    for command in ("eval", "calibrate"):
        assert cli.main([command, "--config", QUICK, "--checkpoint", checkpoint,
                         "--out", str(tmp_path / "eval")]) == 0
    got = {name: _sha256(tmp_path / "eval" / name) for name in EVAL_GOLDEN}
    assert got == EVAL_GOLDEN


def test_ablation_rows_exact():
    cfg = experiments.parse_experiment_config(BENCHMARK)
    rows = experiments.run_ablation(cfg, modes=("ce-only", "dual-full"), n_seeds=1)
    got = [(row.mode, row.seed, repr(row.auc), repr(row.accuracy)) for row in rows]
    assert got == ABLATION_GOLDEN


def test_later_rep_ablation_rows_exact():
    cfg = experiments.parse_experiment_config(BENCHMARK)
    rows = experiments.run_ablation(cfg, modes=("ce+membership", "dual-ce"), n_seeds=10)
    got = {(row.mode, row.seed): (row.mode, row.seed, repr(row.auc), repr(row.accuracy))
           for row in rows}
    assert [got[mode, seed] for mode, seed, _, _ in LATER_REP_GOLDEN] == LATER_REP_GOLDEN
