"""Command-line front end.

Commands: train, eval, calibrate, ablate, inspect-filters. Commands take
a JSON experiment config (dataset/model/training/evaluation sections)
and/or a checkpoint, are deterministic given their inputs, and write
reports atomically (temp file, rename on success); `train` places its
history and checkpoint together or neither, and `eval` all three of its
reports or none. Training and evaluation run through the library's own
`experiments.train_models` and `experiments.evaluate_detection`. Module
errors surface as a one-line diagnostic on stderr and a nonzero exit
code. Each command computes its results before its first write, which
creates the `--out` directory, so a command that fails while computing
writes nothing. Only `train` and `ablate` take `--seed`: on `train` it is
the training seed, on `ablate` the base of the seed matrix. `eval` and
`calibrate` read the model from the checkpoint and the split from the
config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import experiments, novelty_eval
from .data_io import csv_text, write_all_atomic
from .dual_trainer import MODES, EpochStats, checkpoint_bytes, load_checkpoint
from .errors import NovnetError, UnsupportedArchitectureError, to_json
from .experiments import ABLATION_MODES, parse_experiment_config
from .filter_analysis import build_filter_report
from .nn_core import GlobalAveragePool

CHECKPOINT_NAME = "checkpoint.nvfg"


def _load_config(args) -> experiments.ExperimentConfig:
    """The parsed config, with the `--seed`/`--mode`/`--target-fnr` flags
    that were given replacing its values (and checked like them)."""
    cfg = parse_experiment_config(args.config)

    def given(*keys):
        return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}

    return replace(cfg, training=replace(cfg.training, **given("seed", "mode")),
                   evaluation=replace(cfg.evaluation, **given("target_fnr")))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    # Training reads only the train split and, when its mode uses it, the
    # reference data: the novel split is not kept, and the test split is
    # dropped before training.
    roles = ("known", "reference") if cfg.training.uses_reference else ("known",)
    data = replace(experiments.assemble_datasets(cfg.dataset, roles), test_T=None)
    [(model, history)] = experiments.train_models([(cfg, data)])

    history_path = os.path.join(args.out, "history.csv")
    header = [field.name for field in fields(EpochStats)]
    final_metrics = to_json(history[-1]) if history else {}
    checkpoint_path = os.path.join(args.out, CHECKPOINT_NAME)
    # Both files are placed, or neither.
    write_all_atomic({
        history_path: csv_text(header, [[getattr(h, name) for h in history] for name in header]),
        checkpoint_path: checkpoint_bytes(model, cfg.training, epoch=len(history), metrics=final_metrics),
    })
    print(checkpoint_path)
    print(history_path)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = load_checkpoint(args.checkpoint).model
    data = experiments.assemble_datasets(cfg.dataset, ("known", "novel"))
    records, roc, accuracy = experiments.evaluate_detection(model, data)
    scores_text, roc_text = novelty_eval.report_texts(records, roc)
    summary = {
        "auc": round(roc.auc, 4),
        "accuracy": round(accuracy, 4),
        "n_known_test": len(data.test_T),
        "n_novel_test": len(data.novel),
    }
    # All three files are placed, or none.
    write_all_atomic({
        os.path.join(args.out, "scores.csv"): scores_text,
        os.path.join(args.out, "roc.csv"): roc_text,
        os.path.join(args.out, "summary.json"): json.dumps(summary, indent=2) + "\n",
    })
    print(json.dumps(summary))
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    model = load_checkpoint(args.checkpoint).model
    data = experiments.assemble_datasets(cfg.dataset, ("known",))
    scores = novelty_eval.score_dataset(model, data.test_T, is_novel=False).score
    threshold = novelty_eval.calibrate_threshold(scores, cfg.evaluation.target_fnr)
    payload = {
        "gamma": threshold.gamma,
        "percentile": threshold.percentile,
        "sample_count": threshold.sample_count,
        "realized_fnr": novelty_eval.realized_fnr(scores, threshold),
    }
    write_all_atomic({os.path.join(args.out, "threshold.json"): json.dumps(payload, indent=2) + "\n"})
    print(json.dumps(payload))
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    modes = (args.mode,) if args.mode else ABLATION_MODES
    rows = experiments.run_ablation(cfg, modes=modes, n_seeds=args.seeds)
    means = experiments.ablation_means(rows)
    # One row per (mode, seed), then one `mean` row per mode.
    columns = [[row.mode for row in rows] + list(modes),
               [row.seed for row in rows] + ["mean"] * len(modes),
               [row.auc for row in rows] + [means[mode] for mode in modes],
               [row.accuracy for row in rows] + [""] * len(modes)]
    write_all_atomic({os.path.join(args.out, "ablation.csv"):
                      csv_text(["mode", "seed", "auc", "accuracy"], columns)})
    for mode in modes:
        print(f"{mode}\t{means[mode]:.4f}")
    return 0


def cmd_inspect_filters(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    model = checkpoint.model
    layers = model.backbone_spec.layers
    if not layers or not isinstance(layers[-1], GlobalAveragePool):
        raise UnsupportedArchitectureError(
            "filter inspection needs a backbone ending in global-average-pool feeding the dense head")
    weights = model.head_T["layer0.weight"][: model.num_known]
    report = build_filter_report(weights)
    path = os.path.join(args.out, "filter_report.json")
    write_all_atomic({path: json.dumps(report.to_json_dict(), indent=2) + "\n"})
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novnet",
        description="Train, evaluate, and inspect multiple-class novelty detection models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False, checkpoint=False):
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p, config=True)
    p.add_argument("--seed", type=int, default=None, help="training seed (default: the training section's)")
    p.add_argument("--mode", choices=MODES, default=None, help="override the training mode")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score test data, write ROC/AUC and accuracy reports")
    add_common(p, config=True, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="calibrate the novelty threshold from matched scores")
    add_common(p, config=True, checkpoint=True)
    p.add_argument("--target-fnr", type=float, default=None,
                   help="accepted false-negative rate (default: evaluation section, 0.05)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("ablate", help="run the ablation matrix (modes x seeds)")
    add_common(p, config=True)
    p.add_argument("--seed", type=int, default=None,
                   help="base of the seed matrix (default: the training section's seed)")
    p.add_argument("--seeds", type=int, default=10, help="number of repetitions per mode")
    p.add_argument("--mode", choices=experiments.ABLATION_MODES, default=None,
                   help="restrict to a single mode")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect-filters", help="emit the per-class filter sign report")
    add_common(p, checkpoint=True)
    p.set_defaults(func=cmd_inspect_filters)

    return parser


# Built once per process: parse_args returns a fresh namespace and leaves
# the parser as it was, so every call of main() can share it.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NovnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
