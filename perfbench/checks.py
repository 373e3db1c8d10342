"""Correctness checks on the files each CLI call writes.

Every check returns a list of problems; an empty list means the output
is correct. `judge_op` picks the checks for one command. An operation
whose output has any problem counts as failed.

Checks that hold for any seed:
- every reported AUC equals `auc_pairwise_oracle` on the same scores
  within 1e-12 (ablation rows are re-derived through the library);
- a checkpoint round-trips bit-exactly through load/save;
- calibration's realized false-negative rate is at most its target;
- every loss is finite;
- closed-set accuracy is above chance.
At the default seed the report files must also equal the golden copies
under golden/<workload>/ byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from .workloads import CONFIG_NAME, OUTPUT_FILES, TARGET_FNR, AblateDense

AUC_TOLERANCE = 1e-12
SUMMARY_ROUNDING = 5e-5  # summary.json stores the AUC rounded to 4 digits
DEFAULT_SEED = 0
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_FILES = {
    "ablate-dense": ("ablation.csv",),
    "conv-train": ("summary.json", "threshold.json", "filter_report.json"),
    "eval-large": ("summary.json", "threshold.json"),
}
# Chunk of known scores per oracle call, to keep the pairwise matrix small
# on eval-large (4,000 x 8,000 at once would be 256 MB).
ORACLE_CHUNK = 256


def oracle_auc(known, novel) -> float:
    """auc_pairwise_oracle over row chunks of the known scores."""
    from novnet.novelty_eval import auc_pairwise_oracle

    known = np.asarray(known, dtype=np.float64)
    total = 0.0
    for start in range(0, known.size, ORACLE_CHUNK):
        part = known[start:start + ORACLE_CHUNK]
        total += auc_pairwise_oracle(part, novel) * part.size
    return float(total / known.size)


def _read_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


def _read_csv(path, problems):
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


def check_files_exist(out: str, command: str) -> list[str]:
    return [f"missing {name}" for name in OUTPUT_FILES[command]
            if not os.path.isfile(os.path.join(out, name))]


def check_train(out: str, config: str) -> list[str]:
    """Finite losses; the checkpoint round-trips bit-exactly through
    load/save and holds exactly the parameters and loss history that the
    library's `run_experiment` trains from the same config."""
    from novnet import experiments
    from novnet.dual_trainer import load_checkpoint, save_checkpoint
    from novnet.errors import NovnetError

    problems = check_files_exist(out, "train")
    if problems:
        return problems
    rows = _read_csv(os.path.join(out, "history.csv"), problems) or []
    try:
        history = [[float(v) for v in row[1:]] for row in rows[1:]]
    except ValueError as exc:
        return problems + [f"history.csv: {exc}"]
    if not all(math.isfinite(v) for row in history for v in row):
        problems.append("history.csv has a non-finite loss")
    path = os.path.join(out, "checkpoint.nvfg")
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        ck = load_checkpoint(path)
    except NovnetError as exc:
        return problems + [f"checkpoint does not load: {exc}"]
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        copy = os.path.join(tmp, "roundtrip.nvfg")
        save_checkpoint(ck.model, ck.config, copy, epoch=ck.epoch, metrics=ck.metrics)
        with open(copy, "rb") as fh:
            if fh.read() != original:
                problems.append("checkpoint does not round-trip bit-exactly")
    expected = experiments.run_experiment(experiments.parse_experiment_config(config))
    for group in ("backbone", "head_T", "head_R"):
        want, got = getattr(expected.model, group), getattr(ck.model, group)
        if (want is None) != (got is None) or want is not None and (
                want.keys() != got.keys() or not all(np.array_equal(want[k], got[k]) for k in want)):
            problems.append(f"checkpoint {group} differs from the library's training run")
    want_history = [[h.loss_ce_R, h.loss_ce_T, h.loss_m_T, h.cumulative] for h in expected.history]
    if history != want_history:
        problems.append("history.csv differs from the library's training run")
    return problems


def read_scores(out: str, problems: list[str]):
    """(known scores, novel scores) from scores.csv."""
    rows = _read_csv(os.path.join(out, "scores.csv"), problems)
    if rows is None:
        return None
    known, novel = [], []
    try:
        for row in rows[1:]:
            (novel if int(row[4]) else known).append(float(row[1]))
    except (ValueError, IndexError) as exc:
        problems.append(f"scores.csv: {exc}")
        return None
    return known, novel


def check_eval(out: str, n_known_classes: int) -> list[str]:
    """AUC in roc.csv and summary.json against the pairwise oracle on
    the scores in scores.csv; counts; accuracy above chance."""
    problems = check_files_exist(out, "eval")
    if problems:
        return problems
    scores = read_scores(out, problems)
    roc_rows = _read_csv(os.path.join(out, "roc.csv"), problems)
    summary = _read_json(os.path.join(out, "summary.json"), problems)
    if scores is None or roc_rows is None or summary is None:
        return problems
    known, novel = scores
    if not known or not novel:
        return problems + ["scores.csv needs known and novel scores"]
    expected = oracle_auc(known, novel)
    try:
        roc_auc = float(roc_rows[-1][1]) if roc_rows[-1][0] == "auc" else None
    except (ValueError, IndexError):
        roc_auc = None
    if roc_auc is None:
        problems.append("roc.csv has no auc trailer")
    elif not abs(roc_auc - expected) <= AUC_TOLERANCE:
        problems.append(f"roc.csv auc {roc_auc!r} != oracle {expected!r}")
    try:
        auc = float(summary["auc"])
        accuracy = float(summary["accuracy"])
        counts = (int(summary["n_known_test"]), int(summary["n_novel_test"]))
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"summary.json: {exc!r}"]
    if not abs(auc - expected) <= SUMMARY_ROUNDING + AUC_TOLERANCE:
        problems.append(f"summary.json auc {auc!r} != oracle {expected!r}")
    if counts != (len(known), len(novel)):
        problems.append(f"summary.json counts {counts} != scores.csv {(len(known), len(novel))}")
    if not accuracy > 1.0 / n_known_classes:
        problems.append(f"accuracy {accuracy} is not above chance 1/{n_known_classes}")
    return problems


def check_calibrate(out: str) -> list[str]:
    problems = check_files_exist(out, "calibrate")
    if problems:
        return problems
    payload = _read_json(os.path.join(out, "threshold.json"), problems)
    if payload is None:
        return problems
    try:
        realized = float(payload["realized_fnr"])
        gamma = float(payload["gamma"])
        count = int(payload["sample_count"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"threshold.json: {exc!r}"]
    if not 0.0 <= realized <= TARGET_FNR:
        problems.append(f"realized_fnr {realized} exceeds target {TARGET_FNR}")
    if not math.isfinite(gamma) or count < 1:
        problems.append(f"threshold.json: gamma {gamma}, sample_count {count}")
    return problems


def check_filters(out: str) -> list[str]:
    """Signs in filter_report.json agree with its weight matrix."""
    problems = check_files_exist(out, "inspect-filters")
    if problems:
        return problems
    report = _read_json(os.path.join(out, "filter_report.json"), problems)
    if report is None:
        return problems
    try:
        w = np.asarray(report["weights"], dtype=np.float64)
        classes = report["classes"]
        globally_negative = report["globally_negative"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"filter_report.json: {exc!r}"]
    if w.ndim != 2 or len(classes) != w.shape[0] or not np.all(np.isfinite(w)):
        return [f"filter_report.json: bad weight matrix of shape {w.shape}"]
    for i, entry in enumerate(classes):
        if entry.get("positive") != np.flatnonzero(w[i] > 0).tolist() \
                or entry.get("negative") != np.flatnonzero(w[i] < 0).tolist():
            problems.append(f"filter_report.json: class {i} signs disagree with its weights")
    if globally_negative != np.flatnonzero(np.all(w < 0, axis=0)).tolist():
        problems.append("filter_report.json: globally_negative disagrees with the weights")
    return problems


def reference_ablation(directory: str, seed: int) -> list[tuple]:
    """Ablation rows re-derived through the library, with every AUC taken
    from the pairwise oracle on the rescored model. Reps advance the data
    seeds by the rep index and training seeds follow `ablation_seed`, as
    `run_ablation` documents. Each row is (mode, seed, auc, accuracy,
    problems found while re-deriving it)."""
    from novnet import experiments, novelty_eval

    with open(os.path.join(directory, CONFIG_NAME)) as fh:
        raw = json.load(fh)
    rows = []
    modes = experiments.ABLATION_MODES
    for rep in range(AblateDense.N_SEEDS):
        rep_raw = json.loads(json.dumps(raw))
        rep_raw["dataset"]["benchmark"]["seed"] += rep
        rep_raw["dataset"]["split"]["seed"] += rep
        cfg = experiments.parse_experiment_config(rep_raw)
        data = experiments.assemble_datasets(cfg.dataset)
        for index, mode in enumerate(modes):
            row_seed = experiments.ablation_seed(seed, rep, index, len(modes))
            result = experiments.run_experiment(cfg, mode=mode, seed=row_seed, data=data)
            problems = []
            for epoch in result.history:
                values = (epoch.loss_ce_R, epoch.loss_ce_T, epoch.loss_m_T, epoch.cumulative)
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{mode} seed {row_seed}: non-finite loss in epoch {epoch.epoch}")
            known = [r.score for r in novelty_eval.score_dataset(result.model, data.test_T, False)]
            novel = [r.score for r in novelty_eval.score_dataset(result.model, data.novel, True)]
            rows.append((mode, str(row_seed), oracle_auc(known, novel), result.accuracy, problems))
    return rows


def check_ablation(out: str, reference: list, n_rows: int) -> list[list[str]]:
    """Problems per ablation row (n_rows lists) against the reference rows."""
    per_row = [[] for _ in range(n_rows)]
    missing = check_files_exist(out, "ablate")
    table = None if missing else _read_csv(os.path.join(out, "ablation.csv"), missing)
    if table is None:
        return [list(missing) for _ in range(n_rows)]
    body = [row for row in table[1:] if len(row) == 4 and row[1] != "mean"]
    means = {row[0]: row[2] for row in table[1:] if len(row) == 4 and row[1] == "mean"}
    for i in range(n_rows):
        if i >= len(body):
            per_row[i].append("ablation.csv is missing this row")
            continue
        mode, row_seed, auc_text, acc_text = body[i]
        ref_mode, ref_seed, ref_auc, ref_acc, ref_problems = reference[i]
        per_row[i].extend(ref_problems)
        try:
            auc, accuracy = float(auc_text), float(acc_text)
        except ValueError as exc:
            per_row[i].append(f"ablation.csv: {exc}")
            continue
        if (mode, row_seed) != (ref_mode, ref_seed):
            per_row[i].append(f"row {(mode, row_seed)} != expected {(ref_mode, ref_seed)}")
        if not abs(auc - ref_auc) <= AUC_TOLERANCE:
            per_row[i].append(f"{mode} seed {row_seed}: auc {auc!r} != oracle {ref_auc!r}")
        if accuracy != ref_acc:
            per_row[i].append(f"{mode} seed {row_seed}: accuracy {accuracy!r} != {ref_acc!r}")
        try:
            mean = float(means[mode])
        except (KeyError, ValueError):
            per_row[i].append(f"ablation.csv has no mean row for {mode}")
            continue
        mode_aucs = [float(r[2]) for r in body if r[0] == mode]
        if not abs(mean - float(np.mean(mode_aucs))) <= AUC_TOLERANCE:
            per_row[i].append(f"{mode} mean {mean!r} != mean of its rows")
    return per_row


def check_golden(out: str, workload: str, command: str) -> list[str]:
    """Byte equality with the golden copy, for files this command writes."""
    problems = []
    for name in GOLDEN_FILES[workload]:
        if name not in OUTPUT_FILES[command]:
            continue
        try:
            with open(os.path.join(GOLDEN_DIR, workload, name), "rb") as fh:
                golden = fh.read()
            with open(os.path.join(out, name), "rb") as fh:
                actual = fh.read()
        except OSError as exc:
            problems.append(str(exc))
            continue
        if actual != golden:
            problems.append(f"{name} differs from golden/{workload}/{name}")
    return problems


def _argv_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def judge_op(workload: str, argv: list[str], out: str, seed: int, sizes: dict,
             ablation_reference=None) -> list[list[str]]:
    """Problems for each operation of one call, judged on the files in
    `out`: one list per ablation row for `ablate`, one list otherwise."""
    command = argv[0]
    if command == "ablate":
        per_op = check_ablation(out, ablation_reference, len(ablation_reference))
    elif command == "train":
        per_op = [check_train(out, _argv_value(argv, "--config"))]
    elif command == "eval":
        per_op = [check_eval(out, sizes["n_known_classes"])]
    elif command == "calibrate":
        per_op = [check_calibrate(out)]
    else:
        per_op = [check_filters(out)]
    if seed == DEFAULT_SEED:
        golden = check_golden(out, workload, command)
        per_op = [problems + golden for problems in per_op]
    return per_op


def tally(cycles, verdicts, shared_problems=()) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the timed cycles.

    `cycles` holds (calls, outputs) per cycle, where outputs[i] maps each
    file of call i to its bytes; `verdicts[i]` holds the problem lists of
    the first cycle's call i, one per operation. An operation fails when
    its call exited nonzero or raised, when its files differ from the
    first cycle's, when the first cycle's files failed a check, or when
    `shared_problems` (found in an input every call uses) is not empty.
    """
    attempted = failed = 0
    problems: list[str] = list(shared_problems)
    first_calls, first_outputs = cycles[0]
    for calls, outputs in cycles:
        for i, call in enumerate(calls):
            for op_problems in verdicts[i]:
                attempted += 1
                if call.rc != 0:
                    problems.append(f"{call.command} exited {call.rc}: {call.stderr.strip()[-300:]}")
                elif outputs[i] != first_outputs[i]:
                    problems.append(f"{call.command}: outputs differ from the first cycle")
                elif first_calls[i].rc == 0 and not op_problems and not shared_problems:
                    continue
                else:
                    problems.extend(op_problems)
                failed += 1
    return attempted, failed, problems
