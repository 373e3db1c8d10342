import json
import os

import numpy as np
import pytest

from novnet.data_io import synth_gaussian
from novnet.errors import ConfigError, ProtocolError
from novnet.experiments import (
    ABLATION_MODES,
    ablation_means,
    ablation_seed,
    assemble_datasets,
    benchmark_backbone,
    benchmark_config,
    make_benchmark_spec,
    parse_experiment_config,
    run_ablation,
    run_experiment,
    _reseed_dataset_section,
)


class TestBenchmarkSpec:
    def test_cluster_counts_and_roles(self):
        spec = make_benchmark_spec(seed=0)
        roles = [c.role for c in spec.clusters]
        assert roles.count("known") == 4
        assert roles.count("novel") == 4
        assert roles.count("reference") == 8
        assert spec.dimension == 8
        assert all(c.count == 200 for c in spec.clusters)

    def test_reference_cluster_count_parameter(self):
        spec = make_benchmark_spec(seed=0, reference_clusters=2)
        assert sum(1 for c in spec.clusters if c.role == "reference") == 2

    def test_deterministic(self):
        a = make_benchmark_spec(seed=3)
        b = make_benchmark_spec(seed=3)
        assert a == b

    def test_seeds_move_clusters(self):
        a = make_benchmark_spec(seed=3)
        b = make_benchmark_spec(seed=4)
        assert a.clusters[0].mean != b.clusters[0].mean

    def test_generates_valid_datasets(self):
        known, novel, reference = synth_gaussian(make_benchmark_spec(seed=1))
        assert known.n_classes == 4
        assert novel.n_classes == 4
        assert reference.n_classes == 8
        assert len(known) == 800


class TestConfigParsing:
    def test_benchmark_config_round_trips_through_json(self, tmp_path):
        cfg = benchmark_config(epochs=2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict()))
        parsed = parse_experiment_config(str(path))
        assert parsed.training == cfg.training
        assert parsed.backbone == cfg.backbone
        assert parsed.evaluation == cfg.evaluation

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("/nonexistent/config.json")

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            parse_experiment_config({"dataset": {}, "model": {}})

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b"[1, 2]", b""])
    def test_unreadable_file_names_it(self, tmp_path, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="c.json"):
            parse_experiment_config(str(path))

    def test_referenced_files_checked_at_parse_time(self, tmp_path):
        raw = benchmark_config(epochs=1).to_dict()
        raw["dataset"] = {"csv": {"path": str(tmp_path / "missing.csv")}, "split": {}}
        with pytest.raises(ConfigError, match="missing.csv"):
            parse_experiment_config(raw)

    def test_bad_evaluation_section(self):
        raw = benchmark_config(epochs=1).to_dict()
        raw["evaluation"] = {"target_fnr": 2.0}
        with pytest.raises(ConfigError):
            parse_experiment_config(raw)


    @pytest.mark.parametrize("name", ["benchmark.json", "benchmark-quick.json", "conv-demo.json"])
    def test_bundled_configs_parse_to_their_values(self, name):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
        with open(path) as fh:
            raw = json.load(fh)
        parsed = parse_experiment_config(path).to_dict()
        assert {key: parsed[key] for key in ("dataset", "model", "evaluation")} == \
            {key: raw[key] for key in ("dataset", "model", "evaluation")}
        assert {key: parsed["training"][key] for key in raw["training"]} == raw["training"]


class TestAssembleDatasets:
    def test_benchmark_assembly(self):
        data = assemble_datasets({"benchmark": {"seed": 0}, "split": {"seed": 0}})
        assert data.train_T.n_classes == 4
        assert data.reference.n_classes == 8
        assert len(data.train_T) + len(data.test_T) == 800

    def test_csv_assembly_with_split(self, tmp_path):
        lines = ["label,f0,f1"]
        for name in ("ant", "bee", "cat", "dog"):
            for i in range(4):
                lines.append(f"{name},{i}.0,1.0")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        data = assemble_datasets({"csv": {"path": str(path)},
                                  "split": {"known_fraction": 0.5, "seed": 1}})
        assert data.train_T.class_names == ["ant", "bee"]
        assert data.novel.class_names == ["cat", "dog"]
        assert data.reference is None

    def test_reference_csv_disjointness_enforced(self, tmp_path):
        lines = ["label,f0"]
        for name in ("ant", "bee", "cat", "dog"):
            for i in range(4):
                lines.append(f"{name},{i}.0")
        main = tmp_path / "main.csv"
        main.write_text("\n".join(lines) + "\n")
        ref = tmp_path / "ref.csv"
        ref.write_text("label,f0\nant,1.0\nant,2.0\nzzz,1.0\nzzz,3.0\n")
        with pytest.raises(ProtocolError, match="ant"):
            assemble_datasets({"csv": {"path": str(main)},
                               "reference_csv": {"path": str(ref)},
                               "split": {"known_fraction": 0.5, "seed": 0}})

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            assemble_datasets({"split": {}})


class TestRunExperiment:
    def test_modes_without_reference_ignore_it(self):
        cfg = benchmark_config(epochs=1)
        result = run_experiment(cfg, mode="ce-only", seed=0)
        assert result.model.head_R is None
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 <= result.accuracy <= 1.0

    def test_finetune_cc_builds_combined_head(self):
        cfg = benchmark_config(epochs=1, mode="finetune-cC")
        result = run_experiment(cfg, seed=0)
        assert result.model.combined_head
        assert result.model.head_T["layer0.weight"].shape[0] == 4 + 8

    def test_reference_required_for_dual_modes(self, tmp_path):
        lines = ["label,f0"]
        for name in ("a", "b", "c", "d"):
            for i in range(4):
                lines.append(f"{name},{i}.0")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        raw = benchmark_config(epochs=1).to_dict()
        raw["dataset"] = {"csv": {"path": str(path)},
                          "split": {"known_fraction": 0.5, "seed": 0}}
        raw["model"]["backbone"] = {"input_shape": [1], "layers": [
            {"kind": "dense", "in": 1, "out": 4}, {"kind": "relu"}]}
        cfg = parse_experiment_config(raw)
        with pytest.raises(ConfigError):
            run_experiment(cfg, mode="dual-full", seed=0)


class TestEvaluateDetection:
    def test_zero_novel_samples_rejected(self):
        from novnet.experiments import ExperimentData, evaluate_detection
        cfg = benchmark_config(epochs=1)
        result = run_experiment(cfg, mode="ce-only", seed=0)
        degenerate = ExperimentData(train_T=result.data.train_T, test_T=result.data.test_T,
                                    novel=None, reference=None)
        with pytest.raises(ProtocolError):
            evaluate_detection(result.model, degenerate)

    def test_one_forward_pass_per_split(self, monkeypatch):
        from novnet.dual_trainer import DualBranchModel
        from novnet.experiments import evaluate_detection
        from novnet.novelty_eval import SCORE_DTYPE, closed_set_accuracy
        result = run_experiment(benchmark_config(epochs=1), mode="ce-only", seed=0)
        data = result.data
        batches = []
        logits = DualBranchModel.known_class_logits

        def counting(self, x):
            batches.append(len(x))
            return logits(self, x)

        monkeypatch.setattr(DualBranchModel, "known_class_logits", counting)
        table, roc, accuracy = evaluate_detection(result.model, data)
        assert batches == [len(data.test_T), len(data.novel)]
        assert table.dtype == SCORE_DTYPE
        assert table.sample_id.tolist() == list(range(len(table)))
        assert accuracy == closed_set_accuracy(result.model, data.test_T)


class TestAblation:
    def test_seed_fan_out(self):
        seeds = {ablation_seed(0, rep, m, 4) for rep in range(3) for m in range(4)}
        assert len(seeds) == 12  # collision-free rows

    def test_reseed_shifts_all_seeds(self):
        section = {"benchmark": {"seed": 5}, "split": {"seed": 2}}
        shifted = _reseed_dataset_section(section, 3)
        assert shifted["benchmark"]["seed"] == 8
        assert shifted["split"]["seed"] == 5
        assert section["benchmark"]["seed"] == 5  # original untouched

    def test_reseed_null_split_is_the_default_split(self):
        shifted = _reseed_dataset_section({"benchmark": {"seed": 5}, "split": None}, 3)
        assert shifted["split"] == {"seed": 3}

    def test_rows_and_means(self):
        cfg = benchmark_config(epochs=1)
        rows = run_ablation(cfg, modes=("ce-only", "dual-ce"), n_seeds=2)
        assert len(rows) == 4
        means = ablation_means(rows)
        assert set(means) == {"ce-only", "dual-ce"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_ablation(benchmark_config(epochs=1), modes=("finetune-cC",), n_seeds=1)
