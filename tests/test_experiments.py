import copy
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, benchmark, bundled
from novnet import data_io
from novnet.data_io import ROLES, SplitSpec, synth_gaussian
from novnet.errors import ConfigError, DatasetError, NovnetError, ProtocolError, UsageError, to_json
from novnet import experiments
from novnet.experiments import (
    ABLATION_MODES,
    BENCHMARK_DIMENSION,
    BENCHMARK_SAMPLES_PER_CLUSTER,
    DatasetConfig,
    ablation_means,
    ablation_seed,
    assemble_datasets,
    make_benchmark_spec,
    parse_experiment_config,
    run_ablation,
    run_experiment,
    _reseed_dataset_section,
)


CONFIG_NAMES = ["benchmark.json", "benchmark-quick.json", "conv-demo.json"]


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
        cfg = benchmark(epochs=2)
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
        raw = bundled("benchmark.json")
        raw["dataset"] = {"csv": {"path": str(tmp_path / "missing.csv")}, "split": {}}
        with pytest.raises(ConfigError, match="missing.csv"):
            parse_experiment_config(raw)

    def test_bad_evaluation_section(self):
        raw = bundled("benchmark.json")
        raw["evaluation"] = {"target_fnr": 2.0}
        with pytest.raises(ConfigError):
            parse_experiment_config(raw)


    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_bundled_configs_parse_to_their_values(self, name):
        raw = bundled(name)
        cfg = parse_experiment_config(os.path.join(CONFIGS, name))
        # the canonical form is the file: no bundled split gives known_fraction
        assert cfg.to_dict() == raw
        assert parse_experiment_config(cfg.to_dict()) == cfg


def edited(name: str, edit) -> dict:
    raw = bundled(name)
    edit(raw)
    return raw


def cluster0(raw) -> dict:
    return raw["dataset"]["synthetic"]["clusters"][0]


class TestDatasetSectionFailsClosed:
    """Each input once ended in a bare exception or trained on other data."""

    @pytest.mark.parametrize("name,edit,named", [
        ("benchmark.json", lambda r: r["dataset"]["benchmark"].update(seed=-1), "'seed'"),
        ("benchmark.json", lambda r: r["dataset"]["split"].update(seed=-1), "'seed'"),
        ("benchmark.json", lambda r: r["dataset"]["benchmark"].update(reference_clusters=-1),
         "'reference_clusters'"),
        ("benchmark.json", lambda r: r["dataset"].update(reshape=[-2, -4]), "'reshape' entry 0"),
        ("benchmark.json", lambda r: r["dataset"].update(reshape=8), "'reshape'"),
        ("conv-demo.json", lambda r: cluster0(r).pop("stddev"), "cluster 0 is missing keys ['stddev']"),
        ("conv-demo.json", lambda r: cluster0(r).update(stddev=True), "cluster 0 'stddev'"),
        ("conv-demo.json", lambda r: cluster0(r).update(mean="0" * 16), "cluster 0 'mean'"),
        ("conv-demo.json", lambda r: cluster0(r).update(mean=5), "cluster 0 'mean'"),
        ("conv-demo.json", lambda r: cluster0(r).update(role=["known"]), "cluster 0 'role'"),
        ("conv-demo.json", lambda r: r["dataset"]["synthetic"].update(clusters={}), "'clusters'"),
        ("benchmark.json", lambda r: r.update(dataset={"csv": {}}), "'csv' entry is missing keys ['path']"),
        ("benchmark.json", lambda r: r.update(dataset={"idx": {"images": "/"}}), "'idx' entry"),
        ("benchmark.json", lambda r: r.update(dataset={"csv": {"path": os.sep}}), "'path' file not found"),
        ("benchmark.json", lambda r: r["dataset"]["split"].update(sead=3), "unknown keys ['sead']"),
        ("benchmark.json", lambda r: r["dataset"]["split"].update(train_fraction="0.5"), "'train_fraction'"),
        ("benchmark.json", lambda r: r["dataset"]["split"].update(known_fraction=float("nan")),
         "'known_fraction'"),
        ("benchmark.json", lambda r: r["dataset"].update(synthetic=bundled("conv-demo.json")["dataset"]["synthetic"]),
         "exactly one of"),
        ("benchmark.json", lambda r: r["dataset"].pop("benchmark"), "exactly one of"),
        ("benchmark.json", lambda r: r["dataset"].update(bogus=1), "unknown keys ['bogus']"),
        ("benchmark.json", lambda r: r.update(bogus={}), "unknown keys ['bogus']"),
        ("benchmark.json", lambda r: r["model"]["backbone"]["layers"].append(5), "layer 2"),
        ("benchmark.json", lambda r: r["model"]["backbone"].update(input_shape=8), "'input_shape'"),
        ("benchmark.json", lambda r: r["model"]["backbone"]["layers"][0].update(stride=1), "unknown keys ['stride']"),
    ])
    def test_rejected_with_entry_and_key(self, name, edit, named):
        with pytest.raises(ConfigError, match="^(dataset|model|config)") as info:
            parse_experiment_config(edited(name, edit))
        assert named in str(info.value)

    def test_canonical_form_round_trips(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\na,1\na,2\nb,3\nb,4\n")
        raw = {"csv": {"path": str(path)}, "reference_csv": {"path": str(path)}, "split": None,
               "reshape": [1, 1]}
        section = DatasetConfig.from_dict(raw)
        assert section.split == SplitSpec() and section.reshape == (1, 1)
        assert DatasetConfig.from_dict(to_json(section)) == section
        assert to_json(section) == {**raw, "split": {"train_fraction": 0.5, "seed": 0}}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
# Field names of every section, so added keys are sometimes valid ones.
config_keys = st.sampled_from([
    "dataset", "evaluation", "benchmark", "synthetic", "csv", "idx", "reference_csv", "split", "reshape",
    "seed", "reference_clusters", "dimension", "clusters", "mean", "stddev", "count", "role", "path",
    "known_fraction", "train_fraction", "input_shape", "layers", "kind", "in", "out", "stride", "lambda",
    "epochs", "target_fnr"]) | st.text(max_size=6)


def json_objects(value):
    """Every JSON object in a parsed document, outermost first."""
    if isinstance(value, dict):
        yield value
    for child in value.values() if isinstance(value, dict) else value if isinstance(value, list) else ():
        yield from json_objects(child)


def small_integers_only(value) -> bool:
    if isinstance(value, dict):
        return all(small_integers_only(v) for v in value.values())
    if isinstance(value, list):
        return all(small_integers_only(v) for v in value)
    return isinstance(value, bool) or not isinstance(value, int) or abs(value) <= 300


class TestAnyConfigEdit:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_parses_or_raises_config_error(self, name, data):
        """Add, delete or replace one key of any object in a bundled config."""
        raw = bundled(name)
        target = data.draw(st.sampled_from(list(json_objects(raw))))
        value = data.draw(st.integers(-3, 300) | st.floats(-1.0, 2.0) | json_values)
        if target and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(target)))
            if data.draw(st.booleans()):
                del target[key]
            else:
                target[key] = value
        else:
            target[data.draw(config_keys)] = value
        try:
            cfg = parse_experiment_config(copy.deepcopy(raw))
        except ConfigError:
            return
        assert parse_experiment_config(cfg.to_dict()) == cfg
        # a drawn count, dimension or reference_clusters of 10**9 would
        # allocate gigabytes, so only small integers are assembled
        if small_integers_only(value):
            try:
                assemble_datasets(cfg.dataset)
            except NovnetError:
                pass


class TestAssembleDatasets:
    def test_benchmark_assembly(self):
        data = assemble_datasets(DatasetConfig.from_dict({"benchmark": {"seed": 0}, "split": {"seed": 0}}))
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
        data = assemble_datasets(DatasetConfig.from_dict({"csv": {"path": str(path)},
                                                          "split": {"known_fraction": 0.5, "seed": 1}}))
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
            assemble_datasets(DatasetConfig.from_dict({"csv": {"path": str(main)},
                                                       "reference_csv": {"path": str(ref)},
                                                       "split": {"known_fraction": 0.5, "seed": 0}}))

    @pytest.mark.parametrize("source, named", [
        ({"benchmark": {"seed": 0}}, "8 reference clusters of its 'benchmark' entry"),
        ({"benchmark": {"seed": 0, "reference_clusters": 3}}, "3 reference clusters of its 'benchmark' entry"),
        (bundled("conv-demo.json")["dataset"], "2 reference clusters of its 'synthetic' entry"),
    ])
    def test_reference_csv_and_reference_clusters_rejected(self, tmp_path, source, named):
        """Reference data comes from one place: the clusters would be drawn and then dropped."""
        ref = tmp_path / "ref.csv"
        ref.write_text("label,f0\nzzz,1.0\nzzz,2.0\n")
        with pytest.raises(ConfigError, match="^dataset section .*'reference_csv'") as info:
            DatasetConfig.from_dict({**source, "reference_csv": {"path": str(ref)}})
        assert named in str(info.value)

    @pytest.mark.parametrize("source", [{"benchmark": {"seed": 0, "reference_clusters": 0}}, "conv-demo"])
    def test_reference_csv_without_reference_clusters_is_the_reference(self, tmp_path, source):
        if source == "conv-demo":
            source = bundled("conv-demo.json")["dataset"]
            source["synthetic"]["clusters"] = [c for c in source["synthetic"]["clusters"] if c["role"] != "reference"]
            source.pop("reshape")
        dim = BENCHMARK_DIMENSION if "benchmark" in source else source["synthetic"]["dimension"]
        ref = tmp_path / "ref.csv"
        ref.write_text("label," + ",".join(f"f{j}" for j in range(dim)) + "\n"
                       + "".join(f"{name},{','.join([str(i)] * dim)}\n" for name in ("yy", "zz") for i in range(3)))
        data = assemble_datasets(DatasetConfig.from_dict({**source, "reference_csv": {"path": str(ref)}}))
        want = data_io.load_csv(str(ref))
        assert data.reference.class_names == ["yy", "zz"]
        assert (data.reference.x.tobytes(), data.reference.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            assemble_datasets(DatasetConfig.from_dict({"split": {}}))

    @pytest.mark.parametrize("source", ["benchmark", "conv-demo"])
    def test_oversized_dataset_rejected_before_building(self, source, monkeypatch):
        """Rejected from the sizes alone: no cluster is placed or drawn."""
        if source == "benchmark":
            section, named = {"benchmark": {"reference_clusters": 10**9}}, "'reference_clusters' 1000000000:"
        else:
            section = bundled("conv-demo.json")["dataset"]
            section["synthetic"]["clusters"][0]["count"] = 10**13
            named = "'clusters' of 10000000000240 samples x 16 values"
        section = DatasetConfig.from_dict(section)
        monkeypatch.setattr(data_io.ClusterSpec, "__post_init__", None)  # make_benchmark_spec builds none
        monkeypatch.setattr(np.random, "default_rng", None)  # synth_gaussian draws nothing
        for roles in (ROLES, ("known", "novel"), ("known",)):  # every cluster counts, drawn or not
            with pytest.raises(DatasetError, match=named + ".* exceed the .* bytes of physical memory"):
                assemble_datasets(section, roles)

    @pytest.mark.parametrize("source", ["benchmark", "conv-demo"])
    def test_without_reference_known_and_novel_bytes_unchanged(self, source):
        section = DatasetConfig.from_dict({"benchmark": {"seed": 3}} if source == "benchmark"
                                          else bundled("conv-demo.json")["dataset"])
        full = assemble_datasets(section)
        # eval's, calibrate's and train's roles: each split they keep has the full draw's bytes.
        for roles, kept in ((("known", "novel"), "novel"), (("known",), None), (("known", "reference"), "reference")):
            lean = assemble_datasets(section, roles)
            for name in ("novel", "reference"):
                assert (getattr(lean, name) is None) == (name != kept)
            for name in ("train_T", "test_T") + ((kept,) if kept else ()):
                got, want = getattr(lean, name), getattr(full, name)
                assert (got.x.tobytes(), got.y.tobytes(), got.class_names) == \
                    (want.x.tobytes(), want.y.tobytes(), want.class_names)

    @pytest.mark.parametrize("build, roles", [
        ("assemble", ("novel",)), ("assemble", ()), ("assemble", ("known", "bogus")),
        ("synth", ("bogus",)), ("synth", ("known", "bogus"))])
    def test_bad_roles_rejected(self, build, roles):
        """A role outside ROLES, or assembled roles without "known", is a
        UsageError before anything is drawn."""
        section = benchmark().dataset
        with pytest.raises(UsageError, match="roles"):
            if build == "assemble":
                assemble_datasets(section, roles)
            else:
                synth_gaussian(make_benchmark_spec(section.benchmark.seed), roles)


class TestRunExperiment:
    def test_modes_without_reference_ignore_it(self):
        cfg = benchmark(epochs=1)
        result = run_experiment(cfg, mode="ce-only", seed=0)
        assert result.model.head_R is None
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 <= result.accuracy <= 1.0

    def test_finetune_cc_builds_combined_head(self):
        cfg = benchmark(epochs=1, mode="finetune-cC")
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
        raw = bundled("benchmark.json")
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
        cfg = benchmark(epochs=1)
        result = run_experiment(cfg, mode="ce-only", seed=0)
        degenerate = ExperimentData(train_T=result.data.train_T, test_T=result.data.test_T,
                                    novel=None, reference=None)
        with pytest.raises(ProtocolError):
            evaluate_detection(result.model, degenerate)

    def test_one_forward_pass_per_split(self, monkeypatch):
        from novnet.dual_trainer import DualBranchModel
        from novnet.experiments import evaluate_detection
        from novnet.novelty_eval import SCORE_DTYPE, closed_set_accuracy
        result = run_experiment(benchmark(epochs=1), mode="ce-only", seed=0)
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
        assert accuracy == closed_set_accuracy(table[:len(data.test_T)])
        assert accuracy == np.mean(np.argmax(result.model.known_class_logits(data.test_T.x), axis=1)
                                   == data.test_T.y)


class TestAblation:
    def test_seed_fan_out(self):
        seeds = {ablation_seed(0, rep, m, 4) for rep in range(3) for m in range(4)}
        assert len(seeds) == 12  # collision-free rows

    def test_reseed_shifts_all_seeds(self):
        section = DatasetConfig.from_dict({"benchmark": {"seed": 5}, "split": {"seed": 2}})
        shifted = _reseed_dataset_section(section, 3)
        assert shifted.benchmark.seed == 8
        assert shifted.split.seed == 5
        assert section.benchmark.seed == 5  # original untouched

    def test_reseed_null_split_is_the_default_split(self):
        shifted = _reseed_dataset_section(DatasetConfig.from_dict({"benchmark": {"seed": 5}, "split": None}), 3)
        assert shifted.split == SplitSpec(seed=3)

    def test_rows_and_means(self):
        cfg = benchmark(epochs=1)
        rows = run_ablation(cfg, modes=("ce-only", "dual-ce"), n_seeds=2)
        assert len(rows) == 4
        means = ablation_means(rows)
        assert set(means) == {"ce-only", "dual-ce"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_ablation(benchmark(epochs=1), modes=("finetune-cC",), n_seeds=1)

    @pytest.mark.parametrize("spare", [0, -1])
    def test_seed_bound_is_exact(self, monkeypatch, spare):
        """benchmark-quick draws 16 clusters of samples, each an 8-value
        vector and a label: 3 seeds of that fit in exactly as many float64
        values and not one fewer. Past the bound no row is trained."""
        cfg = parse_experiment_config(os.path.join(CONFIGS, "benchmark-quick.json"))
        values = 16 * BENCHMARK_SAMPLES_PER_CLUSTER * (BENCHMARK_DIMENSION + 1)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 8 * (3 * values + spare)}.get)
        runs = []
        monkeypatch.setattr(experiments, "_run", lambda r: runs.extend(r) or [])
        if spare < 0:
            with pytest.raises(ConfigError, match=f"an ablation of 3 seeds x {values} data values per seed"):
                run_ablation(cfg, n_seeds=3)
            assert runs == []
        else:
            run_ablation(cfg, n_seeds=3)
            assert len(runs) == 3 * len(ABLATION_MODES)
