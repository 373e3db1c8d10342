from dataclasses import replace

import numpy as np
import pytest

from conftest import benchmark
from novnet.dual_trainer import build_dual_model, train_lockstep
from novnet.errors import ConfigError, LabelError
from novnet.experiments import (
    ablation_seed,
    assemble_datasets,
    _reseed_dataset_section,
)
from novnet.filter_analysis import (
    build_filter_report,
    classify_filters,
    globally_negative_filters,
)


class TestClassifyFilters:
    def test_sign_definition(self):
        w = np.array([[1.0, -0.5, 0.0]])
        pos, neg = classify_filters(w, 0)
        assert pos == {0}
        assert neg == {1}

    def test_all_positive_row(self):
        w = np.array([[0.2, 0.7, 1.0]])
        pos, neg = classify_filters(w, 0)
        assert pos == {0, 1, 2}
        assert neg == set()

    def test_counting_partition(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 12))
        w[:, 4] = 0.0  # exact zeros are in neither set
        for i in range(3):
            pos, neg = classify_filters(w, i)
            zeros = {j for j in range(12) if w[i, j] == 0.0}
            assert len(pos) + len(neg) + len(zeros) == 12
            assert pos.isdisjoint(neg)
            assert 4 in zeros

    def test_index_error(self):
        with pytest.raises(LabelError):
            classify_filters(np.zeros((2, 3)), 2)

    @pytest.mark.parametrize("class_index", [-1, 0.0, True, np.int64(2)])
    def test_class_index_out_of_range_or_not_an_integer(self, class_index):
        with pytest.raises(LabelError):
            classify_filters(np.zeros((2, 3)), class_index)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            classify_filters(np.array([[np.inf, 0.0]]), 0)


class TestGloballyNegative:
    def test_column_sign_check(self):
        w = np.array([[0.3, -0.2], [0.1, -0.7]])
        assert globally_negative_filters(w) == {1}

    def test_any_positive_entry_excludes(self):
        w = np.array([[-0.3, -0.2], [0.1, -0.7], [-1.0, -0.1]])
        assert globally_negative_filters(w) == {1}

    def test_set_algebra_equivalence(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 10))
        expected = set(range(10))
        for i in range(4):
            expected &= classify_filters(w, i)[1]
        assert globally_negative_filters(w) == expected


class TestFilterReport:
    def test_report_consistency(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 8))
        report = build_filter_report(w)
        for i in range(3):
            pos, neg = classify_filters(w, i)
            assert report.positive[i] == sorted(pos)
            assert report.negative[i] == sorted(neg)
        assert set(report.globally_negative) == globally_negative_filters(w)
        d = report.to_json_dict()
        assert len(d["classes"]) == 3
        assert d["weights"] == w.tolist()

    def test_reference_training_promotes_globally_negative_filters(self):
        # Comparison over the bundled benchmark: dual-full tends to grow a
        # non-empty globally-negative set, ce-only tends not to. This is a
        # measured tendency of the training procedure, not a theorem.
        # All 20 models train in one lockstep stack.
        cfg = benchmark()
        runs = []
        for rep in range(10):
            data = assemble_datasets(_reseed_dataset_section(cfg.dataset, rep))
            for mode, mode_index in (("ce-only", 0), ("dual-full", 3)):
                seed = ablation_seed(cfg.training.seed, rep, mode_index, 4)
                reference = data.reference if mode == "dual-full" else None
                model = build_dual_model(cfg.backbone, data.train_T.n_classes,
                                         reference.n_classes if reference else 0, seed=seed)
                runs.append((model, data.train_T, reference, replace(cfg.training, mode=mode, seed=seed)))
        models, datasets_T, datasets_R, cfgs = zip(*runs)
        train_lockstep(models, datasets_T, datasets_R, cfgs)
        counts = {"ce-only": [], "dual-full": []}
        for model, training in zip(models, cfgs):
            w = model.head_T["layer0.weight"][: model.num_known]
            counts[training.mode].append(len(globally_negative_filters(w)))
        non_empty = sum(1 for v in counts["dual-full"] if v > 0)
        assert non_empty > 5, counts
        assert np.mean(counts["ce-only"]) <= np.mean(counts["dual-full"]), counts

    def test_perturbing_global_negative_lowers_every_score(self, trained_dual_full):
        # On the head f = W @ feat + b, pushing a globally negative
        # feature up must strictly lower every class activation.
        model, _, datasets = trained_dual_full
        known, _, _ = datasets
        w = model.head_T["layer0.weight"][: model.num_known]
        gneg = globally_negative_filters(w)
        if not gneg:  # tendency, not theorem; check the algebra directly
            w = w.copy()
            w[:, 0] = -np.abs(w[:, 0]) - 0.1
            gneg = {0}
        b = model.head_T["layer0.bias"][: model.num_known]
        feat = model.backbone_features(known.x[:5])
        j = sorted(gneg)[0]
        bumped = feat.copy()
        bumped[:, j] += 1.0
        before = feat @ w.T + b
        after = bumped @ w.T + b
        assert np.all(after < before)
