from dataclasses import replace

import numpy as np
import pytest

from conftest import benchmark
from novnet.dual_trainer import build_dual_model, train_lockstep
from novnet.errors import ConfigError
from novnet.experiments import (
    ablation_seed,
    assemble_datasets,
    _reseed_dataset_section,
)
from novnet.filter_analysis import build_filter_report


class TestSignSets:
    def test_sign_definition(self):
        report = build_filter_report(np.array([[1.0, -0.5, 0.0]]))
        assert report.positive == [[0]]
        assert report.negative == [[1]]

    def test_all_positive_row(self):
        report = build_filter_report(np.array([[0.2, 0.7, 1.0]]))
        assert report.positive == [[0, 1, 2]]
        assert report.negative == [[]]

    def test_counting_partition(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 12))
        w[:, 4] = 0.0  # exact zeros are in neither set
        report = build_filter_report(w)
        for i in range(3):
            pos, neg = set(report.positive[i]), set(report.negative[i])
            zeros = {j for j in range(12) if w[i, j] == 0.0}
            assert len(pos) + len(neg) + len(zeros) == 12
            assert pos.isdisjoint(neg)
            assert 4 in zeros

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            build_filter_report(np.array([[np.inf, 0.0]]))


class TestGloballyNegative:
    def test_column_sign_check(self):
        w = np.array([[0.3, -0.2], [0.1, -0.7]])
        assert build_filter_report(w).globally_negative == [1]

    def test_any_positive_entry_excludes(self):
        w = np.array([[-0.3, -0.2], [0.1, -0.7], [-1.0, -0.1]])
        assert build_filter_report(w).globally_negative == [1]

    def test_set_algebra_equivalence(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 10))
        report = build_filter_report(w)
        expected = set(range(10))
        for negative in report.negative:
            expected &= set(negative)
        assert report.globally_negative == sorted(expected)


class TestFilterReport:
    def test_report_consistency(self):
        """Each class's sign lists and the globally negative list match
        an entry-by-entry reading of the weights, in ascending order."""
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 8))
        report = build_filter_report(w)
        for i in range(3):
            assert report.positive[i] == [j for j in range(8) if w[i, j] > 0]
            assert report.negative[i] == [j for j in range(8) if w[i, j] < 0]
        assert report.globally_negative == [j for j in range(8) if all(w[i, j] < 0 for i in range(3))]
        d = report.to_json_dict()
        assert len(d["classes"]) == 3
        assert d["weights"] == w.tolist()

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3, 4)], ids=["rank-0", "rank-1", "rank-3"])
    def test_weights_of_other_ranks_rejected(self, shape):
        with pytest.raises(ConfigError, match=f"got rank {len(shape)}"):
            build_filter_report(np.zeros(shape))

    def test_no_class_rows_rejected(self):
        with pytest.raises(ConfigError, match="at least one class row"):
            build_filter_report(np.zeros((0, 4)))

    def test_no_filters_gives_empty_sets(self):
        report = build_filter_report(np.zeros((3, 0)))
        assert report.positive == [[], [], []]
        assert report.negative == [[], [], []]
        assert report.globally_negative == []

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
            counts[training.mode].append(len(build_filter_report(w).globally_negative))
        non_empty = sum(1 for v in counts["dual-full"] if v > 0)
        assert non_empty > 5, counts
        assert np.mean(counts["ce-only"]) <= np.mean(counts["dual-full"]), counts

    def test_perturbing_global_negative_lowers_every_score(self, trained_dual_full):
        # On the head f = W @ feat + b, pushing a globally negative
        # feature up must strictly lower every class activation.
        model, _, datasets = trained_dual_full
        known, _, _ = datasets
        w = model.head_T["layer0.weight"][: model.num_known]
        gneg = build_filter_report(w).globally_negative
        if not gneg:  # tendency, not theorem; check the algebra directly
            w = w.copy()
            w[:, 0] = -np.abs(w[:, 0]) - 0.1
            gneg = [0]
        b = model.head_T["layer0.bias"][: model.num_known]
        feat = model.backbone_features(known.x[:5])
        j = gneg[0]
        bumped = feat.copy()
        bumped[:, j] += 1.0
        before = feat @ w.T + b
        after = bumped @ w.T + b
        assert np.all(after < before)
