"""The JSON codec of the config carriers: `from_json` reads what `to_json`
writes, for every carrier a config section or a checkpoint holds."""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS
from novnet.data_io import ROLES, ClusterSpec, SplitSpec, SyntheticSpec
from novnet.dual_trainer import MODES, TrainingConfig
from novnet.errors import from_json, to_json
from novnet.experiments import BenchmarkSource, CsvFile, DatasetConfig, EvalConfig, IdxFiles
from novnet.nn_core import Conv2d, Dense, GlobalAveragePool, Relu

sizes = st.integers(1, 64)
seeds = st.integers(0, 2**32)
finite = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
paths = st.sampled_from([os.path.join(CONFIGS, name) for name in ("benchmark.json", "conv-demo.json")])


def at_least(minimum: float):
    """Finite numbers >= `minimum`, as ints and floats: a number is taken as given."""
    return st.integers(int(minimum), 1000) | st.floats(minimum, 1e300)


training_configs = st.builds(
    TrainingConfig, mode=st.sampled_from(MODES),
    lam=st.integers(1, 1000) | st.floats(0.0, 1e300, exclude_min=True),
    alpha1=at_least(0), alpha2=at_least(0), lr=at_least(0),
    momentum=st.just(0) | st.floats(0.0, 1.0, exclude_max=True),
    epochs=st.integers(0, 100), batch_size_T=sizes, batch_size_R=sizes, seed=seeds)
layers = (st.builds(Dense, sizes, sizes) | st.builds(Conv2d, sizes, sizes, sizes, sizes)
          | st.builds(Relu) | st.builds(GlobalAveragePool))
splits = st.builds(SplitSpec, known_fraction=st.none() | fractions, train_fraction=fractions, seed=seeds)


def clusters(dimension: int, role=st.sampled_from(ROLES)):
    return st.builds(ClusterSpec, st.tuples(*[finite] * dimension), st.floats(0.0, 1e300, exclude_min=True),
                     st.integers(1, 10**6), role)


@st.composite
def synthetic_specs(draw):
    dimension = draw(st.integers(1, 4))
    roles = ["known", "known", "novel"] + draw(st.lists(st.sampled_from(ROLES), max_size=3))
    drawn = tuple(draw(clusters(dimension, st.just(role))) for role in draw(st.permutations(roles)))
    return SyntheticSpec(dimension, drawn, draw(seeds))


# Each carrier with the section or entry name its config errors carry.
carriers = st.one_of(
    st.tuples(st.just("training section"), training_configs),
    st.tuples(st.just("layer 0"), layers),
    st.tuples(st.just("dataset 'split' entry"), splits),
    st.tuples(st.just("dataset 'synthetic' entry cluster 0"), clusters(3)),
    st.tuples(st.just("dataset 'benchmark' entry"), st.builds(BenchmarkSource, seeds, st.integers(0, 64))),
    st.tuples(st.just("dataset 'csv' entry"), st.builds(CsvFile, paths)),
    st.tuples(st.just("dataset 'idx' entry"), st.builds(IdxFiles, paths, paths)),
    st.tuples(st.just("evaluation section"), st.builds(EvalConfig, fractions)),
)


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(carrier=carriers)
    def test_from_json_reads_what_to_json_writes(self, carrier):
        """A layer's `kind` selects its class and is not a field it is
        built from; every other key is one."""
        what, value = carrier
        raw = to_json(value)
        if hasattr(value, "kind"):
            assert raw.pop("kind") == value.kind
        assert from_json(type(value), raw, what) == value

    @settings(max_examples=100, deadline=None)
    @given(synthetic=synthetic_specs(), split=st.builds(SplitSpec, train_fraction=fractions, seed=seeds),
           reshape=st.none() | st.lists(sizes, min_size=1, max_size=3).map(tuple))
    def test_dataset_section_reads_what_to_json_writes(self, synthetic, split, reshape):
        """The synthetic entry's clusters are the one nested carrier:
        DatasetConfig.from_dict reads each of them with from_json."""
        section = DatasetConfig(synthetic=synthetic, split=split, reshape=reshape)
        assert DatasetConfig.from_dict(to_json(section)) == section

    def test_json_spellings(self):
        assert to_json(Dense(3, 4)) == {"in": 3, "out": 4, "kind": "dense"}
        training = to_json(TrainingConfig(lam=2.5))
        assert training["lambda"] == 2.5 and "lam" not in training
        assert from_json(TrainingConfig, {"lambda": 2.5}, "training section") == TrainingConfig(lam=2.5)
        assert from_json(Dense, {"in": 3, "out": 4}, "layer 0") == Dense(3, 4)
