"""Each workload's generated inputs are a pure function of the seed."""

import os

import pytest

from perfbench.workloads import CONFIG_NAME, WORKLOADS


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_bit_identical_for_a_seed(name, tmp_path):
    workload = WORKLOADS[name]
    workload.write_inputs(7, str(tmp_path / "a"))
    workload.write_inputs(7, str(tmp_path / "b"))
    first = _files(tmp_path / "a")
    assert CONFIG_NAME in first
    assert first == _files(tmp_path / "b")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_change_with_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.build_inputs(1)[CONFIG_NAME] != workload.build_inputs(2)[CONFIG_NAME]
