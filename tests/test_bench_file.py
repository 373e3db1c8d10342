"""scripts/bench_file.py: the schema of every committed BENCH_*.json, and
the summary it writes, checked without running the benchmark."""

import copy
import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("bench_file", os.path.join(ROOT, "scripts", "bench_file.py"))
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)

BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
METRICS = bench_file.end_to_end()


def runs_of(values_by_side):
    """Run records whose every metric takes the given value per pair."""
    return {side: [{"seed": k, "correct": True, "failed": 0, "metrics": {name: v for name in METRICS}}
                   for k, v in enumerate(values)] for side, values in values_by_side.items()}


def synthetic_file(parent=(10.0, 11.0, 12.0, 13.0), change=(14.0, 15.0, 16.0, 17.0)):
    runs = runs_of({"parent": parent, "change": change})
    return {"schema": bench_file.SCHEMA, "parent": {"commit": "a" * 40}, "change": {"commit": "b" * 40},
            "command": ["python3", "perfbench/run.py"], "seconds": 30.0, "pairs": 4,
            "seeds": list(range(4)), "env": {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                                             "cpu": "x86", "nproc": 2, "seed": 0},
            "workloads": {"conv-train": {"runs": runs, **bench_file.summarize(runs, METRICS)}}}


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_committed_file_follows_the_schema(path):
    with open(path) as fh:
        doc = json.load(fh)
    bench_file.check_schema(doc)
    for workload, block in doc["workloads"].items():
        assert block == {"runs": block["runs"], **bench_file.summarize(block["runs"], METRICS)}, workload
    if "previous" in doc:
        with open(os.path.join(ROOT, doc["previous"]["file"])) as fh:
            assert doc["previous"] == bench_file.previous_block(doc, json.load(fh), doc["previous"]["file"])


def test_summary_of_known_runs():
    """Parent 10..13 and change 14..17: medians 11.5 and 15.5, the
    parent's quartiles 10.75 and 12.25; each metric counts as better in
    its own direction."""
    block = synthetic_file()["workloads"]["conv-train"]
    assert block["sides"]["parent"]["wall_s"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    higher, lower = block["compare"]["train_steps_per_s"], block["compare"]["wall_s"]
    assert higher["median_pair_ratio"] == pytest.approx((15 / 11 + 16 / 12) / 2)
    assert (higher["gain"], higher["parent_iqr"], higher["clears_parent_iqr"], higher["pairs_better"],
            higher["gain_counts"]) == (4.0, 1.5, True, 4, True)
    assert (lower["gain"], lower["clears_parent_iqr"], lower["pairs_better"], lower["gain_counts"]) == (
        -4.0, False, 0, False)
    assert lower["worse_ratio"] == pytest.approx(4 / 11.5)
    assert lower["within_bound"] is False and higher["within_bound"] is True


def test_a_gain_needs_nine_pairs_of_ten():
    """Nine of ten pairs better and a median gain past the parent's
    quartile distance count; eight of ten do not."""
    parent = [10.0 + k % 2 for k in range(10)]
    nine = bench_file.compare(parent, [12.0] * 9 + [9.0], "higher", 0.25)
    eight = bench_file.compare(parent, [12.0] * 8 + [9.0, 9.0], "higher", 0.25)
    assert (nine["pairs_better"], nine["clears_parent_iqr"], nine["gain_counts"]) == (9, True, True)
    assert (eight["pairs_better"], eight["clears_parent_iqr"], eight["gain_counts"]) == (8, True, False)


@pytest.mark.parametrize("damage", ["schema", "commit", "pairs", "one pair", "seeds", "run metric",
                                    "env"])
def test_schema_refuses_a_damaged_file(damage):
    doc = synthetic_file()
    bench_file.check_schema(copy.deepcopy(doc))
    block = doc["workloads"]["conv-train"]
    if damage == "schema":
        doc["schema"] = 0
    elif damage == "commit":
        doc["change"]["commit"] = "HEAD"
    elif damage == "pairs":
        doc["pairs"] = 5
    elif damage == "one pair":
        doc["pairs"], doc["seeds"] = 1, [0]
        for runs in block["runs"].values():
            del runs[1:]
    elif damage == "seeds":
        doc["seeds"].pop()
    elif damage == "run metric":
        del block["runs"]["parent"][0]["metrics"]["setup_s"]
    else:
        doc["env"] = None
    with pytest.raises(ValueError, match="BENCH file"):
        bench_file.check_schema(doc)


def test_previous_block_compares_the_parent_with_the_previous_change():
    """The previous file's change median is 15.5; this file's parent median
    16.5 is 1/15.5 worse for a lower-is-better metric, which passes the
    25% bound of wall_s but not the 5% bound of peak_rss_mib."""
    previous = synthetic_file()
    doc = synthetic_file(parent=(15.0, 16.0, 17.0, 18.0))
    block = bench_file.previous_block(doc, previous, "BENCH_35.json")
    assert (block["file"], block["commit"], list(block["workloads"])) == ("BENCH_35.json", "b" * 40, ["conv-train"])
    metrics = block["workloads"]["conv-train"]
    assert set(metrics) == set(METRICS)
    assert metrics["wall_s"]["ratio"] == pytest.approx(16.5 / 15.5)
    assert metrics["wall_s"]["worse_ratio"] == pytest.approx(1 / 15.5)
    assert (metrics["wall_s"]["bound"], metrics["wall_s"]["within_bound"]) == (0.25, True)
    assert (metrics["peak_rss_mib"]["bound"], metrics["peak_rss_mib"]["within_bound"]) == (0.05, False)
    assert (metrics["train_steps_per_s"]["worse_ratio"], metrics["train_steps_per_s"]["within_bound"]) == (0.0, True)


def test_previous_block_leaves_out_a_workload_the_previous_file_lacks():
    doc = synthetic_file()
    previous = synthetic_file()
    previous["workloads"] = {"eval-large": previous["workloads"].pop("conv-train")}
    assert bench_file.previous_block(doc, previous, "BENCH_35.json")["workloads"] == {}


@pytest.mark.parametrize("key", bench_file.ENV_KEYS)
def test_previous_block_needs_the_same_platform(capsys, key):
    """A differing python, numpy, BLAS, CPU or core count gives no block
    and says why; another seed does not matter."""
    previous, doc = synthetic_file(), synthetic_file()
    doc["env"]["seed"] = 1
    assert bench_file.previous_block(doc, previous, "BENCH_35.json") is not None
    doc["env"][key] = "other"
    assert bench_file.previous_block(doc, previous, "BENCH_35.json") is None
    assert key in capsys.readouterr().err


def test_newest_bench_is_the_largest_number_but_the_new_file():
    names = ["BENCH_9.json", "BENCH_35.json", "BENCH_36.json", "BENCH_x.json", "scripts/bench_file.py"]
    new = os.path.join(bench_file.ROOT, "BENCH_36.json")
    assert bench_file.newest_bench(names, new) == "BENCH_35.json"
    assert bench_file.newest_bench(names, "BENCH_99.json") == "BENCH_36.json"
    assert bench_file.newest_bench(["BENCH_36.json"], new) is None
