"""Outside-in tracing of novnet's public functions.

`Tracer.install()` replaces each wrapped function at every place a caller
looks it up: the defining module's attribute, every `from ... import`
binding in the other novnet modules (`dual_trainer.cross_entropy`,
`experiments.train`, `cli.save_checkpoint`, ...), and the class attribute
for methods. `uninstall()` puts the originals back. Nothing is changed in
the package's source.

Each wrapped call records one span (name, start, end, parent span, cycle)
in memory; spans are written out only when the run ends. A layer's self
time is its span's duration minus the time its child spans cover. Counts
are taken at the same boundaries; MACs and bytes are computed from array
shapes, not measured.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "experiments", "data_io", "dual_trainer", "nn_core", "losses",
           "novelty_eval", "filter_analysis")

# (module, attribute path) of every wrapped function.
TARGETS = (
    ("nn_core", "forward"), ("nn_core", "backward"), ("nn_core", "sgd_step"),
    ("nn_core", "init_params"),
    ("losses", "cross_entropy"), ("losses", "membership_loss"),
    ("dual_trainer", "train"), ("dual_trainer", "train_step"),
    ("dual_trainer", "save_checkpoint"), ("dual_trainer", "load_checkpoint"),
    ("data_io", "synth_gaussian"), ("data_io", "split_train_test"),
    ("data_io", "Dataset.__post_init__"), ("data_io", "Dataset.features"),
    ("experiments", "assemble_datasets"), ("experiments", "run_experiment"),
    ("novelty_eval", "score_dataset"), ("novelty_eval", "roc_auc"),
    ("novelty_eval", "closed_set_accuracy"), ("novelty_eval", "calibrate_threshold"),
    ("filter_analysis", "build_filter_report"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

COUNTERS = {
    "nn_core.macs_computed": "count",
    "nn_core.bytes_computed": "bytes",
    "novelty_eval.roc_auc.scores": "count",
    "novelty_eval.roc_auc.thresholds": "count",
    "data_io.samples_built": "count",
    "dual_trainer.steps": "count",
    "dual_trainer.checkpoint_bytes": "bytes",
    "cli.bytes_written": "bytes",
}
FORWARD_RATIO = "nn_core.eval_forward_samples_per_scored_sample"
# Spans whose wrapper runs a counting hook before / after the call.
HOOKED_BEFORE = frozenset({"nn_core.forward", "nn_core.backward", "dual_trainer.train",
                           "dual_trainer.train_step", "data_io.Dataset.__post_init__",
                           "dual_trainer.load_checkpoint", "cli.main"})
HOOKED_AFTER = frozenset({"dual_trainer.train", "novelty_eval.roc_auc", "novelty_eval.score_dataset",
                          "dual_trainer.save_checkpoint", "cli.main"})
BYTES_PER_VALUE = 8  # float64


def _network_cost(spec) -> tuple[int, int, int]:
    """(MACs per sample, activation values per sample, parameter values)
    of one forward pass, from the layer shapes."""
    shapes = spec.layer_input_shapes()
    macs = 0
    activations = 0
    params = 0
    for layer, shape_in, shape_out in zip(spec.layers, shapes, shapes[1:]):
        activations += int(np.prod(shape_in)) + int(np.prod(shape_out))
        if layer.kind == "dense":
            macs += layer.in_width * layer.out_width
            params += layer.out_width * (layer.in_width + 1)
        elif layer.kind == "conv2d":
            kernel = layer.in_channels * layer.kernel * layer.kernel
            macs += int(np.prod(shape_out)) * kernel
            params += layer.out_channels * (kernel + 1)
    return macs, activations, params


class Tracer:
    """Spans and counters for the traced cycles of one run."""

    def __init__(self, model_input_shape: tuple[int, ...]):
        self.model_input_shape = tuple(model_input_shape)
        # One entry per span, in call order; columns keep memory small on
        # workloads with ~10^5 wrapped calls per cycle.
        self.span_name = array("H")  # index into SPAN_NAMES
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")  # index of the enclosing span, -1 at top
        self.span_cycle = array("H")
        self.stack: list[int] = []
        self.cycle = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.eval_forward_samples = 0
        self.scored_samples = 0
        self.training_depth = 0
        self._costs: dict[int, tuple] = {}
        self._patches: list = []  # (owner, attribute, original)

    # --- counting hooks, run around the wrapped call -----------------------

    def _cost(self, spec):
        entry = self._costs.get(id(spec))
        if entry is None or entry[0] is not spec:
            entry = (spec, _network_cost(spec))
            self._costs[id(spec)] = entry
        return entry[1]

    def _count_network(self, spec, rows: int, passes: int) -> None:
        macs, activations, params = self._cost(spec)
        self.counts["nn_core.macs_computed"] += passes * macs * rows
        self.counts["nn_core.bytes_computed"] += passes * BYTES_PER_VALUE * (activations * rows + params)

    def _before(self, name, args, kwargs):
        if name == "nn_core.forward":
            spec, batch = args[0], args[2]
            rows = len(batch)
            self._count_network(spec, rows, 1)
            if not self.training_depth and tuple(spec.input_shape) == self.model_input_shape:
                self.eval_forward_samples += rows
        elif name == "nn_core.backward":
            spec, cache = args[0], args[2]
            self._count_network(spec, len(cache[0]) if cache else 0, 2)
        elif name == "dual_trainer.train":
            self.training_depth += 1
        elif name == "dual_trainer.train_step":
            self.counts["dual_trainer.steps"] += 1
        elif name == "data_io.Dataset.__post_init__":
            self.counts["data_io.samples_built"] += len(args[0])
        elif name == "dual_trainer.load_checkpoint":
            self.counts["dual_trainer.checkpoint_bytes"] += _file_size(args[0])
        elif name == "cli.main":
            return _snapshot(_out_dir(args[0] if args else kwargs.get("argv")))
        return None

    def _after(self, name, args, kwargs, result, state):
        if name == "dual_trainer.train":
            self.training_depth -= 1
        if result is _RAISED:
            return
        if name == "novelty_eval.roc_auc":
            self.counts["novelty_eval.roc_auc.scores"] += len(args[0]) + len(args[1])
            self.counts["novelty_eval.roc_auc.thresholds"] += len(result.thresholds) - 1
        elif name == "novelty_eval.score_dataset":
            self.scored_samples += len(result)
        elif name == "dual_trainer.save_checkpoint":
            self.counts["dual_trainer.checkpoint_bytes"] += _file_size(args[2])
        elif name == "cli.main":
            if result != 0:
                self.errors[name] += 1
            out = _out_dir(args[0] if args else kwargs.get("argv"))
            after = _snapshot(out)
            self.counts["cli.bytes_written"] += sum(
                size for path, (ino, size, mtime) in after.items()
                if state.get(path) != (ino, size, mtime))

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, cycles = self.span_parent, self.span_cycle
        stack = self.stack
        clock = time.perf_counter
        before = self._before if name in HOOKED_BEFORE else None
        after = self._after if name in HOOKED_AFTER else None

        def traced(*args, **kwargs):
            state = before(name, args, kwargs) if before else None
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cycles.append(self.cycle)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if after:
                    after(name, args, kwargs, result, state)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the names that could not be wrapped."""
        modules = [importlib.import_module("novnet")] + [
            importlib.import_module(f"novnet.{m}") for m in MODULES]
        missing = []
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            owner = importlib.import_module(f"novnet.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:  # a method: callers find it on the class
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        return missing

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_s = np.bincount(names, weights=duration - child, minlength=len(SPAN_NAMES))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        return ({n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)},
                {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)})

    def write_spans(self, path: str) -> None:
        """All spans as columns of a compressed .npz (names index `names`)."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES),
                            name=np.frombuffer(self.span_name, dtype=np.uint16),
                            start_s=np.frombuffer(self.span_start),
                            end_s=np.frombuffer(self.span_end),
                            parent=np.frombuffer(self.span_parent, dtype=np.int64),
                            cycle=np.frombuffer(self.span_cycle, dtype=np.uint16))

    def per_layer(self, cycles: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, averaged per traced cycle."""
        self_s, calls = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls.get(name, 0) / cycles, "count")
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / cycles, "s")
            metrics[f"{name}.errors"] = (self.errors.get(name, 0) / cycles, "count")
        for name, unit in COUNTERS.items():
            metrics[name] = (self.counts.get(name, 0.0) / cycles, unit)
        ratio = self.eval_forward_samples / self.scored_samples if self.scored_samples else 0.0
        metrics[FORWARD_RATIO] = (ratio, "ratio")
        return metrics

    def layer_shares(self) -> dict[str, float]:
        """Share of all traced self time per module (layer)."""
        self_s, _ = self.self_times()
        total = sum(self_s.values()) or 1.0
        shares: dict[str, float] = defaultdict(float)
        for name, seconds in self_s.items():
            shares[name.split(".")[0]] += seconds / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


_RAISED = object()


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _out_dir(argv):
    if argv and "--out" in argv:
        i = list(argv).index("--out")
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def _snapshot(directory) -> dict:
    """path -> (inode, size, mtime) of the files directly in directory."""
    if directory is None or not os.path.isdir(directory):
        return {}
    out = {}
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file():
                st = entry.stat()
                out[entry.path] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out
