"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ablate-dense --seed 0 --seconds 30 --trace 0

Run from the repository root; novnet is imported from ./src. The run:
1. imports novnet, then makes SETUP_ROUNDS set-up rounds. Each writes the
   workload's seeded inputs into a fresh directory and runs its set-up
   calls (a reduced warm-up cycle, and for eval-large the checkpoint
   training). setup_s is the import time plus the median round.
2. repeats timed cycles of CLI calls, in this process, until --seconds
   have passed. Between cycles (untimed) each call's output files are
   compared with the first cycle's, and the first cycle's outputs get the
   full correctness checks of checks.py after the timed phase.
3. with --trace 1, alternates untraced and traced cycles and reports the
   per-layer metrics of the traced ones, plus tracing overhead.
Every timed step is scaled to a reference speed (see reference_kernel).

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it carries details: the env block, sample counts, the
tail latency and its percentile, and per-layer self-time shares.
Everything written goes under .perfbench_work/ in the repository root.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_ROUNDS = 9
MIN_CYCLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_POLICY = (f"{SETUP_ROUNDS} set-up rounds, each running the workload's warm-up calls "
                 "(a reduced-epoch cycle; eval-large: checkpoint training plus one full cycle); "
                 "setup_s = import time + median round")

# Reported times are in units where reference_kernel takes this long, close
# to its median on a 2-vCPU Intel Xeon VM (numpy 2.4, OpenBLAS 0.3.31, one
# thread), so they read close to wall-clock seconds there.
REFERENCE_NOMINAL_S = 0.02
REFERENCE_REPS = 1200

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "train_steps_per_s": "1/s",
                    "scored_samples_per_s": "1/s", "peak_rss_mib": "MiB"}
TRAINING_COMMANDS = ("ablate", "train")  # on eval-large, only set-up trains
SCORING_COMMANDS = ("ablate", "eval")


@dataclass
class Call:
    """One CLI call: its argv, exit code (None when it raised), wall time,
    and wall time at the reference speed (set by Probes.call)."""

    argv: list[str]
    rc: int | None
    seconds: float
    stderr: str
    scaled: float = 0.0

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Cycle:
    traced: bool
    seconds: float  # wall clock
    scaled: float  # at the reference speed
    calls: list
    digests: list  # per call: file name -> sha256


def reference_kernel() -> float:
    """Seconds one fixed mix of interpreter work and small numpy operations
    takes right now. It never touches novnet.

    On a shared host the CPU's speed swings by a third within seconds, and
    a median of raw times moves with the share of a run spent slow. So
    every timed sample is divided by the mean of the kernel times taken
    just before and just after it, and multiplied by REFERENCE_NOMINAL_S:
    the reported times are seconds at a fixed reference speed. The raw
    wall-clock values are kept in the details.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 8))
    w = rng.standard_normal((20, 8))
    rows = []
    for i in range(REFERENCE_REPS):
        h = np.maximum(x @ w.T, 0.0)
        rows.append(repr(float(h.sum())) + "," + str(i))
    total = 0
    for i in range(60 * REFERENCE_REPS):
        total += (i * 7) % 13
    "\n".join(rows)
    return time.perf_counter() - start


class Probes:
    """reference_kernel times, one at every boundary between timed steps."""

    def __init__(self):
        reference_kernel()  # the first run pays one-off numpy set-up costs
        self.times = [reference_kernel()]

    def step(self, fn, *args):
        """Run fn(*args) and probe; returns (result, seconds, scaled seconds)."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.times.append(reference_kernel())
        scale = REFERENCE_NOMINAL_S / ((self.times[-2] + self.times[-1]) / 2.0)
        return result, seconds, seconds * scale

    def call(self, cli, argv) -> Call:
        call, _, scaled = self.step(run_cli, cli, argv)
        call.scaled = scaled
        return call


def run_cli(cli, argv) -> Call:
    """Call novnet's CLI in-process; a call that raises counts as failed.
    `cli.main` is looked up per call so that tracing wrappers apply."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - the program's failure is a measured outcome
        err.write(traceback.format_exc())
    return Call(argv, rc, time.perf_counter() - start, err.getvalue())


def _digest_outputs(out_dir: str, command: str, output_files) -> dict:
    """sha256 of every file the command writes (None when missing)."""
    digests = {}
    for name in output_files[command]:
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digests[name] = None
    return digests


def tail_latency(samples: list[float]) -> dict | None:
    """Highest listed percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            return {"value": ordered[n - beyond - 1], "percentile": p, "beyond": beyond, "samples": n}
    return None


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_block(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "warmup_policy": WARMUP_POLICY,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    for var in THREAD_VARS:  # single-threaded BLAS, set before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from novnet import cli  # noqa: F401  (import cost belongs to set-up)

    from perfbench import checks, tracing, workloads

    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[workload_name]
    work = os.path.join(WORK_DIR, f"{workload_name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    probes = Probes()
    import_scaled = import_s * REFERENCE_NOMINAL_S / probes.times[0]

    setup_rounds, setup_scaled, setup_calls = [], [], []
    for r in range(SETUP_ROUNDS):
        d = os.path.join(work, f"round{r}")
        _, input_s, input_scaled = probes.step(workload.write_inputs, seed, d)
        calls = [probes.call(cli, argv) for argv in workload.setup_calls(d)]
        setup_rounds.append(input_s + sum(c.seconds for c in calls))
        setup_scaled.append(input_scaled + sum(c.scaled for c in calls))
        setup_calls.extend(calls)
        bad = [c for c in calls if c.rc != 0]
        if bad:
            raise RuntimeError(f"set-up call {bad[0].argv} failed (rc={bad[0].rc}):\n{bad[0].stderr}")
    out = os.path.join(d, "out")
    reference = os.path.join(work, "reference")

    tracer = tracing.Tracer(workload.input_shape) if trace else None
    unwrapped = []
    cycles: list[Cycle] = []
    phase_start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - phase_start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        traced = trace and len(cycles) % 2 == 1
        if traced:
            tracer.cycle = len(cycles)
            unwrapped = tracer.install()
        calls = [probes.call(cli, argv) for argv in workload.cycle_calls(d)]
        if traced:
            tracer.uninstall()
        digests = [_digest_outputs(out, c.command, workloads.OUTPUT_FILES) for c in calls]
        if not cycles:
            shutil.copytree(out, reference, dirs_exist_ok=True)
        cycles.append(Cycle(traced, sum(c.seconds for c in calls), sum(c.scaled for c in calls),
                            calls, digests))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness: full checks on the first cycle, equal digests after.
    sizes = workloads.work_sizes(workload, d)
    ablation_reference = (checks.reference_ablation(d, seed)
                          if workload_name == "ablate-dense" else None)
    verdicts = [checks.judge_op(workload_name, c.argv, reference, seed, sizes, ablation_reference)
                for c in cycles[0].calls]
    shared_problems = []
    if workload.trains_in_setup:  # every cycle reads the set-up checkpoint
        shared_problems = checks.check_train(os.path.join(d, workloads.CHECKPOINT_DIR),
                                             os.path.join(d, workloads.CONFIG_NAME))
    attempted, failed, problems = checks.tally([(c.calls, c.digests) for c in cycles], verdicts,
                                               shared_problems)

    # End-to-end metrics, at the reference speed; raw wall-clock in details.
    untraced = [c for c in cycles if not c.traced]
    cycle_calls = [call for c in untraced for call in c.calls]
    training = [c for c in (setup_calls if workload.trains_in_setup else cycle_calls)
                if c.command in TRAINING_COMMANDS]
    scoring = [c for c in cycle_calls if c.command in SCORING_COMMANDS]
    eval_cycles = [sum(c.scaled for c in calls if c.command in ("eval", "calibrate"))
                   for calls in (c.calls for c in untraced)]

    def summarize(raw: bool) -> dict:
        time_of = (lambda call: call.seconds) if raw else (lambda call: call.scaled)
        return {
            "setup_s": (import_s if raw else import_scaled)
                       + statistics.median(setup_rounds if raw else setup_scaled),
            "wall_s": statistics.median(c.seconds if raw else c.scaled for c in untraced),
            "train_steps_per_s": statistics.median(sizes["steps"] / time_of(c) for c in training),
            "scored_samples_per_s": statistics.median(sizes["scored"] / time_of(c) for c in scoring),
            "peak_rss_mib": peak_rss_mib,
        }

    metrics = summarize(raw=False)
    samples = {"setup_s": len(setup_rounds), "wall_s": len(untraced),
               "train_steps_per_s": len(training), "scored_samples_per_s": len(scoring),
               "peak_rss_mib": 1}
    details = {
        "workload": workload_name,
        "env": env_block(seed),
        "samples": samples,
        "import_s": import_s,
        "setup_rounds_s": setup_rounds,
        "cycle_s": [c.seconds for c in untraced],
        "call_s": {f"{phase}.{command}": [[c.seconds, c.scaled] for c in calls if c.command == command]
                   for phase, calls in (("setup", setup_calls), ("cycle", cycle_calls))
                   for command in sorted({c.command for c in calls})},
        "raw_wall_clock": summarize(raw=True),
        "reference_kernel_s": {"nominal": REFERENCE_NOMINAL_S, "median": statistics.median(probes.times),
                               "min": min(probes.times), "probes": len(probes.times),
                               "all": probes.times},
        "work": sizes,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
    }
    if any(eval_cycles):
        details["eval_p50_s"] = statistics.median(eval_cycles)
        details["eval_tail_s"] = tail_latency(eval_cycles)

    if trace:
        traced_cycles = [c for c in cycles if c.traced]
        per_layer = tracer.per_layer(len(traced_cycles))
        traced_s = statistics.median(c.scaled for c in traced_cycles)
        per_layer["trace.overhead_s"] = (traced_s - metrics["wall_s"], "s")
        per_layer["trace.overhead_ratio"] = (traced_s / metrics["wall_s"] - 1.0, "ratio")
        reported = {name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()}
        details["layer_self_time_share"] = tracer.layer_shares()
        details["traced_cycles"] = len(traced_cycles)
        details["unwrapped"] = unwrapped
        spans_path = os.path.join(WORK_DIR, f"spans-{workload_name}-seed{seed}.npz")
        tracer.write_spans(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()}
    details["end_to_end"] = {name: {"value": value, "unit": END_TO_END_UNITS[name],
                                    "samples": samples[name]} for name, value in metrics.items()}

    shutil.rmtree(work, ignore_errors=True)
    report_path = os.path.join(WORK_DIR, f"report-{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(report_path, "w") as fh:
        json.dump(details, fh, indent=2)
    return {"details": details,
            "result": {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                       "failed": failed, "metrics": reported}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablate-dense", "conv-train", "eval-large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "novnet", "__init__.py")):
        print(f"perfbench: no novnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report and exit nonzero without a result
        traceback.print_exc()
        return 1
    print(json.dumps(outcome["details"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
