"""Benchmark of codexpand: CLI commands end to end, and per layer.

Run from the repository root, with numpy and scipy installed; the package is
imported from ``src/``:

    python3 bench/run.py --workload plan-l4m4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload, in-process and with one worker, so peak memory
never mixes between workloads; ``--workload all`` starts one such process per
workload and prints a summary table.

``--trace 0`` times repeated operations of the workload with tracing off and
reports wall_s, cpu_s, setup_s (fresh interpreter up to a ready CLI parser),
peak_rss_mib and throughput.  Times, and throughput with them, are scaled to a
reference machine speed measured next to each operation (see calibration.py);
the measured times are printed alongside.  ``--trace 1`` times untraced operations, then
traced ones (see tracer.py), and reports the per-layer metrics (times as
measured) and the tracing overhead (at the reference speed).  Every operation's output is checked outside the timed region
against reference.json.  Human-readable lines come first; the last line of
standard output is one JSON object with the metrics named in BENCHMARK.json.
Spans and a full result record are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from calibration import REFERENCE_S, Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE_PATH = Path(__file__).parent / "baseline.json"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 3
SETUP_CODE = "import codexpand.cli as cli; cli.build_parser()"
#: Counts that depend on output values rather than on the input, so they may
#: differ between operations with different seeds.
VALUE_DEPENDENT_COUNTS = {"reporting.write_csv.bytes"}
#: The top-level spans must cover at least this share of a traced operation.
MIN_TOP_LEVEL_SHARE = 0.95
ENV_KEYS = ("cpu_model", "nproc", "python", "numpy", "scipy")


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def environment(seed: int) -> dict:
    """What a result must be read with: machine, versions, code and seed."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing codexpand, ready to dispatch."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - started


def import_times() -> dict[str, float]:
    """Cumulative import time (-X importtime) of the CLI module, which a run
    pays in full, and of the contention module, which imports scipy.stats."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          check=True)
    found = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            found.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return {f"import.{module}.time_s": found.get(module, 0.0)
            for module in ("codexpand.cli", "codexpand.contention")}


def op_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


class Ops:
    """Repeated operations of one workload: timings, check results, spans.

    The calibration kernel runs in a gap before the first operation and after
    each one, so every operation can be scaled to the reference speed.
    """

    def __init__(self, workload, out: Path, seed: int, tracer=None) -> None:
        self.workload, self.out, self.seed, self.tracer = workload, out, seed, tracer
        self.calibration = Calibration()
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.problems: list[list[str]] = []
        self.layers: list[dict[str, float]] = []  # per traced operation
        self.bounds: list[tuple[int, int]] = []

    def run(self, seconds: float, min_ops: int, first_index: int) -> None:
        """Run operations until the next would likely end after ``seconds``."""
        deadline = time.perf_counter() + seconds
        index = first_index
        self.calibration.gap()
        while True:
            self._one(op_seed(self.seed, index))
            self.calibration.gap()
            index += 1
            if (len(self.walls) >= min_ops
                    and time.perf_counter() + statistics.median(self.walls) > deadline):
                return

    def _one(self, seed: int) -> None:
        tracer = self.tracer
        if tracer is not None:
            lo, counts_before = len(tracer), Counter(tracer.counts)
        problems = None
        gc.collect()  # every operation starts from the same heap, as a fresh run would
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = self.workload.run(self.out, seed)
        except Exception:
            problems = [traceback.format_exc()]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.walls.append(wall)
        self.cpus.append(cpu)
        if tracer is not None:
            hi = len(tracer)
            self.bounds.append((lo, hi))
            layer = tracer.summarize(lo, hi)
            layer.update(tracer.counts - counts_before)
            layer["trace.top_level_share"] = layer.pop("trace.top_level_s") / wall
            self.layers.append(layer)
        if problems is None:
            try:
                problems = self.workload.check(self.out, result)
            except Exception:
                problems = [traceback.format_exc()]
        self.problems.append(problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count, with the samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def end_to_end(workload, ops: Ops, setups: list[float], setup_scale: float,
               peak_mib: float) -> dict:
    """Times and throughput at the reference speed; peak memory as measured."""
    walls = ops.calibration.scaled(ops.walls)
    return {
        "wall_s": summary(walls),
        "cpu_s": summary(ops.calibration.scaled(ops.cpus)),
        "setup_s": summary([s * setup_scale for s in setups]),
        "peak_rss_mib": summary([peak_mib]),
        "throughput": summary([workload.items_per_op / w for w in walls]),
    }


def layer_metrics(workload, untraced: Ops, traced: Ops) -> tuple[dict, list[str]]:
    """Per-layer values over the traced operations, and failed self-checks."""
    ops = traced.layers
    values = {key: statistics.median(op.get(key, 0.0) for op in ops)
              for key in set().union(*ops)}
    counts = {key for key in values if not key.endswith(("_s", "_share"))}
    mismatched = sorted(key for key in counts - VALUE_DEPENDENT_COUNTS
                        if len({op.get(key, 0) for op in ops}) > 1)
    values.update({key: ops[0].get(key, 0) for key in counts})
    # At the reference speed, so that drift between the two phases does not
    # show as tracing overhead.
    values["trace.wall_s"] = statistics.median(traced.calibration.scaled(traced.walls))
    values["trace.untraced_wall_s"] = statistics.median(
        untraced.calibration.scaled(untraced.walls))
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.count_mismatches"] = len(mismatched)
    values["calibration.kernel_s"] = untraced.calibration.kernel_s()

    failures = [f"count {key} differs between traced operations" for key in mismatched]
    failures += [f"layer {name} recorded no span" for name in workload.layers
                 if values.get(f"{name}.calls", 0) == 0]
    selfs = {key[:-len(".self_s")]: v for key, v in values.items() if key.endswith(".self_s")}
    dominant = max(selfs, key=selfs.get)
    if dominant != workload.dominant:
        failures.append(f"dominant layer is {dominant}, expected {workload.dominant}")
    if values["trace.top_level_share"] < MIN_TOP_LEVEL_SHARE:
        failures.append(f"top-level spans cover {values['trace.top_level_share']:.1%} "
                        "of the traced wall time")
    values["trace.self_check_failures"] = len(failures)
    return values, failures


def metric_value(values: dict, name: str) -> float:
    if name in values:
        return values[name]
    # A count of a function that was never called (or no longer exists) is 0.
    if values.get(name.rsplit(".", 1)[0] + ".calls", 0) == 0:
        return 0
    raise KeyError(f"no value measured for {name}")


def compare_with_baseline(name: str, env: dict, medians: dict, section: str) -> None:
    if not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    base_env = baseline["environment"]
    differs = {k: (base_env.get(k), env[k]) for k in ENV_KEYS if base_env.get(k) != env[k]}
    if differs:
        print(f"{name} baseline: measured in another environment {differs}; not compared")
        return
    base = baseline[section].get(name, {})
    for metric, value in medians.items():
        if base.get(metric):
            change = value / base[metric] - 1
            print(f"{name} baseline {metric} = {base[metric]:.6g} (now {change:+.1%})")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment(seed)
    print(f"{name} environment {json.dumps(env, sort_keys=True)}")
    record: dict = {"workload": name, "trace": int(trace), "environment": env}

    if not trace:
        calibration = Calibration()
        calibration.gap()
        setups = [measure_setup() for _ in range(SETUP_REPEATS)]
        calibration.gap()
        workload.warmup(out)
        ops = Ops(workload, out, seed)
        ops.run(seconds, min_ops=1, first_index=0)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summaries = end_to_end(workload, ops, setups, calibration.scale(0), peak_mib)
        raw = {"wall_s": ops.walls, "cpu_s": ops.cpus, "setup_s": setups}
        all_ops = [ops]
        for metric in SPEC["end_to_end"]:
            s = summaries[metric["name"]]
            line = (f"{name} {metric['name']} = {s['median']:.6g} {metric['unit']} "
                    f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
            if metric["name"] in raw:
                line += f"; measured median {statistics.median(raw[metric['name']]):.6g} s"
            print(line)
        print(f"{name} times are at the reference speed; calibration kernel median "
              f"{ops.calibration.kernel_s():.6g} s against {REFERENCE_S} s")
        print(f"{name} throughput item = {workload.item}, {workload.items_per_op} per operation")
        metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        record["end_to_end"] = summaries
        record["measured"] = raw
        record["calibration_gaps"] = {"setup": calibration.gaps, "ops": ops.calibration.gaps}
        section = "end_to_end"
    else:
        workload.warmup(out)
        untraced = Ops(workload, out, seed)
        untraced.run(seconds / 2, min_ops=1, first_index=0)
        tracer = Tracer()
        traced = Ops(workload, out, seed, tracer)
        with tracer.installed():
            traced.run(seconds / 2, min_ops=2, first_index=len(untraced.walls))
        tracer.save(OUT / f"{name}-spans.npz", traced.bounds)
        all_ops = [untraced, traced]
        values, failures = layer_metrics(workload, untraced, traced)
        values.update(import_times())
        metrics = {m["name"]: {"value": metric_value(values, m["name"]), "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        for metric, v in metrics.items():
            print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
        if tracer.absent:
            print(f"{name} trace: layer functions not found: {', '.join(tracer.absent)}")
        for failure in failures:
            print(f"{name} trace self-check FAILED: {failure}")
        if not failures:
            print(f"{name} trace self-check passed")
        record["per_layer"] = values
        record["trace_failures"] = failures
        section = "per_layer"

    attempted = sum(len(o.walls) for o in all_ops)
    failed = sum(o.failed for o in all_ops)
    problems = [p for o in all_ops for p in o.problems if p]
    for p in problems:
        print(f"{name} check FAILED: {' / '.join(p)}")
    print(f"{name} checks: {attempted - failed} of {attempted} operations correct; "
          f"ops_failed_frac = {failed / attempted:.6g}")
    compare_with_baseline(name, env, {k: v["value"] for k, v in metrics.items()}, section)
    record.update(attempted=attempted, failed=failed, problems=problems)
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    for w in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{w['name']} exited with {proc.returncode}")
            return proc.returncode
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':<12} {'metric':<44} {'value':>14}  unit")
    for name, result in results.items():
        for metric, v in result["metrics"].items():
            print(f"{name:<12} {metric:<44} {v['value']:>14.6g}  {v['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<12} {'ops_failed_frac':<44} {frac:>14.6g}  "
              f"({result['attempted'] - result['failed']} of {result['attempted']} "
              "operations correct)")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "codexpand" / "__init__.py").is_file():
        print(f"error: no codexpand sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
