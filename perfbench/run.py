"""The repository benchmark: one command for every workload and metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper30 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that times each layer's public entry points and prints
the per-layer metrics.  ``--size smoke --workload all`` runs every workload
and every check once on small tables.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  Diagnostics go to standard error.

The benchmark builds nothing: it imports the program from ``src/`` of the
checkout it sits in, and exits with an error when that is missing.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before every import)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer time metrics reported per operation.
PER_OP_TIMES = (
    "core.explain_ms", "core.phase1_interestingness_ms", "core.phase2_partition_ms",
    "core.phase3_contribution_ms", "core.phase4_skyline_ms",
    "core.phase5_visualization_ms", "core.partition_validate_ms",
    "core.partition_frequency_ms", "core.partition_binning_ms",
    "core.partition_many_to_one_ms", "core.find_companions_ms", "stats.ks_ms",
    "dataframe.query_ms", "dataframe.column_structure_ms", "session.fingerprint_ms",
    "service.queue_wait_ms", "service.explain_ms", "serving.parse_ms",
    "serving.auth_ms", "serving.serialize_ms",
)
#: Per-layer counts reported per round (every round repeats the same work).
PER_ROUND_COUNTS = ("core.partitions", "core.grid_pairs", "core.candidates",
                    "core.skyline_size")
SESSION_COUNTS = ("session.report_hits", "session.report_misses", "session.score_hits",
                  "session.partition_hits", "session.partition_misses",
                  "session.structure_hits", "session.evictions")


def _bootstrap() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's source ({source}/repro) is missing; "
                 "run from the root of a checkout of the repository")
    # Measure the defaults: no tracing, exporters or tuning from the caller.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(source), str(ROOT)]


@dataclass
class Round:
    """One round's operations: (seconds, cpu seconds, error or None) each."""

    ops: List[Tuple[float, float, Optional[str]]]
    counts: Dict[str, float]
    traced: bool


def measure_rounds(workload, seconds: float, min_rounds: int, clock) -> List[Round]:
    """Whole rounds until ``seconds`` have passed and enough rounds ran.

    With a clock, rounds run in the order untraced, traced, traced,
    untraced (shims installed in the traced ones), repeated, so the traced
    run reports its own overhead against rounds of the same operations and
    a drift in host speed falls on both kinds alike.
    """
    from perfbench.checks import CheckFailure

    rounds: List[Round] = []
    begin = time.perf_counter()
    while True:
        # Garbage of the previous round is freed now, not inside a timed one.
        gc.collect()
        traced = clock is not None and len(rounds) % 4 in (1, 2)
        undo = clock.install() if traced else None
        try:
            ops = []
            for index in range(workload.start_round()):
                state = workload.before(index)
                cpu_start, start = time.process_time(), time.perf_counter()
                try:
                    result, error = workload.run(index), None
                except Exception as failure:  # an operation that fails is counted
                    result, error = None, f"raised {type(failure).__name__}: {failure}"
                elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
                if error is None:
                    try:
                        workload.check(index, result, state)
                    except CheckFailure as failure:
                        error = f"wrong output: {failure}"
                ops.append((elapsed, cpu, error))
            counts = workload.end_round()
        finally:
            if undo is not None:
                undo()
        rounds.append(Round(ops, counts, traced))
        untraced = sum(1 for item in rounds if not item.traced)
        enough = untraced >= min_rounds and (clock is None or len(rounds) % 4 == 0)
        if enough and time.perf_counter() - begin >= seconds:
            return rounds


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end(rounds: List[Round], setups: List[float]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of the untraced rounds."""
    timed = [item for item in rounds if not item.traced]
    latencies = [op[0] for item in timed for op in item.ops]
    return {
        "ops_per_s": (statistics.median(
            len(item.ops) / sum(op[0] for op in item.ops) for item in timed), "1/s"),
        "latency_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
        "cpu_ms_per_op": (statistics.median(
            sum(op[1] for op in item.ops) * 1e3 / len(item.ops) for item in timed), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(rounds: List[Round], clock, base) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the traced rounds (``base``: clock after set-up)."""
    traced = [item for item in rounds if item.traced]
    untraced = [item for item in rounds if not item.traced]
    ops = sum(len(item.ops) for item in traced)
    ms, calls, counts = clock.snapshot()
    delta = {name: value - base[0].get(name, 0.0) for name, value in ms.items()}
    delta_calls = {name: value - base[1].get(name, 0) for name, value in calls.items()}
    delta_counts = {name: value - base[2].get(name, 0.0) for name, value in counts.items()}
    metrics: Dict[str, Tuple[float, str]] = {
        name: (delta.get(name, 0.0) / ops, "ms") for name in PER_OP_TIMES}
    for name in PER_ROUND_COUNTS:
        metrics[name] = (delta_counts.get(name, 0.0) / len(traced), "count")
    metrics["stats.ks_calls"] = (delta_calls.get("stats.ks_ms", 0) / len(traced), "count")

    def round_total(name: str) -> float:
        return sum(item.counts.get(name, 0.0) for item in traced)

    for name in SESSION_COUNTS:
        metrics[name] = (round_total(name) / len(traced), "count")
    lookups = round_total("session.report_hits") + round_total("session.report_misses")
    metrics["session.report_hit_ratio"] = (
        round_total("session.report_hits") / lookups if lookups else 0.0, "ratio")
    metrics["session.store_mb"] = (round_total("session.store_mb") / len(traced), "MB")

    traced_seconds = sum(op[0] for item in traced for op in item.ops)
    responses = round_total("serving.response_bytes")
    server_ms = sum(delta.get(name, 0.0) for name in (
        "serving.parse_ms", "serving.auth_ms", "serving.serialize_ms",
        "service.queue_wait_ms", "service.explain_ms"))
    metrics["serving.transport_ms"] = (
        (traced_seconds * 1e3 - server_ms) / ops if responses else 0.0, "ms")
    metrics["serving.response_kb"] = (responses / 1e3 / ops, "KB")

    def per_call(metric: str, total: float) -> float:
        return total / calls[metric] if calls.get(metric) else 0.0

    metrics["storage.put_ms"] = (per_call("storage.put_ms", ms.get("storage.put_ms", 0.0)), "ms")
    metrics["storage.open_ms"] = (per_call("storage.open_ms", ms.get("storage.open_ms", 0.0)),
                                  "ms")
    metrics["storage.mb_written"] = (
        per_call("storage.put_ms", counts.get("storage.mb_written", 0.0)), "MB")
    untraced_mean = sum(op[0] for item in untraced for op in item.ops) / sum(
        len(item.ops) for item in untraced)
    metrics["trace.overhead_pct"] = ((traced_seconds / ops / untraced_mean - 1) * 100, "%")
    return metrics


def _setup_in_subprocess(name: str, seed: int, size: str) -> float:
    """One set-up in a fresh interpreter, imports included."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--size", size, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 setup_only: bool = False, started: float = _STARTED) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the result document.

    ``started`` is when this workload's set-up began: the process start
    (imports included) for the first workload of a process.
    """
    from perfbench.shims import LayerClock
    from perfbench.workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    workload = WORKLOADS[name](seed, size, workdir)
    clock = LayerClock() if trace else None
    try:
        undo = clock.install() if clock is not None else None
        try:
            workload.setup()
            setups = [time.perf_counter() - started]
        finally:
            if undo is not None:
                undo()
        if setup_only:
            return {"setup_s": setups[0]}
        base = clock.snapshot() if clock is not None else None
        if not trace and size == "full":
            setups += [_setup_in_subprocess(name, seed, size)
                       for _ in range(workload.setups - 1)]
        workload.verify_setup()
        min_rounds = workload.min_rounds if size == "full" and not trace else 1
        rounds = measure_rounds(workload, seconds, min_rounds, clock)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's directory is still there
    errors = [op[2] for item in rounds for op in item.ops if op[2] is not None]
    for error in errors[:5]:
        print(f"perfbench: {name}: {error}", file=sys.stderr)
    timed = [op[0] for item in rounds if not item.traced for op in item.ops]
    print(f"perfbench: {name}: {len(rounds)} rounds, {len(timed)} untraced operations; "
          f"p54/p46 = {_percentile(timed, 54) / _percentile(timed, 46):.3f}, "
          f"p94/p86 = {_percentile(timed, 94) / _percentile(timed, 86):.3f}",
          file=sys.stderr)
    metrics = per_layer(rounds, clock, base) if trace else end_to_end(rounds, setups)
    return {
        "correct": not any(error.startswith("wrong output") for error in errors),
        "attempted": sum(len(item.ops) for item in rounds),
        "failed": len(errors),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper30", "session-replay", "http-hot", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.workload == "all" and args.size != "smoke":
        parser.error("--workload all is only for --size smoke")
    names = (["paper30", "session-replay", "http-hot"] if args.workload == "all"
             else [args.workload])
    for position, name in enumerate(names):
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                              setup_only=args.setup_only,
                              started=time.perf_counter() if position else _STARTED)
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
