"""Steadiness of the benchmark: two interleaved sets of runs of one workload.

Run from the root of a checkout::

    python3 perfbench/steady.py --workload paper30 --runs 5

Each set makes ``--runs`` untraced runs of ``perfbench/run.py`` of
``BENCHMARK.json``'s length, every run with its own seed (set A takes seeds
``first-seed ..``, set B the next ones), and the two sets alternate run by
run, so host drift falls on both alike.  For
every metric it prints each set's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median``, the gap between the two sets' medians, and the
spread over all runs of both sets against the metric's bound in
``BENCHMARK.json``.  It also prints each set's share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"run with seed {seed} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> tuple:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    sets: List[List[Dict]] = [[], []]
    for run in range(args.runs):
        for index, results in enumerate(sets):
            seed = args.first_seed + index * args.runs + run
            results.append(one_run(args.workload, seed, seconds))
            values = " ".join(f"{name}={metric['value']:.4g}"
                              for name, metric in results[-1]["metrics"].items())
            print(f"set {'AB'[index]} run {run + 1} (seed {seed}): {values}", file=sys.stderr)

    names = list(sets[0][0]["metrics"])
    print(f"workload {args.workload}, {args.runs} runs per set, {seconds} s each, "
          f"seeds {args.first_seed}..{args.first_seed + 2 * args.runs - 1}")
    for index, results in enumerate(sets):
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        correct = all(result["correct"] for result in results)
        print(f"set {'AB'[index]}: {failed}/{attempted} operations failed, "
              f"correct={correct}")
    header = f"{'metric':<34}" + "".join(
        f"{'set ' + letter + ' median [q1, q3] spread':>40}" for letter in "AB")
    header += f"{'gap B/A':>9}{'all-run spread':>16}{'bound':>7}"
    print(header)
    for name in names:
        unit = sets[0][0]["metrics"][name]["unit"]
        row = f"{name + ' (' + unit + ')':<34}"
        medians = []
        for results in sets:
            median, q1, q3, width = spread([result["metrics"][name]["value"]
                                            for result in results])
            medians.append(median)
            row += f"{median:>12.4g} [{q1:.4g}, {q3:.4g}] {width:>7.1%}"
        everything = [result["metrics"][name]["value"] for results in sets for result in results]
        row += f"{medians[1] / medians[0] - 1:>+9.1%}{spread(everything)[3]:>16.1%}"
        print(row + f"{bounds[name]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
