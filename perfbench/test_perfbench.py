"""Tests of the benchmark itself.

Each output check must fail on a deliberately corrupted output, the
workload definitions must keep the properties the metrics rely on, and the
smoke size of the command must run every workload with every check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks
from perfbench.checks import CheckFailure
from perfbench.workloads import (
    POPULARITY,
    REQUESTS_PER_ROUND,
    TENANTS,
    ZIPF_S,
    HttpHot,
    SessionReplay,
    session_script,
    zipf_counts,
)
from repro import Comparison, ExploratoryStep, FedexExplainer, Filter, GroupBy
from repro.datasets import load_spotify

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def filter_case():
    step = ExploratoryStep([load_spotify(n_rows=1_500, seed=3)],
                           Filter(Comparison("popularity", ">", 65)))
    return step, FedexExplainer().explain(step)


@pytest.fixture(scope="module")
def groupby_case():
    step = ExploratoryStep([load_spotify(n_rows=1_500, seed=3)],
                           GroupBy(keys=["decade"], aggregations={
                               "popularity": ["mean"], "loudness": ["mean"]}))
    return step, FedexExplainer().explain(step, measure="diversity")


def _every_sample(report) -> int:
    return len(report.skyline_candidates)


def test_checks_pass_on_program_output(filter_case, groupby_case):
    for (step, report), measure in ((filter_case, "exceptionality"),
                                    (groupby_case, "diversity")):
        checks.check_report(step, report, measure, np.random.default_rng(0),
                            samples=_every_sample(report))


def test_wrong_exceptionality_score_fails(filter_case):
    step, report = filter_case
    broken = copy.deepcopy(report)
    attribute = next(iter(broken.interestingness_scores))
    broken.interestingness_scores[attribute] += 0.01
    with pytest.raises(CheckFailure, match="exceptionality"):
        checks.check_scores(step, broken, "exceptionality")


def test_wrong_diversity_score_fails(groupby_case):
    step, report = groupby_case
    broken = copy.deepcopy(report)
    attribute = next(iter(broken.interestingness_scores))
    broken.interestingness_scores[attribute] *= 1.01
    with pytest.raises(CheckFailure, match="diversity"):
        checks.check_scores(step, broken, "diversity")


def test_dominated_skyline_member_fails(filter_case):
    _, report = filter_case
    broken = copy.deepcopy(report)
    weakest = min(broken.all_candidates,
                  key=lambda c: (c.interestingness, c.standardized_contribution))
    broken.skyline_candidates = [weakest]
    with pytest.raises(CheckFailure, match="dominated"):
        checks.check_skyline(broken)


def test_wrong_raw_contribution_fails(filter_case):
    step, report = filter_case
    broken = copy.deepcopy(report)
    for candidate in broken.skyline_candidates:
        candidate.contribution += 0.05
    with pytest.raises(CheckFailure, match="contribution of .* recomputed"):
        checks.check_contributions(step, broken, "exceptionality",
                                   np.random.default_rng(0), _every_sample(broken))


def test_wrong_standardized_contribution_fails(groupby_case):
    step, report = groupby_case
    broken = copy.deepcopy(report)
    for candidate in broken.skyline_candidates:
        candidate.standardized_contribution += 0.5
    with pytest.raises(CheckFailure, match="standardized"):
        checks.check_contributions(step, broken, "diversity",
                                   np.random.default_rng(0), _every_sample(broken))


def test_overlapping_row_sets_fail(filter_case):
    step, report = filter_case
    broken = copy.deepcopy(report)
    member = broken.skyline_candidates[0]
    other = next(c for c in broken.all_candidates
                 if c.row_set.label != member.row_set.label
                 and c.row_set.source_attribute == member.row_set.source_attribute)
    member.row_set.indices = np.union1d(member.row_set.indices, other.row_set.indices)
    with pytest.raises(CheckFailure, match="not a set of any partition"):
        checks.check_contributions(step, broken, "exceptionality",
                                   np.random.default_rng(0), _every_sample(broken))
    overlapping = SimpleNamespace(
        method="frequency", source_attribute="x",
        all_sets=lambda: [SimpleNamespace(indices=np.array([0, 1, 2])),
                          SimpleNamespace(indices=np.array([2, 3]))])
    with pytest.raises(CheckFailure, match="overlap"):
        checks.check_disjoint(overlapping)


def test_report_unlike_its_reference_fails(filter_case):
    _, report = filter_case
    broken = copy.deepcopy(report)
    broken.all_candidates[0].standardized_contribution += 1e-6
    checks.check_same_result(copy.deepcopy(report), checks.projection(report), "itself")
    with pytest.raises(CheckFailure, match="differs"):
        checks.check_same_result(broken, checks.projection(report), "the reference")


def test_replay_script_outcomes_come_from_the_script():
    for seed in (1, 2, 3):
        script = session_script(seed)
        outcomes = [op.expect for op in script]
        notebook_steps = 13
        # Notebook steps and the post-rewrite step are repeated by every
        # other tenant; refinements, group-bys and re-explains are not.
        assert outcomes.count("hit") == (notebook_steps + 1) * (len(TENANTS) - 1)
        assert outcomes.count("miss") == notebook_steps + 3 * 3 + 1
        assert outcomes.count("write") == 1
        def summary(ops):
            return [(op.tenant, op.spec and op.spec.name, op.changed, op.expect) for op in ops]
        assert summary(script) == summary(session_script(seed))


def test_replay_detects_a_wrong_cache_outcome(tmp_path):
    workload = SessionReplay(1, "smoke", tmp_path)
    try:
        workload.setup()
        workload.verify_setup()
        workload.start_round()
        state = workload.before(0)
        result = workload.run(0)
        workload.check(0, result, state)
        assert workload.script[0].expect == "miss"
        workload.script[0] = replace(workload.script[0], expect="hit")
        with pytest.raises(CheckFailure, match="report miss, the script expects a hit"):
            workload.check(0, result, state)
    finally:
        workload.close()


def test_http_hot_detects_changed_response_bytes(tmp_path):
    workload = HttpHot(1, "smoke", tmp_path)
    try:
        workload.setup()
        workload.verify_setup()
        workload.start_round()
        for path in ("/explain", "/explain/stream"):
            index = next(i for i, (_, p, _) in enumerate(workload.sequence) if p == path)
            payload = workload.run(index)
            workload.check(index, payload, None)
            with pytest.raises(CheckFailure, match="Python API"):
                workload.check(index, payload.replace(b'"candidates":', b'"candidates": '),
                               None)
    finally:
        workload.close()


def test_http_mix_keeps_percentiles_inside_one_query_block():
    # Memo hits of the joins and the two 20k-row products filters (Q1-Q5)
    # are 3-10x slower than every other hit.  Their share must stay far
    # from the 10% that would put p90 at that class gap; p90 and p50 then
    # fall inside the blocks of ranks 2 and 1.
    counts = dict(zip(POPULARITY, zipf_counts(REQUESTS_PER_ROUND, len(POPULARITY), ZIPF_S)))
    assert sum(counts.values()) == REQUESTS_PER_ROUND
    assert all(count >= 1 for count in counts.values())
    slow = sum(counts[number] for number in (1, 2, 3, 4, 5)) / REQUESTS_PER_ROUND
    assert slow <= 0.05
    rank_two = counts[POPULARITY[1]] / REQUESTS_PER_ROUND
    assert slow + 0.02 < 0.1 < slow + rank_two - 0.02
    assert counts[POPULARITY[0]] / REQUESTS_PER_ROUND >= 0.2


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_size_runs_every_workload_and_check(trace, section):
    completed = _run("--workload", "all", "--size", "smoke", "--seconds", "0",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    results = [json.loads(line) for line in completed.stdout.strip().splitlines()]
    assert [result["workload"] for result in results] == \
        [workload["name"] for workload in SPEC["workloads"]]
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 30
        assert {name: value["unit"] for name, value in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("--workload", "paper30", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
