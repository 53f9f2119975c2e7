"""Output checks computed apart from the program under test.

Every check recomputes a quantity from its definition in the paper, with
the benchmark's own scorers, or tests a property the output must have.  No
check compares against a stored copy of an earlier output:

* exceptionality (Eq. 1) is recomputed with ``scipy.stats.ks_2samp`` for
  numeric columns and with a numpy CDF over the lexicographically ordered
  support for categorical columns; diversity (Eq. 2) as numpy's sample-std
  coefficient of variation;
* for a seeded sample of skyline candidates the raw contribution
  (Definition 3.3) is recomputed by removing the rows, re-running the
  operation and re-scoring, and the standardized contribution as the
  z-score of that partition's recomputed raw list;
* no candidate dominates a skyline member, and the row sets of every
  partition are disjoint.

Each check raises :class:`CheckFailure` with a message naming what differs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.core.partition import build_partitions, default_partitioners

#: Relative/absolute tolerance of recomputed floats.  The program and the
#: checks evaluate the same formulas in different operation orders.
TOLERANCE = 1e-9


class CheckFailure(Exception):
    """A program output failed an independent check."""


def _close(actual: float, expected: float, tolerance: float = TOLERANCE) -> bool:
    return abs(actual - expected) <= tolerance * max(1.0, abs(actual), abs(expected))


# ------------------------------------------------------------------ scorers
def _is_numeric(column) -> bool:
    return column.is_numeric or column.is_boolean


def _finite(column) -> np.ndarray:
    values = np.asarray(column.values, dtype=float)
    return values[~np.isnan(values)]


def _labels(column) -> np.ndarray:
    values = np.asarray(column.values, dtype=object)
    present = values[np.asarray([value is not None for value in values], dtype=bool)]
    return np.asarray([str(value) for value in present], dtype=str)


def ks_statistic(before, after) -> float:
    """Two-sample KS distance between two columns' value distributions."""
    if _is_numeric(before) and _is_numeric(after):
        first, second = _finite(before), _finite(after)
        if first.size == 0 or second.size == 0:
            return 0.0
        # "asymp" only skips the exact p-value; the statistic is the same.
        return float(scipy_stats.ks_2samp(first, second, method="asymp").statistic)
    first, second = _labels(before), _labels(after)
    if first.size == 0 or second.size == 0:
        return 0.0
    support = np.union1d(first, second)  # lexicographic order
    cdfs = []
    for sample in (first, second):
        values, counts = np.unique(sample, return_counts=True)
        pmf = np.zeros(support.size)
        pmf[np.searchsorted(support, values)] = counts / sample.size
        cdfs.append(np.cumsum(pmf))
    return float(np.max(np.abs(cdfs[0] - cdfs[1])))


def exceptionality(inputs: Sequence, output, attribute: str) -> float:
    """Eq. 1: KS deviation of ``attribute`` between an input and the output."""
    if attribute not in output:
        return 0.0
    scores = [ks_statistic(frame[attribute], output[attribute])
              for frame in inputs if attribute in frame]
    return max(scores) if scores else 0.0


def diversity(output, attribute: str) -> float:
    """Eq. 2: coefficient of variation (sample std) of an aggregated column."""
    if attribute not in output or not output[attribute].is_numeric:
        return 0.0
    values = _finite(output[attribute])
    if values.size < 2:
        return 0.0
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0
    return abs(float(np.std(values, ddof=1)) / mean)


def interestingness(measure: str, inputs: Sequence, output, attribute: str) -> float:
    if measure == "exceptionality":
        return exceptionality(inputs, output, attribute)
    if measure == "diversity":
        return diversity(output, attribute)
    raise CheckFailure(f"no independent scorer for measure {measure!r}")


def zscores(values: Sequence[float]) -> np.ndarray:
    """Sample-std z-scores; all zeros when fewer than two values or no spread."""
    array = np.asarray(values, dtype=float)
    if array.size < 2:
        return np.zeros_like(array)
    std = float(np.std(array, ddof=1))
    if std == 0.0:
        return np.zeros_like(array)
    return (array - float(np.mean(array))) / std


# ------------------------------------------------------------------- checks
def check_scores(step, report, measure: str) -> None:
    """Every interestingness score equals its independent recomputation."""
    if report.config.sample_size is not None:
        raise CheckFailure("score checks need exact scoring (sample_size=None)")
    for attribute, score in report.interestingness_scores.items():
        expected = interestingness(measure, step.inputs, step.output, attribute)
        if not _close(score, expected):
            raise CheckFailure(
                f"{measure} of {attribute!r} is {score!r}, recomputed {expected!r}")


def check_skyline(report) -> None:
    """No candidate dominates a skyline member; candidates imply a skyline."""
    if report.all_candidates and not report.skyline_candidates:
        raise CheckFailure("candidates exist but the skyline is empty")
    for member in report.skyline_candidates:
        for other in report.all_candidates:
            if (other.interestingness >= member.interestingness
                    and other.standardized_contribution >= member.standardized_contribution
                    and (other.interestingness > member.interestingness
                         or other.standardized_contribution
                         > member.standardized_contribution)):
                raise CheckFailure(
                    f"skyline member {member.key()} is dominated by {other.key()}")


def check_disjoint(partition) -> None:
    """The row sets of a partition (ignore-set included) share no row."""
    indices = [np.asarray(row_set.indices) for row_set in partition.all_sets()]
    merged = np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64)
    if np.unique(merged).size != merged.size:
        raise CheckFailure(
            f"row sets of the {partition.method} partition on "
            f"{partition.source_attribute!r} overlap")


def raw_contribution(step, row_set, attribute: str, measure: str) -> float:
    """Definition 3.3: score drop when ``row_set`` is removed and the step re-run."""
    index = row_set.input_index
    keep = np.ones(step.inputs[index].num_rows, dtype=bool)
    keep[np.asarray(row_set.indices, dtype=np.int64)] = False
    inputs = list(step.inputs)
    inputs[index] = inputs[index].mask(keep)
    before = interestingness(measure, step.inputs, step.output, attribute)
    return before - interestingness(measure, inputs, step.rerun(inputs), attribute)


def _same_rows(first, second) -> bool:
    return np.array_equal(np.asarray(first.indices), np.asarray(second.indices))


def check_contributions(step, report, measure: str, rng: np.random.Generator,
                        samples: int = 1) -> None:
    """Recompute sampled skyline candidates' contributions from their definition.

    For each sampled candidate the partitions of its source attribute are
    rebuilt with the report's configuration and checked for disjointness,
    and every reported candidate on that attribute must be one of their
    sets.  The candidate's raw contribution and its z-score must then match
    the recomputation over every set of a partition holding its row set
    (two partitions of one size can share a set, so any of them may).
    """
    pool = report.skyline_candidates or report.all_candidates
    if not pool:
        return
    config = report.config
    picks = rng.choice(len(pool), size=min(samples, len(pool)), replace=False)
    for pick in sorted(int(value) for value in picks):
        candidate = pool[pick]
        row_set = candidate.row_set
        partitions = build_partitions(
            step.inputs[row_set.input_index], [row_set.source_attribute],
            config.set_counts, default_partitioners(config.partition_methods),
            input_index=row_set.input_index, min_group_values=config.min_group_values)
        for partition in partitions:
            check_disjoint(partition)
        for other in report.all_candidates:
            if (other.row_set.source_attribute, other.row_set.input_index) == \
                    (row_set.source_attribute, row_set.input_index) and \
                    not _locate(partitions, other):
                raise CheckFailure(
                    f"candidate {other.key()} is not a set of any partition of "
                    f"{row_set.source_attribute!r}")
        recomputed = []
        for partition, position in _locate(partitions, candidate):
            raws = [raw_contribution(step, member, candidate.attribute, measure)
                    for member in partition.sets]
            expected = (raws[position], float(zscores(raws)[position]))
            if _close(candidate.contribution, expected[0], 1e-7) and \
                    _close(candidate.standardized_contribution, expected[1], 1e-6):
                break
            recomputed.append(expected)
        else:
            raise CheckFailure(
                f"contribution of {candidate.key()} is {candidate.contribution!r}, "
                f"standardized {candidate.standardized_contribution!r}; recomputed "
                f"(raw, z-score within the partition): {recomputed}")


def _locate(partitions: List, candidate) -> List[Tuple[object, int]]:
    """Every (partition, position) whose set equals the candidate's row set."""
    row_set = candidate.row_set
    found = []
    for partition in partitions:
        if partition.method != row_set.method or \
                len(partition.sets) != candidate.partition_size:
            continue
        for position, member in enumerate(partition.sets):
            if member.label == row_set.label and \
                    member.label_attribute == row_set.label_attribute and \
                    _same_rows(member, row_set):
                found.append((partition, position))
    return found


def check_report(step, report, measure: str, rng: np.random.Generator,
                 samples: int = 1) -> None:
    """All report checks: scores, skyline, sampled contributions, partitions."""
    check_scores(step, report, measure)
    check_skyline(report)
    check_contributions(step, report, measure, rng, samples)


def projection(report) -> Tuple:
    """The result content of a report (timings and trace left out)."""
    return (
        tuple(report.selected_columns),
        tuple(sorted(report.interestingness_scores.items())),
        tuple((candidate.key(), candidate.contribution, candidate.standardized_contribution)
              for candidate in report.all_candidates),
        tuple(report.skyline_keys()),
        tuple(explanation.caption for explanation in report.explanations),
    )


def check_same_result(report, reference: Tuple, what: str) -> None:
    """``report`` carries the result content ``reference`` (a projection)."""
    if projection(report) != reference:
        raise CheckFailure(f"report differs from {what}")
