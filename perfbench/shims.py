"""Timing shims for the traced run: per-layer time and counts.

The traced run wraps public entry points of each layer with timers from
this file; nothing under ``src/`` changes.  A wrapped function is replaced
on its owner (a class, or every loaded ``repro`` module that imported it by
name), and :meth:`LayerClock.install` returns the undo.

Times are inclusive: a metric's clock runs from the outermost call of any
function mapped to it until that call returns, so nested or recursive
calls of one metric are not counted twice.  Two metrics may overlap (a
partitioner's time is also phase-2 time).
"""

from __future__ import annotations

import collections
import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

import repro  # noqa: F401  (loads every layer, so every import site is patched)
from repro.core import contribution, engine, partition, signatures
from repro.core.backends import incremental  # noqa: F401
from repro.dataframe.column import Column
from repro.dataframe.frame import DataFrame
from repro.operators.step import ExploratoryStep
from repro.service.service import ExplanationService
from repro.serving import auth, protocol
from repro.session.cache import SessionCache
from repro.session.session import ExplanationSession
from repro.stats import ks
from repro.storage.store import DatasetStore


class LayerClock:
    """Accumulated milliseconds and outermost-call counts per metric."""

    def __init__(self) -> None:
        self.ms: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Submit times of requests not yet picked up by a service worker.
        self._submitted: "collections.deque[float]" = collections.deque()

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        with self._lock:
            return dict(self.ms), dict(self.calls), dict(self.counts)

    def _add(self, metric: str, seconds: float) -> None:
        with self._lock:
            self.ms[metric] += seconds * 1000.0
            self.calls[metric] += 1

    def count(self, metric: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[metric] += amount

    def timed(self, metric: str, function: Callable) -> Callable:
        """``function`` with its outermost calls timed under ``metric``."""
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            depth = getattr(local, metric, 0)
            if depth:
                return function(*args, **kwargs)
            setattr(local, metric, 1)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self._add(metric, time.perf_counter() - start)
                setattr(local, metric, 0)

        return wrapper

    # --------------------------------------------------------------- install
    def install(self) -> Callable[[], None]:
        """Wrap every traced entry point; returns a function undoing it."""
        patches: List[Tuple[object, str, object]] = []

        def on_class(owner, name: str, metric: str) -> None:
            original = owner.__dict__[name]
            patches.append((owner, name, original))
            setattr(owner, name, self.timed(metric, original))

        def everywhere(function, metric: str, wrap=None) -> None:
            replacement = wrap(function) if wrap else self.timed(metric, function)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is function:
                        patches.append((module, name, value))
                        setattr(module, name, replacement)

        # core: phases 1-5, phase-2 sub-steps and counts.
        explain = engine.FedexExplainer.__dict__["explain"]
        patches.append((engine.FedexExplainer, "explain", explain))
        engine.FedexExplainer.explain = self._counting(
            explain, "core.explain_ms",
            lambda report: {"core.skyline_size": len(report.skyline_candidates)})
        on_class(engine.FedexExplainer, "score_columns", "core.phase1_interestingness_ms")
        everywhere(partition.build_partitions, "core.phase2_partition_ms",
                   wrap=lambda f: self._counting(
                       f, "core.phase2_partition_ms",
                       lambda partitions: {"core.partitions": len(partitions)}))
        for name in ("__init__", "prefetch", "partition_contributions",
                     "standardized_contributions"):
            on_class(contribution.ContributionCalculator, name,
                     "core.phase3_contribution_ms")
        everywhere(engine.build_candidates, "core.phase3_contribution_ms",
                   wrap=lambda f: self._counting(
                       f, "core.phase3_contribution_ms",
                       lambda found: {"core.grid_pairs": 1, "core.candidates": len(found)}))
        everywhere(engine.skyline, "core.phase4_skyline_ms")
        everywhere(engine.rank_by_weighted_score, "core.phase4_skyline_ms")
        everywhere(engine.build_explanation, "core.phase5_visualization_ms")
        on_class(partition.RowPartition, "validate", "core.partition_validate_ms")
        on_class(partition.FrequencyPartitioner, "partition", "core.partition_frequency_ms")
        on_class(partition.NumericBinningPartitioner, "partition", "core.partition_binning_ms")
        on_class(partition.ManyToOnePartitioner, "partition",
                 "core.partition_many_to_one_ms")
        on_class(partition.ManyToOnePartitioner, "find_companions", "core.find_companions_ms")
        # stats: every public KS entry point.
        for function in (ks.ks_columns, ks.ks_two_sample, ks.ks_two_sample_sorted,
                         ks.ks_sorted_masked_batch, ks.ks_from_value_counts_batch,
                         ks.ks_from_value_counts, ks.ks_from_distributions):
            everywhere(function, "stats.ks_ms")
        # dataframe: queries that build a step; column argsort/factorize.
        on_class(ExploratoryStep, "__init__", "dataframe.query_ms")
        on_class(Column, "sorted_order", "dataframe.column_structure_ms")
        on_class(Column, "factorize", "dataframe.column_structure_ms")
        # session: fingerprinting of steps, frames and columns.
        everywhere(signatures.step_signature, "session.fingerprint_ms")
        on_class(SessionCache, "frame_fingerprint", "session.fingerprint_ms")
        on_class(SessionCache, "column_fingerprint", "session.fingerprint_ms")
        on_class(DataFrame, "fingerprint", "session.fingerprint_ms")
        on_class(Column, "fingerprint", "session.fingerprint_ms")
        # service: queue wait (submit -> session explain) and explain time.
        self._wrap_service(patches)
        # serving: parse, auth, serialize.
        everywhere(protocol.parse_explain_request, "serving.parse_ms")
        on_class(auth.TokenAuthenticator, "authenticate", "serving.auth_ms")
        everywhere(protocol.report_document, "serving.serialize_ms")
        everywhere(protocol.dump_json, "serving.serialize_ms")
        # storage: dataset writes and opens.
        self._wrap_storage(patches)

        def undo() -> None:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

        return undo

    def _counting(self, function: Callable, metric: str,
                  counts: Callable[[object], Dict[str, float]]) -> Callable:
        """``function`` timed under ``metric``, adding ``counts(result)``."""
        timed = self.timed(metric, function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            for counter, amount in counts(result).items():
                self.count(counter, amount)
            return result

        return wrapper

    def _wrap_service(self, patches: List) -> None:
        submit = ExplanationService.__dict__["submit"]
        explain = ExplanationSession.__dict__["explain"]
        timed_explain = self.timed("service.explain_ms", explain)

        @functools.wraps(submit)
        def traced_submit(service, *args, **kwargs):
            with self._lock:
                self._submitted.append(time.perf_counter())
            return submit(service, *args, **kwargs)

        @functools.wraps(explain)
        def traced_explain(session, *args, **kwargs):
            started = time.perf_counter()
            with self._lock:
                submitted = self._submitted.popleft() if self._submitted else None
            if submitted is not None:
                self._add("service.queue_wait_ms", started - submitted)
            return timed_explain(session, *args, **kwargs)

        for owner, name, replacement in ((ExplanationService, "submit", traced_submit),
                                         (ExplanationSession, "explain", traced_explain)):
            patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)

    def _wrap_storage(self, patches: List) -> None:
        put = DatasetStore.__dict__["put"]
        timed_put = self.timed("storage.put_ms", put)

        @functools.wraps(put)
        def traced_put(store, *args, **kwargs):
            dataset = timed_put(store, *args, **kwargs)
            written = sum(path.stat().st_size for path in dataset.path.rglob("*")
                          if path.is_file())
            self.count("storage.mb_written", written / 1e6)
            return dataset

        patches.append((DatasetStore, "put", put))
        DatasetStore.put = traced_put
        on_open = DatasetStore.__dict__["open"]
        patches.append((DatasetStore, "open", on_open))
        DatasetStore.open = self.timed("storage.open_ms", on_open)
