"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, and exposes the same
small interface to the harness in ``run.py``:

* ``setup()`` — everything before the first timed operation (timed as
  ``setup_s``);
* ``verify_setup()`` — untimed checks of what set-up produced;
* ``start_round()`` — untimed reset before one round, returning how many
  operations the round has (every round repeats the same operations);
* ``before(i)`` / ``run(i)`` / ``check(i, result, state)`` — one operation:
  ``run`` alone is timed, ``check`` raises :class:`CheckFailure`;
* ``end_round()`` — untimed per-round counters read from public stats;
* ``close()``.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import FedexConfig, FedexExplainer
from repro.dataframe import Comparison
from repro.datasets import DatasetRegistry
from repro.operators import ExploratoryStep, Filter, GroupBy
from repro.service import ExplanationService, ServiceConfig
from repro.serving import (
    ExplanationServer,
    TokenAuthenticator,
    dump_json,
    parse_explain_request,
    report_document,
)
from repro.storage import DatasetStore
from repro.workloads import NOTEBOOK_QUERIES, WORKLOAD, get_query

from perfbench.checks import (
    CheckFailure,
    check_report,
    check_same_result,
    check_skyline,
    projection,
)

#: Table sizes: the serving-bench sizes, and a smoke size for quick tests.
SIZES = {
    "full": dict(spotify_rows=8_000, bank_rows=5_000, sales_rows=20_000,
                 products_rows=1_500),
    "smoke": dict(spotify_rows=1_500, bank_rows=1_200, sales_rows=3_000,
                  products_rows=400),
}


def generate_tables(seed: int, size: str) -> Dict[str, object]:
    """Every table the workloads use, generated from the seed."""
    registry = DatasetRegistry(seed=seed, **SIZES[size])
    return {name: registry.table(name) for name in registry.table_names()}


class _StoreTables:
    """Registry-shaped view of a dataset store for ``WorkloadQuery`` builders."""

    def __init__(self, store: DatasetStore) -> None:
        self.store = store

    def table(self, name: str):
        return self.store.open(name.lower())


class Workload:
    """Common state: seed, size and a private working directory."""

    name = ""
    #: Fewest rounds of one run (enough operations for a p90 with a tail).
    min_rounds = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.config = FedexConfig()

    def setup(self) -> None:
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Untimed checks of the set-up's outputs (none by default)."""

    def start_round(self) -> int:
        raise NotImplementedError

    def before(self, index: int):
        return None

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result, state) -> None:
        raise NotImplementedError

    def end_round(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        """Release servers, services and files (idempotent)."""

    def _rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng((self.seed,) + salt)


# ------------------------------------------------------------------ paper30
class Paper30(Workload):
    """The 30 Appendix-A queries, each explained by a fresh stateless engine.

    Every round runs on a new dataset: round ``r`` generates its tables from
    the data seed ``4 * seed + r % 4``, so one run covers four datasets and
    a run's figures do not hang on one draw of the data.  The skyline is
    checked on every report; scores, contributions and partitions on a
    rotating quarter of the queries per dataset, so each query is checked
    in full on one dataset per run.
    """

    name = "paper30"
    min_rounds = 4
    DATASETS = 4

    def setup(self) -> None:
        self._round = -1
        self._verified: Dict[Tuple[int, int], Tuple] = {}
        self.start_round()
        # Warm-up: one cheap query loads lazy code paths.  The first timed
        # round then regenerates the same dataset: no frame it uses is warm.
        self.run([query.number for query in WORKLOAD].index(28))
        self._round = -1

    def start_round(self) -> int:
        self._round += 1
        self._dataset = self._round % self.DATASETS
        registry = DatasetRegistry(seed=self.DATASETS * self.seed + self._dataset,
                                   **SIZES[self.size])
        self.steps = [query.build_step(registry) for query in WORKLOAD]
        return len(self.steps)

    def run(self, index: int):
        return FedexExplainer(config=self.config).explain(
            self.steps[index], measure=WORKLOAD[index].measure)

    def check(self, index: int, report, state) -> None:
        query, step = WORKLOAD[index], self.steps[index]
        key = (self._dataset, index)
        verified = self._verified.get(key)
        if verified is not None:
            # Same data and code as the independently checked earlier round.
            check_same_result(report, verified, "the checked one on the same data")
            return
        check_skyline(report)
        if index % self.DATASETS == self._dataset:
            check_report(step, report, query.measure, self._rng(self._dataset, index))
        self._verified[key] = projection(report)


# ----------------------------------------------------------- session-replay
TENANTS = ("alice", "bob", "carol", "dave", "erin", "frank")
#: The re-explain configuration: changes the report (so the report memo
#: misses) but neither scoring nor partitioning (so those caches hit).
CHANGED_CONFIG = dict(top_k_explanations=3)
#: Cache budget of the replay's store, below one round's working set.
REPLAY_BUDGET_BYTES = {"full": 32 * 1024 * 1024, "smoke": 4 * 1024 * 1024}


@dataclass(frozen=True)
class StepSpec:
    """One notebook step: how to build it from the store's tables."""

    name: str
    dataset: str
    build: Callable[[_StoreTables], Tuple[ExploratoryStep, str]]


@dataclass(frozen=True)
class ScriptOp:
    """One operation of the replay script and its expected cache outcome."""

    tenant: Optional[str]
    spec: Optional[StepSpec]
    changed: bool
    expect: str  # "hit", "miss", or "write" for the table rewrite


def _notebook_spec(number: int) -> StepSpec:
    query = get_query(number)
    return StepSpec(f"Q{number}", query.dataset,
                    lambda view: (query.build_step(view), query.measure))


def _filter_spec(name: str, table: str, predicate: Comparison) -> StepSpec:
    dataset = "products" if table == "products_sales" else table
    return StepSpec(name, dataset, lambda view: (
        ExploratoryStep([view.table(table)], Filter(predicate), label=name),
        "exceptionality"))


def _groupby_on_filter_spec(name: str, table: str, predicate: Comparison,
                            keys: List[str], aggregations: Dict) -> StepSpec:
    dataset = "products" if table == "products_sales" else table
    return StepSpec(name, dataset, lambda view: (
        ExploratoryStep([view.table(table).filter(predicate)],
                        GroupBy(keys=keys, aggregations=aggregations), label=name),
        "diversity"))


#: Per dataset: a threshold refinement on the notebook filters' input, a
#: group-by over a filtered result, and the notebook query re-explained
#: under :data:`CHANGED_CONFIG`.  Fixed, so every seed replays the same
#: work; the seed orders the datasets and picks the tenants.
REFINEMENTS = {
    "spotify": _filter_spec("spotify.popularity>70", "spotify",
                            Comparison("popularity", ">", 70)),
    "bank": _filter_spec("bank.inactive>3", "bank",
                         Comparison("Months_Inactive_Count_Last_Year", ">", 3)),
    "products": _filter_spec("products.liter<=750", "products_sales",
                             Comparison("sales_liter_size", "<=", 750)),
}
GROUPBYS_ON_FILTERS = {
    "spotify": _groupby_on_filter_spec(
        "spotify.popularity>60/decade", "spotify", Comparison("popularity", ">", 60),
        ["decade"], {"loudness": ["mean"], "danceability": ["mean"]}),
    "bank": _groupby_on_filter_spec(
        "bank.age>45/income", "bank", Comparison("Customer_Age", ">", 45),
        ["Income_Category"], {"Credit_Used": ["mean"], "Total_Transitions_Amount": ["mean"]}),
    "products": _groupby_on_filter_spec(
        "products.liter<=750/category", "products_sales",
        Comparison("sales_liter_size", "<=", 750), ["sales_category_name"],
        {"sales_total": ["mean"], "sales_bottle_quantity": ["mean"]}),
}
REEXPLAINED = {"spotify": 6, "bank": 13, "products": 16}
#: The bank notebook query explained again after the bank table is rewritten.
AFTER_REWRITE = 11


def session_script(seed: int) -> List[ScriptOp]:
    """The seeded replay script, with every operation's expected outcome.

    Per dataset (in seeded order): the §4.2 notebook queries, each explained
    by a seeded lead tenant and repeated at once by the five others (in
    seeded order); the re-explain of one of them under
    :data:`CHANGED_CONFIG`; one threshold refinement and one group-by on a
    filtered result.  After the bank steps the bank table is rewritten and
    a bank notebook step is explained again, and repeated.  The expected
    outcome of a step is a hit exactly when the same step, under the same
    configuration and over the same table contents, appeared earlier in
    the script.
    """
    rng = np.random.default_rng((seed, 1))
    ops: List[ScriptOp] = []
    seen = set()
    bank_version = [0]

    def explain(spec: StepSpec, tenant: str, changed: bool = False) -> None:
        identity = (spec.name, changed, bank_version[0] if spec.dataset == "bank" else None)
        ops.append(ScriptOp(tenant, spec, changed, "hit" if identity in seen else "miss"))
        seen.add(identity)

    def cell(spec: StepSpec, repeat: bool) -> None:
        lead = TENANTS[int(rng.integers(len(TENANTS)))]
        explain(spec, lead)
        if repeat:
            for tenant in rng.permutation([t for t in TENANTS if t != lead]):
                explain(spec, str(tenant))

    for dataset in rng.permutation(["spotify", "bank", "products"]):
        dataset = str(dataset)
        for number in NOTEBOOK_QUERIES[dataset]:
            cell(_notebook_spec(number), repeat=True)
            if number == REEXPLAINED[dataset]:
                explain(_notebook_spec(number), TENANTS[int(rng.integers(len(TENANTS)))],
                        changed=True)
        cell(REFINEMENTS[dataset], repeat=False)
        cell(GROUPBYS_ON_FILTERS[dataset], repeat=False)
        if dataset == "bank":
            ops.append(ScriptOp(None, None, False, "write"))
            bank_version[0] += 1
            cell(_notebook_spec(AFTER_REWRITE), repeat=True)
    return ops


class SessionReplay(Workload):
    """Notebook drill-downs of six tenants through an in-process service."""

    name = "session-replay"
    min_rounds = 2

    def setup(self) -> None:
        self.tables = generate_tables(self.seed, self.size)
        bank = self.tables["bank"]
        self.rewritten_bank = bank.take(self._rng(2).permutation(bank.num_rows))
        self.store_root = self.workdir / "store"
        store = DatasetStore(self.store_root)
        for name, frame in self.tables.items():
            store.put(name, frame)
        self.script = session_script(self.seed)
        self._references: Dict[int, Tuple] = {}
        self.service: Optional[ExplanationService] = None
        # Warm-up: one explain through a throwaway service.
        with ExplanationService(dataset_store=store) as service:
            step, measure = _notebook_spec(28).build(_StoreTables(store))
            service.explain("warm-up", step, measure=measure)

    def start_round(self) -> int:
        # A cold service, and a fresh store handle: no cached column structure.
        self.close()
        self.store = DatasetStore(self.store_root)
        self.store.put("bank", self.tables["bank"])
        self.service = ExplanationService(
            dataset_store=self.store,
            service_config=ServiceConfig(cache_budget_bytes=REPLAY_BUDGET_BYTES[self.size]))
        return len(self.script)

    def before(self, index: int):
        op = self.script[index]
        if op.tenant is None:
            return None
        stats = self.service.session(op.tenant).stats
        return stats.report_hits, stats.report_misses

    def run(self, index: int):
        op = self.script[index]
        if op.spec is None:
            return self.store.put("bank", self.rewritten_bank)
        step, measure = op.spec.build(_StoreTables(self.store))
        config = FedexConfig(**CHANGED_CONFIG) if op.changed else None
        return self.service.explain(op.tenant, step, measure=measure, config=config)

    def verify_setup(self) -> None:
        """A stateless engine's report on every distinct step, checked independently.

        Built before the timed rounds on a store handle of its own (no
        column caches shared with the service), with the bank table as the
        script has it at that step; every round replays the same contents.
        """
        store = DatasetStore(self.store_root)
        for index, op in enumerate(self.script):
            if op.spec is None:
                store.put("bank", self.rewritten_bank)
            elif op.expect == "miss":
                step, measure = op.spec.build(_StoreTables(store))
                config = FedexConfig(**CHANGED_CONFIG) if op.changed else self.config
                reference = FedexExplainer(config=config).explain(step, measure=measure)
                check_report(step, reference, measure, self._rng(3, index))
                self._references[index] = projection(reference)
        store.put("bank", self.tables["bank"])

    def check(self, index: int, report, state) -> None:
        op = self.script[index]
        if op.spec is None:
            if self.store.open("bank").fingerprint() != self.rewritten_bank.fingerprint():
                raise CheckFailure("the rewritten bank table does not read back")
            return
        stats = self.service.session(op.tenant).stats
        outcome = {(1, 0): "hit", (0, 1): "miss"}.get(
            (stats.report_hits - state[0], stats.report_misses - state[1]), "neither")
        if outcome != op.expect:
            raise CheckFailure(f"step {op.spec.name} was a report {outcome}, "
                               f"the script expects a {op.expect}")
        lead = index
        while self.script[lead].expect == "hit":
            lead -= 1
        check_same_result(report, self._references[lead],
                          "a stateless FedexExplainer run on the same step")

    def end_round(self) -> Dict[str, float]:
        return session_counts(self.service, TENANTS)

    def close(self) -> None:
        if getattr(self, "service", None) is not None:
            self.service.close()
            self.service = None


def session_counts(service: ExplanationService, tenants) -> Dict[str, float]:
    """Session-layer counters summed over tenants, plus the store's state."""
    totals: Dict[str, float] = {}
    for tenant in tenants:
        for field, value in service.session(tenant).stats.as_dict().items():
            totals[f"session.{field}"] = totals.get(f"session.{field}", 0) + value
    totals["session.evictions"] = service.stats()["store"]["evictions"]
    totals["session.store_mb"] = service.store.usage_bytes / 1e6
    return totals


# ------------------------------------------------------------------ http-hot
#: Popularity order of the Appendix-A queries (rank 1 first).  Fixed, so the
#: share of every latency class is the same for every seed: the joins and
#: the two 20k-row products filters (Q1-Q5, 25-70 ms per memo hit) take the
#: last five ranks (4.5%), Q10 (about 12 ms) takes rank 2 (12.5%) so p90
#: falls inside its block, and Q12 (about 4.5 ms) takes rank 1 (25%) with
#: 38% of requests faster than it, so p50 falls inside its block.
POPULARITY = (12, 10, 6, 21, 11, 27, 18, 13, 14, 20, 23, 15, 24, 25, 8,
              26, 28, 29, 22, 30, 16, 9, 7, 17, 19, 5, 4, 2, 3, 1)
ZIPF_S = 1.0
REQUESTS_PER_ROUND = 120
STREAM_SHARE = 0.25
HTTP_TENANTS = ("alice", "bob", "carol")


def zipf_counts(total: int, ranks: int, exponent: float) -> List[int]:
    """Requests per popularity rank: largest-remainder split of Zipf weights."""
    weights = 1.0 / np.arange(1, ranks + 1) ** exponent
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    for position in np.argsort(-(exact - counts), kind="stable")[: total - counts.sum()]:
        counts[position] += 1
    return [int(count) for count in counts]


def sql_text(query) -> str:
    """The query's SQL, with Q18's column mapped as its builder documents."""
    return query.sql.replace("products_sales_pack", "products_pack")


class HttpHot(Workload):
    """Keep-alive HTTP client over a warm server: every request hits the memo."""

    name = "http-hot"
    #: Seven rounds give every tenant 280 requests, more than the 256 steps a
    #: session keeps in its history, so the resident set is at its plateau.
    min_rounds = 7
    #: One set-up explains all 30 queries (about 11 s); a third would take
    #: the runs past the time the whole benchmark may take.
    setups = 2

    def setup(self) -> None:
        self.tables = generate_tables(self.seed, self.size)
        self.store = DatasetStore(self.workdir / "store")
        for name, frame in self.tables.items():
            self.store.put(name, frame)
        self.service = ExplanationService(dataset_store=self.store)
        self.tokens = {f"token-{tenant}": tenant for tenant in HTTP_TENANTS}
        self.server = ExplanationServer(self.service, auth=TokenAuthenticator(self.tokens),
                                        keep_alive_s=600.0).start()
        self.connection = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                                     timeout=120)
        self.bodies = [json.dumps({"query": sql_text(query), "measure": query.measure},
                                  sort_keys=True).encode() for query in WORKLOAD]
        # Warm-up: explain every Appendix-A text once.
        token = next(iter(self.tokens))
        for body in self.bodies:
            status, payload = self._post("/explain", body, token)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status} {payload[:200]!r}")
        self._build_sequence()

    def _build_sequence(self) -> None:
        rng = self._rng(4)
        numbers = [query.number for query in WORKLOAD]
        requests: List[int] = []
        for number, count in zip(POPULARITY,
                                 zipf_counts(REQUESTS_PER_ROUND, len(POPULARITY), ZIPF_S)):
            requests.extend([numbers.index(number)] * count)
        order = rng.permutation(requests)
        streamed = set(rng.choice(REQUESTS_PER_ROUND,
                                  size=round(STREAM_SHARE * REQUESTS_PER_ROUND),
                                  replace=False).tolist())
        # Every tenant sends the same number of requests per round.
        tokens = rng.permutation(np.resize(list(self.tokens), REQUESTS_PER_ROUND))
        self.sequence = [
            (int(query), "/explain/stream" if position in streamed else "/explain",
             str(token))
            for position, (query, token) in enumerate(zip(order, tokens))]

    def _post(self, path: str, body: bytes, token: str) -> Tuple[int, bytes]:
        self.connection.request("POST", path, body=body,
                                headers={"Authorization": f"Bearer {token}",
                                         "Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def verify_setup(self) -> None:
        """Expected bytes per query from the Python API, and the report checks."""
        def resolve(name: str):
            return self.store.open(name.lower())

        self.expected: List[Tuple[bytes, bytes]] = []
        self.bad: Dict[int, str] = {}
        for index, (query, body) in enumerate(zip(WORKLOAD, self.bodies)):
            request = parse_explain_request(body, resolve, self.service.config)
            report = self.service.explain("checker", request.step, measure=request.measure,
                                          config=request.config)
            document = report_document(report)
            self.expected.append((dump_json(document),
                                  dump_json({"event": "report", "report": document})))
            try:
                check_report(request.step, report, query.measure, self._rng(5, index))
            except CheckFailure as error:
                self.bad[index] = str(error)
        self._counts = session_counts(self.service, HTTP_TENANTS)

    def start_round(self) -> int:
        self._response_bytes = 0
        return len(self.sequence)

    def run(self, index: int):
        query, path, token = self.sequence[index]
        status, payload = self._post(path, self.bodies[query], token)
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {payload[:200]!r}")
        return payload

    def check(self, index: int, payload, state) -> None:
        query, path, _ = self.sequence[index]
        self._response_bytes += len(payload)
        if query in self.bad:
            raise CheckFailure(self.bad[query])
        plain, streamed = self.expected[query]
        if path == "/explain":
            if payload != plain:
                raise CheckFailure("/explain bytes differ from the Python API's report")
            return
        lines = payload.rstrip(b"\n").split(b"\n")
        if lines[-1] != streamed or any(
                json.loads(line).get("event") != "progress" for line in lines[:-1]):
            raise CheckFailure("/explain/stream does not end in the Python API's report")

    def end_round(self) -> Dict[str, float]:
        # The service stays warm across rounds: report this round's share.
        counts = session_counts(self.service, HTTP_TENANTS)
        previous, self._counts = self._counts, dict(counts)
        counts = {name: value if name == "session.store_mb" else value - previous.get(name, 0)
                  for name, value in counts.items()}
        counts["serving.response_bytes"] = self._response_bytes
        return counts

    def close(self) -> None:
        if getattr(self, "connection", None) is not None:
            self.connection.close()
            self.connection = None
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.server = None
        if getattr(self, "service", None) is not None:
            self.service.close()
            self.service = None


WORKLOADS = {workload.name: workload for workload in (Paper30, SessionReplay, HttpHot)}
