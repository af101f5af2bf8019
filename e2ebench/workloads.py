"""The three workloads: set-up, rounds of ops, and oracle routes.

Each driver runs inside one fresh interpreter (see ``worker.py``) and
exposes the same phases:

* ``setup()`` — parse the ontologies and queries, start the sessions (or
  the service, its transport and the client connections).  The worker
  times process start to the end of this call as ``setup_s``.
* ``round_ops(count)`` — the run's op list, generated from the seed.
* ``begin_round()`` — reset the program's state (fresh sessions, or a
  fresh service with its pools warmed), so that every round over the same
  ops does the same work.  Not timed.
* ``run_round(ops)`` — one round: every op once, each timed on its own.
  Returns one :class:`Record` per op, in op order.
* ``oracle(rounds)`` — after the timed rounds, recompute every distinct
  op's answers by an independent route and mark each record.

Answers are compared as sets of tuples of strings: the SQL backend
returns stringified constants, the service sends strings on the wire.
A record keeps only a digest of its answer set, so the records of all
rounds together stay small and ``peak_rss_mb`` measures the program
rather than the benchmark's bookkeeping.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field

import inputs

import repro
from repro import CQS, OMQ, Engine, parse_database, parse_tgds, parse_ucq


def digest(rows) -> tuple[int, str]:
    """(size, SHA-256) of an answer set, its terms compared as strings."""
    answers = sorted({tuple(str(term) for term in row) for row in rows})
    return len(answers), hashlib.sha256(repr(answers).encode()).hexdigest()


@dataclass
class Record:
    """One timed operation and what came back."""

    latency: float
    answers: tuple[int, str] | None = None
    complete: bool = False
    error: str | None = None
    #: Work counters of the call (traced run only).
    stats: dict = field(default_factory=dict)
    #: Service fields: status, backend, server latency, queue wait.
    response: dict = field(default_factory=dict)
    correct: bool = False


class Oracle:
    """Independent answers per distinct op, computed once each."""

    def __init__(self) -> None:
        self._memo: dict[tuple, tuple[int, str]] = {}
        self._tgds: dict[tuple, list] = {}

    def tgds(self, texts: tuple) -> list:
        if texts not in self._tgds:
            self._tgds[texts] = parse_tgds(list(texts))
        return self._tgds[texts]

    def answers(self, route: str, ontology: tuple, kind: str, query: str, facts):
        """Digest of the answers by *route*: ``"sql"`` or a fresh ``"chase"``."""
        key = (route, ontology, kind, query, tuple(facts))
        if key not in self._memo:
            database = parse_database(", ".join(facts))
            ucq = parse_ucq(query)
            if kind == "omq":
                target = OMQ.with_full_data_schema(self.tgds(ontology), ucq)
            elif kind == "cqs":
                target = CQS(self.tgds(ontology), ucq)
            else:
                target = ucq
            answer = repro.evaluate(target, database, backend=route)
            if not answer.complete:
                raise RuntimeError(f"oracle route {route} came back incomplete")
            self._memo[key] = digest(answer.answers)
        return self._memo[key]

    def mark(self, records, ops, route_of) -> None:
        """Set ``record.correct``, pairing *records* with the regenerated *ops*.

        An op the oracle cannot answer counts as a failure.
        """
        for record, op in zip(records, ops):
            if record.error is not None or not record.complete:
                continue
            try:
                expected = self.answers(*route_of(op))
            except Exception:  # noqa: BLE001 - an unverifiable op is a failure
                continue
            record.correct = record.answers == expected


class LibraryDriver:
    """Shared loop of the two single-client library workloads."""

    connections = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ops(self):
        """The workload's op stream, generated from the seed."""
        raise NotImplementedError

    def prepare(self, op: dict):
        raise NotImplementedError

    def call(self, prepared):
        raise NotImplementedError

    def route(self, op: dict) -> tuple:
        """The oracle's arguments for *op*."""
        raise NotImplementedError

    def round_ops(self, count: int) -> list:
        """The first *count* ops of the stream: every round runs these."""
        self.ops_list = list(itertools.islice(self.ops(), count))
        return self.ops_list

    def begin_round(self) -> None:
        """Reset program state, so that every round does the same work."""

    def run_round(self, ops: list, traced=False) -> list:
        """One round over *ops*; the round's wall time is the sum of op latencies.

        Building each op's database (parsing its facts into an
        ``Instance``) happens before its clock starts.
        """
        clock = time.perf_counter
        records: list[Record] = []
        for op in ops:
            prepared = self.prepare(op)
            start = clock()
            try:
                answer = self.call(prepared)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                records.append(Record(clock() - start, error=repr(exc)))
                continue
            latency = clock() - start
            record = Record(latency, digest(answer.answers), bool(answer.complete))
            if traced and answer.stats is not None:
                record.stats = answer.stats.as_dict()
            records.append(record)
        self.round_wall = sum(r.latency for r in records)
        return records

    def oracle(self, rounds: list) -> None:
        """Mark every round's records against the oracle (memoised per op)."""
        oracle = Oracle()
        for records in rounds:
            oracle.mark(records, self.ops_list, self.route)

    def close(self) -> None:
        pass


class OmqChase(LibraryDriver):
    """Open-world certain answers through one Engine session per ontology."""

    def setup(self) -> None:
        self.tgds = {
            name: parse_tgds(list(texts))
            for name, texts in inputs.OMQ_ONTOLOGIES.items()
        }
        self.queries = {
            (name, text): OMQ.with_full_data_schema(
                list(self.tgds[name]), parse_ucq(text)
            )
            for name, texts in inputs.OMQ_QUERIES.items()
            for text in texts + (inputs.LARGE_QUERY,)
        }
        self.begin_round()

    def begin_round(self) -> None:
        """Fresh sessions, so every round fills empty caches the same way."""
        self.engines = None
        gc.collect()
        self.engines = {name: Engine(tgds) for name, tgds in self.tgds.items()}

    def ops(self):
        return inputs.omq_chase_ops(self.seed)

    def caches(self):
        return [engine.cache for engine in self.engines.values()]

    def prepare(self, op):
        onto = op["ontology"]
        return (
            self.engines[onto],
            self.queries[(onto, op["query"])],
            parse_database(", ".join(op["facts"])),
        )

    def call(self, prepared):
        engine, query, database = prepared
        return engine.certain_answers(query, database)

    def route(self, op):
        onto = inputs.OMQ_ONTOLOGIES[op["ontology"]]
        return ("sql", onto, "omq", op["query"], op["facts"])


class ClosedWorld(LibraryDriver):
    """Closed-world ``repro.evaluate`` on the in-memory join engine."""

    def setup(self) -> None:
        self.queries = {}
        constraints = parse_tgds(list(inputs.SYMMETRIC))
        for name, (kind, text) in inputs.CLOSED_WORLD_QUERIES.items():
            ucq = parse_ucq(text)
            if kind == "cq":
                self.queries[name] = ucq.disjuncts[0]
            elif kind == "cqs":
                self.queries[name] = CQS(constraints, ucq)
            else:
                self.queries[name] = ucq

    def ops(self):
        return inputs.closed_world_ops(self.seed)

    def caches(self):
        return []

    def prepare(self, op):
        return self.queries[op["name"]], parse_database(", ".join(op["facts"]))

    def call(self, prepared):
        query, database = prepared
        return repro.evaluate(query, database)

    def route(self, op):
        ontology = inputs.SYMMETRIC if op["kind"] == "cqs" else ()
        return ("sql", ontology, op["kind"], op["query"], op["facts"])


class ServiceMixed:
    """QueryService behind TcpTransport, two closed-loop connections."""

    connections = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()

    def setup(self) -> None:
        self.pools = inputs.service_pools(self.seed)
        self.ids = itertools.count()
        self.loop.run_until_complete(self._start())
        self.fresh = True

    async def _start(self) -> None:
        from repro.serve import QueryService, ServiceConfig, serve_tcp

        # Generous limits: no deadline trips, no shedding, no breaker.
        config = ServiceConfig(
            deadline=60.0,
            max_workers=2,
            soft_queue=256,
            hard_queue=512,
            tenant_inflight=8,
            expensive_width=1000,
            expensive_size=1000,
            breaker_threshold=1_000_000,
            cache_entries=128,
        )
        self.service = QueryService(config)
        for tenant, texts in inputs.TENANT_ONTOLOGIES.items():
            self.service.register(tenant, parse_tgds(list(texts)))
        await self.service.start()
        self.transport = await serve_tcp(self.service, "127.0.0.1", 0)
        port = self.transport.sockets[0].getsockname()[1]
        self.streams = []
        for _ in range(self.connections):
            self.streams.append(await asyncio.open_connection("127.0.0.1", port))

    async def _stop(self) -> None:
        for _reader, writer in self.streams:
            writer.close()
            await writer.wait_closed()
        await self.transport.close()
        await self.service.stop()

    def ops(self, connection: int):
        return inputs.service_ops(self.seed, connection, self.pools)

    def caches(self):
        return [self.service.cache]

    async def _request(self, connection: int, op: dict):
        """One round trip; returns (client latency, decoded response)."""
        reader, writer = self.streams[connection]
        line = json.dumps(
            {
                "id": next(self.ids),
                "tenant": op["tenant"],
                "kind": op["kind"],
                "query": op["query"],
                "database": op["facts"],
                "backend": "auto",
            }
        ).encode() + b"\n"
        start = time.perf_counter()
        writer.write(line)
        await writer.drain()
        reply = await reader.readline()
        latency = time.perf_counter() - start
        return latency, json.loads(reply)

    def round_ops(self, count: int) -> list:
        """Each connection's first ``count / 2`` requests: every round sends these."""
        share = -(-count // self.connections)
        self.ops_lists = [
            list(itertools.islice(self.ops(c), share)) for c in range(self.connections)
        ]
        return self.ops_lists

    def begin_round(self) -> None:
        """A fresh service (empty cache), then every pooled database once.

        The warm pools are the read side of the cache (hits); the grown
        variants of the round are extensions or misses, the same in every
        round because the cache starts empty.
        """

        async def fresh():
            if not self.fresh:
                await self._stop()
                await self._start()
            self.fresh = False
            for tenant, pool in self.pools["pools"].items():
                for facts in pool:
                    query = inputs.TENANT_QUERIES[tenant]["omq"][0]
                    op = {"tenant": tenant, "kind": "omq", "query": query, "facts": facts}
                    await self._request(0, op)
            for tenant, pool in self.pools["models"].items():
                for facts in pool:
                    query = inputs.TENANT_QUERIES[tenant]["cqs"][0]
                    op = {"tenant": tenant, "kind": "cqs", "query": query, "facts": facts}
                    await self._request(1, op)

        self.loop.run_until_complete(fresh())

    def run_round(self, ops_lists: list, traced=False) -> list:
        """Both connections send their requests, each waiting for its reply.

        Records come back connection by connection, in request order, so a
        position names the same request in every round.
        """

        async def client(connection: int, out: list):
            for op in ops_lists[connection]:
                try:
                    latency, body = await self._request(connection, op)
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    out.append(Record(0.0, error=repr(exc)))
                    continue
                record = Record(latency)
                record.response = {
                    name: body.get(name)
                    for name in ("status", "backend", "latency", "queue_wait")
                }
                if body.get("status") == "ok":
                    record.answers = digest(body["answers"])
                    record.complete = bool(body.get("complete"))
                else:
                    record.error = f"{body.get('status')}: {body.get('detail')}"
                if traced:
                    record.stats = body.get("stats") or {}
                out.append(record)

        async def timed():
            start = time.perf_counter()
            await asyncio.gather(*(client(c, outs[c]) for c in range(self.connections)))
            self.round_wall = time.perf_counter() - start

        outs: list[list] = [[] for _ in range(self.connections)]
        self.loop.run_until_complete(timed())
        return [record for out in outs for record in out]

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()

    def oracle(self, rounds: list) -> None:
        """Uncached chase for acme and globex OMQs, SQL for everything else."""

        def route(op):
            ontology = inputs.TENANT_ONTOLOGIES[op["tenant"]]
            if op["kind"] == "omq" and op["tenant"] in ("acme", "globex"):
                return ("chase", ontology, "omq", op["query"], op["facts"])
            return ("sql", ontology, op["kind"], op["query"], op["facts"])

        oracle = Oracle()
        ops = [op for ops in self.ops_lists for op in ops]
        for records in rounds:
            oracle.mark(records, ops, route)


RUNNERS = {
    "omq-chase": OmqChase,
    "cq-closed-world": ClosedWorld,
    "service-mixed": ServiceMixed,
}
