"""Seeded inputs of the end-to-end benchmark.

Ontology texts, query texts and database generators live here, in the
benchmark's own files, so that a change to the program cannot change what
the benchmark feeds it.  Nothing in this module imports ``repro``: every
input is plain text (TGD, query and atom strings), built from a
``random.Random`` seeded by the workload name and ``--seed``.  String
seeds are hashed with SHA-512 by :mod:`random`, so the streams do not
depend on ``PYTHONHASHSEED``.

Each workload is an infinite, deterministic stream of operations; the
runner takes as many as fit in its time window.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterator

# ----------------------------------------------------------------------
# Ontologies (Σ) — TGD texts, implicit existentials for head-only variables
# ----------------------------------------------------------------------

#: Guarded, existential, weakly acyclic; linear single-head, so the SQL
#: rewriting is an exact oracle for it.
EMPLOYMENT = (
    "Emp(x) -> Person(x)",
    "Mgr(x) -> Emp(x)",
    "Mgr(x) -> Manages(x, y)",
    "Manages(x, y) -> Emp(y)",
    "WorksFor(x, y) -> Company(y)",
    "WorksFor(x, y) -> Emp(x)",
    "ReportsTo(x, y) -> Emp(x)",
    "ReportsTo(x, y) -> Mgr(y)",
    "Company(y) -> HasCEO(y, z)",
    "HasCEO(y, z) -> Mgr(z)",
)

#: Full transitive closure of ``E`` into ``T``.
TRANSITIVE = (
    "E(x, y) -> T(x, y)",
    "T(x, y), E(y, z) -> T(x, z)",
)

TOWER_SHARDS = 4
TOWER_DEPTH = 3

#: Four independent composition towers of depth three (full TGDs).
TOWERS = tuple(
    f"R{s}_{i}(x, y), R{s}_{i}(y, z) -> R{s}_{i + 1}(x, z)"
    for s in range(TOWER_SHARDS)
    for i in range(TOWER_DEPTH)
)

#: The employment ontology plus a two-atom body: no longer linear, so
#: ``backend="auto"`` keeps it on the chase (and its cache).
ACME = EMPLOYMENT + ("Emp(x), Mgr(x) -> Boss(x)",)

CHAIN_DEPTH = 3

#: Inclusion chain ``R0 -> R1 -> R2 -> R3`` (linear single-head: SQL).
CHAIN = tuple(
    f"R{i}(x, y) -> R{i + 1}(x, z)" for i in range(CHAIN_DEPTH)
)

#: Integrity constraints of the closed-world CQS: a symmetric edge
#: relation whose endpoints are recorded as vertices.
SYMMETRIC = (
    "E(x, y) -> E(y, x)",
    "E(x, y) -> V(x)",
)

OMQ_ONTOLOGIES = {
    "employment": EMPLOYMENT,
    "transitive": TRANSITIVE,
    "towers": TOWERS,
}

TENANT_ONTOLOGIES = {
    "acme": ACME,
    "globex": CHAIN,
    "initech": TRANSITIVE,
}

# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------

OMQ_QUERIES = {
    "employment": (
        "q(x) :- Mgr(x), WorksFor(x, y)",
        "q(x, y) :- ReportsTo(x, y), Manages(y, z)",
        "q(x) :- Person(x), HasCEO(y, x) | q(x) :- Mgr(x), ReportsTo(x, y)",
    ),
    "transitive": (
        "q(x) :- T(x, x)",
        "q(x, y) :- T(x, y), E(y, x)",
    ),
    "towers": (
        "q(x, y) :- R0_3(x, y)",
        "q(x) :- R1_2(x, y), R2_2(y, x) | q(x) :- R3_3(x, x)",
    ),
}

#: Closed-world queries over a directed graph ``E`` (treewidth in the name).
CLOSED_WORLD_QUERIES = {
    "path": ("cq", "q(x0) :- E(x0, x1), E(x1, x2), E(x2, x3)"),
    "cycle": ("cq", "q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x0)"),
    "clique4": (
        "cq",
        "q() :- "
        + ", ".join(
            f"E(x{i}, x{j})" for i in range(4) for j in range(4) if i != j
        ),
    ),
    "ucq": (
        "ucq",
        "q(x, y) :- E(x, z), E(z, y), E(y, x) | q(x, y) :- E(x, y), E(y, z), E(z, w), E(w, x)",
    ),
    "cqs": ("cqs", "q(x) :- E(x, y), E(y, z), E(z, x), V(y)"),
}

TENANT_QUERIES = {
    "acme": {
        "omq": (
            "q(x) :- Boss(x), WorksFor(x, y)",
            "q(x) :- Person(x), ReportsTo(x, y), Boss(y)",
            "q(x, y) :- ReportsTo(x, y), Manages(y, z)",
        ),
        "cq": ("q(x, y) :- WorksFor(x, y), Mgr(x)",),
        "ucq": ("q(x) :- Mgr(x), ReportsTo(x, y) | q(x) :- Company(x)",),
    },
    "globex": {
        "omq": ("q(x) :- R3(x, y)", "q(x) :- R2(x, y), R0(y, z)"),
        "cq": ("q(x, z) :- R0(x, y), R0(y, z)",),
        "ucq": ("q(x) :- R0(x, x) | q(x) :- R1(x, y), R0(y, x)",),
        "cqs": ("q(x) :- R0(x, y), R1(y, z)",),
    },
    "initech": {
        "omq": ("q(x) :- T(x, x)", "q(x, y) :- T(x, y), E(y, x)"),
        "cq": ("q(x, z) :- E(x, y), E(y, z)",),
        "ucq": ("q(x) :- E(x, x) | q(x) :- E(x, y), E(y, x)",),
        "cqs": ("q(x) :- T(x, y), T(y, x)",),
    },
}

#: Share of requests per query kind, by tenant.
TENANT_KIND_WEIGHTS = {
    "acme": {"omq": 6, "cq": 2, "ucq": 2},
    "globex": {"omq": 5, "cq": 2, "ucq": 1, "cqs": 2},
    "initech": {"omq": 5, "cq": 2, "ucq": 1, "cqs": 2, "large": 1},
}
#: initech's "large" request: a fresh strongly connected graph of this
#: many vertices (same shape for every seed), a Datalog materialisation
#: miss, queried with :data:`LARGE_QUERY`.  One request in 31 is large
#: and slower than the contention between the two connections, so
#: ``latency_p99_ms`` falls inside these requests.
SERVICE_LARGE_NODES = 9

# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------

COMPANIES = 5
#: omq-chase database shapes: (employees,) or (nodes, edges [per tower]);
#: the large one is (nodes, extra edges) of a strongly connected graph.
#: With the caches full, a full garbage collection lands on about one op
#: in a hundred, right where p99 reads.  One op in 36 is large and slower
#: than such a collection, so p99 falls inside the large ops instead of
#: flipping between pauses and ordinary ops from run to run.
OMQ_SIZES = {
    "employment": {"small": (20,)},
    "transitive": {"small": (12, 24), "large": (20, 20)},
    "towers": {"small": (8, 10)},
}
#: The large op's query: a 3-cycle over the closure.  Its database is a
#: Hamiltonian cycle plus random edges, so the closure is complete and
#: the work (n^3 homomorphisms) is the same for every seed.
LARGE_QUERY = "q(x) :- T(x, y), T(y, z), T(z, x)"
#: One block of the op schedule, shuffled afresh per round: per ontology,
#: nine fresh databases and three extensions (one op in four), with one
#: of the transitive ones large.
OMQ_BLOCK = (
    (("employment", "small"),) * 9
    + (("employment", "grown"),) * 3
    + (("towers", "small"),) * 9
    + (("towers", "grown"),) * 3
    + (("transitive", "large"),)
    + (("transitive", "small"),) * 8
    + (("transitive", "grown"),) * 3
)
GROWN_FACTS = 3
#: An extension grows one of this many most recent databases (all still
#: cached: far fewer than the cache's 128 entries per ontology).
RECENT = 4

GRAPH_NODES, GRAPH_EDGES = 45, 150
#: One block of the cq-closed-world schedule: every query three times, and one
#: large op, the 4-clique over a denser graph whose shape is the same for
#: every seed (the seed only renames its vertices), so its work is too.
#: The slowest one percent of ops are large ones, so ``latency_p99_ms``
#: reads fixed work rather than the heaviest random graph of a run.
CLOSED_WORLD_BLOCK = tuple(sorted(CLOSED_WORLD_QUERIES)) * 3 + ("large",)
LARGE_GRAPH = (45, 220)
SYM_NODES, SYM_EDGES = 40, 70  # undirected edges of the CQS graphs

#: Service databases per tenant, and CQS models per tenant: enough that a
#: seed's draw of random databases costs about the same as any other's,
#: few enough that all of them stay cached.
POOL_SIZE = 16
CQS_POOL_SIZE = 8
#: Grown variants (extensions or misses) per block of the service
#: schedule: 4 of its 26 requests on pooled non-CQS databases, about 15%.
SERVICE_GROWN = {
    ("acme", "omq"): 1,
    ("acme", "cq"): 1,
    ("globex", "omq"): 1,
    ("initech", "omq"): 1,
}
POOL_EMPLOYEES = 30
POOL_CHAIN_FACTS = 50
POOL_TC_NODES, POOL_TC_EDGES = 16, 32


def stream_rng(*parts) -> random.Random:
    """A generator seeded by a string: independent of ``PYTHONHASHSEED``."""
    return random.Random(":".join(str(p) for p in parts))


# ----------------------------------------------------------------------
# Database generators (lists of atom strings)
# ----------------------------------------------------------------------


def employment_facts(rng: random.Random, employees: int, companies: int) -> list[str]:
    """Employment facts: some employees are managers or report to others."""
    facts = [f"Company(co{c})" for c in range(companies)]
    for e in range(employees):
        facts.append(f"Emp(e{e})")
        if rng.random() < 0.7:
            facts.append(f"WorksFor(e{e}, co{rng.randrange(companies)})")
        if rng.random() < 0.2:
            facts.append(f"Mgr(e{e})")
        if rng.random() < 0.3 and e > 0:
            facts.append(f"ReportsTo(e{e}, e{rng.randrange(e)})")
    return facts


def edge_set(rng: random.Random, nodes: int, edges: int) -> list[tuple[int, int]]:
    """*edges* distinct directed edges over *nodes* vertices, sorted."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        chosen.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(chosen)


def graph_facts(rng: random.Random, nodes: int, edges: int, pred: str = "E") -> list[str]:
    return [f"{pred}(c{a}, c{b})" for a, b in edge_set(rng, nodes, edges)]


def cyclic_graph_facts(rng: random.Random, nodes: int, extra: int) -> list[str]:
    """A Hamiltonian cycle plus *extra* edges: strongly connected.

    The graph's shape is the same for every seed (so is the work of
    chasing and querying it); *rng* only renames its vertices.
    """
    shape = random.Random("cyclic-graph")
    chosen = {(i, (i + 1) % nodes) for i in range(nodes)}
    while len(chosen) < nodes + extra:
        chosen.add((shape.randrange(nodes), shape.randrange(nodes)))
    names = list(range(nodes))
    rng.shuffle(names)
    return sorted(f"E(c{names[a]}, c{names[b]})" for a, b in chosen)


def shaped_graph_facts(rng: random.Random, nodes: int, edges: int) -> list[str]:
    """A random graph of the same shape for every seed; *rng* renames its vertices."""
    names = list(range(nodes))
    rng.shuffle(names)
    shape = edge_set(random.Random("shaped-graph"), nodes, edges)
    return sorted(f"E(c{names[a]}, c{names[b]})" for a, b in shape)


def symmetric_facts(rng: random.Random, nodes: int, edges: int) -> list[str]:
    """An undirected graph as a database satisfying :data:`SYMMETRIC`."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    facts = []
    vertices = set()
    for a, b in sorted(pairs):
        facts += [f"E(c{a}, c{b})", f"E(c{b}, c{a})"]
        vertices |= {a, b}
    facts += [f"V(c{v})" for v in sorted(vertices)]
    return facts


def chain_facts(rng: random.Random, count: int, nodes: int) -> list[str]:
    """Random ``R0``..``R2`` facts (the chain ontology adds the rest)."""
    facts = set()
    while len(facts) < count:
        level = rng.choice((0, 0, 0, 1, 2))
        facts.add(f"R{level}(c{rng.randrange(nodes)}, c{rng.randrange(nodes)})")
    return sorted(facts)


def chain_model_facts(rng: random.Random, count: int, nodes: int) -> list[str]:
    """A database satisfying :data:`CHAIN`: every ``Ri`` source has an ``Ri+1``."""
    facts = set(chain_facts(rng, count, nodes))
    frontier = sorted(facts)
    while frontier:
        added = []
        for fact in frontier:
            pred, args = fact.split("(", 1)
            level = int(pred[1:])
            source = args.split(",")[0]
            if level < CHAIN_DEPTH and not any(
                f.startswith(f"R{level + 1}({source},") for f in facts
            ):
                new = f"R{level + 1}({source}, c{rng.randrange(nodes)})"
                facts.add(new)
                added.append(new)
        frontier = added
    return sorted(facts)


def closure_facts(rng: random.Random, nodes: int, edges: int) -> list[str]:
    """A graph plus its transitive closure ``T``: a model of :data:`TRANSITIVE`."""
    pairs = edge_set(rng, nodes, edges)
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in range(nodes):
        seen: set[int] = set()
        todo = list(succ.get(start, ()))
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(succ.get(v, ()))
        closure |= {(start, v) for v in seen}
    return [f"E(c{a}, c{b})" for a, b in pairs] + [
        f"T(c{a}, c{b})" for a, b in sorted(closure)
    ]


def grow(rng: random.Random, facts: list[str], ontology: str, tag: str) -> list[str]:
    """*facts* plus :data:`GROWN_FACTS` new ones (a strict superset)."""
    present = set(facts)
    extra: list[str] = []
    counter = itertools.count()
    while len(extra) < GROWN_FACTS:
        fresh = f"{tag}n{next(counter)}"
        if ontology in ("employment", "acme"):
            fact = rng.choice(
                (
                    f"Emp({fresh})",
                    f"WorksFor({fresh}, co{rng.randrange(COMPANIES)})",
                    f"ReportsTo({fresh}, e{rng.randrange(POOL_EMPLOYEES)})",
                )
            )
        elif ontology in ("transitive", "initech"):
            nodes = POOL_TC_NODES
            fact = f"E(c{rng.randrange(nodes)}, c{rng.randrange(nodes)})"
        elif ontology == "towers":
            nodes = OMQ_SIZES["towers"]["small"][0]
            shard = rng.randrange(TOWER_SHARDS)
            fact = f"R{shard}_0(c{rng.randrange(nodes)}, c{rng.randrange(nodes)})"
        else:  # globex: the chain ontology
            fact = f"R0({fresh}, c{rng.randrange(20)})"
        if fact not in present:
            present.add(fact)
            extra.append(fact)
    return facts + extra


def fresh_facts(rng: random.Random, ontology: str, size: str) -> list[str]:
    """A fresh omq-chase database of the given size class."""
    shape = OMQ_SIZES[ontology][size]
    if ontology == "employment":
        return employment_facts(rng, shape[0], COMPANIES)
    if ontology == "transitive" and size == "large":
        return cyclic_graph_facts(rng, *shape)
    if ontology == "transitive":
        return graph_facts(rng, *shape)
    facts: list[str] = []
    for s in range(TOWER_SHARDS):
        facts += graph_facts(rng, *shape, f"R{s}_0")
    return facts


def blocks(rng: random.Random, block: list) -> Iterator:
    """*block*'s entries over and over, shuffled afresh each round.

    Fixed proportions per block keep every run's op mix the same, so the
    seed changes the data, not how much of each kind of work a run does.
    """
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------------
# Operation streams
# ----------------------------------------------------------------------


def omq_chase_ops(seed: int) -> Iterator[dict]:
    """Open-world ops over three ontologies: fresh databases and extensions."""
    rng = stream_rng("omq-chase", seed)
    recent: dict[str, list[list[str]]] = {name: [] for name in OMQ_ONTOLOGIES}
    # Each ontology's queries take turns, so every run asks each as often.
    turns = {name: itertools.cycle(texts) for name, texts in OMQ_QUERIES.items()}
    for index, (onto, size) in enumerate(blocks(rng, list(OMQ_BLOCK))):
        query = LARGE_QUERY if size == "large" else next(turns[onto])
        history = recent[onto]
        if size == "grown" and history:
            facts = grow(rng, rng.choice(history[-RECENT:]), onto, f"x{index}")
        else:
            size = "small" if size == "grown" else size
            facts = fresh_facts(rng, onto, size)
        history.append(facts)
        del history[:-RECENT]
        yield {"ontology": onto, "query": query, "facts": facts, "size": size}


def closed_world_ops(seed: int) -> Iterator[dict]:
    """Closed-world ops: one query family per op over a fresh random graph."""
    rng = stream_rng("cq-closed-world", seed)
    for name in blocks(rng, list(CLOSED_WORLD_BLOCK)):
        if name == "large":
            _, query = CLOSED_WORLD_QUERIES["clique4"]
            facts = shaped_graph_facts(rng, *LARGE_GRAPH)
            yield {"name": "clique4", "kind": "cq", "query": query, "facts": facts}
            continue
        kind, query = CLOSED_WORLD_QUERIES[name]
        if kind == "cqs":
            facts = symmetric_facts(rng, SYM_NODES, SYM_EDGES)
        else:
            facts = graph_facts(rng, GRAPH_NODES, GRAPH_EDGES)
        yield {"name": name, "kind": kind, "query": query, "facts": facts}


def service_pools(seed: int) -> dict:
    """Per-tenant database pools: small enough to stay cached."""
    rng = stream_rng("service-mixed", "pools", seed)
    pools = {
        "acme": [
            employment_facts(rng, POOL_EMPLOYEES, COMPANIES)
            for _ in range(POOL_SIZE)
        ],
        "globex": [
            chain_facts(rng, POOL_CHAIN_FACTS, 20) for _ in range(POOL_SIZE)
        ],
        "initech": [
            graph_facts(rng, POOL_TC_NODES, POOL_TC_EDGES)
            for _ in range(POOL_SIZE)
        ],
    }
    models = {
        "globex": [
            chain_model_facts(rng, POOL_CHAIN_FACTS, 20)
            for _ in range(CQS_POOL_SIZE)
        ],
        "initech": [
            closure_facts(rng, POOL_TC_NODES, POOL_TC_EDGES)
            for _ in range(CQS_POOL_SIZE)
        ],
    }
    return {"pools": pools, "models": models}


def service_ops(seed: int, connection: int, pools: dict) -> Iterator[dict]:
    """One client connection's request stream (tenants, kinds, databases)."""
    rng = stream_rng("service-mixed", "connection", connection, seed)
    schedule = [
        (tenant, kind, index < SERVICE_GROWN.get((tenant, kind), 0))
        for tenant, weights in sorted(TENANT_KIND_WEIGHTS.items())
        for kind, weight in sorted(weights.items())
        for index in range(weight)
    ]
    # Each (tenant, kind)'s queries take turns, so every run asks each as often.
    turns = {
        (tenant, kind): itertools.cycle(texts)
        for tenant, kinds in TENANT_QUERIES.items()
        for kind, texts in kinds.items()
    }
    for index, (tenant, kind, grown) in enumerate(blocks(rng, schedule)):
        if kind == "large":
            nodes = SERVICE_LARGE_NODES
            yield {
                "tenant": tenant,
                "kind": "omq",
                "query": LARGE_QUERY,
                "facts": cyclic_graph_facts(rng, nodes, nodes),
                "grown": False,
            }
            continue
        query = next(turns[tenant, kind])
        if kind == "cqs":
            facts = rng.choice(pools["models"][tenant])
        else:
            facts = rng.choice(pools["pools"][tenant])
            if grown:
                facts = grow(rng, facts, tenant, f"k{connection}x{index}")
        yield {
            "tenant": tenant,
            "kind": kind,
            "query": query,
            "facts": facts,
            "grown": grown,
        }


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------

FINGERPRINT_OPS = 200


def block_size(workload: str) -> int:
    """Ops per block of a workload's schedule (per connection for the service).

    A run whose op count is a multiple of this does each kind of work in
    the same proportion for every seed.
    """
    if workload == "omq-chase":
        return len(OMQ_BLOCK)
    if workload == "cq-closed-world":
        return len(CLOSED_WORLD_BLOCK)
    return sum(sum(weights.values()) for weights in TENANT_KIND_WEIGHTS.values())


def fingerprint(workload: str, seed: int) -> str:
    """SHA-256 prefix over the ontologies, queries and first ops of a run."""
    digest = hashlib.sha256()
    payload = {
        "omq": OMQ_ONTOLOGIES,
        "tenants": TENANT_ONTOLOGIES,
        "symmetric": SYMMETRIC,
        "omq_queries": OMQ_QUERIES,
        "closed_world": CLOSED_WORLD_QUERIES,
        "tenant_queries": TENANT_QUERIES,
    }
    digest.update(json.dumps(payload, sort_keys=True).encode())
    if workload == "omq-chase":
        streams = [omq_chase_ops(seed)]
    elif workload == "cq-closed-world":
        streams = [closed_world_ops(seed)]
    else:
        pools = service_pools(seed)
        digest.update(json.dumps(pools, sort_keys=True).encode())
        streams = [service_ops(seed, c, pools) for c in range(2)]
    for stream in streams:
        for op in itertools.islice(stream, FINGERPRINT_OPS):
            digest.update(json.dumps(op, sort_keys=True).encode())
    return digest.hexdigest()[:16]
