"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONHASHSEED=0`` and the parent's
``time.monotonic_ns()`` just before the spawn in ``E2EBENCH_SPAWNED_NS``,
so ``setup_s`` runs from process start to the end of set-up.  Prints one
JSON object as its last line of standard output.

    python3 e2ebench/worker.py --workload omq-chase --seed 1 --seconds 30 --trace 0
    python3 e2ebench/worker.py --workload omq-chase --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Timed rounds of an untraced run, at most and at least.  Every round
#: runs the same ops from the same program state, and an op's latency is
#: the best of its rounds.  A run holds fewer than ``ROUNDS`` only when the
#: host is too slow to fit them into ``--seconds``.
ROUNDS = 20
MIN_ROUNDS = 3
#: Ops per second of ``--seconds``, close to what a 2-core x86-64 host
#: runs: a run has about ``RATE * seconds / (ROUNDS + 1)`` ops per round
#: (rounded to whole blocks of the workload's schedule), one untimed
#: warm-up round and ``ROUNDS`` timed ones.  The traced run has
#: the warm-up round and one traced round of the same ops, so its work
#: counters repeat exactly for a given seed.
RATE = {"omq-chase": 80, "cq-closed-world": 55, "service-mixed": 100}


def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest value with *percent* % at or below it."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)  # ceil without float error
    return ordered[max(rank, 1) - 1]


def cache_counters(caches) -> dict:
    names = (
        "hits",
        "misses",
        "extensions",
        "evictions",
        "materialisation_hits",
        "materialisation_stores",
    )
    return {name: sum(getattr(c, name) for c in caches) for name in names}


def end_to_end(rounds, walls, connections: int, setup_s: float, rss_mb: float) -> dict:
    """End-to-end metrics of the timed rounds.

    Host contention only ever slows an op down, so the metrics keep the
    fast part of the rounds.  With one client an op's latency is the best
    of its rounds, and throughput is one op after another at those
    latencies.  With two connections a request's latency also depends on
    what the other connection runs at that moment, which differs from
    round to round; so whole rounds are kept instead, the fastest half by
    wall time, and their requests pooled.
    """
    records = [record for records in rounds for record in records]
    correct = sum(r.correct for r in records)
    if connections == 1:
        columns = zip(*([r.latency for r in records] for records in rounds))
        latencies = [min(column) * 1000.0 for column in columns]
        throughput = len(latencies) * 1000.0 / sum(latencies)
    else:
        kept = sorted(range(len(rounds)), key=walls.__getitem__)[: -(-len(rounds) // 2)]
        latencies = [r.latency * 1000.0 for i in kept for r in rounds[i]]
        throughput = len(latencies) / sum(walls[i] for i in kept)
    return {
        "throughput_ops_s": (throughput, "ops/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p99_ms": (percentile(latencies, 99), "ms"),
        "correct_frac": (correct / len(records), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(records, runner, tracer, before: dict, after: dict) -> dict:
    from repro.datamodel.interning import default_pool

    stats: dict = {}
    for record in records:
        for name, value in record.stats.items():
            if isinstance(value, (int, float)):
                stats[name] = stats.get(name, 0) + value
    cache = {name: after[name] - before[name] for name in after}
    lookups = (
        cache["hits"]
        + cache["misses"]
        + cache["extensions"]
        + cache["materialisation_hits"]
        + cache["materialisation_stores"]
    )
    answers = sum(r.answers[0] for r in records if r.answers is not None)
    responses = [r.response for r in records if r.response]
    backends = [body.get("backend", "") for body in responses]
    statuses = [body.get("status", "") for body in responses]
    waits = [body.get("queue_wait", 0.0) * 1000.0 for body in responses]
    server = [body.get("latency", 0.0) * 1000.0 for body in responses]
    transport = [
        r.latency * 1000.0 - r.response.get("latency", 0.0) * 1000.0
        for r in records
        if r.response
    ]

    def share(values, wanted):
        return sum(v == wanted for v in values) / len(values) if values else 0.0

    def p(values, q):
        return percentile(values, q) if values else 0.0

    enumerated = stats.get("triggers_enumerated", 0)
    homs = stats.get("homs_found", 0)
    return {
        "chase.time_s": (tracer.inclusive["chase"], "s"),
        "chase.triggers_enumerated": (enumerated, "count"),
        "chase.fired_ratio": (
            stats.get("triggers_fired", 0) / enumerated if enumerated else 0.0,
            "1",
        ),
        "chase.atoms_out": (tracer.amounts["chase"], "count"),
        "cache.self_s": (tracer.self_time["cache"], "s"),
        "cache.hit_ratio": (
            (cache["hits"] + cache["materialisation_hits"]) / lookups if lookups else 0.0,
            "1",
        ),
        "cache.misses": (cache["misses"], "count"),
        "cache.extensions": (cache["extensions"], "count"),
        "cache.evictions": (cache["evictions"], "count"),
        "cache.materialisation_hits": (cache["materialisation_hits"], "count"),
        "omq.certain_answers_s": (tracer.inclusive["omq"], "s"),
        "omq.ucq_eval_s": (tracer.inclusive["omq.ucq_eval"], "s"),
        "queries.eval_s": (tracer.inclusive["queries"], "s"),
        "datamodel.index_probes": (stats.get("index_probes", 0), "count"),
        "datamodel.hom_backtracks": (stats.get("hom_backtracks", 0), "count"),
        "datamodel.homs_found": (homs, "count"),
        "queries.answers_per_hom": (answers / homs if homs else 0.0, "1"),
        "planner.plans_compiled": (stats.get("plans_compiled", 0), "count"),
        "planner.plan_cache_hits": (stats.get("plan_cache_hits", 0), "count"),
        "planner.plan_fallbacks": (stats.get("plan_fallbacks", 0), "count"),
        "cqs.promise_check_s": (tracer.inclusive["cqs.promise_check"], "s"),
        "datalog.time_s": (tracer.inclusive["datalog"], "s"),
        "datalog.rounds": (stats.get("datalog_rounds", 0), "count"),
        "sql.time_s": (tracer.inclusive["sql"], "s"),
        "sql.statements": (
            tracer.counts["sql.selects"] + stats.get("sql_statements", 0),
            "count",
        ),
        "backend.chase_frac": (share(backends, "chase"), "1"),
        "backend.datalog_frac": (share(backends, "datalog"), "1"),
        "backend.sql_frac": (share(backends, "sql"), "1"),
        "serve.queue_wait_p50_ms": (p(waits, 50), "ms"),
        "serve.queue_wait_p99_ms": (p(waits, 99), "ms"),
        "serve.server_p50_ms": (p(server, 50), "ms"),
        "serve.transport_p50_ms": (p(transport, 50), "ms"),
        "serve.parse_s": (tracer.inclusive["serve.parse"], "s"),
        "serve.degraded": (statuses.count("degraded"), "count"),
        "serve.rejected": (statuses.count("rejected"), "count"),
        "serve.errors": (
            statuses.count("error") + statuses.count("killed")
            + sum(r.error is not None and not r.response for r in records),
            "count",
        ),
        "governance.budget_checks": (tracer.counts["governance.budget_checks"], "count"),
        "runtime.gc_pause_s": (tracer.gc_pause, "s"),
        "runtime.gc_gen2": (tracer.gc_gen2, "count"),
        "datamodel.interned_terms": (default_pool().sizes()["terms"], "count"),
        "trace.coverage": (tracer.top_level / runner.round_wall, "1"),
        "trace.throughput_ops_s": (len(records) / runner.round_wall, "ops/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawned = int(os.environ.get("E2EBENCH_SPAWNED_NS", time.monotonic_ns()))

    import inputs
    from workloads import RUNNERS

    runner = RUNNERS[args.workload](args.seed)
    runner.setup()
    setup_s = (time.monotonic_ns() - spawned) / 1e9
    if args.setup_only:
        runner.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Whole blocks only, so every seed does the same mix of work.
    block = inputs.block_size(args.workload) * runner.connections
    blocks = max(round(RATE[args.workload] * args.seconds / (ROUNDS + 1) / block), 1)
    ops = runner.round_ops(blocks * block)
    started = time.monotonic()
    runner.begin_round()
    warmup = runner.run_round(ops)
    tracer = None
    rounds: list[list] = []
    walls: list[float] = []
    while len(rounds) < (1 if args.trace else ROUNDS):
        # On a slow host, stop once the next round would overrun --seconds.
        elapsed = time.monotonic() - started
        per_round = elapsed / (len(rounds) + 1)
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break
        runner.begin_round()
        before = cache_counters(runner.caches())
        gc.collect()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
            try:
                rounds.append(runner.run_round(ops, traced=True))
            finally:
                tracer.uninstall()
        else:
            rounds.append(runner.run_round(ops))
        walls.append(runner.round_wall)
    shape = {
        "ops_per_round": len(ops) if runner.connections == 1 else sum(map(len, ops)),
        "timed_rounds": len(rounds),
        "rounds_s": time.monotonic() - started,
    }
    # Peak memory of the program under load, before the oracle allocates.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = cache_counters(runner.caches())
    runner.close()
    runner.oracle([warmup] + rounds)
    if any(not r.correct for r in warmup):
        raise SystemExit("the warm-up round disagrees with the oracle")

    if tracer is not None:
        metrics = per_layer(rounds[0], runner, tracer, before, after)
    else:
        metrics = end_to_end(rounds, walls, runner.connections, setup_s, rss_mb)
    records = [record for records in rounds for record in records]
    failures = [(i, r) for i, r in enumerate(records) if not r.correct]
    print(
        json.dumps(
            {
                "attempted": len(records),
                **shape,
                "failed": len(failures),
                "first_failure": (
                    None
                    if not failures
                    else {"op_index": failures[0][0], "error": failures[0][1].error}
                ),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
