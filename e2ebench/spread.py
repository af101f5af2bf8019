"""Spread report: run one workload N times and summarise every metric.

    python3 e2ebench/spread.py --workload omq-chase --runs 10
    python3 e2ebench/spread.py --workload cq-closed-world --runs 5 --repeats 2

The untraced runs use seeds ``seed, seed + 1, ...`` (a new seed per run,
as a regression check would).  For each end-to-end metric the report
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range and the full range as shares of the median, and the
bound from ``BENCHMARK.json``; ``host.probe_ms`` (a fixed pure-Python
loop timed around every run) shows how much the host itself drifted.

With ``--repeats K`` it then makes K traced runs with the first seed and
flags every work counter that does not repeat exactly (expected to repeat
on omq-chase and cq-closed-world; the service's two connections race, so
there the check is informational), and reports the tracing overhead as
the traced throughput over the untraced median.  The traced run times one
round while the untraced figure reads the fast part of up to twenty, so
the ratio also holds some host drift.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics that measure time or the host, not work done.
NOT_WORK = re.compile(r"(_s|_ms|ops_s)$|^runtime\.|^trace\.|^host\.")
DETERMINISTIC = ("omq-chase", "cq-closed-world")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float | None]:
    """One benchmark run: (result object, mean host probe in ms)."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run failed (exit {proc.returncode}):\n{proc.stderr}")
    probe = re.search(r"before=([\d.]+) after=([\d.]+)", proc.stdout)
    mean_probe = (float(probe[1]) + float(probe[2])) / 2 if probe else None
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(f"  seed {seed}: exit {proc.returncode}, failed {result['failed']}")
    return result, mean_probe


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    scale = median if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": (q3 - q1) / scale,
        "range": (max(values) - min(values)) / scale,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, probes = [], []
    for i in range(args.runs):
        result, probe = run(args.workload, args.seed + i, seconds, 0)
        results.append(result)
        if probe is not None:
            probes.append(probe)
        print(f"  seed {args.seed + i}: " + ", ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        ))

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':18s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    rows = {name: [r["metrics"][name]["value"] for r in results] for name in bounds}
    rows["host.probe_ms"] = probes
    for name, values in rows.items():
        if not values:
            continue
        s = summary(values)
        unit = results[0]["metrics"].get(name, {}).get("unit", "ms")
        bound = bounds.get(name)
        flag = "" if bound is None or s["iqr"] <= bound / 3 else "  <- above a third of the bound"
        print(f"{name:18s} {unit:6s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
              f"{s['iqr']:8.3f} {s['range']:9.3f} {'' if bound is None else bound:>6}{flag}")

    if args.repeats:
        traced = [run(args.workload, args.seed, seconds, 1)[0] for _ in range(args.repeats)]
        counters = sorted(n for n in traced[0]["metrics"] if not NOT_WORK.search(n))
        unstable = [
            n for n in counters
            if len({t["metrics"][n]["value"] for t in traced}) > 1
        ]
        verdict = "flag" if args.workload in DETERMINISTIC else "informational"
        print(f"\nwork counters over {args.repeats} traced runs of seed {args.seed}: "
              f"{len(counters) - len(unstable)}/{len(counters)} repeat exactly")
        for n in unstable:
            print(f"  [{verdict}] {n}: {[t['metrics'][n]['value'] for t in traced]}")
        untraced = statistics.median(rows["throughput_ops_s"])
        for t in traced:
            ratio = t["metrics"]["trace.throughput_ops_s"]["value"] / untraced
            print(f"  traced/untraced throughput: {ratio:.3f}"
                  f" (coverage {t['metrics']['trace.coverage']['value']:.3f})")
        if unstable and args.workload in DETERMINISTIC:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
