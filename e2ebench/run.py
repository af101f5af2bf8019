"""End-to-end benchmark of the ``repro`` query engine: one workload, one seed.

    python3 e2ebench/run.py --workload omq-chase --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
The command

1. byte-compiles ``src/`` and this directory, so that ``.pyc`` writing on
   a fresh checkout does not land in the measured set-up time;
2. times a fixed pure-Python loop (``host.probe_ms``), to explain drift;
3. runs the workload in a fresh interpreter with ``PYTHONHASHSEED=0``
   (``worker.py``): set-up, a warm-up round, the timed rounds over the
   same ops, then the oracle;
4. with ``--trace 0``, starts twenty more interpreters that only set up,
   ten before the measured run and ten after it, and reports the
   median set-up time of all of them as ``setup_s``;
5. times the probe loop again and prints one JSON object as the last line:
   ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
   reports the end-to-end metrics, ``--trace 1`` the per-layer ones (a
   separate run with the layer wrappers of ``tracing.py`` installed).

The exit code is 0 only when every op came back complete and equal to the
oracle's answer.  Without ``src/repro`` next to this directory it exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402 - needs the path above

WORKLOADS = ("omq-chase", "cq-closed-world", "service-mixed")
#: Extra set-up-only interpreters per untraced run, half of them started
#: before the measured run and half after it (``setup_s`` is the median
#: over these and the measured run's own set-up).
SETUP_SAMPLES = 20
#: Wall-clock cap on all the interpreters of one run together, so that
#: the command ends within 180 s even if the program hangs.
CHILDREN_TIMEOUT = 160.0


def host_probe_ms() -> float:
    """A fixed pure-Python loop (best of three), in milliseconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its last stdout line as JSON.

    The child is killed (and waited for) at *deadline*, a
    ``time.monotonic()`` value.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["E2EBENCH_SPAWNED_NS"] = str(time.monotonic_ns())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    print(f"# inputs {args.workload} seed={args.seed} fingerprint={inputs.fingerprint(args.workload, args.seed)}")
    probe_before = host_probe_ms()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups: list[float] = []
    deadline = time.monotonic() + CHILDREN_TIMEOUT
    samples = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        for _ in range(samples):
            setups.append(child(common + ["--setup-only"], deadline)["setup_s"])
        result = child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        metrics = result["metrics"]
        if not args.trace:
            setups.append(metrics["setup_s"]["value"])
        for _ in range(samples):
            setups.append(child(common + ["--setup-only"], deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probe_after = host_probe_ms()

    if args.trace:
        metrics["host.probe_ms"] = {
            "value": (probe_before + probe_after) / 2.0,
            "unit": "ms",
        }
    else:
        metrics["setup_s"]["value"] = statistics.median(setups)
    correct = result["failed"] == 0
    print(
        f"# {result['ops_per_round']} ops per round, one warm-up round and"
        f" {result['timed_rounds']} timed, {result['rounds_s']:.1f} s"
    )
    print(
        f"# host.probe_ms before={probe_before:.2f} after={probe_after:.2f}"
        f" setup_samples={[round(s, 4) for s in setups]}"
    )
    if result.get("first_failure"):
        print(f"# first failure: {json.dumps(result['first_failure'])[:2000]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
