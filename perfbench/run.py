"""End-to-end benchmark of query consolidation: batch and service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch_loops --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

Each run prints one line per metric (name, value, unit, sample count) and,
last, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from spans that ``tracing.py`` records around each layer's entry points.
Traced runs also write every span and a folded-stack file under
``perfbench/out/``.  The exit status is 1 when any output differs from the
reference interpreter, and 2 when the program under test is missing.

The batch workload runs each repetition in a fresh interpreter
(``rep.py``), cycling over the run's seeded batches while another
repetition fits in ``--seconds``.  Each end-to-end metric is each batch's
best repetition, averaged over batches; set-up and peak RSS are medians
over repetitions (see ``stats.py``).  Per-layer metrics are interquartile
means over repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import best_per_input, best_ratio_per_input, iqm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 2
REP_METRICS = ("setup_s", "time_to_results_s", "udf_cost_speedup", "wall_many_s", "wall_cons_s",
               "exec_records_per_s.compiled", "exec_records_per_s.vectorized",
               "peak_rss_mb")
# Printed with the end-to-end metrics but not in BENCHMARK.json: on the
# 2-vCPU machine this was tuned on they spread past any bound the
# benchmark may set (see README.md).
UNGATED = (("time_to_results_s", "s"), ("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
           ("write_p50_ms", "ms"), ("write_p90_ms", "ms"))
# Hash seeding moves the speed of one plan by up to 1.6x between processes
# (string-keyed dict and set layouts); every process of a run uses this one.
HASH_SEED = "0"
OVERHEAD_PAIRS = 3
REP_TIMEOUT_S = 150


def _rep(workload: str, seed: int, index: int, trace: bool, tag: str,
         preload: bool = False) -> dict:
    spec = {"workload": workload, "seed": seed, "input": index, "trace": trace,
            "preload": preload}
    if trace:
        spec["spans"] = str(OUT / f"{workload}-seed{seed}-{tag}.spans.jsonl")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        capture_output=True, text=True, env=env, timeout=REP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} input {index} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # Set-up as a fresh process pays it: interpreter start, imports, inputs.
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    result["setup_s"] = result.pop("setup_done_at") - spawned
    result["input"] = index
    result["rep_s"] = time.perf_counter() - spawned
    return result


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Fresh-process repetitions, cycling over the run's seeded inputs.

    Repetitions go on while another one still fits in ``seconds`` (and
    until each input has run ``MIN_ROUNDS`` times); ``report`` then takes
    each input's best repetition and averages over inputs.
    """

    from workloads import WORKLOADS

    inputs = WORKLOADS[workload]["inputs"]
    started = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < MIN_ROUNDS * inputs or (
        time.perf_counter() - started + statistics.median(r["rep_s"] for r in reps) < seconds
    ):
        reps.append(_rep(workload, seed, len(reps) % inputs, trace, f"rep{len(reps)}"))
    result = {"samples": {"inputs": inputs, "reps": len(reps)},
              "attempted": sum(rep["attempted"] for rep in reps),
              "failed": sum(rep["failed"] for rep in reps)}
    for name in REP_METRICS:
        result[name] = [(rep["input"], rep[name]) for rep in reps]
    result["wall_speedup"] = best_ratio_per_input(result.pop("wall_many_s"),
                                                  result.pop("wall_cons_s"))
    if trace:
        layers = {name: iqm(rep["layers"].get(name, 0) for rep in reps)
                  for name in reps[0]["layers"]}
        # The first input again, untraced (with the traced run's imports
        # preloaded) and traced in turn; host noise only adds time, so the
        # fastest of each way is compared.
        ways = {False: [], True: []}
        for pair in range(OVERHEAD_PAIRS):
            for traced in ways:
                again = _rep(workload, seed, 0, traced, f"overhead{pair}", preload=True)
                ways[traced].append(again["time_to_results_s"])
                result["attempted"] += again["attempted"]
                result["failed"] += again["failed"]
        layers["tracing.overhead_s"] = min(ways[True]) - min(ways[False])
        result["layers"] = layers
        folded: dict[str, int] = {}
        for rep in reps:
            for stack, micros in rep["folded"].items():
                folded[stack] = folded.get(stack, 0) + micros
        result["folded"] = folded
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if workload["kind"] == "service":
        from service import run_service

        return run_service(workload, seed, seconds, trace, OUT / f"{name}-seed{seed}")
    return run_batch(name, seed, seconds, trace)


def summarise(metric: str, value, better: str) -> float:
    """One run's figure from its ``(input, value)`` samples (or a scalar).

    Set-up and peak RSS are the median over every repetition; any other
    metric is each input's best repetition, averaged over inputs.
    """

    if not isinstance(value, list):
        return value
    if metric in ("setup_s", "peak_rss_mb"):
        return statistics.median(v for _, v in value)
    return best_per_input(value, better)


def report(name: str, result: dict, trace: bool, declared: list[tuple[str, str, str]]) -> dict:
    """Print the readable lines and return the final JSON document.

    ``declared`` lists ``(metric, unit, better)`` from ``BENCHMARK.json``:
    the end-to-end metrics, or the per-layer ones on a traced run.
    """

    samples = result.get("samples", {})
    if trace:  # a layer a workload never enters reads 0
        metrics = {m: {"value": result["layers"].get(m, 0), "unit": u} for m, u, _ in declared}
    else:
        metrics = {m: {"value": summarise(m, result[m], better), "unit": u}
                   for m, u, better in declared}
    for metric, doc in metrics.items():
        print(f"{name:14s} {metric:40s} {doc['value']:>14.6g} {doc['unit']:6s} {samples}")
    for extra, unit in UNGATED:
        if extra in result and not trace:
            value = summarise(extra, result[extra], "lower")
            print(f"{name:14s} {extra:40s} {value:>14.6g} {unit:6s} (not gated) {samples}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    # Unwind on SIGTERM too, so the server and repetition processes stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in {w["name"] for w in spec["workloads"]}]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")

    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    status = 0
    for name in names:
        trace = bool(args.trace)
        result = run_workload(name, args.seed, seconds, trace)
        if trace:
            from tracing import write_folded

            write_folded(result["folded"], str(OUT / f"{name}-seed{args.seed}.folded"))
        doc = report(name, result, trace, declared)
        if not doc["correct"]:
            print(f"{name}: {doc['failed']} of {doc['attempted']} operations failed "
                  "or disagreed with the reference", file=sys.stderr)
            status = 1
        print(json.dumps(doc), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
