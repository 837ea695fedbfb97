"""Vectorized backend vs compiled per-row on a consolidated batch.

Times ``whereConsolidated`` end-to-end under the compiled and the
vectorized backends on a straight-line arithmetic batch — the shape the
columnar backend exists for: the consolidator merges every UDF into one
program, the vectorizer fuses the merged body into a single whole-column
kernel, and no per-record environment is ever materialised.  Results land
in ``BENCH_vectorized.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_vectorized.py

The guardrail this file exists for: the vectorized backend must keep the
consolidated batch at >= 5x lower wall-clock per record than the compiled
per-row backend (the roadmap asks for ~10x; the gate is conservative and
the JSON reports the real number).  The fallback ladder rides along: a
deliberately unbounded UDF in a ``whereMany`` batch must degrade exactly
its own records and nothing else, giving a deterministic fallback rate.

Run under pytest it performs a reduced-scale version of the same
comparison (asserting output parity and the deterministic fallback rate)
without touching the JSON file; wall-clock under pytest-parallel load is
noisy, so the reduced run only sanity-checks that vectorized wins.

Workload notes, so the numbers mean something:

* programs are straight-line chains ``x_j := x_{j-1} - x_{j-2} + j`` —
  values stay machine-word sized (no bignum drift that would flatten the
  ratio by making raw arithmetic dominate both backends equally);
* notify guards read the chain's final variable — every statement is
  live, the kernel does all the work — but are selective (almost no
  records notify), keeping result bucket appends — a cost both backends
  share — out of the measurement;
* a single worker runs one whole-partition batch, the vectorized
  backend's best case and the compiled backend's indifference point.
"""

import json
import sys
import time
from pathlib import Path

from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.lang import parse_program
from repro.lang.functions import FunctionTable
from repro.naiad.linq import from_collection, run_where_many
from repro.telemetry import Telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_vectorized.json"

SPEEDUP_BAR = 5.0

UNBOUNDED_SRC = """
program ub(row) {
  s := 0;
  while (s < @row) {
    s := s + 7;
  }
  notify ub (s > 20);
}
"""


def _make_program(k: int, depth: int, rows: int):
    """One straight-line UDF: a bounded-magnitude chain, selective notify.

    The notify guard reads the chain's final variable, so every statement
    is live — the kernel cannot cheat by skipping work.  Each ``x_j`` is
    linear in ``@row`` (``x_j = a_j * row + b_j`` with ``a_j`` following
    the 6-cycle ``a_j = a_{j-1} - a_{j-2}``, never zero), so the guard
    threshold can be solved exactly for the wanted selectivity.
    """

    assert depth >= 2
    lines = [
        f"  x0 := @row * {2 + k} + {k};",
        f"  x1 := @row - x0 + {3 * k};",
    ]
    a, b = [2 + k, -(1 + k)], [k, 2 * k]
    for j in range(2, depth):
        lines.append(f"  x{j} := x{j - 1} - x{j - 2} + {j};")
        a.append(a[-1] - a[-2])
        b.append(b[-1] - b[-2] + j)
    body = "\n".join(lines)
    # Only rows above `cut` notify (~100 per program): invert the linear
    # map, flipping the comparison when the row coefficient is negative.
    cut = rows - 100 + k
    threshold = a[depth - 1] * cut + b[depth - 1]
    relation = ">" if a[depth - 1] > 0 else "<"
    return parse_program(
        f"program q{k}(row) {{\n{body}\n"
        f"  notify q{k} (x{depth - 1} {relation} {threshold});\n}}"
    )


def _buckets(result):
    return {pid: sorted(map(repr, rs)) for pid, rs in result.buckets.items()}


def measure(n_udfs=12, depth=10, rows=8000, repeats=7):
    """Measure the consolidated speedup and the fallback rate; return the report."""

    ft = FunctionTable({})
    records = list(range(rows))
    programs = [_make_program(k, depth, rows) for k in range(n_udfs)]

    # Consolidation happens once, outside every timed region: this file
    # compares *execution* backends, not the consolidator.
    started = time.perf_counter()
    merged = consolidate_all(programs, ft).program
    consolidation_seconds = time.perf_counter() - started
    pids = [p.pid for p in programs]

    def run_consolidated(backend):
        config = ExecutionConfig(backend=backend, max_workers=1)
        return (
            from_collection(records, config=config)
            .where_consolidated(merged, pids, ft)
            .run()
        )

    # Warm both plan caches before timing, then interleave the two
    # backends round by round: slow drift in machine speed (frequency
    # scaling, cache state) hits both sides equally instead of biasing
    # the ratio.  Best-of-N on each side discards transient stalls.
    run_consolidated("compiled")
    run_consolidated("vectorized")
    best = {"compiled": None, "vectorized": None}
    runs = {}
    for _ in range(repeats):
        for backend in best:
            t0 = time.perf_counter()
            runs[backend] = run_consolidated(backend)
            elapsed = time.perf_counter() - t0
            if best[backend] is None or elapsed < best[backend]:
                best[backend] = elapsed
    compiled_s, vectorized_s = best["compiled"], best["vectorized"]
    compiled_run, vectorized_run = runs["compiled"], runs["vectorized"]

    # Bit-identical observability, or the timing is meaningless.
    assert _buckets(vectorized_run) == _buckets(compiled_run), (
        "whereConsolidated: backends disagree — vectorized backend bug"
    )
    assert vectorized_run.metrics.udf_cost == compiled_run.metrics.udf_cost
    assert (
        vectorized_run.metrics.per_worker_total
        == compiled_run.metrics.per_worker_total
    )

    # Fallback ladder: 1 unbounded UDF in a batch of 8 must degrade exactly
    # its own records — a deterministic 1/8 of the batch, counted by the
    # fallback telemetry, with zero effect on the other programs' results.
    ladder = [_make_program(k, 4, rows) for k in range(7)] + [
        parse_program(UNBOUNDED_SRC)
    ]
    telemetry = Telemetry.capture()
    config = ExecutionConfig(
        backend="vectorized", max_workers=1, telemetry=telemetry
    )
    ladder_rows = records[: min(rows, 2000)]
    run_where_many(ladder_rows, ladder, ft, config=config)
    fallback_records = telemetry.counter("vectorized_fallback_records_total").value
    total_records = telemetry.counter("vectorized_records_total").value
    fallback_rate = fallback_records / max(1, total_records)

    speedup = compiled_s / vectorized_s
    return {
        "experiment": "vectorized_vs_compiled",
        "workload": "straight-line arithmetic chains",
        "n_udfs": n_udfs,
        "depth": depth,
        "rows": rows,
        "consolidation_seconds": round(consolidation_seconds, 4),
        "where_consolidated": {
            "compiled_s": round(compiled_s, 4),
            "vectorized_s": round(vectorized_s, 4),
            "compiled_us_per_record": round(compiled_s / rows * 1e6, 3),
            "vectorized_us_per_record": round(vectorized_s / rows * 1e6, 3),
            "speedup": round(speedup, 2),
        },
        "fallback": {
            "batch": len(ladder),
            "unbounded_udfs": 1,
            "fallback_records": fallback_records,
            "total_records": total_records,
            "rate": round(fallback_rate, 4),
        },
        "speedup_bar": SPEEDUP_BAR,
    }


def test_vectorized_parity_and_fallback_rate():
    """Reduced-scale pytest entry: parity always, speed sanity-checked."""

    report = measure(n_udfs=6, depth=8, rows=1500, repeats=2)
    # Parity is asserted inside measure(); the 5x bar is only enforced by
    # the standalone run (timing under pytest-parallel load is noisy), but
    # even here the vectorized backend should never lose outright.
    assert report["where_consolidated"]["speedup"] > 1.0
    # One unbounded UDF in a batch of 8: exactly 1/8 of records fall back.
    assert report["fallback"]["rate"] == 1 / 8


def main() -> int:
    report = measure()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    cons = report["where_consolidated"]
    fb = report["fallback"]
    print(f"wrote {OUTPUT}")
    print(
        f"whereConsolidated[{report['n_udfs']}x{report['depth']}]  "
        f"compiled {cons['compiled_us_per_record']:.2f} us/record  "
        f"vectorized {cons['vectorized_us_per_record']:.2f} us/record  "
        f"({cons['speedup']:.2f}x)"
    )
    print(
        f"fallback ladder: {fb['fallback_records']}/{fb['total_records']} records "
        f"degraded per-row (rate {fb['rate']:.4f})"
    )
    if cons["speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: speedup {cons['speedup']:.2f}x is below the "
            f"{SPEEDUP_BAR:.0f}x guardrail"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
