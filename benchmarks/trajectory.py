"""Continuous benchmark trajectory with a regression gate.

Each invocation runs a small, normalized slice of the core workloads
(consolidate + execute the Weather Mix family, plus the SMT/simplifier
counters behind it, plus a reduced columnar-backend comparison from
``bench_vectorized``), appends one schema-versioned row to
``BENCH_trajectory.json`` at the repository root, and compares the new
row against the most recent prior row with the same ``schema_version``
and ``scale``:

* deterministic cost-model metrics (UDF speedup, solver/simplifier
  counters) get a **tight** relative tolerance — they only move when the
  algorithm changes;
* wall-clock metrics get a **loose** tolerance — they wobble with the
  machine.

``--tolerance`` scales every band (2.0 = twice as forgiving, for noisy
CI runners).  A regression exits non-zero so CI can gate on it; the
first row for a (schema_version, scale) pair is vacuously green.  On
write the file is deduplicated by ``(git_sha, scale)``, keeping only
the latest row per pair — re-running on the same commit replaces its
measurement instead of stacking duplicates.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py            # append + gate
    PYTHONPATH=src python benchmarks/trajectory.py --dry-run  # gate only
    PYTHONPATH=src python benchmarks/trajectory.py --scale full --tolerance 2
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "BENCH_trajectory.json"
SCHEMA_VERSION = 1

# metric -> (direction, relative tolerance band). "higher" means bigger is
# better (gate fires when the value *drops* below baseline * (1 - band)),
# "lower" means smaller is better (gate fires above baseline * (1 + band)).
METRIC_SPECS = {
    # Deterministic cost-model metrics: tight bands.
    "weather_udf_speedup": ("higher", 0.10),
    "weather_consolidated_udf_cost": ("lower", 0.10),
    "weather_smt_checks": ("lower", 0.10),
    "weather_entail_queries": ("lower", 0.10),
    "weather_prefilter_cost_speedup": ("higher", 0.10),
    # Wall-clock metrics: loose bands (machine-dependent).
    "weather_consolidation_seconds": ("lower", 0.50),
    "weather_run_seconds": ("lower", 0.50),
    "weather_prefilter_synthesis_seconds": ("lower", 0.50),
    # Service economics: seconds for one incremental add divided by
    # seconds for the full batch re-consolidation.  Both halves run on
    # the same machine in the same process, so the ratio is far more
    # stable than either wall-clock alone.
    "weather_incremental_ratio": ("lower", 0.50),
    # Columnar backend: a wall-clock *ratio* (both sides measured
    # interleaved in-process, so machine speed divides out) and the
    # deterministic fallback share of a batch with one unbounded UDF.
    "whereconsolidated_vectorized_speedup": ("higher", 0.50),
    "vectorized_fallback_rate": ("lower", 0.50),
    # Calibrated planner: consolidation wall-time speedup is an
    # interleaved in-process ratio (loose band — the SMT share of the
    # workload varies with machine); the merged-plan runtime cost ratio
    # is deterministic (virtual clock), so any drift is algorithmic.
    "weather_planner_consolidation_speedup": ("higher", 0.50),
    "weather_planner_cost_ratio": ("lower", 0.10),
}

SCALES = {
    # scale -> (cities, n_udfs, rows)
    "small": (20, 8, 400),
    "full": (60, 20, None),
}


def git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:  # noqa: BLE001 - no git in some CI images
        return "unknown"


def collect_metrics(scale: str) -> dict:
    """Run the normalized workload once; return the metric dict."""

    from repro.consolidation import consolidate_all
    from repro.datasets import generate_weather
    from repro.naiad.linq import from_collection, run_where_many
    from repro.queries import DOMAIN_QUERIES

    cities, n_udfs, row_cap = SCALES[scale]
    dataset = generate_weather(cities=cities)
    programs = DOMAIN_QUERIES["weather"].make_batch(dataset, "Mix", n=n_udfs, seed=1)
    rows = dataset.rows if row_cap is None else dataset.rows[:row_cap]

    started = time.perf_counter()
    report = consolidate_all(programs, dataset.functions)
    consolidation_seconds = time.perf_counter() - started

    pids = [p.pid for p in programs]
    many = run_where_many(rows, programs, dataset.functions)
    started = time.perf_counter()
    cons = (
        from_collection(rows)
        .where_consolidated(report.program, pids, dataset.functions)
        .run()
    )
    run_seconds = time.perf_counter() - started
    if many.buckets != cons.buckets:
        raise SystemExit("trajectory workload: consolidated buckets diverged")

    # Incremental-vs-full: patch the merge tree of n-1 programs with the
    # last one and compare against the full batch's consolidation time.
    from repro.consolidation.incremental import add_query, rebuild

    tree, _ = rebuild(programs[:-1], dataset.functions)
    started = time.perf_counter()
    add_query(
        tree, programs[-1], dataset.functions, static_validate=False, record=False
    )
    incremental_seconds = time.perf_counter() - started

    # The prefilter gate rides along at a fixed reduced scale: the cost
    # speedup is deterministic (virtual clock), so any drop is algorithmic.
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_prefilter

    prefilter = bench_prefilter.measure(cities=50, n_udfs=4)

    # The columnar backend rides along at a reduced scale: the speedup is
    # an interleaved in-process ratio (stable across machines) and the
    # fallback rate is exactly deterministic (1 unbounded UDF in 8).
    import bench_vectorized

    vectorized = bench_vectorized.measure(
        n_udfs=8, depth=10, rows=3000, repeats=3
    )

    # The calibrated planner rides along at its validated scale: the
    # speedup is an interleaved ratio, the cost ratio deterministic.
    import bench_calibration

    calibration = bench_calibration.measure(repeats=2)

    return {
        "weather_udf_speedup": round(
            many.metrics.udf_cost / max(1, cons.metrics.udf_cost), 4
        ),
        "weather_consolidated_udf_cost": cons.metrics.udf_cost,
        "weather_smt_checks": report.solver_stats.get("checks", 0),
        "weather_entail_queries": report.simplify_stats.get("entail_queries", 0),
        "weather_prefilter_cost_speedup": prefilter["cost_speedup"],
        "weather_consolidation_seconds": round(consolidation_seconds, 4),
        "weather_run_seconds": round(run_seconds, 4),
        "weather_prefilter_synthesis_seconds": prefilter["synthesis_seconds"],
        "weather_incremental_ratio": round(
            incremental_seconds / max(consolidation_seconds, 1e-9), 4
        ),
        "whereconsolidated_vectorized_speedup": vectorized["where_consolidated"][
            "speedup"
        ],
        "vectorized_fallback_rate": vectorized["fallback"]["rate"],
        "weather_planner_consolidation_speedup": calibration[
            "weather_planner_consolidation_speedup"
        ],
        "weather_planner_cost_ratio": calibration["weather_planner_cost_ratio"],
    }


def make_row(scale: str, metrics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "scale": scale,
        "metrics": metrics,
    }


def find_baseline(rows: list, scale: str) -> dict | None:
    """Latest prior row with the same schema_version and scale."""

    for row in reversed(rows):
        if row.get("schema_version") == SCHEMA_VERSION and row.get("scale") == scale:
            return row
    return None


def gate(baseline: dict | None, row: dict, tolerance: float = 1.0) -> list[str]:
    """Compare one new row against its baseline; return regression messages.

    ``tolerance`` multiplies every metric's band.  Metrics missing from
    either row are skipped (schema growth must not fail the gate), as is
    a zero baseline (no meaningful relative band).
    """

    if baseline is None:
        return []
    regressions = []
    base_metrics = baseline.get("metrics", {})
    for name, value in row.get("metrics", {}).items():
        spec = METRIC_SPECS.get(name)
        base = base_metrics.get(name)
        if spec is None or base is None or base == 0:
            continue
        direction, band = spec
        band *= tolerance
        if direction == "higher" and value < base * (1 - band):
            regressions.append(
                f"{name}: {value} fell below baseline {base} "
                f"(allowed -{band * 100:.0f}%)"
            )
        elif direction == "lower" and value > base * (1 + band):
            regressions.append(
                f"{name}: {value} rose above baseline {base} "
                f"(allowed +{band * 100:.0f}%)"
            )
    return regressions


def dedupe_rows(rows: list) -> list:
    """Keep only the latest row per ``(git_sha, scale)``, order preserved.

    Re-running the trajectory on the same commit (CI retries, local
    experimentation) used to append a duplicate row each time, silently
    narrowing the gate's history to one commit.  Deduplication keeps the
    *last* row for each pair — the freshest measurement of that commit —
    and leaves rows with no usable sha (``unknown``/missing) alone, since
    distinct runs without git identity cannot be told apart.
    """

    latest: dict = {}
    keep = []
    for index, row in enumerate(rows):
        sha = row.get("git_sha")
        if not sha or sha == "unknown":
            keep.append(index)
            continue
        latest[(sha, row.get("scale"))] = index
    keep.extend(latest.values())
    return [rows[i] for i in sorted(keep)]


def load_rows(path: Path) -> list:
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        raise SystemExit(f"{path} is not a JSON list of trajectory rows")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.0,
        help="multiplier on every metric's tolerance band (default 1.0)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT, help="trajectory file to append to"
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="run the workload and the gate but do not append the row",
    )
    args = parser.parse_args(argv)

    metrics = collect_metrics(args.scale)
    row = make_row(args.scale, metrics)
    rows = load_rows(args.output)
    baseline = find_baseline(rows, args.scale)
    regressions = gate(baseline, row, args.tolerance)

    for name, value in sorted(metrics.items()):
        print(f"  {name} = {value}")
    if baseline is None:
        print(f"no prior {args.scale!r} row at schema v{SCHEMA_VERSION}: gate is green")
    elif regressions:
        print(f"REGRESSION vs {baseline['git_sha']} ({baseline['timestamp']}):")
        for message in regressions:
            print(f"  {message}")
    else:
        print(f"gate green vs {baseline['git_sha']} ({baseline['timestamp']})")

    if not args.dry_run:
        rows.append(row)
        deduped = dedupe_rows(rows)
        if len(deduped) < len(rows):
            print(f"dropped {len(rows) - len(deduped)} duplicate row(s)")
        args.output.write_text(json.dumps(deduped, indent=2) + "\n")
        print(f"appended row {len(deduped)} to {args.output}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
