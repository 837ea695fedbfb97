"""One timed repetition of the batch workload, in a fresh interpreter.

Two caches outlive a ``consolidate_all`` call inside one process (the SMT
theory-check memo in ``repro.smt.combine`` and the compile cache in
``repro.lang.compile``), so a second in-process repetition would time a
warm consolidator.  ``run.py`` therefore starts this script once per
repetition and reads the single JSON line it prints.

Usage (normally only through ``run.py``)::

    python3 perfbench/rep.py '<json spec>'

The spec names the workload, the batch seed and whether to trace; the
result carries the end-to-end samples, the output-check counts and, when
traced, the per-layer numbers of this repetition.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, batch_seed, make_dataset  # noqa: E402


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _epochs(rows, size, count, rng):
    order = list(rows)
    rng.shuffle(order)
    return [order[i:i + size] for i in range(0, len(order), size)][:count]


def measure_plan(plan, pids, programs, functions, rows, workload, rng) -> dict:
    """Warm figures of one merged plan over ``rows``, shared by every workload.

    Per backend, the plan is compiled once, then runs ``passes`` times over
    the same seeded epochs of ``epoch_rows`` rows, and each epoch keeps its
    fastest pass.  The throughput is the epochs' records over the sum of
    those times.
    Then whereMany and whereConsolidated alternate over the same rows, and
    each keeps its fastest pass (the two sides of the wall ratio); the UDF
    cost ratio is on the Figure-2 clock, and each pair's buckets must agree.
    """

    from repro.config import ExecutionConfig
    from repro.naiad import linq

    default = ExecutionConfig()

    def consolidated(records, config):
        query = linq.from_collection(records, config=config)
        return query.where_consolidated(plan, pids, functions).run()

    out = {"attempted": 0, "failed": 0}
    epochs = _epochs(rows, workload["epoch_rows"], workload["epochs"], rng)
    for backend, passes in workload["passes"].items():
        config = ExecutionConfig(backend=backend)
        consolidated(epochs[0], config)  # compile once, before timing
        best = [float("inf")] * len(epochs)
        for _ in range(passes):
            for index, epoch in enumerate(epochs):
                _, seconds = _timed(consolidated, epoch, config)
                best[index] = min(best[index], seconds)
        out[f"exec_records_per_s.{backend}"] = sum(map(len, epochs)) / sum(best)
        out["attempted"] += passes * len(epochs)

    wall_rows = rows if workload["wall_rows"] is None else rng.sample(rows, workload["wall_rows"])
    linq.run_where_many(wall_rows[:1], programs, functions, config=default)  # compile first
    many_s, cons_s = [], []
    for _ in range(workload["wall_pairs"]):
        many, seconds = _timed(linq.run_where_many, wall_rows, programs, functions,
                               config=default)
        many_s.append(seconds)
        cons, seconds = _timed(consolidated, wall_rows, default)
        cons_s.append(seconds)
        out["attempted"] += 1
        out["failed"] += many.buckets != cons.buckets
    out["wall_many_s"], out["wall_cons_s"] = min(many_s), min(cons_s)
    out["udf_cost_speedup"] = many.metrics.udf_cost / max(1, cons.metrics.udf_cost)
    return out


def run_rep(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif spec.get("preload"):
        tracing.preload()

    # Module attributes, not imported names: the traced run patches them.
    from repro.config import ExecutionConfig
    from repro.consolidation import divide_conquer as dc
    from repro.lang.visitors import stmt_size
    from repro.naiad import linq
    from repro.queries import DOMAIN_QUERIES

    seed = batch_seed(spec["seed"], spec["input"])
    rng = random.Random(seed)
    if tracer is not None:
        dataset = tracer.span("datasets.generate", make_dataset, workload)
    else:
        dataset = make_dataset(workload)
    programs = DOMAIN_QUERIES[workload["domain"]].make_batch(
        dataset, workload["family"], n=workload["n"], seed=seed
    )
    setup_done_at = time.perf_counter()
    functions = dataset.functions
    rows = dataset.rows
    pids = [p.pid for p in programs]

    def consolidated(records, config):
        query = linq.from_collection(records, config=config)
        return query.where_consolidated(report.program, pids, functions).run()

    # Cold: what a user submitting the batch waits for.
    t0 = time.perf_counter()
    report = dc.consolidate_all(programs, functions, config=ExecutionConfig())
    consolidated(rows, ExecutionConfig())
    ttr_s = time.perf_counter() - t0

    # Outputs against the reference interpreter, on a seeded sample.
    attempted = failed = 0
    check_rows = rng.sample(rows, min(len(rows), workload["check_rows"]))
    reference = linq.run_where_many(
        check_rows, programs, functions, config=ExecutionConfig(backend="interp")
    )
    for backend in ("compiled", "vectorized"):
        got = consolidated(check_rows, ExecutionConfig(backend=backend))
        attempted += 1
        failed += got.buckets != reference.buckets

    measured = measure_plan(report.program, pids, programs, functions, rows, workload, rng)
    result = {
        "setup_done_at": setup_done_at,
        "time_to_results_s": ttr_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted + measured.pop("attempted"),
        "failed": failed + measured.pop("failed"),
        **measured,
    }
    if tracer is not None:
        exec_s = time.perf_counter() - t0
        result["layers"] = layer_metrics(tracer, report, stmt_size(report.program.body), exec_s)
        result["folded"] = tracer.folded()
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    return result


def span_metrics(tracer: tracing.Tracer) -> dict:
    """The per-layer numbers every traced process can give from its spans."""

    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    pairs = [end - start for _, _, name, start, end in tracer.spans if name == "consolidation.pair"]
    out = {
        "datasets.generate_s": secs("datasets.generate"),
        "consolidation.batch_s": secs("consolidation.batch"),
        "consolidation.pair_merges": calls("consolidation.pair"),
        "consolidation.pair_max_s": max(pairs, default=0.0),
        "simplifier.entails_calls": calls("simplifier.entails"),
        "simplifier.entails_s": secs("simplifier.entails"),
        "smt.is_sat_calls": calls("smt.is_sat"),
        "smt.is_sat_s": secs("smt.is_sat"),
        "smt.theory_checks": calls("smt.theory"),
        "smt.theory_s": secs("smt.theory"),
        "sp.assign_calls": calls("sp.assign"),
        "sp.assign_s": secs("sp.assign"),
        "sp.post_s": secs("sp.post"),
        "invariants.calls": calls("invariants.loop_invariant"),
        "invariants.s": secs("invariants.loop_invariant"),
        "static.validate_calls": calls("static.validate"),
        "static.validate_s": secs("static.validate"),
        "service.admit_s": secs("service.admit"),
        "service.register_s": secs("service.register"),
        "service.unregister_s": secs("service.unregister"),
        "service.run_s": secs("service.run"),
        "naiad.run_s": secs("naiad.run"),
        "naiad.records_in": tracer.counts["naiad.records_in"],
        "naiad.notifications": tracer.counts["naiad.notifications"],
        "naiad.operator_s": secs("naiad.operator"),
        "naiad.flush_s": secs("naiad.flush"),
        "lang.compile_calls": calls("lang.compile"),
        "lang.compile_s": secs("lang.compile"),
        "lang.vectorized_fallbacks": calls("lang.fallback"),
    }
    for layer, seconds in tracer.self_seconds().items():
        out[f"self_s.{layer}"] = seconds
    return out


def layer_metrics(tracer, report, merged_size, exec_s) -> dict:
    out = span_metrics(tracer)
    stats = report.solver_stats
    batch_s = out["consolidation.batch_s"] or 1.0
    out.update({
        "consolidation.merged_size_nodes": merged_size,
        "consolidation.skipped_pairs": len(report.skipped_pairs),
        "smt.solver_cache_hit_ratio": stats.get("cache_hits", 0) / max(1, stats.get("checks", 0)),
        "smt.unknowns": stats.get("unknowns", 0),
        "share.sp_invariants_of_consolidation": tracer.covered(("sp.", "invariants.")) / batch_s,
        "share.smt_of_consolidation": tracer.covered(("smt.",)) / batch_s,
        "share.naiad_lang_after_setup": tracer.covered(("naiad.", "lang.")) / exec_s,
    })
    return out


if __name__ == "__main__":
    print(json.dumps(run_rep(json.loads(sys.argv[1]))), flush=True)
