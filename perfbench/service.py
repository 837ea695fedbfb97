"""The ``service_churn`` workload: a live ``repro serve`` under query churn.

The load generator is this process.  It builds ``inputs`` seeded pools of
Weather Q1 queries, each pool's first ``standing`` queries a standing set,
and their reference results on the ``interp`` backend, then:

1. cold-starts the server ``cold_starts`` times, cycling over the standing
   sets; each start registers the set over HTTP and runs it once over every
   row (``time_to_results_s``), then fetches the merged plan the service
   built and measures it in this process with ``rep.measure_plan``, as the
   batch workload measures its own (``exec_records_per_s.*``,
   ``wall_speedup``);
2. keeps the last server and drives it with two threads on their own
   connections, for ``churn_writes_per_s`` writes per second of
   ``seconds``: a closed-loop reader that posts ``/v1/run`` over a fixed
   row batch and checks every returned bucket, and a writer that
   alternately unregisters a random standing query and registers a random
   pool query, one write per ``reads_per_write`` reads.

The server is a long-lived process on purpose: a real service runs warm.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

from rep import measure_plan
from stats import best_per_input, best_ratio_per_input, percentile
from workloads import batch_seed, make_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERVING = re.compile(r"serving on http://[\d.]+:(\d+)")
START_TIMEOUT_S = 60
CHURN_TIMEOUT_S = 120


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, traced_out: Path | None = None) -> None:
        serve = ["serve", "--domain", "weather", "--port", "0"]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), "--out", str(traced_out),
                   "--spans", str(traced_out.with_suffix(".spans.jsonl")), "--", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True, env=env)
        self.port = None
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = SERVING.search(line)
                if match:
                    self.port = int(match.group(1))
                    break
            if self.port is None:
                raise RuntimeError("repro serve did not report its port")
        except BaseException:  # the caller never gets this server to stop
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_service(workload: dict, seed: int, seconds: float, trace: bool, out_base: Path) -> dict:
    from repro.config import ExecutionConfig
    from repro.lang.parser import parse_program
    from repro.lang.printer import program_to_str
    from repro.naiad import linq
    from repro.queries import DOMAIN_QUERIES
    from repro.service import Client, ServiceError

    started = time.perf_counter()
    dataset = make_dataset(workload)
    generate_s = time.perf_counter() - started
    rows = random.Random(seed).sample(dataset.rows, workload["read_rows"])
    rounds = []
    for index in range(workload["inputs"]):
        pool = DOMAIN_QUERIES["weather"].make_batch(
            dataset, workload["family"], n=2 * workload["standing"],
            seed=batch_seed(seed, index),
        )
        reference, first_reference = (linq.run_where_many(
            batch, pool, dataset.functions, config=ExecutionConfig(backend="interp")
        ).buckets for batch in (rows, dataset.rows))
        standing = pool[: workload["standing"]]
        many_cost = linq.run_where_many(dataset.rows, standing, dataset.functions).metrics.udf_cost
        rounds.append((pool, reference, first_reference, many_cost))
    # Pools and references serve every cold start; each is charged its share.
    client_setup_s = (time.perf_counter() - started) / workload["cold_starts"]

    counts = {"attempted": 0, "failed": 0}
    lock = threading.Lock()

    def record(ok: bool) -> None:
        with lock:
            counts["attempted"] += 1
            counts["failed"] += not ok

    def matches(buckets, reference, known, expected) -> bool:
        """Only known queries answer, each with its own interp result."""

        return set(buckets) <= known and all(
            buckets.get(pid, []) == reference.get(pid, []) for pid in expected
        )

    # Cold starts cycle over the seeded standing sets: set-up, the fill and
    # first run over HTTP (time to results), then the plan the service
    # built.  Samples are (standing set, value) pairs, as in run.py.
    samples: dict[str, list] = {name: [] for name in (
        "setup_s", "time_to_results_s", "traced_ttr_s", "udf_cost_speedup", "wall_many_s",
        "wall_cons_s", "exec_records_per_s.compiled", "exec_records_per_s.vectorized")}
    server = None
    parsed: dict[str, object] = {}
    try:
        for index in range(workload["cold_starts"]):
            key = index % len(rounds)
            pool, _, first_reference, many_cost = rounds[key]
            # A traced run keeps the first start of each set untraced, to
            # compare against.
            traced_here = trace and index >= len(rounds)
            if server is not None:
                server.stop()
            server = Server(out_base.with_suffix(".server.json") if traced_here else None)
            client = Client(port=server.port)
            standing = pool[: workload["standing"]]
            t0 = time.perf_counter()
            for program in standing:
                client.register(program_to_str(program))
            first = client.run(dataset.rows)
            ttr_s = time.perf_counter() - t0
            samples["traced_ttr_s" if traced_here else "time_to_results_s"].append((key, ttr_s))
            samples["setup_s"].append((key, client_setup_s + server.start_s))
            samples["udf_cost_speedup"].append((key, many_cost / max(1, first.udf_cost)))
            record(matches(first.buckets, first_reference, {p.pid for p in pool},
                           [p.pid for p in standing]))
            plan = client.plan()
            # The consolidator names the plan and its locals after their inputs
            # ("q1&q2.q1.t0"), which the parser does not accept as identifiers;
            # "&" and "." occur nowhere else in printed programs, and notify
            # targets keep their names.  Each plan text is parsed once: a
            # re-parsed copy of a plan already run in this process runs
            # slower than the first object (about 120 us a call, not 90).
            text = re.sub(r"[&.]", "_", plan.program)
            if text not in parsed:
                parsed[text] = parse_program(text)
            merged = parsed[text]
            measured = measure_plan(merged, list(plan.pids), standing, dataset.functions,
                                    dataset.rows, workload, random.Random(batch_seed(seed, key)))
            counts["attempted"] += measured["attempted"]
            counts["failed"] += measured["failed"]
            for name in ("wall_many_s", "wall_cons_s", "exec_records_per_s.compiled",
                         "exec_records_per_s.vectorized"):
                samples[name].append((key, measured[name]))

        # Churn on the last server: one writer and one reader, each on its
        # own client.  Newcomers come from every standing set's pool, so one
        # run's writes span many standing-set shapes; pids repeat across
        # pools ("q0"...), so the other pools are renamed apart.
        sources, reference = {}, {}
        for index, (pool, round_reference, _, _) in enumerate(rounds):
            prefix = "" if index == key else f"c{index}"
            for program in pool:
                pid = prefix + program.pid
                sources[pid] = re.sub(rf"\b{program.pid}\b", pid, program_to_str(program))
                reference[pid] = round_reference.get(program.pid, [])
        live = {p.pid for p in rounds[key][0][: workload["standing"]]}
        idle = [pid for pid in sources if pid not in live]
        reads_ms, writes_ms = [], []
        writer_rng = random.Random(seed)
        # A fixed count of operations, not a fixed time: a slow stretch of the
        # host then stretches the churn instead of changing how much of it a
        # run sees (the server's peak RSS grows with the writes it serves).
        swaps = round(workload["churn_writes_per_s"] * seconds / 2)

        # A fixed operation mix: the reader grants the writer one write per
        # ``reads_per_write`` reads, so the share of reads that wait behind a
        # write is set by the mix, not by how fast either side happens to run.
        write_grants = threading.Semaphore(0)
        writer_done = threading.Event()

        def granted() -> bool:
            while not write_grants.acquire(timeout=0.1):
                if not threads[1].is_alive():
                    return False
            return True

        def writer() -> None:
            client = Client(port=server.port)
            try:
                for _ in range(swaps):
                    victim = writer_rng.choice(sorted(live))
                    newcomer = writer_rng.choice(sorted(idle))
                    for action, pid in (("unregister", victim), ("register", newcomer)):
                        if not granted():
                            return
                        t0 = time.perf_counter()
                        try:
                            if action == "unregister":
                                client.unregister(pid)
                                live.discard(pid)
                                idle.append(pid)
                            else:
                                client.register(sources[pid])
                                idle.remove(pid)
                                live.add(pid)
                            ok = True
                        except (ServiceError, HTTPException, OSError):
                            ok = False
                        writes_ms.append((time.perf_counter() - t0) * 1000.0)
                        record(ok)
            finally:
                writer_done.set()

        def reader() -> None:
            client = Client(port=server.port)
            while not writer_done.is_set():
                t0 = time.perf_counter()
                try:
                    buckets = client.run(rows).buckets
                    ok = matches(buckets, reference, set(sources), list(buckets))
                except (ServiceError, HTTPException, OSError):
                    ok = False
                reads_ms.append((time.perf_counter() - t0) * 1000.0)
                record(ok)
                if len(reads_ms) % workload["reads_per_write"] == 0:
                    write_grants.release()

        threads = [threading.Thread(target=writer, daemon=True),
                   threading.Thread(target=reader, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHURN_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("a load-generator thread did not finish")
        if len(writes_ms) != 2 * swaps:
            raise RuntimeError(f"churn made {len(writes_ms)} of {2 * swaps} writes")

        service_stats = Client(port=server.port).metrics() if trace else {}
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # One sample per cold start for most metrics; report() summarises them.
    result = dict(samples)
    result["wall_speedup"] = best_ratio_per_input(result.pop("wall_many_s"),
                                                  result.pop("wall_cons_s"))
    result.update({
        "read_p50_ms": percentile(reads_ms, 0.50),
        "read_p99_ms": percentile(reads_ms, 0.99),
        "write_p50_ms": percentile(writes_ms, 0.50),
        "write_p90_ms": percentile(writes_ms, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "samples": {"inputs": len(rounds), "cold_starts": workload["cold_starts"],
                    "read": len(reads_ms), "write": len(writes_ms)},
        **counts,
    })
    if trace:
        import json

        doc = json.loads(out_base.with_suffix(".server.json").read_text(encoding="utf-8"))
        layers = doc["layers"]
        hits = service_stats.get("plan_cache_hits", 0)
        misses = service_stats.get("plan_cache_misses", 0)
        layers.update({
            "datasets.generate_s": generate_s,
            "service.pair_merges": service_stats.get("pair_merges_total", 0),
            "service.full_rebuilds": service_stats.get("full_rebuilds", 0),
            "service.plan_cache_hit_ratio": hits / max(1, hits + misses),
            "tracing.overhead_s": (best_per_input(samples["traced_ttr_s"], "lower")
                                   - best_per_input(samples["time_to_results_s"], "lower")),
        })
        result["layers"] = layers
        result["folded"] = doc["folded"]
    return result
