"""The benchmark's workloads and the seeded inputs they are built from.

Each workload is one query family at one data size; the program sees
only the dataset and the UDF batches built here.  Why each workload exists
is recorded in ``BENCHMARK.json`` and ``README.md``.

``batch_loops`` uses 16 UDFs, not the paper's 50: one 50-UDF Weather Q3
batch consolidates in 12-14 s on a 2-vCPU virtual machine, so a run could
hold a single cold repetition.  At 16 a run holds several fresh
repetitions of each of its seeded batches, and SP plus invariant inference
still hold most of the consolidation time.

``inputs`` is the number of seeded batches (standing sets, on the
service) a run draws; see ``stats.best_per_input``.
"""

from __future__ import annotations

# ``epochs`` distinct epochs of ``epoch_rows`` rows each run ``passes``
# times per backend, and each epoch keeps its fastest pass (see
# ``rep.measure_plan``).
WORKLOADS = {
    "batch_loops": {
        "kind": "batch",
        "domain": "weather",
        "family": "Q3",
        "n": 16,
        "inputs": 3,
        "size": 25,  # cities, as make_datasets(0.05)
        "epoch_rows": 5,
        "epochs": 5,
        "passes": {"compiled": 100, "vectorized": 12},
        "wall_rows": None,
        "wall_pairs": 6,
        "check_rows": 25,
    },
    "service_churn": {
        "kind": "service",
        "domain": "weather",
        "family": "Q1",
        "standing": 12,
        "inputs": 6,
        "cold_starts": 30,
        "read_rows": 32,
        "epoch_rows": 20,
        "epochs": 5,
        "passes": {"compiled": 20, "vectorized": 10},
        "wall_rows": None,
        "wall_pairs": 10,
        "churn_writes_per_s": 2,  # of --seconds: 55 s give 110 writes
        # A 98/2 read/write mix: about 2% of reads wait behind a write, so
        # read_p99_ms sits mid-way through those waits, clear of both modes.
        "reads_per_write": 49,
    },
}

# ``repro serve --domain weather`` builds its function table from this
# dataset; the load generator rebuilds the same one for its references.
SERVICE_CITIES = 100


def make_dataset(workload: dict):
    """Generate the workload's dataset (deterministic for a given size)."""

    from repro import datasets

    domain, size = workload["domain"], workload.get("size", SERVICE_CITIES)
    if domain == "weather":
        return datasets.generate_weather(cities=size)
    if domain == "twitter":
        return datasets.generate_twitter(tweets=size)
    raise ValueError(f"no dataset for domain {domain!r}")


def batch_seed(seed: int, rep: int) -> int:
    """The ``make_batch`` seed of repetition ``rep`` in a run seeded ``seed``."""

    return seed * 1000 + rep
