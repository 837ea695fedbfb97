"""Determinism self-test of the benchmark's inputs and deterministic counts.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_determinism.py

Two fresh-interpreter repetitions of the batch workload at one seed must
agree exactly on the counts the program makes deterministically, and on
the cost-clock speedup; a different seed must change the generated batch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import HASH_SEED  # noqa: E402
from workloads import WORKLOADS, batch_seed, make_dataset  # noqa: E402

DETERMINISTIC = [
    "smt.is_sat_calls",
    "sp.assign_calls",
    "consolidation.pair_merges",
    "consolidation.merged_size_nodes",
]


def _traced_rep(workload: str, seed: int) -> dict:
    spec = {"workload": workload, "seed": seed, "input": 0, "trace": True}
    done = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["batch_loops"])
def test_fresh_repetitions_agree(workload):
    first, second = _traced_rep(workload, 7), _traced_rep(workload, 7)
    assert first["failed"] == second["failed"] == 0
    assert first["udf_cost_speedup"] == second["udf_cost_speedup"]
    for name in DETERMINISTIC:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["smt.is_sat_calls"] > 0


@pytest.mark.parametrize("workload", ["batch_loops", "service_churn"])
def test_seed_changes_the_batch(workload):
    from repro.lang.printer import program_to_str
    from repro.queries import DOMAIN_QUERIES

    spec = WORKLOADS[workload]
    dataset = make_dataset(spec)
    n = spec["n"] if "n" in spec else 2 * spec["standing"]

    def batch(seed):
        programs = DOMAIN_QUERIES[spec["domain"]].make_batch(
            dataset, spec["family"], n=n, seed=batch_seed(seed, 0)
        )
        return [program_to_str(p) for p in programs]

    assert batch(7) == batch(7)
    assert batch(7) != batch(8)
