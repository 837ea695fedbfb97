"""Dataflow operators, including the paper's new LINQ operators.

The two that matter for the evaluation (Section 6.1):

* :class:`WhereMany` — the fair baseline: one operator holding *n* UDFs,
  reading each record **once** and running every UDF on it sequentially.
  (Running n separate queries would also multiply the IO; the paper
  deliberately compares against whereMany so that only UDF computation is
  measured.)
* :class:`WhereConsolidated` — holds the single merged UDF produced by
  :func:`repro.consolidation.divide_conquer.consolidate_all` and runs it
  once per record, demultiplexing the broadcast notifications into the
  same per-query buckets whereMany fills.

Both route a record into bucket ``pid`` whenever query ``pid`` accepts it,
so downstream consumers cannot tell them apart — equivalence is asserted by
the test-suite and the harness.

Every Where operator takes the query's :class:`repro.config.ExecutionConfig`
and builds each UDF's runner, prefilter guard and vectorized plan from it
through one helper (:func:`_udf_plan`), so the backend, cost model and
telemetry of a run are those of its config and nothing else.

With ``config.prefilter`` the Where operators synthesize a sound
reject-early guard (:mod:`repro.analysis.prefilter`) per UDF at
construction time and evaluate it first on every record: a row the guard
rejects provably notifies nobody, so the full UDF is skipped and only the
guard's (much smaller) cost is charged.  Guards fail open — any synthesis
or runtime problem means "no guard", never a changed bucket.  The
rejection counts surface as ``prefilter_checked_total`` /
``prefilter_rejected_total`` counters and a ``prefilter_selectivity``
gauge when telemetry is enabled.
"""

from __future__ import annotations

from itertools import compress
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..config import ExecutionConfig
from ..lang.ast import Program
from ..lang.compile import make_runner
from ..lang.functions import FunctionTable
from ..lang.vectorize import columns_from_records, vectorize_cached
from .dataflow import Vertex, Worker

__all__ = [
    "Where",
    "WhereMany",
    "WhereConsolidated",
    "Select",
    "Count",
    "Collect",
]


def _bind_args(program: Program, record: Any) -> dict[str, Any]:
    """Bind a record to a single-parameter UDF (the row handle)."""

    if len(program.params) != 1:
        raise ValueError(f"UDF {program.pid} must take exactly the row handle")
    return {program.params[0]: record}


# Shared by operators built without a config; frozen, so safe to share.
_DEFAULT_CONFIG = ExecutionConfig()


def _vector_guard(guard, program, functions, cost_model, telemetry):
    """The column-mask form of a prefilter guard (None = use per-row)."""

    if guard is None:
        return None
    try:
        from ..analysis.prefilter import prefilter_program

        wrapper = prefilter_program(guard.prefilter, program)
        vg = vectorize_cached(wrapper, functions, cost_model, telemetry=telemetry)
        return vg if vg.vectorized else None
    except Exception:  # noqa: BLE001 - the per-row guard still applies
        return None


def _udf_plan(program: Program, functions: FunctionTable, config: ExecutionConfig):
    """Everything one UDF needs to run under ``config``.

    Returns ``(runner, guard, vp, vguard)``: the per-record runner, the
    prefilter guard (``None`` unless ``config.prefilter`` synthesized a
    usable one), and — under the vectorized backend only — the column
    plan and the column form of the guard.
    """

    cost_model = config.cost_model
    backend = config.backend
    telemetry = config.telemetry
    guard = None
    if config.prefilter:
        from ..analysis.prefilter import make_guard

        guard = make_guard(
            program, functions, cost_model, backend=backend, telemetry=telemetry
        )
    runner = make_runner(
        program,
        functions,
        cost_model,
        backend=backend,
        memoize_calls=config.memoize_calls,
        telemetry=telemetry,
        profiler=config.profiler,
    )
    vp = vguard = None
    if backend == "vectorized":
        vp = vectorize_cached(
            program,
            functions,
            cost_model,
            memoize_calls=config.memoize_calls,
            telemetry=telemetry,
        )
        vguard = _vector_guard(guard, program, functions, cost_model, telemetry)
    return runner, guard, vp, vguard


class _PrefilterMixin:
    """Shared rejection bookkeeping for the Where operators."""

    _telemetry = None
    _pre_checked = 0
    _pre_rejected = 0

    def _reject(self, guard, args: Mapping[str, Any], worker: Worker) -> bool:
        """Evaluate ``guard``; True when the record is provably a no-op."""

        passes, cost = guard(args)
        self._pre_checked += 1
        worker.charge_udf(cost)
        if passes:
            return False
        self._pre_rejected += 1
        return True

    def on_flush(self, worker: Worker) -> None:
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled or not self._pre_checked:
            return
        telemetry.counter("prefilter_checked_total").inc(self._pre_checked)
        telemetry.counter("prefilter_rejected_total").inc(self._pre_rejected)
        telemetry.gauge("prefilter_selectivity").set(
            1.0 - self._pre_rejected / self._pre_checked
        )
        self._pre_checked = 0
        self._pre_rejected = 0


class _VectorMixin(_PrefilterMixin):
    """Batch buffering + flush-time kernel execution for the Where operators.

    Under ``backend="vectorized"`` the operator buffers its worker's
    partition during :meth:`process` and executes it as one struct-of-
    arrays batch from :meth:`on_flush` — which the engine runs *before*
    capturing per-worker clocks, so batch-time charges land in exactly the
    per-worker totals row-at-a-time execution produces.  IO and operator
    overhead are still charged per record by the engine's push loop, so
    only UDF evaluation changes execution strategy.
    """

    _pending: "dict[int, list] | None" = None
    # Profiling hooks (None when off — the batch path then pays a single
    # attribute check per flush, nothing per record).
    _profiler = None
    _functions = None

    @property
    def accepts_batches(self) -> bool:
        return self._vectorized

    def ingest_batch(self, records: Sequence[Any], worker: Worker) -> None:
        pending = self._pending
        if pending is None:
            pending = self._pending = {}
        bucket = pending.get(worker.index)
        if bucket is None:
            pending[worker.index] = list(records)
        else:
            bucket.extend(records)

    def _buffer(self, record: Any, worker: Worker) -> None:
        pending = self._pending
        if pending is None:
            pending = self._pending = {}
        pending.setdefault(worker.index, []).append(record)

    def _drain(self, worker: Worker) -> list:
        pending = self._pending
        if not pending:
            return []
        return pending.pop(worker.index, [])

    def _apply_guard(self, vguard, guard, program, records, worker) -> list:
        """φ as a batch-compacting mask, with the row guard's exact books.

        The vectorized φ wrapper runs over the whole batch; any problem
        (kernel degrade *and* fallback error alike) re-runs the guard
        per row through :class:`PrefilterGuard`, whose fail-open contract
        then applies record by record.  Checked/rejected counts and the
        charged guard cost are identical to row-at-a-time execution.
        """

        if guard is None:
            return records
        from ..analysis.prefilter import PREFILTER_PID

        verdicts = None
        if vguard is not None:
            try:
                batch = vguard.run_batch(
                    columns_from_records(program, records), len(records)
                )
                verdicts = []
                for i in range(len(records)):
                    try:
                        verdicts.append(
                            (bool(batch.notification(PREFILTER_PID, i)), batch.costs[i])
                        )
                    except KeyError:
                        verdicts.append((True, 0))  # fail open, like the row guard
            except Exception:  # noqa: BLE001 - guard problems fail open per row
                verdicts = None
        keep = []
        if verdicts is None:
            for record in records:
                if not self._reject(guard, _bind_args(program, record), worker):
                    keep.append(record)
            return keep
        for record, (passes, cost) in zip(records, verdicts):
            self._pre_checked += 1
            worker.charge_udf(cost)
            if passes:
                keep.append(record)
            else:
                self._pre_rejected += 1
        return keep

    def _run_batch(self, vp, program, records, worker):
        """Execute one batch and charge its exact total UDF cost.

        With a live profiler attached the whole batch is a sampling
        candidate: one ``perf_counter`` span around the kernel run, total
        seconds and total cost against ``records × per-record`` units
        (see :meth:`repro.profiling.Profiler.record_batch`).
        """

        if not records:
            return None
        profiler = self._profiler
        if profiler is not None and profiler.enabled:
            started = perf_counter()
            batch = vp.run_batch(
                columns_from_records(program, records), len(records)
            )
            elapsed = perf_counter() - started
            cost = sum(batch.costs)
            worker.charge_udf(cost)
            profiler.record_batch(
                program, self._functions, elapsed, cost, len(records)
            )
            return batch
        batch = vp.run_batch(columns_from_records(program, records), len(records))
        worker.charge_udf(sum(batch.costs))
        return batch

    @staticmethod
    def _notified(batch, pid, records):
        """The records that broadcast a truthy value on ``pid``.

        One scan of the mask and value columns, with row-mode error
        parity: ``result.notification(pid)`` raises ``KeyError`` on a
        record that never notified, so the scan does too — at the same
        record position the row-at-a-time loop would.  A wholesale-
        committed pid shares the batch's all-true mask (identity check),
        where the scan collapses to a C-level compress."""

        mask = batch.present.get(pid)
        if mask is None:
            if records:
                raise KeyError(pid)
            return ()
        if mask is batch.full_mask and len(records) == batch.n:
            return compress(records, batch.values[pid])

        def scan():
            for record, hit, value in zip(records, mask, batch.values[pid]):
                if not hit:
                    raise KeyError(pid)
                if value:
                    yield record

        return scan()


class Where(_VectorMixin, Vertex):
    """A single-UDF filter: passes records the UDF accepts."""

    def __init__(
        self,
        program: Program,
        functions: FunctionTable,
        config: ExecutionConfig = _DEFAULT_CONFIG,
    ) -> None:
        super().__init__(f"where[{program.pid}]")
        self.program = program
        self._telemetry = config.telemetry
        self._profiler = config.profiler
        self._functions = functions
        self._vectorized = config.backend == "vectorized"
        self.runner, self.guard, self._vp, self._vguard = _udf_plan(
            program, functions, config
        )

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        if self._vectorized:
            self._buffer(record, worker)
            return
        args = _bind_args(self.program, record)
        if self.guard is not None and self._reject(self.guard, args, worker):
            return
        result = self.runner(args)
        worker.charge_udf(result.cost)
        if result.notification(self.program.pid):
            yield record

    def on_flush(self, worker: Worker) -> None:
        if self._vectorized:
            records = self._drain(worker)
            if records:
                kept = self._apply_guard(
                    self._vguard, self.guard, self.program, records, worker
                )
                batch = self._run_batch(self._vp, self.program, kept, worker)
                if batch is not None:
                    for record in self._notified(batch, self.program.pid, kept):
                        worker.emit(self, record)
        super().on_flush(worker)


class WhereMany(_VectorMixin, Vertex):
    """The sequential baseline: run every UDF on every record."""

    def __init__(
        self,
        programs: Sequence[Program],
        functions: FunctionTable,
        config: ExecutionConfig = _DEFAULT_CONFIG,
    ) -> None:
        super().__init__(f"whereMany[{len(programs)}]")
        if not programs:
            raise ValueError("whereMany needs at least one UDF")
        self.programs = list(programs)
        self._telemetry = config.telemetry
        self._profiler = config.profiler
        self._functions = functions
        self._vectorized = config.backend == "vectorized"
        plans = [_udf_plan(p, functions, config) for p in self.programs]
        self.runners = [plan[0] for plan in plans]
        guards = [plan[1] for plan in plans]
        # None when no guard is usable: the row loop then skips the lookup.
        self.guards = guards if any(g is not None for g in guards) else None
        self._vps = [plan[2] for plan in plans]
        self._vguards = [plan[3] for plan in plans]

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        if self._vectorized:
            self._buffer(record, worker)
            return ()
        guards = self.guards
        for index, (program, runner) in enumerate(zip(self.programs, self.runners)):
            args = _bind_args(program, record)
            if guards is not None:
                guard = guards[index]
                if guard is not None and self._reject(guard, args, worker):
                    continue
            result = runner(args)
            worker.charge_udf(result.cost)
            if result.notification(program.pid):
                worker.notify(program.pid, record)
        return ()

    def on_flush(self, worker: Worker) -> None:
        if self._vectorized:
            records = self._drain(worker)
            if records:
                for index, (program, vp) in enumerate(zip(self.programs, self._vps)):
                    guard = self.guards[index] if self.guards is not None else None
                    kept = self._apply_guard(
                        self._vguards[index], guard, program, records, worker
                    )
                    batch = self._run_batch(vp, program, kept, worker)
                    if batch is None:
                        continue
                    pid = program.pid
                    for record in self._notified(batch, pid, kept):
                        worker.notify(pid, record)
        super().on_flush(worker)


class WhereConsolidated(_VectorMixin, Vertex):
    """The consolidated operator: one merged UDF, all results broadcast."""

    def __init__(
        self,
        merged: Program,
        pids: Sequence[str],
        functions: FunctionTable,
        config: ExecutionConfig = _DEFAULT_CONFIG,
    ) -> None:
        super().__init__(f"whereConsolidated[{len(pids)}]")
        self.merged = merged
        self.pids = list(pids)
        self._telemetry = config.telemetry
        self._profiler = config.profiler
        self._functions = functions
        self._vectorized = config.backend == "vectorized"
        self.runner, self.guard, self._vp, self._vguard = _udf_plan(
            merged, functions, config
        )

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        if self._vectorized:
            self._buffer(record, worker)
            return ()
        args = _bind_args(self.merged, record)
        if self.guard is not None and self._reject(self.guard, args, worker):
            return ()
        result = self.runner(args)
        worker.charge_udf(result.cost)
        for pid in self.pids:
            if result.notification(pid):
                worker.notify(pid, record)
        return ()

    def on_flush(self, worker: Worker) -> None:
        if self._vectorized:
            records = self._drain(worker)
            if records:
                kept = self._apply_guard(
                    self._vguard, self.guard, self.merged, records, worker
                )
                batch = self._run_batch(self._vp, self.merged, kept, worker)
                if batch is not None:
                    for pid in self.pids:
                        for record in self._notified(batch, pid, kept):
                            worker.notify(pid, record)
        super().on_flush(worker)


class FlatMap(Vertex):
    """Expand each record into zero or more records (Naiad's SelectMany).

    The per-record cost is ``base_cost + unit_cost * len(output)``, which
    models the traversal the expansion performs.
    """

    def __init__(
        self,
        fn: Callable[[Any], Iterable[Any]],
        base_cost: int = 5,
        unit_cost: int = 1,
        name: str = "flatMap",
    ) -> None:
        super().__init__(name)
        self.fn = fn
        self.base_cost = base_cost
        self.unit_cost = unit_cost

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        outputs = list(self.fn(record))
        worker.charge_udf(self.base_cost + self.unit_cost * len(outputs))
        return outputs


class CountByKey(Vertex):
    """A keyed counting sink: bucket ``name`` receives per-worker dicts.

    This is the aggregation at the heart of the Naiad tutorial's WordCount
    (which the paper's News Q1 family is modelled after); final per-key
    counts are obtained by summing the per-worker partial dictionaries,
    exactly as a data-parallel engine would combine its shards.
    """

    def __init__(self, bucket: str = "counts", cost_per_record: int = 2) -> None:
        super().__init__(f"countByKey[{bucket}]")
        self.bucket = bucket
        self.cost_per_record = cost_per_record
        self._partials: dict[int, dict[Any, int]] = {}

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.charge_udf(self.cost_per_record)
        table = self._partials.setdefault(worker.index, {})
        table[record] = table.get(record, 0) + 1
        return ()

    def on_flush(self, worker: Worker) -> None:
        partial = self._partials.pop(worker.index, None)
        if partial is not None:
            worker.notify(self.bucket, partial)

    @staticmethod
    def combine(partials: Iterable[dict]) -> dict:
        """Sum per-worker partial counts into the final table."""

        totals: dict[Any, int] = {}
        for partial in partials:
            for key, count in partial.items():
                totals[key] = totals.get(key, 0) + count
        return totals


class Select(Vertex):
    """A projection with a fixed per-record cost."""

    def __init__(self, fn: Callable[[Any], Any], cost: int = 3, name: str = "select") -> None:
        super().__init__(name)
        self.fn = fn
        self.cost = cost

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.charge_udf(self.cost)
        yield self.fn(record)


class Count(Vertex):
    """A counting sink feeding bucket ``name`` with the final count."""

    def __init__(self, bucket: str = "count") -> None:
        super().__init__(f"count[{bucket}]")
        self.bucket = bucket
        self._counts: dict[int, int] = {}

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        self._counts[worker.index] = self._counts.get(worker.index, 0) + 1
        return ()

    def on_flush(self, worker: Worker) -> None:
        if worker.index in self._counts:
            worker.notify(self.bucket, self._counts.pop(worker.index))


class Collect(Vertex):
    """A sink storing every record it sees into bucket ``name``."""

    def __init__(self, bucket: str = "out") -> None:
        super().__init__(f"collect[{bucket}]")
        self.bucket = bucket

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.notify(self.bucket, record)
        return ()
