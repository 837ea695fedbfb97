"""A miniature timely-dataflow engine (the Naiad substitute; see DESIGN.md).

The paper implements its operators on Microsoft Naiad; the experiments only
need the slice of Naiad semantics those operators touch, which this module
provides faithfully:

* a dataflow *graph* of vertices connected by edges, built through the
  fluent API in :mod:`repro.naiad.linq`;
* *workers* that each own a partition of the input and push records through
  the graph — paralleling Naiad's data-parallel shards.  Workers keep a
  deterministic virtual clock in cost-model units (the paper's Figure 2
  cost semantics), and wall-clock time is measured around the run;
* per-record *IO* and per-operator *overhead* charges, so that "total time"
  and "UDF time" can be reported separately exactly as in Figure 9;
* a *notification* side-channel: a vertex may broadcast per-query booleans
  (the Naiad primitive the paper relies on for early result broadcast),
  which the engine routes into named result buckets.

Observability: pass a live :class:`repro.telemetry.Telemetry` to
:meth:`Dataflow.run` (normally via ``ExecutionConfig.telemetry``) and the
engine additionally records **per-operator** records in/out, wall time,
UDF cost and notification counts — both onto ``RunMetrics.per_operator``
for that run and into the telemetry registry
(``dataflow_operator_*{operator=...}`` series).  With the default no-op
telemetry the engine takes a separate, uninstrumented code path whose
overhead over the pre-telemetry engine is bounded by
``benchmarks/bench_telemetry_overhead.py`` (≤ 5%).

Determinism: given the same graph, input and worker count, a run produces
identical costs and outputs — which is what makes the benchmark harness
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Vertex",
    "Edge",
    "Dataflow",
    "Worker",
    "OperatorStats",
    "RunMetrics",
    "RunResult",
]


class Vertex:
    """A dataflow operator.

    Subclasses implement :meth:`process`, yielding output records, and
    report the cost of handling each record via ``last_cost`` (in
    cost-model units).  Vertices are wired by :class:`Dataflow`.
    """

    #: True when :meth:`ingest_batch` can replace per-record ``process``
    #: calls for this vertex (batch-buffering operators flip it on).
    accepts_batches = False

    #: True when ``process`` is the side-effect-free identity (yields its
    #: input, charges nothing beyond the push overhead).  Lets the engine
    #: forward a whole partition *through* this vertex to a downstream
    #: batch operator without the per-record push loop.
    passthrough = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.downstream: list["Vertex"] = []
        self.last_cost = 0

    def process(self, record: Any, worker: "Worker") -> Iterable[Any]:
        raise NotImplementedError

    def ingest_batch(self, records: Sequence[Any], worker: "Worker") -> None:
        """Buffer a whole partition slice at once (batch operators only).

        Only called when :attr:`accepts_batches` is true; must be
        observably identical to calling :meth:`process` per record for an
        operator whose ``process`` buffers and yields nothing.
        """

        raise NotImplementedError

    def on_flush(self, worker: "Worker") -> None:
        """Called once per worker after its partition is exhausted."""


@dataclass
class Edge:
    source: Vertex
    target: Vertex


@dataclass
class OperatorStats:
    """Per-operator accounting for one run (telemetry-enabled runs only)."""

    records_in: int = 0
    records_out: int = 0
    udf_cost: int = 0
    notifications: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "records_in": self.records_in,
            "records_out": self.records_out,
            "udf_cost": self.udf_cost,
            "notifications": self.notifications,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class RunMetrics:
    """Cost accounting for one dataflow run.

    ``udf_cost`` counts only the work done inside user-defined functions
    (Figure 2 units); ``total_cost`` adds IO and engine overhead.
    ``makespan`` is the maximum per-worker total — the virtual-time analogue
    of job completion time on a multi-worker cluster.

    ``per_operator`` maps operator name to an :class:`OperatorStats`; it is
    populated only when the run was handed a live telemetry (the per-record
    bookkeeping is skipped entirely otherwise).
    """

    udf_cost: int = 0
    io_cost: int = 0
    overhead_cost: int = 0
    wall_seconds: float = 0.0
    records: int = 0
    per_worker_total: list[int] = field(default_factory=list)
    per_worker_udf: list[int] = field(default_factory=list)
    per_operator: dict[str, OperatorStats] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        return self.udf_cost + self.io_cost + self.overhead_cost

    @property
    def makespan(self) -> int:
        return max(self.per_worker_total, default=0)

    @property
    def udf_makespan(self) -> int:
        return max(self.per_worker_udf, default=0)


@dataclass
class RunResult:
    metrics: RunMetrics
    buckets: dict[str, list[Any]]


class Worker:
    """One data-parallel shard with its own virtual clock."""

    def __init__(
        self, index: int, run: "_RunState", engine: "Dataflow | None" = None
    ) -> None:
        self.index = index
        self._run = run
        self._engine = engine
        self.total_clock = 0
        self.udf_clock = 0

    def charge_io(self, units: int) -> None:
        self.total_clock += units
        self._run.metrics.io_cost += units

    def charge_overhead(self, units: int) -> None:
        self.total_clock += units
        self._run.metrics.overhead_cost += units

    def charge_udf(self, units: int) -> None:
        self.total_clock += units
        self.udf_clock += units
        self._run.metrics.udf_cost += units

    def notify(self, bucket: str, record: Any) -> None:
        """Broadcast a record into a named result bucket (Naiad's notify)."""

        self._run.buckets.setdefault(bucket, []).append(record)

    def emit(self, vertex: Vertex, record: Any) -> None:
        """Push ``record`` to ``vertex``'s downstream operators.

        Batch-oriented operators (the vectorized backend) buffer their
        partition during :meth:`Vertex.process` and produce outputs from
        :meth:`Vertex.on_flush`, after the per-record push loop is over —
        this is their flush-time stand-in for yielding from ``process``.
        """

        engine = self._engine
        if engine is None:
            raise RuntimeError("worker is not bound to a dataflow engine")
        for child in vertex.downstream:
            engine._push(child, record, self)


class _TracedWorker(Worker):
    """A worker that additionally attributes UDF cost and notifications to
    the operator currently processing a record (``_op`` is maintained by
    the traced push loop).  Kept out of :class:`Worker` so the fast path
    pays nothing for the attribution hooks."""

    def __init__(
        self,
        index: int,
        run: "_RunState",
        engine: "Dataflow | None" = None,
        op_stats: "dict[str, OperatorStats] | None" = None,
    ) -> None:
        super().__init__(index, run, engine)
        self._op: OperatorStats | None = None
        self._op_stats = op_stats

    def charge_udf(self, units: int) -> None:
        super().charge_udf(units)
        if self._op is not None:
            self._op.udf_cost += units

    def notify(self, bucket: str, record: Any) -> None:
        super().notify(bucket, record)
        if self._op is not None:
            self._op.notifications += 1

    def emit(self, vertex: Vertex, record: Any) -> None:
        engine, op_stats = self._engine, self._op_stats
        if engine is None or op_stats is None:
            raise RuntimeError("worker is not bound to a dataflow engine")
        op_stats[vertex.name].records_out += 1
        # The traced push loop clobbers ``_op``; flush-time emission happens
        # while the emitting vertex's stats are installed, so restore them.
        saved = self._op
        for child in vertex.downstream:
            engine._push_traced(child, record, self, op_stats)
        self._op = saved


class _RunState:
    def __init__(self) -> None:
        self.metrics = RunMetrics()
        self.buckets: dict[str, list[Any]] = {}


class Dataflow:
    """A dataflow graph under construction, and its executor."""

    def __init__(
        self,
        io_cost_per_record: int = 25,
        overhead_per_operator: int = 2,
    ) -> None:
        self.io_cost_per_record = io_cost_per_record
        self.overhead_per_operator = overhead_per_operator
        self._vertices: list[Vertex] = []
        self._roots: list[Vertex] = []

    # -- graph construction ----------------------------------------------------

    def add_vertex(self, vertex: Vertex, upstream: Vertex | None = None) -> Vertex:
        self._vertices.append(vertex)
        if upstream is None:
            self._roots.append(vertex)
        else:
            upstream.downstream.append(vertex)
        return vertex

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._vertices)

    # -- execution ----------------------------------------------------------------

    def _partition(self, records: Sequence[Any], workers: int) -> list[list[Any]]:
        if workers == 1:
            return [list(records)]
        parts: list[list[Any]] = [[] for _ in range(workers)]
        for i, r in enumerate(records):
            parts[i % workers].append(r)
        return parts

    def run(
        self,
        records: Sequence[Any],
        workers: int = 4,
        telemetry=None,
    ) -> RunResult:
        """Push every record through the graph; deterministic cost clock.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry`, default no-op)
        switches the run onto the instrumented path: per-operator stats on
        the result's metrics, counters in the registry, and a
        ``dataflow.run`` span when tracing is on.
        """

        if workers < 1:
            raise ValueError("need at least one worker")
        if telemetry is not None and telemetry.enabled:
            return self._run_traced(records, workers, telemetry)

        state = _RunState()
        start = perf_counter()
        roots = self._roots
        push = self._push
        # A single batch-buffering root (the vectorized operators) takes
        # its partition in one call: same IO/overhead charges, no
        # per-record push loop.  Identity pass-through roots (the linq
        # source vertex) are walked over — each hop is one more overhead
        # charge per record, exactly what the push loop would have billed.
        batch_root = None
        batch_hops = 1
        if len(roots) == 1:
            node = roots[0]
            while node.passthrough and len(node.downstream) == 1:
                node = node.downstream[0]
                batch_hops += 1
            if node.accepts_batches:
                batch_root = node
        for index, part in enumerate(self._partition(records, workers)):
            worker = Worker(index, state, self)
            # IO charges and the record count are per-partition sums; batch
            # them so the per-record loop only pays for operator pushes.
            state.metrics.records += len(part)
            worker.charge_io(self.io_cost_per_record * len(part))
            if batch_root is not None:
                worker.charge_overhead(
                    self.overhead_per_operator * len(part) * batch_hops
                )
                batch_root.ingest_batch(part, worker)
            else:
                for record in part:
                    for root in roots:
                        push(root, record, worker)
            for vertex in self._vertices:
                vertex.on_flush(worker)
            state.metrics.per_worker_total.append(worker.total_clock)
            state.metrics.per_worker_udf.append(worker.udf_clock)
        state.metrics.wall_seconds = perf_counter() - start
        return RunResult(metrics=state.metrics, buckets=state.buckets)

    def _push(self, vertex: Vertex, record: Any, worker: Worker) -> None:
        # charge_overhead, inlined: this is the hottest call in a run.
        overhead = self.overhead_per_operator
        worker.total_clock += overhead
        worker._run.metrics.overhead_cost += overhead
        for output in vertex.process(record, worker):
            for child in vertex.downstream:
                self._push(child, output, worker)

    # -- instrumented execution --------------------------------------------------

    def _run_traced(self, records: Sequence[Any], workers: int, telemetry) -> RunResult:
        state = _RunState()
        op_stats: dict[str, OperatorStats] = {
            v.name: OperatorStats() for v in self._vertices
        }
        with telemetry.span("dataflow.run", workers=workers, records=len(records)) as span:
            start = perf_counter()
            for index, part in enumerate(self._partition(records, workers)):
                worker = _TracedWorker(index, state, self, op_stats)
                for record in part:
                    state.metrics.records += 1
                    worker.charge_io(self.io_cost_per_record)
                    for root in self._roots:
                        self._push_traced(root, record, worker, op_stats)
                for vertex in self._vertices:
                    worker._op = op_stats[vertex.name]
                    vertex.on_flush(worker)
                    worker._op = None
                state.metrics.per_worker_total.append(worker.total_clock)
                state.metrics.per_worker_udf.append(worker.udf_clock)
            state.metrics.wall_seconds = perf_counter() - start
            span.set("total_cost", state.metrics.total_cost)
            span.set("udf_cost", state.metrics.udf_cost)
        state.metrics.per_operator = op_stats
        self._record_metrics(state.metrics, op_stats, telemetry)
        return RunResult(metrics=state.metrics, buckets=state.buckets)

    def _push_traced(
        self,
        vertex: Vertex,
        record: Any,
        worker: _TracedWorker,
        op_stats: dict[str, OperatorStats],
    ) -> None:
        worker.charge_overhead(self.overhead_per_operator)
        stats = op_stats[vertex.name]
        stats.records_in += 1
        worker._op = stats
        t0 = perf_counter()
        # Materialising the generator keeps the timing exclusive to this
        # operator: children are pushed only after the clock stops.
        outputs = list(vertex.process(record, worker))
        stats.seconds += perf_counter() - t0
        worker._op = None
        stats.records_out += len(outputs)
        for output in outputs:
            for child in vertex.downstream:
                self._push_traced(child, output, worker, op_stats)

    @staticmethod
    def _record_metrics(metrics: RunMetrics, op_stats: dict, telemetry) -> None:
        registry = telemetry.metrics
        registry.counter("dataflow_runs_total").inc()
        registry.counter("dataflow_records_total").inc(metrics.records)
        registry.counter("dataflow_wall_seconds_total").inc(metrics.wall_seconds)
        registry.counter("dataflow_udf_cost_total").inc(metrics.udf_cost)
        for name, stats in op_stats.items():
            registry.counter("dataflow_operator_records_in_total", operator=name).inc(
                stats.records_in
            )
            registry.counter("dataflow_operator_records_out_total", operator=name).inc(
                stats.records_out
            )
            registry.counter("dataflow_operator_udf_cost_total", operator=name).inc(
                stats.udf_cost
            )
            registry.counter("dataflow_operator_seconds_total", operator=name).inc(
                stats.seconds
            )
            registry.counter(
                "dataflow_operator_notifications_total", operator=name
            ).inc(stats.notifications)
