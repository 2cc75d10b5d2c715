"""Per-layer tracing from outside the program.

The traced run wraps public functions of the program's modules, records
one span per call (name, start, end, parent, round) in memory, and
reduces the spans to each layer's self time and call count when the run
ends.  Nothing under ``src/`` is edited: the wrappers are installed on
the module attributes and class methods the program itself looks up at
call time (for example ``repro.stats.chi2.inverse_regularized_lower_gamma``,
which ``chi2`` imported by name from ``repro.stats.special``).

A span's *round* is the ``(session, step)`` key of the client operation
that caused it.  The client opens a root span per operation; a service
call made on another thread (the HTTP server's request pool) finds its
root through the session id it was called with.  Work done on threads
that serve no single round (the batching dispatcher) is recorded with
no round and no parent; its time is credited to the requests that
waited on it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.kernels as kernels_module
import repro.core.merging as merging_module
import repro.stats.chi2 as chi2_module
import repro.stats.fdist as fdist_module
from repro.clustering.agglomerative import AgglomerativeClusterer
from repro.core.classifier import BayesianClassifier
from repro.core.merging import ClusterMerger
from repro.index.hybridtree import HybridTree
from repro.parallel.workers import ShardWorkerPool
from repro.service import engine as engine_module
from repro.service.batching import BatchingExecutor
from repro.service.engine import RetrievalService

#: Span-name prefixes of each layer group; a round's largest share is
#: the group with the most self time.
LAYER_GROUPS = {
    "control_plane": ("stats.", "core.merging.", "core.classifier.", "clustering."),
    "tree_index": ("index.",),
    "shard_scan": ("core.progressive.", "core.kernels.", "parallel."),
    "batching": ("service.batching.",),
    "client_http": ("client.",),
    "sessions": ("service.sessions.",),
    "engine": ("service.engine",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "counts")

    def __init__(self, name: str, parent: Optional["Span"], round_key) -> None:
        self.name = name
        self.parent = parent
        self.round = round_key
        self.counts: Dict[str, float] = {}
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: session id -> open client span, for cross-thread parenting.
        self._client_spans: Dict[str, Span] = {}
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- span plumbing -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None, round_key=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if round_key is None and parent is not None:
            round_key = parent.round
        span = Span(name, parent, round_key)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def client_op(self, name: str, session_id: str, round_key) -> "_ClientOp":
        """Root span of one client operation on ``session_id``."""
        return _ClientOp(self, name, session_id, round_key)

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[Any], Dict[str, float]]] = None,
        session_arg: bool = False,
    ) -> None:
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            parent = None
            if session_arg and not recorder._stack():
                session_id = kwargs.get("session_id", args[1] if len(args) > 1 else None)
                parent = recorder._client_spans.get(session_id)
            span = recorder.open(name, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                span.counts = count(result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_pool_submit(self) -> None:
        """Time each worker task from submit to result (its round trip)
        and read the rows it refined off the returned tuple."""
        original = ShardWorkerPool.submit
        recorder = self

        def submit(pool, *args, **kwargs):
            if not recorder.enabled:
                return original(pool, *args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = Span("parallel.workers.round_trip", parent, parent.round if parent else None)
            future = original(pool, *args, **kwargs)

            def done(fut) -> None:
                span.end = time.perf_counter()
                if not fut.cancelled() and fut.exception() is None:
                    result = fut.result()
                    span.counts = {"pruned": result[2], "refined": result[3], "tasks": 1}
                with recorder._lock:
                    recorder.spans.append(span)

            future.add_done_callback(done)
            return future

        self._originals.append((ShardWorkerPool, "submit", original))
        ShardWorkerPool.submit = submit

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        self.wrap(chi2_module, "inverse_regularized_lower_gamma", "stats.quantile")
        self.wrap(fdist_module, "inverse_regularized_incomplete_beta", "stats.quantile")
        self.wrap(ClusterMerger, "merge", "core.merging.merge")
        self.wrap(merging_module, "pairwise_merge_test", "core.merging.pair_test")
        self.wrap(BayesianClassifier, "assign", "core.classifier.assign")
        self.wrap(BayesianClassifier, "prepare", "core.classifier.prepare")
        self.wrap(AgglomerativeClusterer, "fit", "clustering.agglomerative.fit")
        self.wrap(
            HybridTree,
            "knn",
            "index.hybridtree.search",
            count=lambda result: {
                "node_accesses": result.cost.node_accesses,
                "refined": result.cost.distance_evaluations,
            },
        )
        self.wrap(kernels_module, "compile_query", "core.kernels.compile")
        scan_counts = lambda result: {"pruned": result[2], "refined": result[3]}  # noqa: E731
        self.wrap(engine_module, "scan_shard_topk", "core.progressive.scan", count=scan_counts)
        self.wrap(
            engine_module,
            "scan_shard_topk_batch",
            "core.progressive.scan",
            count=lambda parts: {
                "pruned": sum(part[2] for part in parts),
                "refined": sum(part[3] for part in parts),
            },
        )
        self.wrap_pool_submit()
        self.wrap(BatchingExecutor, "submit", "service.batching.submit")
        self.wrap(RetrievalService, "create_session", "service.sessions.create", session_arg=True)
        for method in ("query", "feedback", "close"):
            self.wrap(RetrievalService, method, "service.engine", session_arg=True)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


class _ClientOp:
    def __init__(self, recorder: Recorder, name: str, session_id: str, round_key) -> None:
        self.recorder = recorder
        self.name = name
        self.session_id = session_id
        self.round_key = round_key
        self.span: Optional[Span] = None

    def __enter__(self) -> "_ClientOp":
        if self.recorder.enabled:
            self.span = self.recorder.open(self.name, round_key=self.round_key)
            self.recorder._client_spans[self.session_id] = self.span
        return self

    def __exit__(self, *exc_info) -> None:
        if self.span is not None:
            self.recorder._client_spans.pop(self.session_id, None)
            self.recorder.close(self.span)


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


#: The span whose wait is served by work on a shared thread: a request
#: blocked in ``BatchingExecutor.submit`` waits for the dispatcher's
#: batch scan.
_WAITS_ON_SHARED = "service.batching.submit"


def summarize(spans: List[Span], in_scope: Callable[[Any], bool]) -> Dict[str, Dict[str, float]]:
    """Self time, call count and summed counts per span name.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Siblings of one name that run at once (worker
    tasks of one scan) are credited with the union of their intervals,
    not the sum.  Spans with a round count only when ``in_scope(round)``
    holds.  Spans with no round and no parent ran on a shared thread
    (the batching dispatcher): their calls and counts always count, and
    their time is credited only where a request in scope waited on them
    in ``BatchingExecutor.submit`` — so that the wait is not counted
    twice, once as batching and once as scan.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    shared: List[Span] = []
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
        elif span.round is None:
            shared.append(span)
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    siblings: Dict[Tuple[int, str], List[Span]] = defaultdict(list)
    for span in spans:
        if span.round is not None and not in_scope(span.round):
            continue
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        for key, value in span.counts.items():
            row[key] += value
        if span.parent is None and span.round is None:
            continue
        # Roots stand alone; only children of one parent can be
        # credited with a shared interval.
        key = id(span.parent) if span.parent is not None else id(span)
        siblings[(key, span.name)].append(span)
    for (_, name), group in siblings.items():
        covered = _union([(s.start, s.end) for s in group])
        for span in group:
            below = [(c.start, c.end) for c in children.get(id(span), [])]
            if name == _WAITS_ON_SHARED:
                waited: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
                for work in shared:
                    if work.start < span.end and work.end > span.start:
                        waited[work.name].append((max(work.start, span.start), min(work.end, span.end)))
                for work_name, intervals in waited.items():
                    table[work_name]["self_s"] += _union(intervals)
                    below += intervals
            covered -= _union(below)
        table[name]["self_s"] += covered
    return {name: dict(row) for name, row in table.items()}


def group_shares(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self time summed over each layer group."""
    return {
        group: sum(
            row.get("self_s", 0.0)
            for name, row in table.items()
            if name.startswith(prefixes)
        )
        for group, prefixes in LAYER_GROUPS.items()
    }
