"""The workloads: their inputs, the system each serves, its clients.

Every workload is a closed loop: one client runs one feedback session
at a time — open, first page, ``rounds`` feedback rounds judged by a
``SimulatedUser`` over the generating labels, close.  One client,
because every client thread shares the interpreter lock with the
service (and, over HTTP, with the server's threads): a second one only
adds contention and makes the timings swing between runs.
"""

from __future__ import annotations

import http.client
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import FeatureStore, RetrievalService, build_store
from repro.service import BatchingConfig, RetrievalServer


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    categories: int
    #: standard deviation of the category means around the origin, in
    #: units of the within-category noise: smaller overlaps more.
    spread: float
    k: int
    rounds: int
    #: cap on results the user marks per round (``None``: all relevant).
    max_marked: Optional[int]
    #: sessions every run completes, whatever ``--seconds`` says; the
    #: precision and the per-layer counts are taken over these.
    reference_sessions: int
    #: serving stack: ``"library"``, ``"store"`` or ``"http"``.
    stack: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default_p32",
            n=20_000, p=32, categories=20, spread=0.5, k=50, rounds=4, max_marked=None,
            reference_sessions=16, stack="library",
        ),
        Workload(
            "store_p128",
            n=100_000, p=128, categories=20, spread=0.35, k=20, rounds=4, max_marked=4,
            reference_sessions=40, stack="store",
        ),
        Workload(
            "http_p32_batched",
            n=20_000, p=32, categories=20, spread=0.5, k=50, rounds=4, max_marked=None,
            reference_sessions=40, stack="http",
        ),
    )
}

#: Worker processes of the store-backed service.
STORE_WORKERS = 2


#: Sessions a run can draw queries for.
MAX_SESSIONS = 10_000


def generate(workload: Workload, seed: int):
    """Gaussian categories: ``(rows, labels, warm-up id, timed query ids)``.

    The category means are one fixed layout per workload shape, turned
    by a rotation drawn from ``seed``; the rows and their labels are
    drawn from ``seed`` too.  The within-category noise is isotropic, so
    every seed poses a problem of the same difficulty.

    Queries are stratified so that the seed moves the figures only
    through sampling: session ``i`` looks for category ``i mod C`` and
    starts from the member at quantile ``frac(i * golden ratio)`` of that
    category's distance to its mean — every run meets the same sequence
    of categories and of typical and outlying queries.  The warm-up
    query (the median member of category 0) is never a timed query.
    ``rows`` is float64 or float32 as the workload stores it.
    """
    layout = np.random.default_rng([workload.n, workload.p, workload.categories])
    means = layout.normal(0.0, workload.spread, size=(workload.categories, workload.p))
    rng = np.random.default_rng([seed, workload.n, workload.p])
    rotation, _ = np.linalg.qr(rng.standard_normal((workload.p, workload.p)))
    means = means @ rotation
    labels = rng.permutation(np.arange(workload.n) % workload.categories)
    # The feature store keeps float32 rows.
    dtype = np.float32 if workload.stack == "store" else np.float64
    rows = means.astype(dtype)[labels]
    noise = rng.standard_normal((workload.n, workload.p), dtype=dtype)
    outlying = np.einsum("ij,ij->i", noise, noise)
    rows += noise
    # The serving process is this process: keep the benchmark's own
    # temporaries out of its peak resident memory.
    del noise
    by_category = [
        members[np.argsort(outlying[members], kind="stable")]
        for members in (np.flatnonzero(labels == c) for c in range(workload.categories))
    ]
    used = set()

    def pick(category: int, quantile: float) -> int:
        members = by_category[category]
        position = int(quantile * len(members))
        while members[position] in used:
            position = (position + 1) % len(members)
        used.add(members[position])
        return int(members[position])

    warm_up = pick(0, 0.5)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    queries = np.array([
        pick(i % workload.categories, (i * golden) % 1.0) for i in range(MAX_SESSIONS)
    ])
    return rows, labels, warm_up, queries


class OperationFailed(RuntimeError):
    pass


@dataclass
class Page:
    ids: List[int]
    distances: List[float]
    exact: bool


class LibraryClient:
    """Calls the service in-process."""

    def __init__(self, service: RetrievalService) -> None:
        self.service = service

    @staticmethod
    def _page(page) -> Page:
        return Page(page.ids.tolist(), page.distances.tolist(), page.quality.is_exact)

    def open(self, session_id: str, query_id: int) -> None:
        self.service.create_session(int(query_id), session_id=session_id)

    def page(self, session_id: str) -> Page:
        return self._page(self.service.query(session_id))

    def feedback(self, session_id: str, ids: Sequence[int], scores: Sequence[float]) -> Page:
        return self._page(self.service.feedback(session_id, list(ids), list(scores)))

    def close(self, session_id: str) -> None:
        self.service.close(session_id)

    def shutdown(self) -> None:
        pass


class HttpClient:
    """One keep-alive connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def _call(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        if not 200 <= response.status < 300:
            raise OperationFailed(f"{method} {path} -> {response.status} {raw[:200]!r}")
        return json.loads(raw) if raw else None

    @staticmethod
    def _page(payload) -> Page:
        return Page(payload["ids"], payload["distances"], bool(payload["quality"]["exact"]))

    def open(self, session_id: str, query_id: int) -> None:
        self._call("POST", "/sessions", {"query": int(query_id), "session_id": session_id})

    def page(self, session_id: str) -> Page:
        return self._page(self._call("GET", f"/sessions/{session_id}/page"))

    def feedback(self, session_id: str, ids: Sequence[int], scores: Sequence[float]) -> Page:
        body = {"relevant_ids": [int(i) for i in ids], "scores": [float(s) for s in scores]}
        return self._page(self._call("POST", f"/sessions/{session_id}/feedback", body))

    def close(self, session_id: str) -> None:
        self._call("DELETE", f"/sessions/{session_id}")

    def shutdown(self) -> None:
        self.connection.close()


class Served:
    """One built system: its service, client factory and teardown."""

    def __init__(self, service: RetrievalService, make_client: Callable[[], object],
                 teardown: Callable[[], None], store: Optional[FeatureStore] = None,
                 store_build_s: float = 0.0) -> None:
        self.service = service
        self.make_client = make_client
        self._teardown = teardown
        self.store = store
        self.store_build_s = store_build_s

    def shutdown(self) -> None:
        self._teardown()


def build(workload: Workload, rows: np.ndarray, workdir: Path, attempt: int,
          tracer=None) -> Served:
    """Build everything the workload serves, the way a deployment would."""
    if workload.stack == "store":
        path = workdir / f"{workload.name}-{attempt}.qcs"
        start = time.perf_counter()
        build_store(rows, path)
        store_build_s = time.perf_counter() - start
        store = FeatureStore.open(path)
        service = RetrievalService(
            store, k=workload.k, scan_backend="processes", max_workers=STORE_WORKERS,
            use_index=False, tracer=tracer,
        )

        def teardown() -> None:
            service.shutdown()
            path.unlink(missing_ok=True)

        return Served(service, lambda: LibraryClient(service), teardown, store, store_build_s)
    if workload.stack == "http":
        # What `cli serve` builds by default: the exact threaded scan,
        # micro-batching (32 queries, 2 ms), a 128-page result cache.
        service = RetrievalService(
            rows, k=workload.k, use_index=False, capacity=256, cache_size=128,
            batching=BatchingConfig(max_batch=32, max_wait_s=0.002, max_pending=256),
            tracer=tracer,
        )
        server = RetrievalServer(service, host="127.0.0.1", port=0, max_concurrent=64)
        host, port = server.start_in_background()

        def teardown() -> None:
            server.stop_background()
            service.shutdown()

        return Served(service, lambda: HttpClient(host, port), teardown)
    service = RetrievalService(rows, k=workload.k, tracer=tracer)
    return Served(service, lambda: LibraryClient(service), service.shutdown)


def clean(workdir: Path) -> None:
    """Remove the run's scratch directory, and its parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still uses it
        pass
