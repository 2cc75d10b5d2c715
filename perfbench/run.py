"""Feedback-round benchmark: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default_p32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run generates its inputs from ``--seed``, sets the workload's
system up ``SETUPS`` times (reporting the median), drives it with one
closed-loop client for ``--seconds`` (and at least through the
workload's reference sessions), then checks every page against a
reference computed apart from the program.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  A page that fails the reference or a method property
stops the run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy as np

    from repro import FeatureDatabase, SimulatedUser, Tracer
    from repro.core.kernels import default_kernel_cache
except ImportError as error:  # run outside a checkout of the program
    print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
    sys.exit(2)

import layers  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, build, clean, generate  # noqa: E402

#: Feedback rounds of the warm-up session that ends each set-up: it
#: opens, ranks and closes, so set-up time does not hinge on how much
#: one query's first feedback round happens to cost.
WARM_UP_ROUNDS = 0

#: Set-ups per run; their median is reported as ``setup_s``.
SETUPS = 7

OP_KINDS = ("open", "page", "feedback", "close")

#: Processes that check pages after the timed phase (the machine has
#: two cores).
CHECKERS = 2


@dataclass
class SessionLog:
    index: int
    query_id: int
    target: int
    #: one entry per served page: (step, Page); step 0 is the first page
    pages: List[tuple] = field(default_factory=list)
    #: judgments sent in each round: (ids, scores)
    judgments: List[tuple] = field(default_factory=list)
    first_page_s: Optional[float] = None
    #: open to close, for a session that did not fail
    session_s: Optional[float] = None
    round_s: List[float] = field(default_factory=list)
    attempted: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    failed: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))


def planned_ops(workload, rounds) -> List[str]:
    """The operations of one session, in order."""
    per_round = ["feedback", "page"] if workload.stack == "http" else ["feedback"]
    return ["open", "page"] + per_round * rounds + ["close"]


def run_session(workload, client, database, index, query_id, labels, recorder,
                rounds=None) -> SessionLog:
    """One closed-loop session; a failed operation ends it, and every
    operation it did not reach counts as attempted and failed."""
    rounds = workload.rounds if rounds is None else rounds
    log = SessionLog(index, int(query_id), int(labels[query_id]))
    user = SimulatedUser(database, log.target, max_marked=workload.max_marked)
    session_id = f"s{index:06d}"
    plan = planned_ops(workload, rounds)
    step = 0

    def op(kind, call):
        nonlocal step
        log.attempted[kind] += 1
        key = (index, step)
        step += 1
        with recorder.client_op(f"client.{kind}", session_id, key):
            start = time.perf_counter()
            result = call()
            return result, time.perf_counter() - start

    start = time.perf_counter()
    try:
        _, open_s = op("open", lambda: client.open(session_id, query_id))
        page, page_s = op("page", lambda: client.page(session_id))
        log.first_page_s = open_s + page_s
        log.pages.append((0, page))
        for round_index in range(1, rounds + 1):
            judgment = user.judge(page.ids)
            ids = judgment.relevant_indices.tolist()
            scores = judgment.scores.tolist()
            log.judgments.append((ids, scores))
            page, elapsed = op("feedback", lambda: client.feedback(session_id, ids, scores))
            log.round_s.append(elapsed)
            log.pages.append((round_index, page))
            if workload.stack == "http":
                again, _ = op("page", lambda: client.page(session_id))
                if (again.ids, again.distances) != (page.ids, page.distances):
                    raise reference.PageMismatch(
                        f"workload {workload.name}, session {index}, round {round_index}: "
                        "the re-read page differs from the feedback page"
                    )
        op("close", lambda: client.close(session_id))
        log.session_s = time.perf_counter() - start
    except reference.PageMismatch:
        raise
    except Exception as error:  # noqa: BLE001 - counted as a failed operation, and printed
        done = sum(log.attempted.values())
        last = plan[done - 1]
        log.failed[last] += 1
        for kind in plan[done:]:
            log.attempted[kind] += 1
            log.failed[kind] += 1
        print(f"{workload.name}: session {index} {last} failed: {error!r}", file=sys.stderr)
    return log


def warm_up(workload, served, database, query_id, labels) -> None:
    client = served.make_client()
    try:
        log = run_session(workload, client, database, -1, query_id, labels, layers.Recorder(),
                          rounds=WARM_UP_ROUNDS)
    finally:
        client.shutdown()
    if sum(log.failed.values()):
        raise SystemExit(f"{workload.name}: the warm-up session failed")


def drive(workload, served, database, queries, labels, seconds, recorder):
    """The closed-loop client; returns (session logs, timed wall seconds).

    Sessions are numbered from 0 in a seeded order.  The client starts
    the next one until ``seconds`` have passed and every reference
    session has run, and always finishes the session it started.
    """
    logs: List[SessionLog] = []
    client = served.make_client()
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while len(logs) < workload.reference_sessions or time.perf_counter() < deadline:
            index = len(logs)
            logs.append(run_session(workload, client, database, index, queries[index], labels, recorder))
            if len(logs) == workload.reference_sessions:
                recorder.enabled = False
        wall = time.perf_counter() - start
    finally:
        client.shutdown()
    return logs, wall


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid) -> List[int]:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found += [int(child) for child in handle.read().split()]
    except OSError:
        pass
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    pids = [os.getpid()] + _children(os.getpid())
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def stop_children() -> None:
    """Stop and reap every process this one started.

    Spawned processes (the checkers, the store's scan workers) make
    ``multiprocessing`` start its resource tracker, which otherwise
    outlives this process until it notices the exit; it is stopped and
    waited for here, and so is any other child still running.
    """
    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for pid in _children(os.getpid()):
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def tail_percentile(workload) -> int:
    """The highest whole percentile with at least ten rounds beyond it
    in every run: a run has at least the reference sessions' rounds.

    Fixed per workload, so that a faster program, which completes more
    rounds, is not read at a higher percentile.  The round latency at
    this percentile is printed with the run's summary; it is not a
    metric, because rare merge cascades of seconds make it swing by
    more than any bound between runs (see README).
    """
    fewest = workload.reference_sessions * workload.rounds
    return math.floor(100.0 * (1.0 - 10.0 / fewest))


def nearest_rank(ordered: List[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * percentile / 100.0)) - 1]


def session_p50_s(logs: List[SessionLog]) -> float:
    """Median open-to-close time of the sessions that did not fail."""
    return statistics.median(log.session_s for log in logs if log.session_s is not None)


def precision(log: SessionLog, labels, step: int) -> float:
    ids = log.pages[step][1].ids
    return float(np.mean(labels[np.asarray(ids)] == log.target))


def check_pages(workload, logs: List[SessionLog], rows, workdir: Path) -> None:
    """Check every page of every session that did not fail, over
    ``CHECKERS`` worker processes; raises ``PageMismatch``."""
    rows_path = workdir / "rows.npy"
    np.save(rows_path, rows)
    sessions = [
        (log.index, log.query_id,
         [(step, page.ids, page.distances, page.exact) for step, page in log.pages],
         log.judgments)
        for log in logs
        if not sum(log.failed.values())
    ]
    # One BLAS thread per checker: the checkers already fill the cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=CHECKERS, mp_context=context) as pool:
        futures = [
            pool.submit(reference.check_sessions, workload.name, workload.k, str(rows_path),
                        sessions[part::CHECKERS], part == 0)
            for part in range(CHECKERS)
        ]
        for future in futures:
            future.result()


def per_layer_metrics(recorder, tracer, served, workload, counters, logs) -> dict:
    """Every per-layer metric of a traced run, over its reference sessions."""
    reference_rounds = lambda key: key[0] < workload.reference_sessions  # noqa: E731
    table = layers.summarize(recorder.spans, reference_rounds)

    def value(name, key):
        return table.get(name, {}).get(key, 0.0)

    # Worker-side scan time arrives on the service's own trace spans.
    worker_scan_s = 0.0
    stack = list(tracer.traces())
    while stack:
        node = stack.pop()
        session = str(node.get("attributes", {}).get("session_id", ""))
        if session.startswith("s") and int(session[1:]) >= workload.reference_sessions:
            continue
        if node["name"] == "scan" and node.get("attributes", {}).get("path") == "worker":
            worker_scan_s += node["duration_s"]
        stack.extend(node.get("children", []))

    pruned = value("core.progressive.scan", "pruned") + value("parallel.workers.round_trip", "pruned")
    refined = value("core.progressive.scan", "refined") + value("parallel.workers.round_trip", "refined")
    kernel_total = counters.get("kernel_cache_hits", 0) + counters.get("kernel_cache_misses", 0)
    cache_total = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    batching = served.service.batching.stats() if served.service.batching is not None else {}
    http_requests = sum(value(f"client.{kind}", "calls") for kind in OP_KINDS)
    roots = sum(value(f"client.{kind}", "total_s") for kind in OP_KINDS)
    shares = layers.group_shares(table)
    metrics = {
        "stats.quantile_calls": (value("stats.quantile", "calls"), "count"),
        "stats.quantile_s": (value("stats.quantile", "self_s"), "s"),
        "core.merging.merge_s": (value("core.merging.merge", "self_s") + value("core.merging.pair_test", "self_s"), "s"),
        "core.merging.merge_calls": (value("core.merging.merge", "calls"), "count"),
        "core.merging.pair_tests": (value("core.merging.pair_test", "calls"), "count"),
        "core.classifier.classify_s": (value("core.classifier.assign", "self_s") + value("core.classifier.prepare", "self_s"), "s"),
        "core.classifier.assign_calls": (value("core.classifier.assign", "calls"), "count"),
        "core.classifier.prepare_calls": (value("core.classifier.prepare", "calls"), "count"),
        "clustering.agglomerative.fit_s": (value("clustering.agglomerative.fit", "self_s"), "s"),
        "index.hybridtree.search_s": (value("index.hybridtree.search", "self_s"), "s"),
        "index.hybridtree.searches": (value("index.hybridtree.search", "calls"), "count"),
        "index.hybridtree.node_accesses": (value("index.hybridtree.search", "node_accesses"), "count"),
        "index.hybridtree.rows_refined": (value("index.hybridtree.search", "refined"), "count"),
        "core.progressive.scan_s": (value("core.progressive.scan", "self_s") + worker_scan_s, "s"),
        "core.progressive.rows_refined": (refined, "count"),
        "core.progressive.refine_ratio": (refined / (pruned + refined) if pruned + refined else 0.0, "share"),
        "core.kernels.compile_s": (value("core.kernels.compile", "self_s"), "s"),
        "core.kernels.compiles": (value("core.kernels.compile", "calls"), "count"),
        "core.kernels.cache_hit_ratio": (counters.get("kernel_cache_hits", 0) / kernel_total if kernel_total else 0.0, "share"),
        "parallel.workers.tasks": (value("parallel.workers.round_trip", "tasks"), "count"),
        "parallel.workers.round_trip_s": (value("parallel.workers.round_trip", "total_s"), "s"),
        "parallel.workers.wait_s": (value("parallel.workers.round_trip", "self_s"), "s"),
        "store.build_s": (served.store_build_s, "s"),
        "store.block_reads": (served.store.stats()["block_reads"] if served.store is not None else 0, "count"),
        "service.batching.batches": (batching.get("batches", 0), "count"),
        "service.batching.mean_batch_size": (batching.get("mean_batch_size", 0.0), "count"),
        "service.batching.queue_wait_s": (sum(w["sum"] for w in batching.get("queue_wait_by_tenant", {}).values()), "s"),
        "service.batching.wait_s": (value("service.batching.submit", "self_s"), "s"),
        "service.cache.hit_ratio": (counters.get("cache_hits", 0) / cache_total if cache_total else 0.0, "share"),
        "service.server.overhead_ms": (
            1e3 * sum(value(f"client.{kind}", "self_s") for kind in OP_KINDS) / http_requests
            if workload.stack == "http" and http_requests else 0.0, "ms"),
        "service.sessions.create_s": (value("service.sessions.create", "self_s"), "s"),
        "service.engine.unattributed_s": (value("service.engine", "self_s"), "s"),
        "trace.ops_s": (roots, "s"),
        "trace.session_p50_ms": (1e3 * session_p50_s(logs), "ms"),
    }
    for group, seconds in shares.items():
        metrics[f"share.{group}"] = (seconds / roots if roots else 0.0, "share")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


def counter_delta(before: dict, after: dict) -> dict:
    """The service counters' growth between two ``metrics_snapshot()`` calls."""
    return {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    rows, labels, warm_id, queries = generate(workload, args.seed)
    database = FeatureDatabase(np.zeros((workload.n, 1)), labels)
    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = layers.Recorder()
    tracer = Tracer(max_traces=1_000_000) if args.trace else None
    if args.trace:
        recorder.install()
    served = None
    try:
        setups = []
        for attempt in range(SETUPS):
            if served is not None:
                served.shutdown()
            default_kernel_cache().clear()
            start = time.perf_counter()
            served = build(workload, rows, workdir, attempt, tracer=tracer)
            warm_up(workload, served, database, warm_id, labels)
            setups.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.clear()
        before = served.service.metrics_snapshot()
        recorder.enabled = bool(args.trace)
        logs, wall = drive(workload, served, database, queries, labels, args.seconds, recorder)
        recorder.enabled = False
        rss = peak_rss_mb()
        delta = counter_delta(before, served.service.metrics_snapshot())
        if args.trace:
            layer_metrics = per_layer_metrics(recorder, tracer, served, workload, delta, logs)
        served.shutdown()
        served = None
        recorder.uninstall()
        check_start = time.perf_counter()
        check_pages(workload, logs, rows, workdir)
        check_s = time.perf_counter() - check_start
    except reference.PageMismatch as error:
        print(f"perfbench: wrong page: {error}", file=sys.stderr)
        return 1
    finally:
        if served is not None:
            served.shutdown()
        recorder.uninstall()
        clean(workdir)

    attempted = {kind: sum(log.attempted[kind] for log in logs) for kind in OP_KINDS}
    failed = {kind: sum(log.failed[kind] for log in logs) for kind in OP_KINDS}
    reference_logs = [log for log in logs[: workload.reference_sessions] if not sum(log.failed.values())]
    first_precision = statistics.fmean(precision(log, labels, 0) for log in reference_logs)
    last_precision = statistics.fmean(precision(log, labels, -1) for log in reference_logs)
    if not last_precision > first_precision:
        print(
            f"{workload.name}: feedback did not raise precision "
            f"({first_precision:.3f} -> {last_precision:.3f})",
            file=sys.stderr,
        )
        return 1

    rounds = sorted(s for log in logs for s in log.round_s)
    first_pages = [log.first_page_s for log in logs if log.first_page_s is not None]
    first_rounds = [log.round_s[0] for log in logs if log.round_s]
    tail = tail_percentile(workload)
    beyond = len(rounds) - max(1, math.ceil(len(rounds) * tail / 100.0))
    print(
        f"{workload.name}: seed {args.seed}, {len(logs)} sessions, {len(rounds)} rounds in "
        f"{wall:.2f} s ({len(rounds) / wall:.2f} rounds/s); round p{tail} = "
        f"{1e3 * nearest_rank(rounds, tail):.1f} ms over {len(rounds)} rounds ({beyond} beyond it); precision "
        f"{first_precision:.3f} -> {last_precision:.3f}; pages checked in {check_s:.1f} s; "
        + ", ".join(f"{kind} {attempted[kind]}/{failed[kind]} failed" for kind in OP_KINDS),
        file=sys.stderr,
    )
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "session_p50_ms": {"value": 1e3 * session_p50_s(logs), "unit": "ms"},
            "round_p50_ms": {"value": 1e3 * statistics.median(rounds), "unit": "ms"},
            "first_round_p50_ms": {"value": 1e3 * statistics.median(first_rounds), "unit": "ms"},
            "first_page_p50_ms": {"value": 1e3 * statistics.median(first_pages), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "precision_at_k": {"value": last_precision, "unit": "share"},
        }
    result = {
        "correct": True,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
