"""Reference pages and method properties, computed apart from the program.

Each session is replayed through a fresh ``QclusterMethod`` to obtain
the query points; the page is then recomputed here with plain numpy:
Eq. 1 per query point, ``(x - c)' S^{-1} (x - c)``, combined by Eq. 5,
the per-point-weight harmonic mean ``sum(m) / sum(m / d)``.  None of
the program's distance kernels, scans or indexes is used.

A page passes only if its ids are the reference top-k under the
``(distance, id)`` order and every distance matches to ``TOLERANCE``
relative; ids may differ from the reference only among distances equal
within that tolerance.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.stats.chi2 as chi2_module
import repro.stats.fdist as fdist_module
from repro import QclusterConfig, QclusterMethod

#: Relative tolerance on every distance of a page.
TOLERANCE = 1e-9

#: Eq. 5 clamps per-point distances here before the harmonic mean.
_FLOOR = 1e-12

#: Relative error allowed for the expanded (``x'Dx - 2c'Dx + c'Dc``)
#: distances used only to find candidates: two orders of magnitude
#: above the summation error of a 128-term float64 dot product.
_EXPANSION_ERROR = 1e-12


class PageMismatch(AssertionError):
    """A page that is not the reference top-k."""


def _combine(per_point: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Eq. 5 over a ``(g, m)`` matrix of per-point distances."""
    if per_point.shape[0] == 1:
        return per_point[0]
    clamped = np.maximum(per_point, _FLOOR)
    return weights.sum() / (weights[:, None] / clamped).sum(axis=0)


class ReferenceRanker:
    """Exact top-k of a disjunctive query over float64 rows.

    Args:
        rows: the served rows as float64 — already float32-rounded when
            the program serves float32.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.ascontiguousarray(rows, dtype=np.float64)
        self._squares = self.rows * self.rows

    def distances(self, query, ids: Sequence[int]) -> np.ndarray:
        """Eq. 1 then Eq. 5, directly, for the rows ``ids``."""
        block = self.rows[np.asarray(ids, dtype=np.int64)]
        per_point = []
        for point in query.points:
            centred = block - point.center
            per_point.append(np.einsum("ij,jk,ik->i", centred, point.inverse, centred))
        return _combine(np.array(per_point), query.weights)

    def top_k_many(self, queries: Sequence, k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Reference ids and distances under the ``(distance, id)`` order,
        one pair per query.

        Candidates first: with diagonal inverses every row's Eq. 1
        distance is bracketed from the expanded form
        ``x'Dx - 2 c'Dx + c'Dc`` (one matrix product over all rows for
        all the queries' points), and a row whose Eq. 5 lower bound
        exceeds the k-th smallest upper bound cannot reach the top k.
        The candidates are then ranked by :meth:`distances`, directly.
        """
        diagonal = [
            not any(np.count_nonzero(p.inverse - np.diag(np.diag(p.inverse))) for p in q.points)
            for q in queries
        ]
        points = [point for q, flat in zip(queries, diagonal) if flat for point in q.points]
        if points:
            diagonals = np.stack([np.diag(point.inverse) for point in points])
            centres = np.stack([point.center for point in points])
            quadratic = diagonals @ self._squares.T
            constant = (centres * centres * diagonals).sum(axis=1)[:, None]
            expanded = quadratic - 2.0 * ((centres * diagonals) @ self.rows.T) + constant
            error = _EXPANSION_ERROR * (quadratic + constant) + _FLOOR
        results, row = [], 0
        for query, flat in zip(queries, diagonal):
            if flat:
                rows = slice(row, row + query.size)
                row += query.size
                lower = _combine(np.maximum(expanded[rows] - error[rows], 0.0), query.weights)
                upper = _combine(expanded[rows] + error[rows], query.weights)
                threshold = np.partition(upper, k - 1)[k - 1]
                candidates = np.flatnonzero(lower <= threshold)
            else:
                candidates = np.arange(self.rows.shape[0])
            distances = self.distances(query, candidates)
            order = np.lexsort((candidates, distances))[:k]
            results.append((candidates[order], distances[order]))
        return results

    def top_k(self, query, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.top_k_many([query], k)[0]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b))


def check_page(
    ranker: ReferenceRanker,
    query,
    page_ids: Sequence[int],
    page_distances: Sequence[float],
    reference: Tuple[np.ndarray, np.ndarray],
) -> None:
    """Raise :class:`PageMismatch` unless the page is the reference top-k."""
    ref_ids, ref_distances = reference
    ids = [int(i) for i in page_ids]
    if len(ids) != len(ref_ids) or len(page_distances) != len(ids):
        raise PageMismatch(f"page holds {len(ids)} ids, reference {len(ref_ids)}")
    if len(set(ids)) != len(ids):
        raise PageMismatch("page repeats an id")
    own = ranker.distances(query, ids)
    for position, (image_id, served) in enumerate(zip(ids, page_distances)):
        served = float(served)
        if not _close(served, float(own[position])):
            raise PageMismatch(
                f"position {position}: id {image_id} served at {served!r}, "
                f"its distance is {float(own[position])!r}"
            )
        if not _close(served, float(ref_distances[position])):
            raise PageMismatch(
                f"position {position}: id {image_id} at {served!r}, reference "
                f"id {int(ref_ids[position])} at {float(ref_distances[position])!r}"
            )


def self_test(ranker: ReferenceRanker, query, k: int) -> List[str]:
    """Show the checker rejects two altered pages and accepts the true one.

    Returns the failures of the checker itself (empty when it works).
    """
    ids, distances = ranker.top_k(query, k + 1)
    reference = (ids[:k], distances[:k])
    problems = []
    try:
        check_page(ranker, query, ids[:k], distances[:k], reference)
    except PageMismatch as error:
        problems.append(f"rejected the reference page itself: {error}")
    swapped = ids[:k].copy()
    swapped[k - 1] = ids[k]
    nudged = distances[:k].copy()
    nudged[k - 1] *= 1.0 + 1e-6
    for label, page in (("k-th id swapped", (swapped, distances[:k])), ("distance nudged", (ids[:k], nudged))):
        try:
            check_page(ranker, query, page[0], page[1], reference)
        except PageMismatch:
            continue
        problems.append(f"accepted a page with the {label}")
    return problems


def check_properties(query, judged_scores: dict, max_clusters: int) -> None:
    """The method's own invariants on a replayed query.

    ``judged_scores`` maps every distinct row judged so far to its score.
    """
    if query.size > max_clusters:
        raise PageMismatch(f"query has {query.size} points, max_clusters is {max_clusters}")
    if judged_scores:
        expected = sum(judged_scores.values())
        total = float(np.sum(query.weights))
        if abs(total - expected) > 1e-9 * expected:
            raise PageMismatch(f"query weight {total!r} != judged scores {expected!r}")


def _memoize_quantiles() -> None:
    """Memoize the chi-square and F quantiles in this checker process.

    The replay needs the method's query points, not its speed, and the
    quantiles are pure functions of a few distinct float arguments, so
    the memo changes no result while cutting the replay to a fraction
    of the served control plane's cost.  Checker processes only: the
    measured program is never patched this way.
    """
    for module, name in (
        (chi2_module, "inverse_regularized_lower_gamma"),
        (fdist_module, "inverse_regularized_incomplete_beta"),
    ):
        function = getattr(module, name)
        if not hasattr(function, "cache_info"):
            setattr(module, name, functools.lru_cache(maxsize=None)(function))


def check_sessions(workload: str, k: int, rows_path: str, sessions: Sequence[tuple],
                   self_check: bool) -> None:
    """Check every page of ``sessions``; raise :class:`PageMismatch` on the first bad one.

    Runs in a worker process.  ``rows_path`` holds the served rows (a
    ``.npy`` file); each session is ``(index, query_id, pages,
    judgments)`` with ``pages`` a list of ``(step, ids, distances,
    exact)`` and ``judgments`` the ``(ids, scores)`` sent in each round.
    With ``self_check`` the checker's self-test runs first, on the
    first session's opening query.
    """
    _memoize_quantiles()
    rows = np.load(rows_path).astype(np.float64)
    ranker = ReferenceRanker(rows)
    config = QclusterConfig()
    if self_check and sessions:
        problems = self_test(ranker, QclusterMethod(config).start(rows[sessions[0][1]]), k)
        if problems:
            raise PageMismatch(f"workload {workload}: checker self-test failed: {problems}")
    for index, query_id, pages, judgments in sessions:
        method = QclusterMethod(config)
        query = method.start(rows[query_id])
        judged: Dict[int, float] = {}
        queries = []
        for step, _, _, _ in pages:
            if step > 0:
                ids, scores = judgments[step - 1]
                if ids:
                    query = method.feedback(rows[ids], scores)
                for image_id, score in zip(ids, scores):
                    judged.setdefault(image_id, score)
                try:
                    check_properties(query, judged, config.max_clusters)
                except PageMismatch as error:
                    raise PageMismatch(
                        f"workload {workload}, session {index}, round {step}: {error}"
                    ) from None
            queries.append(query)
        for (step, ids, distances, exact), query, truth in zip(
            pages, queries, ranker.top_k_many(queries, k)
        ):
            try:
                if not exact:
                    raise PageMismatch("page is not stamped exact")
                check_page(ranker, query, ids, distances, truth)
            except PageMismatch as error:
                raise PageMismatch(
                    f"workload {workload}, session {index}, round {step}: {error}"
                ) from None
