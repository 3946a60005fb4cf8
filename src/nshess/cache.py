"""Counting, de-duplicating wrapper around a scalar black-box oracle.

Coincidence of sample points is decided in one place, :class:`PointIndex`:
an exact byte-key match first, then a max-norm test of the query against
the few stored points whose projections onto a fixed direction lie near
its own. The cache, the grid enumeration in :mod:`nshess.sets` and the
:class:`~nshess.sets.PointSet` constructor all resolve points through it,
greedily and in first-seen order.
"""

from __future__ import annotations

import functools
import threading
from bisect import bisect_left, bisect_right

import numpy as np

from .exceptions import EvaluationError

__all__ = ["EvaluationCache", "PointIndex"]


def _write_text(target, text: str) -> None:
    """Write ``text`` to ``target``, a path or an open text stream."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _weights(dim: int) -> tuple[np.ndarray, float, float]:
    """Projection direction of :class:`PointIndex`, its 1-norm, and the
    relative rounding allowance of a ``dim``-term dot product."""
    w = np.random.default_rng(dim).uniform(1.0, 2.0, dim)
    w.setflags(write=False)
    gamma = (dim + 2) * _EPS / (1.0 - (dim + 2) * _EPS)
    return w, float(w.sum()), 2.0 * gamma


class PointIndex:
    """Distinct points of one dimension, stored as rows of a growing block.

    :meth:`find` returns the lowest stored row whose coordinates all differ
    from the query by at most ``tol``, or -1. A query bitwise equal to an
    earlier matched or added one gets that row from a byte-key memo.
    Otherwise only the rows near the query on a sorted projection
    ``y = x . w`` are tested, where ``w`` is fixed per dimension with
    distinct entries in ``[1, 2)``: rows within ``tol`` in max-norm have
    projections within ``tol * |w|_1`` of the query's, and each computed
    dot product is off by at most ``gamma * |w|_1 * (M + tol)``, where
    ``M`` bounds the max-norm of the stored rows, and so of any query
    within ``tol`` of one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §3.1). The window ``|y - y'| <= tol * |w|_1 +
    2 * gamma * |w|_1 * (M + tol)`` therefore holds every row within
    ``tol``; ``gamma`` is taken for ``dim + 2`` terms at twice the unit
    roundoff, which also covers the rounding of the window ends. A lookup
    costs ``O(log d)`` plus the rows in the window, where ``d`` rows are
    stored; the block doubles when full.
    """

    def __init__(self, dim: int):
        self._block = np.empty((8, dim))
        self._count = 0
        self._exact: dict[bytes, int] = {}
        self._w, self._w1, self._slack = _weights(dim)
        self._keys: list[float] = []  # projections, ascending
        self._rows: list[int] = []  # row of each projection
        self._norm = 0.0  # largest max-norm of a stored row
        self._query: tuple[bytes, float] | None = None

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """The stored points, one per row, in insertion order (a view)."""
        return self._block[: self._count]

    def _project(self, x: np.ndarray, key: bytes) -> float:
        if self._query is not None and self._query[0] == key:
            return self._query[1]
        y = float(np.dot(x, self._w))
        self._query = (key, y)
        return y

    def find(self, x: np.ndarray, tol: float) -> int:
        key = x.tobytes()
        i = self._exact.get(key)
        if i is not None:
            return i
        y = self._project(x, key)
        reach = self._w1 * (tol + self._slack * (self._norm + tol))
        lo = bisect_left(self._keys, y - reach)
        hi = bisect_right(self._keys, y + reach, lo)
        if lo == hi:
            return -1
        rows = np.array(self._rows[lo:hi])
        hits = rows[np.abs(self._block[rows] - x).max(axis=1) <= tol]
        if not hits.size:
            return -1
        i = self._exact[key] = int(hits.min())
        return i

    def add(self, x: np.ndarray) -> None:
        """Store ``x`` as the next row, reusing the projection :meth:`find` made of it."""
        if self._count == len(self._block):
            self._block = np.concatenate([self._block, np.empty_like(self._block)])
        key = x.tobytes()
        y = self._project(x, key)
        at = bisect_right(self._keys, y)
        self._keys.insert(at, y)
        self._rows.insert(at, self._count)
        self._norm = max(self._norm, float(np.abs(x).max()))
        self._block[self._count] = x
        self._exact[key] = self._count
        self._count += 1


class EvaluationCache:
    """Memoizes oracle values so coincident sample points cost one call.

    A request at ``x`` returns the value of the first stored point whose
    coordinates all differ from ``x`` by at most the request's ``tol``
    (the constructor's ``tol`` when the request gives none), and calls the
    oracle only when there is none. Points of different dimensions never
    match. The tolerance belongs to the request, not to the cache:
    operations that know their sampling geometry pass the one it needs
    (:func:`~nshess.approx.grid_tolerance`), so one cache serves estimates
    at every scale. A request bitwise equal to an earlier one gets that
    request's value whatever its own tolerance.

    Distinct points are kept per dimension in a :class:`PointIndex`, so a
    request that is not an exact repeat costs one vectorized comparison
    with the stored block. :meth:`evaluate_many` answers a whole ``(p, n)``
    array of requests under one lock acquisition and leaves exactly the
    state that calling :meth:`evaluate` row by row would.

    The cache is callable, so it can stand in anywhere an oracle is
    expected. All state is guarded by a lock; the oracle is called at most
    once per distinct point even under concurrent use.
    """

    def __init__(self, oracle, tol: float = 0.0):
        if not callable(oracle):
            raise TypeError("oracle must be callable")
        if not tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        self._oracle = oracle
        self._tol = float(tol)
        self._tables: dict[int, tuple[PointIndex, list[float]]] = {}
        self._trace: list[tuple[np.ndarray, float, str]] = []
        self._total = 0
        self._lock = threading.RLock()

    @property
    def distinct_count(self) -> int:
        """Number of oracle calls made, i.e. distinct points evaluated."""
        with self._lock:
            return sum(len(index) for index, _ in self._tables.values())

    @property
    def total_requests(self) -> int:
        with self._lock:
            return self._total

    @property
    def tol(self) -> float:
        """The constructor's tolerance, used by requests that give none."""
        return self._tol

    def _call_oracle(self, x: np.ndarray) -> float:
        try:
            value = float(self._oracle(x.copy()))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(x, f"{type(exc).__name__}: {exc}") from exc
        if not np.isfinite(value):
            raise EvaluationError(x, f"oracle returned non-finite value {value}")
        return value

    def evaluate(self, x, tol: float | None = None) -> float:
        tol = self._tol if tol is None else float(tol)
        if not tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"evaluation point must be a 1-D vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("evaluation point contains non-finite entries")
        with self._lock:
            dim = x.shape[0]
            if dim not in self._tables:
                self._tables[dim] = (PointIndex(dim), [])
            index, stored = self._tables[dim]
            i = index.find(x, tol)
            self._total += 1
            if i >= 0:
                value, status = stored[i], "hit"
            else:
                value, status = self._call_oracle(x), "miss"
                index.add(x)
                stored.append(value)
            self._trace.append((x.copy(), value, status))
            return value

    __call__ = evaluate

    def evaluate_many(self, points, tol: float | None = None) -> np.ndarray:
        """Values at every row of a ``(p, n)`` array, in one call.

        The rows go through :meth:`evaluate` in order under one hold of the
        lock, so no other caller interleaves, and counts, the trace, errors
        and which value wins inside the tolerance are exactly those of
        ``p`` separate calls with the same ``tol``.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"evaluation points must form a 2-D array, got shape {pts.shape}")
        with self._lock:
            return np.array([self.evaluate(x, tol) for x in pts])

    def trace_rows(self) -> list[tuple[np.ndarray, float, str]]:
        """Chronological (point, value, hit|miss) records."""
        with self._lock:
            return list(self._trace)

    def write_trace_csv(self, target) -> None:
        """Dump the request trace, one row per request."""
        rows = self.trace_rows()
        if not rows:
            text = "value,status\n"
        else:
            dim = rows[0][0].shape[0]
            header = ",".join(f"x{i + 1}" for i in range(dim)) + ",value,status"
            lines = [header]
            for point, value, status in rows:
                coords = ",".join(repr(float(v)) for v in point)
                lines.append(f"{coords},{value!r},{status}")
            text = "\n".join(lines) + "\n"
        _write_text(target, text)
