"""Counting, de-duplicating wrapper around a scalar black-box oracle.

Coincidence of sample points is decided in one place, :class:`PointIndex`:
an exact byte-key match first, then one vectorized max-norm test of the
query against a contiguous block of stored points. The cache, the grid
enumeration in :mod:`nshess.sets` and the :class:`~nshess.sets.PointSet`
constructor all resolve points through it, greedily and in first-seen
order.
"""

from __future__ import annotations

import threading

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


class PointIndex:
    """Distinct points of one dimension, stored as rows of a growing block.

    :meth:`find` returns the first stored row whose coordinates all differ
    from the query by at most ``tol``, or -1. A query bitwise equal to an
    earlier matched or added one gets that row from a byte-key memo,
    without the scan. The block doubles when full.
    """

    def __init__(self, dim: int):
        self._block = np.empty((8, dim))
        self._count = 0
        self._exact: dict[bytes, int] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """The stored points, one per row, in insertion order (a view)."""
        return self._block[: self._count]

    def find(self, x: np.ndarray, tol: float) -> int:
        key = x.tobytes()
        i = self._exact.get(key)
        if i is not None:
            return i
        if self._count == 0:
            return -1
        close = np.abs(self._block[: self._count] - x).max(axis=1) <= tol
        i = int(close.argmax())
        if not close[i]:
            return -1
        self._exact[key] = i
        return i

    def add(self, x: np.ndarray) -> None:
        """Store ``x`` as the next row."""
        if self._count == len(self._block):
            self._block = np.concatenate([self._block, np.empty_like(self._block)])
        self._block[self._count] = x
        self._exact[x.tobytes()] = self._count
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
        if tol < 0:
            raise ValueError("tol must be nonnegative")
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
        if tol < 0:
            raise ValueError("tol must be nonnegative")
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
