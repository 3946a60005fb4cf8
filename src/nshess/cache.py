"""Counting, memoizing wrapper around a scalar black-box oracle.

The cache is an exact memo: it keys each point on its bytes
``x.tobytes()`` and calls the oracle once per key. It compares no points
within a tolerance. Which sample points of a geometry coincide is decided
before the cache is asked, by the grid record in :mod:`nshess.sets`, which
requests each of its distinct points once.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .exceptions import EvaluationError

__all__ = ["EvaluationCache"]


def _write_text(target, text: str) -> None:
    """Write ``text`` to ``target``, a path or an open text stream."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


_FLOAT = np.dtype(float)
_REENTRY = "a cache's oracle may not make a request of the same cache"


class EvaluationCache:
    """Memoizes oracle values so a repeated sample point costs one call.

    A request at ``x`` returns the value stored under its byte key
    ``x.tobytes()``, and calls the oracle only when there is none: two
    requests share a value exactly when they are bitwise equal. Points
    that differ by rounding are merged, if at all, by the caller; every
    estimator reads through a grid record of :mod:`nshess.sets`, which
    does so at the tolerance of its geometry. A cache shared by several
    geometries therefore merges only their bitwise-equal points.

    A cache holds the points of one dimension, fixed by the first point it
    stores; a request in another dimension raises :class:`ValueError`
    before any state changes, so the trace is one table. The memo holds
    only answered points, each key with its value, and is asked first: a
    bitwise repeat needs no check, since its point was checked when first
    seen and a key's length fixes its dimension. Any other request must be
    in that dimension with finite coordinates, or raises
    :class:`ValueError` before any state changes; its key is entered once
    the oracle's value has been checked.

    :meth:`evaluate_many` sends every row through :meth:`evaluate`, since
    the benchmark's tracer counts one request per call.

    The cache is callable, so it can stand in anywhere an oracle is
    expected. All state is guarded by a lock; the oracle is called at most
    once per distinct point even under concurrent use. A request from
    inside the oracle raises :class:`RuntimeError` before any state
    changes, so the request whose oracle made it fails as
    :class:`~nshess.exceptions.EvaluationError`.
    """

    def __init__(self, oracle):
        if not callable(oracle):
            raise TypeError("oracle must be callable")
        self._oracle = oracle
        self._memo: dict[bytes, float] = {}  # byte key -> the oracle's value there
        self._trace: list[bytes] = []  # each answered request's x.tobytes()
        self._lock = threading.RLock()
        self._calling = False  # whether the oracle is running
        self._checked = False  # whether evaluate_many has checked the rows it is requesting

    @property
    def distinct_count(self) -> int:
        """Number of oracle calls made, i.e. distinct points evaluated."""
        with self._lock:
            return len(self._memo)

    @property
    def total_requests(self) -> int:
        """Number of requests answered, one per trace row.

        A request that raised, at its checks or in the oracle, was not
        answered and is not counted.
        """
        with self._lock:
            return len(self._trace)

    def _require_dim(self, dim: int) -> None:
        """Raise :class:`ValueError` unless this cache may hold points in R^dim."""
        key = next(iter(self._memo), None)  # any stored key: its length fixes the dimension
        if key is not None and len(key) != dim * _FLOAT.itemsize:
            held = len(key) // _FLOAT.itemsize
            raise ValueError(f"this cache holds points in R^{held}, got one in R^{dim}")

    def evaluate(self, x) -> float:
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.ndim != 1 or not x.shape[0]:
            raise ValueError(
                f"evaluation point must be a nonempty 1-D vector, got shape {x.shape}"
            )
        key = x.tobytes()
        with self._lock:
            if self._calling:
                raise RuntimeError(_REENTRY)
            value = self._memo.get(key)
            if value is None:
                if not self._checked:
                    self._require_dim(x.shape[0])
                    if not np.isfinite(x).all():
                        raise ValueError("point contains non-finite entries")
                self._calling = True
                try:
                    value = float(self._oracle(x.copy()))
                except EvaluationError:
                    raise
                except Exception as exc:
                    raise EvaluationError(x, f"{type(exc).__name__}: {exc}") from exc
                finally:
                    self._calling = False
                if not math.isfinite(value):
                    raise EvaluationError(x, f"oracle returned non-finite value {value}")
                self._memo[key] = value
            self._trace.append(key)
            return value

    __call__ = evaluate

    def evaluate_many(self, points) -> np.ndarray:
        """Values at every row of a ``(p, n)`` array, in one call.

        Under one hold of the lock, the block's dimension, unless it is
        empty, and its rows up to the first non-finite one are checked
        once, and those rows' requests skip these checks; a non-finite row
        raises at its own request. So counts, the trace and errors are
        exactly those of ``p`` separate calls.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or not pts.shape[1]:
            raise ValueError(
                f"evaluation points must be the nonempty rows of a 2-D array, got shape {pts.shape}"
            )
        with self._lock:
            if self._calling:
                raise RuntimeError(_REENTRY)
            if len(pts):
                self._require_dim(pts.shape[1])
            finite = np.isfinite(pts).all(axis=1)
            checked = len(pts) if finite.all() else int(finite.argmin())
            evaluate = self.evaluate
            self._checked = True
            try:
                values = [evaluate(x) for x in pts[:checked]]
            finally:
                self._checked = False
            if checked < len(pts):
                evaluate(pts[checked])  # raises: the row is not finite
            return np.array(values)

    def trace_rows(self) -> list[tuple[np.ndarray, float, str]]:
        """Chronological (point, value, hit|miss) records.

        Each point is a read-only array rebuilt from the request's byte
        key, so it is bitwise the point requested and shares no memory
        with the caller's array; its value is the memo's. A key enters the
        memo only with its value and never leaves it, so the first request
        of a key is its miss and every later one a hit.
        """
        with self._lock:
            seen, rows = set(), []
            for key in self._trace:
                rows.append((np.frombuffer(key), self._memo[key], "hit" if key in seen else "miss"))
                seen.add(key)
            return rows

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
