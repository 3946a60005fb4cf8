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


def _row_keys(block: np.ndarray) -> list[bytes]:
    """The byte key ``x.tobytes()`` of each row of a float ``block``, from one copy."""
    raw, step = block.tobytes(), block.shape[1] * block.itemsize
    return [raw[a : a + step] for a in range(0, len(raw), step)]


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
    before any state changes, so the trace is one table. The memo is asked
    first: a bitwise repeat is answered with no further check, since its
    point was checked when first seen, and a key's length fixes its
    dimension. Any other request is checked for its dimension and for
    finite coordinates (a non-finite point raises :class:`ValueError`
    before any state changes). The oracle's value is checked once, when
    it is returned.

    :meth:`evaluate_many` checks a ``(p, n)`` block once, enters the new
    keys of its rows up to the first non-finite one in the memo as pending
    rows with no value yet, and then sends every row through
    :meth:`evaluate`, since the benchmark's tracer counts one request per
    call. A pending row's request calls the oracle and stores only the
    value. So the values, the counts and the trace are exactly those of
    row-by-row calls.

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
        self._dim: int | None = None  # fixed by the first point stored
        self._memo: dict[bytes, int] = {}  # byte key -> its row in _values
        self._values: list[float] = []  # the value of each stored point
        self._trace: list[tuple[bytes, float, str]] = []  # (x.tobytes(), value, status)
        self._lock = threading.RLock()
        self._calling = False  # whether the oracle is running

    @property
    def distinct_count(self) -> int:
        """Number of oracle calls made, i.e. distinct points evaluated."""
        with self._lock:
            return len(self._values)

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
        if self._dim is not None and dim != self._dim:
            raise ValueError(f"this cache holds points in R^{self._dim}, got one in R^{dim}")

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
            i = self._memo.get(key)
            if i is None:
                self._require_dim(x.shape[0])
                if not np.isfinite(x).all():
                    raise ValueError("point contains non-finite entries")
            values = self._values
            if i is not None and i < len(values):
                value, status = values[i], "hit"
            else:
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
                status = "miss"
                if i is None:
                    self._memo[key] = len(values)
                    self._dim = x.shape[0]
                values.append(value)
            self._trace.append((key, value, status))
            return value

    __call__ = evaluate

    def evaluate_many(self, points) -> np.ndarray:
        """Values at every row of a ``(p, n)`` array, in one call.

        Under one hold of the lock, so no other caller interleaves, the
        block is checked once and its new keys become pending rows in the
        memo, in first-seen order; then every row goes through
        :meth:`evaluate` in order. When a row raises, the pending rows with
        no value yet are dropped, and a cache left with no value fixes no
        dimension. So counts, the trace and errors are exactly those of
        ``p`` separate calls.
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
                self._dim = pts.shape[1]
            # A non-finite row raises at its own request, so no later row is reached.
            reached = pts
            if not np.isfinite(pts).all():
                reached = pts[: np.isfinite(pts).all(axis=1).argmin()]
            memo, base = self._memo, len(self._values)
            new = dict.fromkeys(_row_keys(reached))  # first-seen order
            pending = list(new) if memo.keys().isdisjoint(new) else [k for k in new if k not in memo]
            memo.update(zip(pending, range(base, base + len(pending))))
            evaluate = self.evaluate
            try:
                return np.array([evaluate(x) for x in pts])
            finally:
                # Pending rows take their values in order, so the unvalued ones are the last.
                valued = len(self._values)
                for key in pending[valued - base :]:
                    del memo[key]
                if not valued:
                    self._dim = None

    def trace_rows(self) -> list[tuple[np.ndarray, float, str]]:
        """Chronological (point, value, hit|miss) records.

        Each point is a read-only array rebuilt from the request's byte
        key, so it is bitwise the point requested and shares no memory
        with the caller's array.
        """
        with self._lock:
            return [(np.frombuffer(key), value, status) for key, value, status in self._trace]

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
