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
import math
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
_FLOAT = np.dtype(float)


@functools.lru_cache(maxsize=None)
def _weights(dim: int) -> tuple[np.ndarray, float, float]:
    """Projection direction of :class:`PointIndex`, its 1-norm, and the
    relative rounding allowance of a ``dim``-term dot product."""
    w = np.random.default_rng(dim).uniform(1.0, 2.0, dim)
    w.setflags(write=False)
    gamma = (dim + 2) * _EPS / (1.0 - (dim + 2) * _EPS)
    return w, float(w.sum()), 2.0 * gamma


class PointIndex:
    """Distinct points of one dimension, each stored as its byte key.

    :meth:`lookup` finds the lowest stored row whose coordinates all differ
    from the query by at most ``tol``, or -1, and :meth:`insert` stores a
    query that found none as the next row. A query bitwise equal to an
    earlier matched or inserted one gets that row from the byte-key memo
    ``memo``. Otherwise only the rows near the query on a sorted projection
    ``y = x . w`` are tested, where ``w`` is fixed per dimension with
    distinct entries in ``[1, 2)``: rows within ``tol`` in max-norm have
    projections within ``tol * |w|_1`` of the query's, and each computed
    dot product is off by at most ``gamma * |w|_1 * (M + tol)``, where
    ``M`` bounds the max-norm of the stored rows, and so of any query
    within ``tol`` of one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §3.1). The window ``|y - y'| <= tol * |w|_1 +
    2 * gamma * |w|_1 * (M + tol)`` therefore holds every row within
    ``tol``; ``gamma`` is taken for ``dim + 2`` terms at twice the unit
    roundoff, which also covers the rounding of the window ends and of
    ``M``. ``M`` is the largest 2-norm of a stored row by ``math.hypot``,
    which scales where ``x . x`` would overflow, so a finite row above
    about ``1e154`` stores with no warning; a row whose 2-norm overflows
    gives its max-norm. A row is kept as its key ``x.tobytes()``, which
    also serves the memo, and rebuilt only for a query whose window holds
    it, or to be read from :attr:`points`. A lookup costs ``O(log d)``,
    where ``d`` rows are stored; a miss whose window is empty ends after
    one binary search.

    A finite projection implies finite coordinates, since ``w > 0``, so
    the projection doubles as the finiteness check of a query. A finite
    row whose projection overflows is kept out of the sorted keys and
    tested on every lookup; a finite query whose projection overflows is
    tested against every row.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.memo: dict[bytes, int] = {}  # byte key -> row it resolved to
        self._stored: list[bytes] = []  # the byte key of each row
        self._w, self._w1, self._slack = _weights(dim)
        self._keys: list[float] = []  # finite projections, ascending
        self._rows: list[int] = []  # row of each projection
        self._wide: list[int] = []  # rows whose projection overflowed
        self._norm = 0.0  # M: bounds the max-norm of every stored row

    @staticmethod
    def separated(points: np.ndarray, tol: float) -> bool:
        """Whether no two rows of ``points`` lie within ``tol`` of each other.

        A vectorized proof by the window above, with no per-row loop: with
        ``M`` the largest max-norm of a row, exact, two rows within ``tol``
        have computed projections within ``reach = tol * |w|_1 + 2 * gamma
        * |w|_1 * (M + tol)``. So if every gap between neighbouring sorted
        projections exceeds ``reach``, no row would find another in its
        lookup window, and adding the rows in order to an empty index
        stores every one of them. ``False`` proves nothing; it is also the
        answer when a projection or ``M`` is not finite.
        """
        w, w1, slack = _weights(points.shape[1])
        y = points @ w
        m = float(np.abs(points).max())
        if not (math.isfinite(m) and np.isfinite(y).all()):
            return False
        y.sort()
        return bool((np.diff(y) > w1 * (tol + slack * (m + tol))).all())

    @classmethod
    def distinct(cls, points: np.ndarray, tol: float, strict: bool = False) -> np.ndarray:
        """Indices of the rows an empty index stores when fed ``points`` in order.

        Every row when :meth:`separated` proves every row distinct;
        otherwise the rows go through a fresh index one by one. With
        ``strict``, a row within ``tol`` of an earlier one raises
        :class:`ValueError` naming both.
        """
        if cls.separated(points, tol):
            return np.arange(len(points))
        index = cls(points.shape[1])
        kept = []
        for b, x in enumerate(points):
            key = x.tobytes()
            a, y = index.lookup(x, key, tol)
            if a < 0:
                index.insert(x, key, y)
                kept.append(b)
            elif strict:
                raise ValueError(f"points {a} and {b} coincide under the dedup tolerance")
        return np.array(kept, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._stored)

    @property
    def points(self) -> np.ndarray:
        """The stored points, one per row, in insertion order (read-only)."""
        return np.frombuffer(b"".join(self._stored)).reshape(-1, self.dim)

    def lookup(self, x: np.ndarray, key: bytes, tol: float) -> tuple[int, float]:
        """The lowest stored row within ``tol`` of ``x``, or -1, given ``key
        = x.tobytes()``; and the projection of ``x`` for :meth:`insert` (NaN
        for an exact repeat, which makes none).

        Raises :class:`ValueError`, with the index unchanged, when ``x``
        has a non-finite entry.
        """
        i = self.memo.get(key)
        if i is not None:
            return i, math.nan
        y = float(x.dot(self._w))
        if math.isfinite(y):
            reach = self._w1 * (tol + self._slack * (self._norm + tol))
            keys = self._keys
            lo = bisect_left(keys, y - reach)
            if (lo == len(keys) or keys[lo] > y + reach) and not self._wide:
                return -1, y
            rows = self._rows[lo : bisect_right(keys, y + reach, lo)] + self._wide
        elif np.isfinite(x).all():
            rows = range(len(self._stored))
        else:
            raise ValueError("point contains non-finite entries")
        cand = np.frombuffer(b"".join([self._stored[r] for r in rows])).reshape(-1, self.dim)
        near = np.abs(cand - x).max(axis=1) <= tol
        hits = [r for r, hit in zip(rows, near.tolist()) if hit]
        if not hits:
            return -1, y
        i = self.memo[key] = min(hits)
        return i, y

    def insert(self, x: np.ndarray, key: bytes, y: float) -> None:
        """Store ``x`` as the next row, given the key and projection :meth:`lookup` returned."""
        row = len(self._stored)
        if math.isfinite(y):
            at = bisect_right(self._keys, y)
            self._keys.insert(at, y)
            self._rows.insert(at, row)
        else:
            self._wide.append(row)
        coords = x.tolist()
        norm = math.hypot(*coords)
        if norm == math.inf:
            norm = max(map(abs, coords))
        if norm > self._norm:
            self._norm = norm
        self._stored.append(key)
        self.memo[key] = row


class EvaluationCache:
    """Memoizes oracle values so coincident sample points cost one call.

    A request at ``x`` returns the value of the first stored point whose
    coordinates all differ from ``x`` by at most the request's ``tol``
    (0 when it gives none), and calls the oracle only when there is none.
    The tolerance belongs to the request, not to the cache: an estimator
    passes the one of its sampling geometry (the ``tol`` of the grid
    record in :mod:`nshess.sets`), so one cache serves estimates at every
    scale. A request bitwise equal to an earlier one gets that request's
    value whatever its own tolerance.

    A cache holds the points of one dimension, fixed by the first point it
    stores; a request in another dimension raises :class:`ValueError`
    before any state changes, so the trace is one table. Distinct points
    are kept in a :class:`PointIndex`. A request pays each check once: its
    byte key ``x.tobytes()`` is made once and serves the memo, the stored
    row and the trace. The memo is asked first: a bitwise repeat is
    answered with no further check, since its point was checked when first
    seen, and a key's length fixes its dimension. Any other request is
    checked for finite coordinates by the projection its lookup makes
    anyway (a non-finite point raises :class:`ValueError` before any state
    changes), and costs a binary search, plus a comparison with the stored
    rows near it if any. The oracle's value is checked once, when it is
    returned. At n = 20, outside a trivial oracle, a hit costs about 1 µs
    and a miss about 3.5 µs. :meth:`evaluate_many` answers a ``(p, n)``
    array under one lock acquisition by sending every row through
    :meth:`evaluate`, not in bulk, since the benchmark's tracer counts
    one request per call; so it leaves exactly the state of row-by-row
    calls.

    The cache is callable, so it can stand in anywhere an oracle is
    expected. All state is guarded by a lock; the oracle is called at most
    once per distinct point even under concurrent use.
    """

    def __init__(self, oracle):
        if not callable(oracle):
            raise TypeError("oracle must be callable")
        self._oracle = oracle
        self._index: PointIndex | None = None  # made by the first point stored
        self._memo: dict[bytes, int] = {}  # the index's memo, asked first
        self._values: list[float] = []  # the value of each stored point
        self._trace: list[tuple[bytes, float, str]] = []  # (x.tobytes(), value, status)
        self._lock = threading.RLock()

    @property
    def distinct_count(self) -> int:
        """Number of oracle calls made, i.e. distinct points evaluated."""
        with self._lock:
            return len(self._values)

    @property
    def total_requests(self) -> int:
        """Number of requests answered, one per trace row.

        A request that raised, at its lookup or in the oracle, was not
        answered and is not counted.
        """
        with self._lock:
            return len(self._trace)

    def evaluate(self, x, tol: float = 0.0) -> float:
        tol = float(tol)
        if not tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.ndim != 1 or not x.shape[0]:
            raise ValueError(
                f"evaluation point must be a nonempty 1-D vector, got shape {x.shape}"
            )
        key = x.tobytes()
        with self._lock:
            i = self._memo.get(key)
            if i is None:
                index = self._index
                if index is None:
                    index = PointIndex(x.shape[0])
                elif index.dim != x.shape[0]:
                    raise ValueError(
                        f"this cache holds points in R^{index.dim}, got one in R^{x.shape[0]}"
                    )
                i, y = index.lookup(x, key, tol)
            if i >= 0:
                value, status = self._values[i], "hit"
            else:
                try:
                    value = float(self._oracle(x.copy()))
                except EvaluationError:
                    raise
                except Exception as exc:
                    raise EvaluationError(x, f"{type(exc).__name__}: {exc}") from exc
                if not math.isfinite(value):
                    raise EvaluationError(x, f"oracle returned non-finite value {value}")
                status = "miss"
                index.insert(x, key, y)
                self._index, self._memo = index, index.memo
                self._values.append(value)
            self._trace.append((key, value, status))
            return value

    __call__ = evaluate

    def evaluate_many(self, points, tol: float = 0.0) -> np.ndarray:
        """Values at every row of a ``(p, n)`` array, in one call.

        The rows go through :meth:`evaluate` in order under one hold of the
        lock, so no other caller interleaves, and counts, the trace, errors
        and which value wins inside the tolerance are exactly those of
        ``p`` separate calls with the same ``tol``.
        """
        tol = float(tol)
        if not tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or not pts.shape[1]:
            raise ValueError(
                f"evaluation points must be the nonempty rows of a 2-D array, got shape {pts.shape}"
            )
        with self._lock:
            return np.array([self.evaluate(x, tol) for x in pts])

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
