"""Direction sets, evaluation point sets, and their structure tests.

A direction set is an ordered collection of vectors in R^n stored as the
columns of an n-by-m matrix. A Hessian estimate samples the target function
on the points ``x0 + s_i + t_j`` generated by an outer set S and an inner
set T; :func:`sample_grid` lays them out as one ``(m+1, k+1, n)`` array.
This module owns the coincidence tolerance: it deduplicates that grid,
greedily in first-seen order, in one pass of :func:`_distinct` over its
points, at the fixed relative tolerance of :func:`dedup_tolerance`; only
:func:`nshc_points` takes another. The pass projects each point once,
scaled by a power of two so that no projection overflows, and the sorted
projections both prove distinct points apart and narrow each comparison
to a window. The grid record, the simplex read and :class:`PointSet`
share it. The evaluation cache compares no points, so a grid is read as
its distinct points, each requested once.
It also answers two structural questions about a candidate point set: is
it poised for quadratic interpolation, and is it exactly the sample set
of some nested Hessian estimate of minimal size.

On the folded pairs ``(S, U_k)`` the coincidences are known in closed form
(:func:`fold_index`), so only one point per class is tested at all.

Sampling geometry is built once and then held. A :class:`DirectionSet`
keeps its radius, column spacing and, per orientation, the rank,
pseudoinverse and norms its readers read; a set is immutable, so nothing
it holds ever goes stale. An outer set S also holds the last ``U_k``
built from it and the grid records of the last two ``(x0, T)`` it was
used with. A grid record is every estimator's one path from a geometry
and a cache to its values: it checks the spacing, works out the
tolerance, the distinct points and the class map once, makes the
:class:`PointSet`, and holds its last read F beside a weak reference to
that cache, so the models after an estimate request nothing. A
:class:`PointSet` holds the singular values of its quadratic basis for
the last center asked for. :func:`canonical_set` returns the same pair
for a repeated ``(n, k, beta)`` from a bounded memo.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import linalg
from .cache import _write_text
from .exceptions import CollapsedGridError, NotPoisedError, RankDeficientError

__all__ = [
    "DirectionSet",
    "PointSet",
    "MinimalityResult",
    "dedup_tolerance",
    "build_uk",
    "canonical_set",
    "fold_index",
    "sample_grid",
    "nshc_points",
    "count_distinct",
    "minimal_point_count",
    "quadratic_basis_matrix",
    "is_poised_quadratic",
    "is_minimal_nshc",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integer(value, name: str) -> int:
    """``value`` as a plain int by :func:`operator.index`, or a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _Factored(NamedTuple):
    """One orientation ``M`` of a direction set, as its readers read it,
    from one thin SVD under the fixed cutoff of :mod:`nshess.linalg`."""

    rank: int
    pinv: np.ndarray  # read-only
    pinv_norm: float
    normalized_norm: float | None  # the pinv norm of M / radius; None for a zero radius


def _pinv_norm(s: np.ndarray, shape) -> float:
    """The pinv's norm from singular values ``s``: the largest kept reciprocal, or 0."""
    inv = 1.0 / s[linalg._kept(s, shape)]
    return float(inv.max()) if inv.size else 0.0


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """Ordered set of direction vectors, stored as matrix columns.

    The matrix is copied and frozen at construction; entries must be finite.
    ``radius`` is the largest column norm, the resolution of the set.

    The radius, the column spacing and one record for the matrix and one
    for its transpose are computed when first needed and then held. A
    record is made from one thin SVD and keeps what readers read: the rank
    and the read-only pseudoinverse under the fixed cutoff of
    :mod:`nshess.linalg`, and the pseudoinverse's norm for the set and for
    the set divided by its radius; no singular vectors.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.size == 0:
            raise ValueError(f"direction matrix must be nonempty 2-D, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("direction matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_factored", [None, None])  # _Factored of M, then of M^T
        object.__setattr__(self, "_uk", None)  # (k, build_uk(self, k)), the last built
        object.__setattr__(self, "_records", ())  # _Grid on self as S, last used first

    @classmethod
    def from_columns(cls, columns) -> "DirectionSet":
        return cls(np.column_stack([np.asarray(c, dtype=float) for c in columns]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    @functools.cached_property
    def radius(self) -> float:
        return _norm(self.matrix, axis=0)

    @functools.cached_property
    def spacing(self) -> float:
        """The smallest max-norm of a column."""
        return float(np.abs(self.matrix).max(axis=0).min())

    def _factor(self, transpose: bool) -> _Factored:
        """The record of the matrix, or of its transpose; made on first use."""
        held = self._factored[transpose]
        if held is None:
            m = self.matrix.T if transpose else self.matrix
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            held = self._factored[transpose] = _Factored(
                int(np.count_nonzero(linalg._kept(s, m.shape))),
                _read_only(linalg._pinv_from_svd(u, s, vt, m.shape)),
                _pinv_norm(s, m.shape),
                _pinv_norm(s / self.radius, m.shape) if self.radius > 0.0 else None,
            )
        return held

    def rank(self, transpose: bool = False) -> int:
        """Rank under the fixed cutoff, of the matrix or its transpose."""
        return self._factor(transpose).rank

    def pinv(self, transpose: bool = False) -> np.ndarray:
        """``pinv(M)``, or ``pinv(M^T)`` when ``transpose``; held and read-only.

        Bitwise equal to :func:`~nshess.linalg.pseudoinverse` of that matrix.
        """
        return self._factor(transpose).pinv

    def pinv_norm(self, transpose: bool = False, normalized: bool = False) -> float:
        """Spectral norm of :meth:`pinv`, from the kept singular values.

        ``normalized=True`` gives the norm for the set divided by its
        radius: the singular values are divided by the radius before the
        cutoff, as :meth:`normalized` would give them.
        """
        record = self._factor(transpose)
        if not normalized:
            return record.pinv_norm
        self._positive_radius()
        return record.normalized_norm

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]

    def scaled(self, factor: float) -> "DirectionSet":
        return DirectionSet(float(factor) * self.matrix)

    def normalized(self) -> "DirectionSet":
        """The set divided by its radius, so the largest column has norm 1."""
        return DirectionSet(self.matrix / self._positive_radius())

    def _positive_radius(self) -> float:
        if self.radius <= 0.0:
            raise ValueError("cannot normalize a direction set with zero radius")
        return self.radius


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# A max-norm distance of finite points may overflow to inf, which is a
# miss at any finite tolerance: the comparison answers, with no warning.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _norm(a: np.ndarray, axis: int | None = None) -> float:
    """The largest 2-norm of ``a`` along ``axis``, or of all of ``a``:
    bitwise ``np.linalg.norm``'s wherever that is normal and finite. It
    squares the entries, so above about 1.3e154 it overflows and below
    about 1e-154 it underflows to a subnormal or to 0; then, for finite
    ``a`` with a nonzero entry, the norm is taken of ``a`` over its
    largest entry and scaled back."""
    norm = float(np.linalg.norm(a, axis=axis).max())
    if not _TINY <= norm < math.inf and np.isfinite(a).all():
        top = float(np.abs(a).max())
        if top > 0.0:
            norm = top * float(np.linalg.norm(a / top, axis=axis).max())
    return norm


@functools.lru_cache(maxsize=None)
def _weights(dim: int) -> tuple[np.ndarray, float, float]:
    """Projection direction of the coincidence test, its 1-norm, and the
    relative rounding allowance of a ``dim``-term dot product."""
    w = np.random.default_rng(dim).uniform(1.0, 2.0, dim)
    w.setflags(write=False)
    gamma = (dim + 2) * _EPS / (1.0 - (dim + 2) * _EPS)
    return w, float(w.sum()), 2.0 * gamma


def _near(rows: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """Which ``rows`` lie within ``tol`` of ``x``: every coordinate differs
    by at most ``tol``. The one tolerance test of sample points; callers
    run it under ``_QUIET``."""
    return np.abs(rows - x).max(axis=1) <= tol


@_QUIET
def _distinct(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, classes)``: the rows of ``points`` merged greedily at ``tol``.

    Each row, in order, joins the lowest earlier kept row within ``tol``
    (:func:`_near`), or is kept. ``kept`` holds the indices of the kept
    rows, and ``classes[b]`` the position in ``kept`` of the row that row
    ``b`` joined. A row with a non-finite entry raises :class:`ValueError`
    first.

    Each row is projected once, as ``y = z . w``: ``w`` is fixed per
    dimension with distinct entries in ``[1, 2)``, and ``z = x / 2**e``,
    where ``2**e`` is the power of two just above ``M``, the largest
    |entry|, so every entry of ``z`` lies in (-1, 1) and no ``y``
    overflows. Rows within ``tol`` have exact projections within
    ``t * |w|_1``, ``t = tol / 2**e``, and each computed dot product is off
    by at most ``gamma * |w|_1 * M / 2**e`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1). So their computed
    projections lie within ``reach = |w|_1 * (t + 2 * gamma * (M / 2**e +
    t))``, inf if that overflows; ``gamma`` is taken for ``dim + 2`` terms
    at twice the unit roundoff, which also covers the rounding of
    ``reach`` and of a window's ends. Where an entry of ``z``, ``t`` or a
    product underflows, the rounding is absolute, at most half the
    smallest subnormal, and all of them move two projections apart by
    less than ``3 * |w|_1`` of it. As ``M / 2**e >= 1/2`` when ``M > 0``,
    the doubled ``gamma`` leaves over ``1e-16 * |w|_1`` of ``reach`` to
    spare for them, so a row within ``tol`` stays inside the reach (and
    when ``M`` is 0 every ``y`` is exactly 0).

    If every gap between the sorted projections exceeds ``reach``, every
    row is its own class. Otherwise each row is compared only with the
    kept rows whose projections, kept sorted, lie within ``reach`` of its
    own, found by binary search. Python's ``sorted`` orders them: it maps
    in no numpy sort kernel, which would raise the peak memory of a
    process that sorts nothing else.
    """
    m = float(np.abs(points).max(initial=0.0))  # inf or NaN at a non-finite entry
    if not math.isfinite(m):
        raise ValueError("point contains non-finite entries")
    w, w1, slack = _weights(points.shape[1])
    frac, e = math.frexp(m)  # M = frac * 2**e
    proj = (np.ldexp(points, -e) @ w).tolist()
    t = float(np.ldexp(tol, -e))
    reach = w1 * (t + slack * (frac + t))
    if (np.diff(sorted(proj)) > reach).all():
        every = np.arange(len(points))
        return every, every
    kept, classes = [], []
    keys, at = [], []  # the kept rows' projections, ascending, and the class of each
    for b, (x, y) in enumerate(zip(points, proj)):
        cand = at[bisect_left(keys, y - reach) : bisect_right(keys, y + reach)]
        hit = _near(points[[kept[c] for c in cand]], x, tol).tolist() if cand else ()
        near = [c for c, h in zip(cand, hit) if h]
        if near:
            a = min(near)
        else:
            a = len(kept)
            kept.append(b)
            i = bisect_right(keys, y)
            keys.insert(i, y)
            at.insert(i, a)
        classes.append(a)
    return np.array(kept, dtype=np.intp), np.array(classes, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Deduplicated evaluation points, one per row.

    Two points coincide when every coordinate differs by at most
    ``dedup_tol``; construction rejects input violating that rule. The
    singular values of the quadratic basis are held for one center.
    """

    points: np.ndarray
    dedup_tol: float = 0.0

    def __post_init__(self):
        self._freeze()
        kept, classes = _distinct(self.points, self.dedup_tol)
        if len(kept) < len(classes):
            # Every row before the first merged one was kept, so its class is its row.
            b = int(np.flatnonzero(classes != np.arange(len(classes)))[0])
            raise ValueError(f"points {classes[b]} and {b} coincide under the dedup tolerance")

    @classmethod
    def _distinct(cls, points, dedup_tol: float, shared: bool = False) -> "PointSet":
        """Rows already deduplicated at ``dedup_tol``, unchecked; ``shared`` rows are not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dedup_tol", dedup_tol)
        self._freeze(copy=not shared)
        return self

    def _freeze(self, copy: bool = True) -> None:
        pts = np.array(self.points, dtype=float, copy=True) if copy else self.points
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError(f"points must form a nonempty 2-D array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite entries")
        if not self.dedup_tol >= 0:
            raise ValueError(f"dedup_tol must be nonnegative, got {self.dedup_tol}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_svd", None)

    def _singular_values(self, center=None, basis: np.ndarray | None = None) -> np.ndarray:
        """Singular values of ``quadratic_basis_matrix(self.points, center)``.

        Held, read-only, for the last center asked for, keyed by its bytes;
        a caller that has just built that basis may pass it in.
        """
        key = _basis_center(self.points, center).tobytes()
        held = self._svd
        if held is None or held[0] != key:
            if basis is None:
                basis, _, _ = quadratic_basis_matrix(self.points, center)
            if not np.isfinite(basis).all():
                raise ValueError("quadratic basis contains non-finite entries")
            held = (key, _read_only(np.linalg.svd(basis, compute_uv=False)))
            object.__setattr__(self, "_svd", held)
        return held[1]

    def _poised(self, center=None, basis: np.ndarray | None = None, strict: bool = False) -> bool:
        """Whether the points determine a unique quadratic: every singular
        value of the basis about ``center`` clears the cutoff of
        :mod:`nshess.linalg`. The one poisedness decision: a count other
        than ``(n+1)(n+2)/2`` raises :class:`~nshess.exceptions.NotPoisedError`,
        and so, with ``strict``, does a set that is not poised."""
        need = minimal_point_count(self.dim)
        if len(self) != need:
            raise NotPoisedError(
                f"a quadratic in R^{self.dim} needs exactly {need} points, got {len(self)}"
            )
        # The values are sorted, so the last is kept exactly when all are.
        poised = bool(linalg._kept(self._singular_values(center, basis), (need, need))[-1])
        if strict and not poised:
            raise NotPoisedError("point set is not poised for quadratic interpolation")
        return poised

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def contains(self, x, tol: float | None = None) -> bool:
        return self.index_of(x, tol) >= 0

    @_QUIET
    def index_of(self, x, tol: float | None = None) -> int:
        """Row index of the first point within ``tol`` of ``x``, or -1.

        ``x`` must be one point of this set's dimension and ``tol``, when
        given, nonnegative; it defaults to ``dedup_tol``. The test is the
        one :func:`_distinct` merges points by, so a distance that
        overflows, as between ``1e308`` and ``-1e308``, is a miss with no
        warning.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"query must be a point in R^{self.dim}, got shape {x.shape}")
        t = self.dedup_tol if tol is None else tol
        if not t >= 0:
            raise ValueError(f"tol must be nonnegative, got {t}")
        hits = np.flatnonzero(_near(self.points, x, t))
        return int(hits[0]) if hits.size else -1

    def to_csv(self, target) -> None:
        """Write one point per row; ``target`` is a path or a text stream."""
        header = ",".join(f"x{i + 1}" for i in range(self.dim))
        body = "\n".join(",".join(repr(float(v)) for v in row) for row in self.points)
        text = header + "\n" + body + "\n"
        _write_text(target, text)


@dataclass(frozen=True)
class MinimalityResult:
    """Outcome of the minimal-sample-set search, with a witness when found."""

    minimal: bool
    s_set: DirectionSet | None = None
    t_set: DirectionSet | None = None

    def __bool__(self) -> bool:
        return self.minimal


def dedup_tolerance(x0, *sets: DirectionSet) -> float:
    """Coincidence threshold for points sampled around ``x0``.

    ``1e-12 * (1 + |x0| + set radii)``: relative to the magnitude of the
    base point plus the radii of the direction sets involved, so that
    points assembled through different arithmetic paths still match.
    Callers that need another threshold pass it to :func:`nshc_points`.
    """
    return 1e-12 * (1.0 + _norm(np.asarray(x0, dtype=float)) + sum(s.radius for s in sets))


def build_uk(s_set: DirectionSet, k: int) -> DirectionSet:
    """Inner direction set that folds the sample points of an outer set S.

    For ``k == 0`` the result is S itself. For ``k >= 1`` column ``i`` is
    ``s_i - s_k`` (``i != k``) and column ``k`` is ``-s_k``. Pairing S with
    this set collapses the Hessian sample grid onto the minimal point count
    ``(n+1)(n+2)/2`` whenever S has full rank. S holds the last set built
    from it, so a repeated ``k`` returns the same set, with whatever it has
    factored.
    """
    n = s_set.dim
    if s_set.count != n:
        raise ValueError(f"S must be square (n x n) to build U_k, got {s_set.dim} x {s_set.count}")
    _, k = _checked_counts(n, k)
    slot = s_set._uk  # read once: another thread may replace it
    if slot is None or slot[0] != k:
        slot = k, DirectionSet(_uk_matrix(s_set.matrix, k))
        object.__setattr__(s_set, "_uk", slot)
    return slot[1]


def _uk_matrix(s: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return s
    sk = s[:, k - 1].copy()
    u = s - sk[:, None]
    u[:, k - 1] = -sk
    return u


def _fold_k(s_set: DirectionSet, t_set: DirectionSet) -> int | None:
    """The ``k`` for which T is bitwise ``build_uk(S, k)``, or None; read
    from S's slot when T is the set held there, with no matrix rebuilt."""
    held = s_set._uk
    if held is not None and held[1] is t_set:
        return held[0]
    s, t = s_set.matrix, t_set.matrix
    if s.shape != t.shape or s.shape[0] != s.shape[1]:
        return None
    # Column k of U_k is -s_k, so only columns equal to their negated
    # S column can name k >= 1.
    candidates = [0] + [int(j) + 1 for j in np.flatnonzero((t == -s).all(axis=0))]
    t_bytes = t.tobytes()
    for k in candidates:
        if _uk_matrix(s, k).tobytes() == t_bytes:
            return k
    return None


def fold_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coincidence classes of the folded ``(n+1) x (n+1)`` sample grid of ``(S, U_k)``.

    With ``s_0 = 0`` and σ the swap of indices 0 and k, grid cell ``(i, j)``
    is ``x0 - s_k + s_i + s_{σ(j)}`` (``x0 + s_i + s_j`` for ``k == 0``), so
    it names the unordered pair ``{i, σ(j)}``: exact combinatorics, with no
    tolerance. Returns ``(cls, first)``: ``cls[i, j]`` is the class of cell
    ``(i, j)``, classes numbered in row-major order of first appearance,
    and ``first[c]`` is the flat row-major position of class ``c``'s first
    cell. There are ``(n+1)(n+2)/2`` classes. The arguments are checked
    on every call; the arrays come from a memo, and both are read-only.
    """
    return _fold_classes(*_checked_counts(n, k))


@functools.lru_cache(maxsize=None)
def _fold_classes(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    sigma = list(range(n + 1))
    sigma[0], sigma[k] = k, 0
    ids: dict[tuple[int, int], int] = {}
    cells, first = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            c = ids.setdefault((min(i, sigma[j]), max(i, sigma[j])), len(ids))
            if c == len(first):
                first.append(i * (n + 1) + j)
            cells.append(c)
    cls = np.array(cells).reshape(n + 1, n + 1)
    first = np.array(first)
    cls.setflags(write=False)
    first.setflags(write=False)
    return cls, first


def _checked_counts(n, k) -> tuple[int, int]:
    """``(n, k)`` as plain ints, once ``n >= 1`` and ``0 <= k <= n``."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return n, k


def canonical_set(n: int, k: int, beta: float) -> tuple[DirectionSet, DirectionSet]:
    """Scaled coordinate sets ``S = beta * I`` and ``T = beta * E_k``.

    ``E_0`` is the identity; for ``k >= 1``, ``E_k`` has columns
    ``e_i - e_k`` (``i != k``) and ``-e_k``. The arguments are checked on
    every call; the pair comes from a memo of the last 128 geometries, so
    a repeated ``(n, k, beta)`` returns the same two sets, with every
    factor they hold.
    """
    n, k = _checked_counts(n, k)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return _canonical_pair(n, k, float(beta))


@functools.lru_cache(maxsize=128)
def _canonical_pair(n: int, k: int, beta: float) -> tuple[DirectionSet, DirectionSet]:
    s_set = DirectionSet(beta * np.eye(n))
    return s_set, build_uk(s_set, k)


def _base_point(x0, **dims: int) -> np.ndarray:
    """``x0`` as a float array, once it is a finite 1-D point in each named
    dimension: the one check of a base point, made where it first meets
    arithmetic (:func:`sample_grid` and the simplex read). Its one
    ``ValueError`` names every dimension."""
    x0 = np.asarray(x0, dtype=float)
    shaped = x0.ndim == 1 and all(n == x0.shape[0] for n in dims.values())
    if not (shaped and np.isfinite(x0).all()):
        where = ", ".join(f"{name} in R^{n}" for name, n in dims.items())
        got = "a non-finite entry" if shaped else f"shape {x0.shape}"
        raise ValueError(
            f"x0 must be a finite 1-D point in the dimension of each set ({where}); got {got}"
        )
    return x0


@_QUIET
def sample_grid(x0, s_set: DirectionSet, t_set: DirectionSet) -> np.ndarray:
    """The ``(m+1, k+1, n)`` array of points a nested Hessian estimate samples.

    ``grid[i, j] = (x0 + s_i) + t_j`` with ``s_0 = t_0 = 0``: row 0 holds
    ``x0`` and ``x0 + t_j``, column 0 holds ``x0 + s_i``. Every entry is
    formed by that one sequence of additions, so points shared by two
    estimates on the same sets are bitwise equal. Every grid record checks
    ``x0`` here, by :func:`_base_point`, and then that no sum overflowed.
    """
    x0 = _base_point(x0, S=s_set.dim, T=t_set.dim)
    grid = np.empty((s_set.count + 1, t_set.count + 1, x0.shape[0]))
    grid[0, 0] = x0
    grid[1:, 0] = x0 + s_set.matrix.T
    np.add(grid[:, :1], t_set.matrix.T, out=grid[:, 1:])
    if not np.isfinite(grid).all():
        raise ValueError("the sample grid of x0, S and T overflows: a point x0 + s_i + t_j is inf")
    return grid


@dataclass(eq=False)
class _Grid:
    """The distinct points of :func:`sample_grid`, and each cell's row among them.

    ``tol`` is the coincidence tolerance of the geometry, worked out once
    when the record is built: :func:`dedup_tolerance` of ``x0``, S and T,
    unless :func:`nshc_points` was given another. S holds up to two
    records, one per ``(T, x0)`` (:func:`_grid`). ``grid[i, j]`` reads as
    ``points[cls[i, j]]``, and the record makes every coincidence decision
    of its grid: when T is bitwise ``build_uk(S, k)`` and every cell lies
    within ``tol`` of the first cell of its :func:`fold_index` class, the
    candidates are those first cells, in row-major order; otherwise they
    are every cell in row-major order. (Cells of one class differ by
    rounding alone, which a coincidence tolerance of
    :func:`dedup_tolerance` exceeds.) :func:`_distinct` then merges the
    candidates within ``tol``, greedily in first-seen order, so
    ``points`` are distinct at ``tol`` and a cache is asked for each once.
    ``points`` and ``cls`` are read-only, and only this module reads them.
    The :class:`PointSet` of ``points`` is made by the first
    :meth:`point_set` that asks and holds ``points`` itself. The record
    also holds the F of its last complete :meth:`read` beside a weak
    reference to that cache, so a held geometry keeps no cache or oracle
    alive.
    """

    t_set: DirectionSet
    x0_key: tuple
    tol: float
    points: np.ndarray
    cls: np.ndarray
    _point_set: PointSet | None = None
    _last_read: tuple | None = None  # (weak reference to the cache, its F)

    def read(self, cache) -> np.ndarray:
        """``F[i, j]``: the values at ``points``, read from ``cache`` in one
        block, spread over the cells; read-only.

        On the cache of the last read that completed, the F it returned,
        with no request. A cache only ever adds points, and after a
        complete read every key of ``points`` is in its memo, so a second
        block would return these values row by row. Only a read that
        returned in full is held, and the slot is replaced in one
        assignment, so a concurrent reader sees the old pair or the new.
        """
        last = self._last_read
        if last is not None and last[0]() is cache:
            return last[1]
        values = _read_only(cache.evaluate_many(self.points)[self.cls])
        self._last_read = weakref.ref(cache), values
        return values

    def point_set(self) -> PointSet:
        """``points`` as a :class:`PointSet` at ``tol``, sharing their rows."""
        if self._point_set is None:
            self._point_set = PointSet._distinct(self.points, self.tol, shared=True)
        return self._point_set

    def point_values(self, cache) -> np.ndarray:
        """The values at ``points``, from the F :meth:`read` returns."""
        values = np.empty(len(self.points))
        # Every cell of a class holds its point's value, so any one will do.
        values[self.cls.ravel()] = self.read(cache).ravel()
        return values


_HELD_RECORDS = 2  # grid records an outer set holds


def _grid(x0, s_set: DirectionSet, t_set: DirectionSet, tol: float | None = None) -> _Grid:
    """The grid record of ``(x0, S, T)``.

    S holds the records of the last two ``(T, x0)`` it was used with, last
    used first, so every consumer of one geometry reads the same record,
    and a warm record works out nothing: a β sweep that moves between two
    base points builds each record once, and a sweep over ``x0`` or T
    keeps the last two. A new record, or a hit on the second, replaces the
    held tuple in one assignment, so a concurrent reader sees the old
    tuple or the new one; of two records stored at once, one may be
    dropped and built again. The key holds the shape of ``x0`` with its
    bytes: only an ``x0`` that :func:`sample_grid` accepted, a finite point
    of the sets' dimension, is ever stored, so a warm read checks nothing
    and a bad ``x0`` never hits and raises there. An explicit ``tol``
    builds a record at that tolerance for that call alone and leaves the
    held ones in place.
    """
    x0 = np.asarray(x0, dtype=float)
    key = x0.shape, x0.tobytes()
    if tol is None:
        held = s_set._records  # read once: another thread may replace it
        for i, record in enumerate(held):
            if record.t_set is t_set and record.x0_key == key:
                if i:  # a hit moves to the front
                    object.__setattr__(s_set, "_records", (record, *held[:i], *held[i + 1 :]))
                return record
    grid = sample_grid(x0, s_set, t_set)
    record_tol = dedup_tolerance(x0, s_set, t_set) if tol is None else tol
    points = grid.reshape(-1, grid.shape[2])
    cls = np.arange(len(points)).reshape(grid.shape[:2])
    k = _fold_k(s_set, t_set)
    if k is not None:
        fold_cls, first = fold_index(s_set.dim, k)
        # The cells of a class differ by rounding alone, and all are finite.
        if np.abs(points - points[first[fold_cls.ravel()]]).max() <= record_tol:
            points, cls = points[first], fold_cls
    kept, classes = _distinct(points, record_tol)
    if len(kept) < len(points):
        points, cls = points[kept], classes[cls]
    record = _Grid(t_set, key, record_tol, _read_only(points), _read_only(cls))
    if tol is None:
        object.__setattr__(s_set, "_records", (record, *held[: _HELD_RECORDS - 1]))
    return record


def _require_full_row_rank(d: DirectionSet, name: str, transpose: bool) -> None:
    """Rank check on the orientation whose pseudoinverse the estimator takes next."""
    r = d.rank(transpose)
    if r < d.dim:
        raise RankDeficientError(name, r, d.dim)


def _require_spacing(tol: float, **sets: DirectionSet) -> None:
    """Raise :class:`~nshess.exceptions.CollapsedGridError` when a column of
    any named set has max-norm at or below the coincidence tolerance ``tol``
    of its geometry: its points would merge with their base points and the
    estimate would read as zero."""
    for name, d in sets.items():
        if d.spacing <= tol:
            raise CollapsedGridError(name, d.spacing, tol)


def _checked_grid(x0, s_set: DirectionSet, t_set: DirectionSet) -> _Grid:
    """The held grid record of ``(x0, S, T)``, once S and T clear its tolerance."""
    grid = _grid(x0, s_set, t_set)
    _require_spacing(grid.tol, S=s_set, T=t_set)
    return grid


def _simplex_values(x0, t_set: DirectionSet, cache) -> np.ndarray:
    """``f(x0)`` and ``f(x0 + t_j)`` from ``cache``, once ``x0`` passes
    :func:`_base_point` and T clears the tolerance :func:`dedup_tolerance`
    of ``x0`` and T; points within it of an earlier one, greedily in that
    order, read its value."""
    x0 = _base_point(x0, T=t_set.dim)
    tol = dedup_tolerance(x0, t_set)
    _require_spacing(tol, T=t_set)
    points = np.vstack([x0, x0 + t_set.matrix.T])
    kept, classes = _distinct(points, tol)
    return cache.evaluate_many(points[kept])[classes]


def nshc_points(x0, s_set: DirectionSet, t_set: DirectionSet, tol: float | None = None) -> PointSet:
    """Every point a nested Hessian estimate at ``x0`` evaluates.

    The deduplicated :func:`sample_grid`, read row by row (``x0``, then
    ``x0 + t_j``, then ``x0 + s_i`` followed by ``x0 + s_i + t_j``), so the
    first-seen representative of each coincidence class is kept: these
    are the points an estimate on the grid requests. On a folded pair
    ``(S, U_k)`` only the first cell of each :func:`fold_index` class is
    read, and the points go through :func:`_distinct`. By default the set
    is the one of the grid record of ``(x0, S, T)`` held on S, at the
    tolerance of this geometry that every estimate on it uses, so a
    repeated call on the same ``(x0, S, T)`` returns the same set while S
    holds that record. Another ``tol`` gives the set at that tolerance, built afresh,
    and leaves the held records in place.
    """
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return _grid(x0, s_set, t_set, tol).point_set()


def count_distinct(x0, s_set: DirectionSet, t_set: DirectionSet) -> int:
    """Number of distinct evaluation points of the nested estimate."""
    return len(nshc_points(x0, s_set, t_set))


def minimal_point_count(n: int) -> int:
    """Points needed to determine a quadratic in R^n: (n+1)(n+2)/2."""
    n, _ = _checked_counts(n, 0)
    return (n + 1) * (n + 2) // 2


def quadratic_basis_matrix(points: np.ndarray, center=None):
    """Interpolation matrix of the natural quadratic basis on shifted points.

    Rows are ``[1, z, z_i*z_j (i<j), z_i^2/2]`` evaluated at
    ``z = (y - center) / scale``, the quadratic columns in row-major order
    of the upper triangle. Returns ``(matrix, center, scale)``, the center
    a read-only copy. Default center is the centroid; the scale is the
    largest distance of a point from the center, which keeps the matrix
    well scaled for rank tests and solves. ``center`` must be a finite
    point of the points' dimension. The scale is taken by :func:`_norm`, so
    it neither overflows nor underflows on finite points. A zero scale
    means 1; a non-finite one raises :class:`ValueError`.
    """
    pts = np.asarray(points, dtype=float)
    p, n = pts.shape
    center = _basis_center(pts, center)
    scale = _norm(pts - center, axis=1) or 1.0
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    z = (pts - center) / scale
    rows, cols, weights = _quadratic_terms(n)
    basis = np.empty((p, n + 1 + rows.size))
    basis[:, 0] = 1.0
    basis[:, 1 : n + 1] = z
    quadratic = basis[:, n + 1 :]
    np.multiply(z[:, rows], z[:, cols], out=quadratic)
    quadratic *= weights
    return basis, center, scale


@_QUIET
def _basis_center(points: np.ndarray, center) -> np.ndarray:
    """``center`` as a read-only copy, or the centroid when ``None``; checked.
    The centroid is bitwise ``points.mean(axis=0)`` wherever that is
    finite; where the sum of finite points overflows, it is the mean of
    the points over their largest |entry|, scaled back."""
    n = points.shape[1]
    if center is None:
        center = points.mean(axis=0)
        if not np.isfinite(center).all() and np.isfinite(points).all():
            top = float(np.abs(points).max())
            center = top * (points / top).mean(axis=0)
    else:
        center = np.array(center, dtype=float)
    if center.shape != (n,) or not np.isfinite(center).all():
        raise ValueError(f"center must be a finite point in R^{n}, got {center!r}")
    return _read_only(center)


@functools.lru_cache(maxsize=None)
def _quadratic_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor indices ``(i, j)`` of each quadratic basis column and its weight.

    Columns run over the upper triangle ``i <= j`` in row-major order; the
    weight is 1/2 on the diagonal and 1 elsewhere. Memoized, read-only.
    """
    rows, cols = np.triu_indices(n)
    return _read_only(rows), _read_only(cols), _read_only(np.where(rows == cols, 0.5, 1.0))


def is_poised_quadratic(points: PointSet) -> bool:
    """Whether the set determines a unique interpolating quadratic.

    Requires exactly ``(n+1)(n+2)/2`` distinct points; other cardinalities
    raise :class:`~nshess.exceptions.NotPoisedError`, a ``ValueError``,
    because the quadratic system could not be square. The basis is taken
    about the centroid.
    """
    return points._poised()


def is_minimal_nshc(points: PointSet, x0) -> MinimalityResult:
    """Search for direction sets whose nested sample grid is exactly ``points``.

    Brute force over candidate outer directions drawn from ``points - x0``
    and inner directions from the same pool, feasibility-filtered. Only
    dimensions up to 3 are attempted; beyond that the combinatorial search
    bound is exceeded and a ValueError is raised.
    """
    n = points.dim
    x0 = _base_point(x0, points=n)
    if n > 3:
        raise ValueError(f"minimality search bound exceeded: n = {n} > 3")
    if not points.contains(x0):
        raise ValueError("x0 must be one of the points")
    need = minimal_point_count(n)
    if len(points) != need:
        return MinimalityResult(False)

    tol = points.dedup_tol if points.dedup_tol > 0 else dedup_tolerance(x0)
    pool = [p - x0 for p in points.points if np.max(np.abs(p - x0)) > tol]

    for s_idx in combinations(range(len(pool)), n):
        s_mat = np.column_stack([pool[i] for i in s_idx])
        if linalg.rank(s_mat) < n:
            continue
        bases = [x0 + s_mat[:, i] for i in range(n)]
        feasible = []
        for cand in range(len(pool)):
            t = pool[cand]
            if not points.contains(x0 + t, tol):
                continue
            if all(points.contains(b + t, tol) for b in bases):
                feasible.append(cand)
        for t_idx in combinations(feasible, n):
            t_mat = np.column_stack([pool[i] for i in t_idx])
            if linalg.rank(t_mat) < n:
                continue
            s_set = DirectionSet(s_mat)
            t_set = DirectionSet(t_mat)
            generated = nshc_points(x0, s_set, t_set, tol)
            if len(generated) != need:
                continue
            if all(points.contains(g, tol) for g in generated):
                return MinimalityResult(True, s_set, t_set)
    return MinimalityResult(False)
