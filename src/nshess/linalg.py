"""Dense small-matrix kernel used by the rest of the library.

Matrices are plain numpy arrays, validated to be 2-D, nonempty and finite.
The pseudoinverse goes through an SVD with a relative singular-value cutoff
so rank-deficient input is handled without special cases.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pseudoinverse",
    "spectral_norm",
    "frobenius_norm",
    "rank",
]


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


_EPS = float(np.finfo(float).eps)
# The absolute floor tiny / eps keeps 1 / s finite: a subnormal singular
# value would otherwise pass a relative cutoff and invert to inf.
_FLOOR = float(np.finfo(float).tiny) / _EPS


def _cutoff(singular_values: np.ndarray, shape) -> float:
    """``max(rows, cols) * eps * sigma_max``, and never below the floor."""
    top = singular_values[0] if singular_values.size else 0.0
    return max(max(shape) * _EPS * top, _FLOOR)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``max(rows, cols) * eps * sigma_max`` are
    treated as zero, as are those at or below ``tiny / eps``, whose
    reciprocals would overflow. The cutoff is fixed, and :func:`rank`
    counts with the same one.
    """
    m = _as_matrix(a)
    return _pinv_from_svd(*np.linalg.svd(m, full_matrices=False), m.shape)


def _kept(singular_values: np.ndarray, shape) -> np.ndarray:
    """The singular values above :func:`_cutoff`, as a boolean mask."""
    return singular_values > _cutoff(singular_values, shape)


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, shape) -> np.ndarray:
    """``pinv`` of the ``shape`` matrix with thin SVD ``(u, s, vt)``."""
    inv = np.zeros_like(s)
    keep = _kept(s, shape)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def spectral_norm(a) -> float:
    """Largest singular value.

    The first of the singular values alone: bitwise ``np.linalg.norm(a, 2)``,
    which takes their maximum, at about half its cost on small matrices.
    """
    return float(np.linalg.svd(_as_matrix(a), compute_uv=False)[0])


def spectral_norms(stack) -> list[float]:
    """The largest singular value of each matrix of a ``(p, m, n)`` stack.

    One batched SVD: each matrix gets the LAPACK call :func:`spectral_norm`
    makes, so every norm is bitwise its. The stack is checked as a whole,
    like one matrix.
    """
    s = np.asarray(stack, dtype=float)
    if s.ndim != 3 or s.size == 0:
        raise ValueError(f"stack must be a nonempty 3-D array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("stack contains non-finite entries")
    return np.linalg.svd(s, compute_uv=False)[:, 0].tolist()


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries.

    ``sqrt(v . v)`` of the entries raveled in memory order, which is what
    ``np.linalg.norm(a, "fro")`` computes, bitwise, without its dispatch.
    """
    v = _as_matrix(a).ravel(order="K")
    return math.sqrt(v.dot(v))


def rank(a) -> int:
    """Number of singular values above the cutoff :func:`pseudoinverse` uses."""
    m = _as_matrix(a)
    return int(np.count_nonzero(_kept(np.linalg.svd(m, compute_uv=False), m.shape)))
