import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nshess import linalg


def coordinate_transfer_matrix(n, k):
    """Columns e_i - e_k (i != k) and -e_k; the identity when k = 0."""
    if k == 0:
        return np.eye(n)
    e = np.eye(n)
    m = e - e[:, k - 1][:, None]
    m[:, k - 1] = -e[:, k - 1]
    return m


def check_penrose(a, p, tol):
    # Each identity is checked at the scale of its own result; the products
    # a p and p a are projectors, so plain tol covers their symmetry.
    scale_a = 1.0 + np.linalg.norm(a, 2)
    scale_p = 1.0 + np.linalg.norm(p, 2)
    np.testing.assert_allclose(a @ p @ a, a, atol=tol * scale_a, rtol=0)
    np.testing.assert_allclose(p @ a @ p, p, atol=tol * scale_p, rtol=0)
    np.testing.assert_allclose(a @ p, (a @ p).T, atol=tol, rtol=0)
    np.testing.assert_allclose(p @ a, (p @ a).T, atol=tol, rtol=0)


# Worst Penrose residual seen over 20000 random matrices up to 8 x 8 was
# 29 * eps * kappa; C leaves margin above that.
PENROSE_ROUNDING_C = 100.0


def kept_condition(a):
    """sigma_max over the smallest singular value pseudoinverse keeps."""
    s = np.linalg.svd(a, compute_uv=False)
    r = linalg.rank(a)
    return s[0] / s[r - 1] if r else 1.0


@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    data=st.data(),
)
@hyp_settings(max_examples=60, deadline=None)
def test_pseudoinverse_penrose_properties(rows, cols, data):
    a = data.draw(
        arrays(
            np.float64,
            (rows, cols),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        )
    )
    # Identities 2-4 hold only to about eps * kappa for any double-precision
    # pseudoinverse, so every draw is held to the rounding model of the
    # ill-conditioned cases below, whatever its condition number.
    p = linalg.pseudoinverse(a)
    check_penrose(a, p, PENROSE_ROUNDING_C * np.finfo(float).eps * kept_condition(a))


def _hilbert(n):
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 3e-11]]),
        np.array([[1.0, 1.0 + 2.0**-23], [1.0, 1.0]]),
        _hilbert(6),
        _hilbert(8)[:, :5],
    ],
    ids=["near-equal-rows-1e-9", "near-equal-rows-3e-11", "float32-step", "hilbert6", "hilbert8x5"],
)
def test_pseudoinverse_penrose_properties_ill_conditioned(a):
    # Identities 2-4 hold only to about eps * kappa (relative) for any
    # double-precision pseudoinverse, and the products in check_penrose
    # round by as much, so these matrices are held to that rounding model.
    kappa = kept_condition(a)
    p = linalg.pseudoinverse(a)
    check_penrose(a, p, PENROSE_ROUNDING_C * np.finfo(float).eps * kappa)


def test_pseudoinverse_of_subnormal_matrix_is_finite():
    # 1 / 2.2e-311 overflows; the absolute cutoff floor treats it as zero.
    a = np.array([[2.2e-311]])
    p = linalg.pseudoinverse(a)
    np.testing.assert_array_equal(p, [[0.0]])
    check_penrose(a, p, 1e-10)
    assert linalg.rank(a) == 0


def test_pseudoinverse_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
        np.testing.assert_allclose(
            linalg.pseudoinverse(a), np.linalg.pinv(a), atol=1e-12, rtol=1e-10
        )


def test_pseudoinverse_of_rank_deficient_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    p = linalg.pseudoinverse(a)
    check_penrose(a, p, 1e-12)
    assert linalg.rank(a) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalized_transfer_matrix_pseudoinverse_is_doubling(n):
    # E_n is involutory, so pinv of E_n / sqrt(2) is sqrt(2) E_n, which is
    # twice the normalized matrix itself.
    e_hat = coordinate_transfer_matrix(n, n) / np.sqrt(2.0)
    np.testing.assert_allclose(
        linalg.pseudoinverse(e_hat), 2.0 * e_hat, atol=1e-13, rtol=0
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalized_transfer_inverse_frobenius_norm(n):
    e_hat = coordinate_transfer_matrix(n, n) / np.sqrt(2.0)
    got = linalg.frobenius_norm(np.linalg.inv(e_hat))
    np.testing.assert_allclose(got, np.sqrt(4.0 * n - 2.0), rtol=1e-13)


def test_frobenius_norm_of_two_dim_transfer_inverse():
    e_hat = coordinate_transfer_matrix(2, 2) / np.sqrt(2.0)
    np.testing.assert_allclose(
        linalg.frobenius_norm(np.linalg.inv(e_hat)), 2.449489742783178, rtol=1e-14
    )


def test_spectral_norm_against_power_iteration():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3))
    v = rng.standard_normal(3)
    for _ in range(500):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    sigma = np.linalg.norm(a @ v)
    np.testing.assert_allclose(linalg.spectral_norm(a), sigma, rtol=1e-10)


def test_norms_on_known_matrix():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert linalg.spectral_norm(a) == 4.0
    assert linalg.frobenius_norm(a) == 5.0


def test_spectral_norm_is_bitwise_numpy_two_norm():
    rng = np.random.default_rng(5)
    cases = [np.zeros((3, 3)), np.ones((2, 4)), np.array([[0.0, 1e-300], [0.0, 0.0]])]
    for _ in range(300):
        a = rng.standard_normal(tuple(rng.integers(1, 7, 2)))
        a[:, rng.integers(a.shape[1])] = 0.0  # a zero column: rank deficient
        cases.append(a)
        cases.append(np.outer(a[:, 0], rng.standard_normal(4)))  # rank at most one
    for a in cases:
        assert linalg.spectral_norm(a) == float(np.linalg.norm(a, 2))


def test_frobenius_dominates_spectral():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        assert linalg.frobenius_norm(a) >= linalg.spectral_norm(a) - 1e-12


def test_rank_counts_directions():
    assert linalg.rank(np.eye(3)) == 3
    assert linalg.rank(np.ones((3, 3))) == 1
    assert linalg.rank(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) == 2


def test_rank_counts_what_the_pseudoinverse_inverts():
    for a in (np.diag([1.0, 1e-6]), np.diag([1.0, 1e-17]), np.diag([1e-300, 1e-310])):
        assert linalg.rank(a) == np.count_nonzero(np.diag(linalg.pseudoinverse(a)))
    assert linalg.rank(np.diag([1.0, 1e-6])) == 2
    assert linalg.rank(np.diag([1.0, 1e-17])) == 1


@pytest.mark.parametrize("bad", [np.empty((0, 2)), np.array([1.0, 2.0])])
def test_matrix_validation_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        linalg.pseudoinverse(bad)


def test_matrix_validation_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        linalg.spectral_norm(np.array([[1.0, np.nan]]))
