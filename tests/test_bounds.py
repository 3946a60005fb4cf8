import numpy as np
import pytest

from nshess import (
    BoundInputs,
    DirectionSet,
    canonical_set,
    error_bound_canonical,
    error_bound_gsg,
    error_bound_nsh,
)


def inputs(
    m=2,
    k=2,
    lipschitz_grad=1.0,
    lipschitz_hess=1.0,
    delta_s=0.1,
    delta_t=0.1,
    norm_s_pinv=1.0,
    norm_t_pinv=1.0,
):
    return BoundInputs(
        m=m,
        k=k,
        lipschitz_grad=lipschitz_grad,
        lipschitz_hess=lipschitz_hess,
        delta_s=delta_s,
        delta_t=delta_t,
        norm_s_pinv=norm_s_pinv,
        norm_t_pinv=norm_t_pinv,
    )


class TestGradientBound:
    def test_frozen_value(self):
        # k = 2, L = 2, unit norm factor, delta = 0.1 gives 0.1 sqrt(2).
        got = error_bound_gsg(inputs(k=2, lipschitz_grad=2.0, delta_t=0.1))
        np.testing.assert_allclose(got, 0.14142135623730953, rtol=1e-15)

    def test_zero_lipschitz_constant(self):
        assert error_bound_gsg(inputs(lipschitz_grad=0.0)) == 0.0

    def test_linear_in_radius(self):
        a = error_bound_gsg(inputs(delta_t=0.1))
        b = error_bound_gsg(inputs(delta_t=0.2))
        assert b == pytest.approx(2.0 * a)

    def test_needs_directions(self):
        with pytest.raises(ValueError):
            error_bound_gsg(inputs(k=0))


class TestHessianBound:
    def test_frozen_value(self):
        # m = k = 2, delta_s = 0.2, delta_t = 0.1, L = 6, unit norms:
        # (2 sqrt2 / 3) * 6 * (2*2 + 3) * 0.2 = 5.6 sqrt(2).
        got = error_bound_nsh(
            inputs(lipschitz_hess=6.0, delta_s=0.2, delta_t=0.1)
        )
        np.testing.assert_allclose(got, 7.919595949289333, rtol=1e-14)

    def test_zero_lipschitz_constant(self):
        assert error_bound_nsh(inputs(lipschitz_hess=0.0)) == 0.0

    def test_radius_ordering_is_symmetric(self):
        a = error_bound_nsh(inputs(delta_s=0.2, delta_t=0.1))
        b = error_bound_nsh(inputs(delta_s=0.1, delta_t=0.2))
        assert a == pytest.approx(b)

    def test_equal_radii_scale_linearly(self):
        a = error_bound_nsh(inputs(delta_s=0.1, delta_t=0.1))
        b = error_bound_nsh(inputs(delta_s=0.05, delta_t=0.05))
        assert a == pytest.approx(2.0 * b)

    def test_zero_lower_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            error_bound_nsh(inputs(delta_s=0.0, delta_t=0.0))

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            error_bound_nsh(inputs(m=0))


class TestCanonicalBound:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            error_bound_canonical(2, 0, 0.1, 6.0), 2.8284271247461903, rtol=1e-14
        )
        np.testing.assert_allclose(error_bound_canonical(2, 1, 0.1, 6.0), 13.2, rtol=1e-14)

    def test_k_positive_values_agree(self):
        for k in (1, 2, 3):
            assert error_bound_canonical(3, k, 0.2, 1.0) == pytest.approx(5.5 * 9 * 0.2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dominates_the_general_bound_on_canonical_sets(self, n):
        # The closed-form constants come from over-estimating the general
        # bound's conditioning factors, so they must sit above it.
        lip = 3.0
        for k in range(0, n + 1):
            for beta in (1e-1, 1e-3):
                s, t = canonical_set(n, k, beta)
                general = error_bound_nsh(BoundInputs.for_hessian(s, t, 0.0, lip))
                closed = error_bound_canonical(n, k, beta, lip)
                assert general <= closed * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "bad",
        [(0, 0, 0.1, 1.0), (2, 3, 0.1, 1.0), (2, 0, 0.0, 1.0), (2, 0, 0.1, -1.0),
         (3, 0, 0.1, float("nan")),  # a NaN constant used to give a NaN bound
         (3, 2, 0.1, -np.inf)],
    )
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            error_bound_canonical(*bad)


class TestBoundInputsFactories:
    def test_gradient_factory_uses_normalized_transpose(self):
        t = DirectionSet(0.5 * np.eye(3))
        made = BoundInputs.for_gradient(t, lipschitz_grad=2.0)
        assert made.k == 3
        assert made.delta_t == 0.5
        assert made.norm_t_pinv == pytest.approx(1.0)

    def test_hessian_factory_norms(self):
        s, t = canonical_set(2, 2, 0.5)
        made = BoundInputs.for_hessian(s, t, 1.0, 1.0)
        assert made.m == 2
        assert made.k == 2
        assert made.delta_s == pytest.approx(0.5)
        assert made.delta_t == pytest.approx(0.5 * np.sqrt(2.0))
        # S = beta I normalizes to the identity.
        assert made.norm_s_pinv == pytest.approx(1.0)
        e_hat = t.matrix / t.radius
        assert made.norm_t_pinv == pytest.approx(np.linalg.norm(np.linalg.pinv(e_hat), 2))

    def test_delta_u_and_delta_l(self):
        made = inputs(delta_s=0.3, delta_t=0.1)
        assert made.delta_u == 0.3
        assert made.delta_l == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            inputs(lipschitz_grad=-1.0)
        with pytest.raises(ValueError):
            inputs(delta_s=-0.1)
        with pytest.raises(ValueError):
            inputs(norm_t_pinv=-2.0)

    @pytest.mark.parametrize(
        "field",
        ["lipschitz_grad", "lipschitz_hess", "delta_s", "delta_t", "norm_s_pinv", "norm_t_pinv"],
    )
    def test_rejects_nan_certificates(self, field):
        # NaN used to pass the "< 0" checks, and error_bound_nsh returned nan.
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            inputs(**{field: float("nan")})
