import io

import numpy as np
import pytest

from nshess import (
    DirectionSet,
    PointSet,
    build_uk,
    canonical_set,
    count_distinct,
    dedup_tolerance,
    is_minimal_nshc,
    is_poised_quadratic,
    minimal_point_count,
    nshc_points,
    quadratic_basis_matrix,
)
from nshess.sets import sample_grid


def naive_distinct_count(x0, s_mat, t_mat, decimals=9):
    """Independent count: round coordinates and collect in a set."""
    pts = {tuple(np.round(x0, decimals))}
    for j in range(t_mat.shape[1]):
        pts.add(tuple(np.round(x0 + t_mat[:, j], decimals)))
    for i in range(s_mat.shape[1]):
        base = x0 + s_mat[:, i]
        pts.add(tuple(np.round(base, decimals)))
        for j in range(t_mat.shape[1]):
            pts.add(tuple(np.round(base + t_mat[:, j], decimals)))
    return len(pts)


class TestDirectionSet:
    def test_basic_properties(self):
        d = DirectionSet(np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 4.0]]))
        assert d.dim == 2
        assert d.count == 3
        assert d.radius == 5.0
        np.testing.assert_array_equal(d.column(1), [0.0, 2.0])

    def test_matrix_is_copied_and_frozen(self):
        m = np.eye(2)
        d = DirectionSet(m)
        m[0, 0] = 99.0
        assert d.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 5.0

    def test_from_columns(self):
        d = DirectionSet.from_columns([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(d.matrix, np.eye(2))

    def test_scaled_and_normalized(self):
        d = DirectionSet(2.0 * np.eye(2))
        assert d.scaled(0.5).radius == 1.0
        assert d.normalized().radius == 1.0

    def test_normalized_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            DirectionSet(np.zeros((2, 2))).normalized()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DirectionSet(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            DirectionSet(np.array([1.0, 2.0]))


class TestBuildUk:
    def test_k_zero_returns_s_itself(self):
        s = DirectionSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(build_uk(s, 0).matrix, s.matrix)

    def test_scaled_identity_k_one(self):
        s = DirectionSet(2.0 * np.eye(2))
        u = build_uk(s, 1)
        np.testing.assert_array_equal(u.matrix[:, 0], [-2.0, 0.0])
        np.testing.assert_array_equal(u.matrix[:, 1], [-2.0, 2.0])

    def test_identity_k_two_matches_transfer_columns(self):
        s = DirectionSet(np.eye(2))
        u = build_uk(s, 2)
        np.testing.assert_array_equal(u.matrix[:, 0], [1.0, -1.0])
        np.testing.assert_array_equal(u.matrix[:, 1], [0.0, -1.0])

    def test_preserves_full_rank(self):
        rng = np.random.default_rng(0)
        for n in range(2, 6):
            s = DirectionSet(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
            for k in range(0, n + 1):
                u = build_uk(s, k)
                assert np.linalg.matrix_rank(u.matrix) == n

    def test_rejects_rectangular_s(self):
        with pytest.raises(ValueError, match="square"):
            build_uk(DirectionSet(np.ones((2, 3))), 0)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            build_uk(DirectionSet(np.eye(2)), 3)


class TestCanonicalSet:
    def test_k_zero_is_two_scaled_identities(self):
        s, t = canonical_set(3, 0, 0.5)
        np.testing.assert_array_equal(s.matrix, 0.5 * np.eye(3))
        np.testing.assert_array_equal(t.matrix, 0.5 * np.eye(3))

    def test_k_positive_radius_is_sqrt2_beta(self):
        for n in range(2, 6):
            for k in range(1, n + 1):
                s, t = canonical_set(n, k, 0.3)
                assert s.radius == pytest.approx(0.3)
                assert t.radius == pytest.approx(0.3 * np.sqrt(2.0))

    def test_inner_set_is_involutory_after_unscaling(self):
        s, t = canonical_set(4, 2, 2.0)
        e = t.matrix / 2.0
        np.testing.assert_allclose(e @ e, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("bad", [(0, 0, 1.0), (2, 3, 1.0), (2, 0, 0.0), (2, 0, -1.0)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            canonical_set(*bad)


class TestNshcPoints:
    def test_rejects_nan_tolerance(self):
        s, t = canonical_set(2, 1, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            nshc_points(np.zeros(2), s, t, float("nan"))

    def test_worked_grid(self):
        s, t = canonical_set(2, 2, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        got = {tuple(np.round(p, 9)) for p in pts.points}
        assert got == {(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (2, -1)}

    def test_k_zero_grid(self):
        s, t = canonical_set(2, 0, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        got = {tuple(np.round(p, 9)) for p in pts.points}
        assert got == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_canonical_counts_are_minimal_for_all_k(self, n):
        for k in range(0, n + 1):
            s, t = canonical_set(n, k, 0.1)
            assert count_distinct(np.zeros(n), s, t) == minimal_point_count(n)

    def test_counts_match_naive_oracle_at_shifted_base(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            x0 = rng.standard_normal(n)
            for k in range(0, n + 1):
                s, t = canonical_set(n, k, 0.25)
                assert count_distinct(x0, s, t) == naive_distinct_count(
                    x0, s.matrix, t.matrix
                )

    def test_generic_sets_do_not_fold(self):
        rng = np.random.default_rng(1)
        s = DirectionSet(rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        t = DirectionSet(rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        assert count_distinct(np.zeros(2), s, t) == 9

    def test_folding_survives_random_base_points(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x0 = 100.0 * rng.standard_normal(3)
            s, t = canonical_set(3, 1, 1e-3)
            assert count_distinct(x0, s, t) == 10

    def test_dimension_mismatch(self):
        s, t = canonical_set(2, 0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            nshc_points(np.zeros(3), s, t)


class TestDedupTolerance:
    def test_scales_with_base_point_and_radii(self):
        s, t = canonical_set(2, 0, 1.0)
        near = dedup_tolerance(np.zeros(2), s, t)
        far = dedup_tolerance(1e6 * np.ones(2), s, t)
        assert far > near
        assert near == pytest.approx(1e-12 * 3.0)


class TestMinimalPointCount:
    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 6), (3, 10), (4, 15), (8, 45)])
    def test_values(self, n, expected):
        assert minimal_point_count(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            minimal_point_count(0)


class TestPointSet:
    def test_len_dim_contains(self):
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), dedup_tol=1e-9)
        assert len(ps) == 2
        assert ps.dim == 2
        assert ps.contains([1.0, 1e-12])
        assert not ps.contains([0.5, 0.0])
        assert ps.index_of([0.0, 0.0]) == 0
        assert ps.index_of([9.0, 9.0]) == -1

    @pytest.mark.parametrize("tol", [np.nan, -1e-9])
    def test_query_rejects_nan_and_negative_tolerance(self, tol):
        # Both used to answer -1 / False silently.
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), dedup_tol=1e-9)
        with pytest.raises(ValueError, match="nonnegative"):
            ps.index_of([1.0, 0.0], tol)
        with pytest.raises(ValueError, match="nonnegative"):
            ps.contains([1.0, 0.0], tol)
        assert ps.index_of([1.0, 0.0], 0.0) == 1

    @pytest.mark.parametrize("query", [[1.0], 1.0, [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_wrong_shaped_query_raises(self, query):
        # A shape-(1,) or scalar query used to broadcast against every row
        # and match [1, 1].
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="R\\^2"):
            ps.index_of(query)
        with pytest.raises(ValueError, match="R\\^2"):
            ps.contains(np.asarray(query))
        assert ps.index_of([1.0, 1.0]) == 1

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="coincide"):
            PointSet(np.array([[0.0, 0.0], [1e-13, 0.0]]), dedup_tol=1e-9)

    def test_rejects_the_rows_nshc_points_merges(self):
        x0 = np.array([0.3, -0.2])
        s_set, t_set = canonical_set(2, 0, 0.5)
        grid = sample_grid(x0, s_set, t_set).reshape(-1, 2)
        tol = dedup_tolerance(x0, s_set, t_set)
        with pytest.raises(ValueError, match="coincide"):
            PointSet(grid, dedup_tol=tol)
        assert len(nshc_points(x0, s_set, t_set)) == minimal_point_count(2)

    def test_nshc_points_equals_the_checked_construction(self):
        rng = np.random.default_rng(11)
        for n, k in [(2, 0), (3, 2), (5, 5)]:
            s_set, t_set = canonical_set(n, k, 0.1)
            x0 = rng.uniform(-1.0, 1.0, n)
            got = nshc_points(x0, s_set, t_set)
            checked = PointSet(got.points, got.dedup_tol)
            assert got.points.tobytes() == checked.points.tobytes()
            assert got.dedup_tol == checked.dedup_tol
            assert not got.points.flags.writeable
        s_set = DirectionSet(rng.standard_normal((3, 4)))
        t_set = DirectionSet(rng.standard_normal((3, 3)))
        x0 = rng.standard_normal(3)
        got = nshc_points(x0, s_set, t_set)
        grid = sample_grid(x0, s_set, t_set).reshape(-1, 3)
        assert got.points.tobytes() == PointSet(grid, got.dedup_tol).points.tobytes()

    def test_rejects_nan_and_negative_tolerance(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        for bad in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="nonnegative"):
                PointSet(points, dedup_tol=bad)
        assert len(PointSet(points[:1], dedup_tol=np.inf)) == 1

    def test_csv_round_trip(self):
        ps = PointSet(np.array([[0.5, -1.0], [2.0, 3.25]]))
        buf = io.StringIO()
        ps.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x1,x2"
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(back, ps.points)

    def test_csv_to_path(self, tmp_path):
        ps = PointSet(np.array([[1.0], [2.0]]))
        target = tmp_path / "pts.csv"
        ps.to_csv(target)
        assert target.read_text().startswith("x1\n")


class TestQuadraticBasisMatrix:
    def test_square_on_minimal_set(self):
        s, t = canonical_set(2, 2, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        basis, center, scale = quadratic_basis_matrix(pts.points)
        assert basis.shape == (6, 6)
        assert scale > 0

    def test_reproduces_quadratic_values(self):
        # Solving the system on the scaled basis and evaluating back must
        # reproduce the sampled quadratic exactly.
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 2))
        def q(x):
            return 1.0 + 2.0 * x[0] - x[1] + 0.5 * (3.0 * x[0] ** 2 + 2.0 * x[0] * x[1])
        vals = np.array([q(p) for p in pts])
        basis, center, scale = quadratic_basis_matrix(pts)
        coef = np.linalg.solve(basis, vals)
        np.testing.assert_allclose(basis @ coef, vals, atol=1e-10)


class TestPoisedness:
    def test_folded_canonical_grid_is_poised(self):
        for k in range(0, 3):
            s, t = canonical_set(2, k, 1.0)
            assert is_poised_quadratic(nshc_points(np.zeros(2), s, t))

    def test_six_point_cross_is_poised(self):
        cross = PointSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
        )
        assert is_poised_quadratic(cross)

    def test_degenerate_set_is_not_poised(self):
        # Six points on the union of two lines x2 = 0 and x2 = 1 cannot
        # determine the x2^2 coefficient together with the rest.
        pts = PointSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        )
        assert not is_poised_quadratic(pts)

    def test_poisedness_is_translation_invariant(self):
        s, t = canonical_set(2, 1, 1.0)
        base = nshc_points(np.zeros(2), s, t)
        shifted = PointSet(base.points + np.array([100.0, -50.0]), base.dedup_tol)
        assert is_poised_quadratic(base) == is_poised_quadratic(shifted) == True  # noqa: E712

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            is_poised_quadratic(PointSet(np.array([[0.0, 0.0], [1.0, 0.0]])))


class TestMinimality:
    def test_worked_grid_is_minimal_with_witness(self):
        s, t = canonical_set(2, 2, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        result = is_minimal_nshc(pts, np.zeros(2))
        assert result
        regen = nshc_points(np.zeros(2), result.s_set, result.t_set)
        assert len(regen) == 6
        assert all(pts.contains(p) for p in regen)

    def test_cross_is_poised_but_not_minimal(self):
        cross = PointSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
        )
        assert is_poised_quadratic(cross)
        assert not is_minimal_nshc(cross, np.zeros(2))

    def test_one_dimensional_grid(self):
        s, t = canonical_set(1, 0, 1.0)
        pts = nshc_points(np.zeros(1), s, t)
        assert is_minimal_nshc(pts, np.zeros(1))

    def test_invariance_under_invertible_maps_and_reordering(self):
        rng = np.random.default_rng(17)
        s, t = canonical_set(2, 2, 1.0)
        for _ in range(10):
            n_mat = rng.standard_normal((2, 2))
            while abs(np.linalg.det(n_mat)) < 0.2:
                n_mat = rng.standard_normal((2, 2))
            p1 = np.eye(2)[rng.permutation(2)]
            p2 = np.eye(2)[rng.permutation(2)]
            s_bar = DirectionSet(n_mat @ s.matrix @ p1)
            t_bar = DirectionSet(n_mat @ t.matrix @ p2)
            moved = nshc_points(np.zeros(2), s_bar, t_bar)
            assert len(moved) == 6
            assert is_minimal_nshc(moved, np.zeros(2))

    def test_wrong_cardinality_is_not_minimal(self):
        pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert not is_minimal_nshc(pts, np.zeros(2))

    def test_search_bound_above_three_dimensions(self):
        s, t = canonical_set(4, 0, 1.0)
        pts = nshc_points(np.zeros(4), s, t)
        with pytest.raises(ValueError, match="search bound"):
            is_minimal_nshc(pts, np.zeros(4))

    def test_base_point_must_belong_to_the_set(self):
        s, t = canonical_set(2, 1, 1.0)
        pts = nshc_points(np.zeros(2), s, t)
        with pytest.raises(ValueError, match="x0"):
            is_minimal_nshc(pts, np.array([5.0, 5.0]))
