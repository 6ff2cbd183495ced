"""Network data model, pair indexing, and the balanced matrix class."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from netmoment.errors import DataError
from netmoment.network import (
    NetworkData,
    check_diagonally_balanced,
    covariate_magnitude,
    pair_count,
    pair_indices,
    pair_offset,
)
from oracles import diagonal_inverse_approx, random_balanced_matrix


class TestPairIndexing:
    def test_offsets_enumerate_storage_order(self):
        rows, cols = pair_indices(7)
        assert rows.size == pair_count(7) == 21
        for k, (i, j) in enumerate(zip(rows, cols)):
            assert pair_offset(i, j) == k
            assert pair_offset(j, i) == k

    def test_self_pair_rejected(self):
        with pytest.raises(DataError):
            pair_offset(3, 3)


def _random_network(n, p, seed):
    rng = np.random.default_rng(seed)
    rows, cols = pair_indices(n)
    w = rng.uniform(0.0, 2.0, size=rows.size)
    a = np.zeros((n, n))
    a[rows, cols] = w
    a[cols, rows] = w
    z = rng.normal(size=(rows.size, p))
    return NetworkData(a, z)


class TestNetworkDataValidation:
    def test_asymmetric_rejected(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(DataError):
            NetworkData(a, np.zeros((3, 1)))

    def test_self_loops_rejected(self):
        a = np.eye(4)
        with pytest.raises(DataError):
            NetworkData(a, np.zeros((6, 1)))

    def test_wrong_covariate_length_rejected(self):
        with pytest.raises(DataError):
            NetworkData(np.zeros((4, 4)), np.zeros((5, 1)))

    def test_non_finite_rejected(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(DataError):
            NetworkData(a, np.zeros((3, 1)))
        with pytest.raises(DataError):
            NetworkData(np.zeros((3, 3)), np.full((3, 1), np.inf))

    def test_arrays_are_read_only(self):
        data = _random_network(5, 2, 0)
        with pytest.raises(ValueError):
            data.adjacency[0, 1] = 9.0
        with pytest.raises(ValueError):
            data.covariates[0, 0] = 9.0
        with pytest.raises(ValueError):
            data.pair_weights[0] = 9.0
        with pytest.raises(ValueError):
            data.degrees[0] = 9.0

    def test_adjacency_built_on_first_read(self):
        rows, cols = pair_indices(6)
        a = np.zeros((6, 6))
        a[rows, cols] = a[cols, rows] = np.arange(1.0, rows.size + 1)
        data = NetworkData(a, np.zeros((rows.size, 1)))
        assert all(np.ndim(v) < 2 or v.shape[0] != v.shape[1] for v in vars(data).values())
        a[1, 0] = a[0, 1] = -1.0  # the input is not kept
        assert data.pair_weights[0] == 1.0
        assert data.adjacency[1, 0] == data.adjacency[0, 1] == 1.0
        assert data.adjacency is data.adjacency
        assert np.array_equal(data.adjacency.sum(axis=1), data.degrees)

    def test_one_dimensional_covariates_get_a_column(self):
        data = NetworkData(np.zeros((3, 3)), np.arange(3.0))
        assert data.covariates.shape == (3, 1)


class TestDegrees:
    def test_empty_graph_zero(self):
        data = NetworkData(np.zeros((5, 5)), np.zeros((10, 1)))
        assert_allclose(data.degrees, np.zeros(5))

    def test_complete_binary_graph(self):
        a = np.ones((4, 4)) - np.eye(4)
        data = NetworkData(a, np.zeros((6, 1)))
        assert_allclose(data.degrees, np.full(4, 3.0))

    def test_overflowing_sum_is_infinite(self):
        # accepted without a RuntimeWarning; fitting rejects such degrees
        a = np.zeros((3, 3))
        a[1, 0] = a[0, 1] = a[2, 0] = a[0, 2] = 1.7e308
        data = NetworkData(a, np.zeros((3, 1)))
        assert data.degrees.tolist() == [np.inf, 1.7e308, 1.7e308]

    def test_random_weighted_matches_double_loop(self):
        data = _random_network(8, 1, 3)
        expected = np.zeros(8)
        for i in range(8):
            for j in range(8):
                if i != j:
                    expected[i] += data.adjacency[i, j]
        assert_allclose(data.degrees, expected, rtol=1e-15)


class TestNodePairSums:
    def test_matches_double_loop_1d(self):
        data = _random_network(9, 1, 4)
        values = np.random.default_rng(5).normal(size=data.n_pairs)
        got = data.node_pair_sums(values)
        expected = np.zeros(9)
        for i in range(9):
            for j in range(9):
                if i != j:
                    expected[i] += values[pair_offset(i, j)]
        assert_allclose(got, expected, rtol=1e-12)

    def test_matches_double_loop_2d(self):
        data = _random_network(6, 3, 6)
        values = np.random.default_rng(7).normal(size=(data.n_pairs, 3))
        got = data.node_pair_sums(values)
        expected = np.zeros((6, 3))
        for i in range(6):
            for j in range(6):
                if i != j:
                    expected[i] += values[pair_offset(i, j)]
        assert_allclose(got, expected, rtol=1e-12)


class TestCovariateMagnitude:
    def test_zeros(self):
        data = NetworkData(np.zeros((4, 4)), np.zeros((6, 2)))
        assert covariate_magnitude(data) == 0.0

    def test_signed_entries(self):
        z = np.zeros((6, 1))
        z[0], z[1], z[2] = -2.0, 1.0, 0.5
        data = NetworkData(np.zeros((4, 4)), z)
        assert covariate_magnitude(data) == 2.0

    def test_random_matches_scan(self):
        data = _random_network(7, 2, 8)
        expected = max(abs(v) for row in data.covariates for v in row)
        assert covariate_magnitude(data) == expected


class TestBalancedClass:
    def test_three_node_member(self):
        v = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        check = check_diagonally_balanced(v)
        assert check.is_member
        assert check.min_offdiag == 1.0
        assert check.max_offdiag == 1.0

    def test_identity_not_member(self):
        assert not check_diagonally_balanced(np.eye(4)).is_member

    def test_unbalanced_diagonal_not_member(self):
        v = random_balanced_matrix(6, 1.0, 2.0, np.random.default_rng(0))
        v = v.copy()
        v[2, 2] += 0.5
        assert not check_diagonally_balanced(v).is_member

    def test_random_members_pass(self, rng):
        for _ in range(5):
            v = random_balanced_matrix(10, 0.5, 3.0, rng)
            check = check_diagonally_balanced(v)
            assert check.is_member
            assert 0.5 <= check.min_offdiag <= check.max_offdiag <= 3.0

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            check_diagonally_balanced(np.zeros((2, 3)))


class TestDiagonalInverseApprox:
    def test_three_node_value(self):
        v = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        assert_allclose(diagonal_inverse_approx(v), np.eye(3) / 2.0, rtol=1e-15)

    def test_diagonal_product_is_identity(self, rng):
        v = random_balanced_matrix(8, 1.0, 2.0, rng)
        s = diagonal_inverse_approx(v)
        assert_allclose(np.diag(s) * np.diag(v), np.ones(8), rtol=1e-15)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(DataError):
            diagonal_inverse_approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_error_decays_with_size(self, rng):
        # dense-inverse oracle: the max-abs gap to the true inverse shrinks
        medians = []
        for n in (20, 50):
            gaps = []
            for _ in range(10):
                v = random_balanced_matrix(n, 1.0, 2.0, rng)
                gaps.append(
                    np.abs(np.linalg.inv(v) - diagonal_inverse_approx(v)).max()
                )
            medians.append(np.median(gaps))
        assert medians[1] < medians[0]


def test_random_balanced_matrix_rejects_bad_range(rng):
    with pytest.raises(DataError):
        random_balanced_matrix(5, -1.0, 2.0, rng)
    with pytest.raises(DataError):
        random_balanced_matrix(5, 2.0, 1.0, rng)
