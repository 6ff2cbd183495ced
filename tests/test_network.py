"""Network data model, pair indexing, and the balanced matrix class."""

import gc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from netmoment import network
from netmoment.errors import DataError
from netmoment.network import (
    NetworkData,
    check_diagonally_balanced,
    covariate_magnitude,
    pair_count,
    pair_indices,
    pair_offset,
    symmetric_from_pairs,
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

    def test_lists_and_arrays_of_ids(self):
        assert pair_offset([1, 2, 2], [0, 0, 1]).tolist() == [0, 1, 2]
        assert pair_offset(np.array([0, 3]), [1, 1]).tolist() == [0, 4]
        with pytest.raises(DataError, match="node id"):
            pair_offset([1, 2], [0.0, 1.0])


class TestSymmetricFromPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_matches_pair_offsets_in_every_entry(self, n):
        rng = np.random.default_rng(n)
        values, diagonal = rng.normal(size=pair_count(n)), rng.normal(size=n)
        out = np.full((n, n), np.nan)
        m = symmetric_from_pairs(n, values, diagonal, out)
        assert m is out
        for i in range(n):
            for j in range(n):
                assert m[i, j] == (diagonal[i] if i == j else values[pair_offset(i, j)])

    def test_scalar_diagonal_and_new_array(self):
        m = symmetric_from_pairs(3, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(m, [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


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

    def test_one_node_rejected(self):
        with pytest.raises(DataError, match="at least two nodes"):
            NetworkData(np.zeros((1, 1)), np.zeros((0, 1)))

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


class TestSharedPairIndex:
    N = 29  # no other test keeps a network of this size alive

    def test_networks_of_one_size_share_one_read_only_column_index(self):
        first, second = _random_network(self.N, 1, 0), _random_network(self.N, 2, 1)
        assert np.shares_memory(first.cols, second.cols)
        assert not first.cols.flags.writeable
        with pytest.raises(ValueError):
            first.cols[0] = 1
        rows, cols = pair_indices(self.N)
        assert np.array_equal(first.cols, cols) and first.cols.dtype == cols.dtype

    def test_no_pair_index_of_its_own(self):
        first, second = _random_network(self.N, 1, 0), _random_network(self.N, 1, 1)
        for value in vars(first).values():
            if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
                assert value.shape != (first.n_pairs,) or np.shares_memory(value, second.cols)

    def test_rows_are_built_on_access(self):
        data = _random_network(self.N, 1, 0)
        rows, _ = pair_indices(self.N)
        assert np.array_equal(data.rows, rows) and data.rows.dtype == rows.dtype
        assert data.rows is not data.rows

    def test_index_is_freed_with_the_last_network(self):
        first, second = _random_network(self.N, 1, 0), _random_network(self.N, 1, 1)
        del first
        gc.collect()
        assert self.N in network._PAIR_COLUMNS
        del second
        gc.collect()
        assert self.N not in network._PAIR_COLUMNS


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

    def test_cancelling_weights_sum_without_nan(self):
        """Node 5's weights total -2^970, but numpy's pairwise row sum meets a
        +inf and a -inf partial sum on the way; only that row is summed again,
        exactly, and the others keep their plain sums."""
        big = np.finfo(float).max
        a = np.zeros((8, 8))
        a[5, :4] = a[:4, 5] = [2.0**970, big, -np.nextafter(big / 2, np.inf),
                               -np.nextafter(big / 2, np.inf)]
        a[6, 7] = a[7, 6] = 0.1
        with np.errstate(over="ignore", invalid="ignore"):
            plain = a.sum(axis=1)
        assert np.isnan(plain[5])
        data = NetworkData(a, np.zeros((28, 1)))
        assert data.degrees[5] == -(2.0**970)
        others = np.arange(8) != 5
        assert data.degrees[others].tobytes() == plain[others].tobytes()

    def test_random_weighted_matches_double_loop(self):
        data = _random_network(8, 1, 3)
        expected = np.zeros(8)
        for i in range(8):
            for j in range(8):
                if i != j:
                    expected[i] += data.adjacency[i, j]
        assert_allclose(data.degrees, expected, rtol=1e-15)


def _pair_sums_loop(n, values):
    values = np.asarray(values, dtype=float)
    expected = np.zeros((n,) + values.shape[1:])
    for i in range(n):
        for j in range(n):
            if i != j:
                expected[i] += values[pair_offset(i, j)]
    return expected


class TestNodePairSums:
    """Row i's pairs are summed as one block starting at i(i-1)/2; the sums
    must not depend on how the values are laid out in memory."""

    def test_matches_double_loop_1d(self):
        data = _random_network(9, 1, 4)
        values = np.random.default_rng(5).normal(size=data.n_pairs)
        assert_allclose(data.node_pair_sums(values), _pair_sums_loop(9, values), rtol=1e-12)

    def test_matches_double_loop_2d(self):
        data = _random_network(6, 3, 6)
        values = np.random.default_rng(7).normal(size=(data.n_pairs, 3))
        assert_allclose(data.node_pair_sums(values), _pair_sums_loop(6, values), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_smallest_networks_either_order(self, n, order):
        data = _random_network(n, 1, 8)
        values = np.asarray(np.random.default_rng(9).normal(size=(data.n_pairs, 3)), order=order)
        assert_allclose(data.node_pair_sums(values), _pair_sums_loop(n, values), rtol=1e-12)
        assert_allclose(data.node_pair_sums(values[:, 1]), _pair_sums_loop(n, values[:, 1]),
                        rtol=1e-12)

    def test_non_contiguous_column_slice(self):
        data = _random_network(6, 1, 11)
        values = np.random.default_rng(12).normal(size=(data.n_pairs, 5))[:, 1::2]
        assert not values.flags.c_contiguous and not values.flags.f_contiguous
        assert_allclose(data.node_pair_sums(values), _pair_sums_loop(6, values), rtol=1e-12)

    def test_integer_input(self):
        data = _random_network(5, 1, 13)
        values = np.arange(data.n_pairs * 2).reshape(-1, 2)
        got = data.node_pair_sums(values)
        assert got.dtype == float
        assert np.array_equal(got, _pair_sums_loop(5, values))


class TestCovariateStorage:
    def test_column_major_copy_of_the_input(self):
        rows, _ = pair_indices(6)
        z = np.random.default_rng(14).normal(size=(rows.size, 3))
        data = NetworkData(np.zeros((6, 6)), z)
        assert data.covariates.shape == z.shape
        assert np.array_equal(data.covariates, z)
        assert data.covariates.T.flags.c_contiguous
        assert not data.covariates.flags.writeable
        assert not np.shares_memory(data.covariates, z)
        z[0, 0] = 99.0  # the caller's array is not kept
        assert data.covariates[0, 0] != 99.0

    def test_fortran_input_is_copied_too(self):
        z = np.asfortranarray(np.arange(12.0).reshape(6, 2))
        data = NetworkData(np.zeros((4, 4)), z)
        assert np.array_equal(data.covariates, z)
        assert not np.shares_memory(data.covariates, z)
        assert z.flags.writeable


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

    def test_scanned_once_per_network(self):
        data = _random_network(7, 2, 8)
        assert covariate_magnitude(data) is covariate_magnitude(data)

    def test_one_magnitude_per_column_never_negative_zero(self):
        data = _random_network(7, 2, 8)
        assert data._column_magnitudes == tuple(np.abs(data.covariates).max(axis=0).tolist())
        z = np.zeros((6, 2))
        z[:, 1] = -0.0
        assert str(NetworkData(np.zeros((4, 4)), z)._column_magnitudes) == "(0.0, 0.0)"


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

    def test_one_by_one_rejected(self):
        with pytest.raises(DataError, match="smaller than 2x2"):
            check_diagonally_balanced(np.ones((1, 1)))


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
