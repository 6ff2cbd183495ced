"""Network data model and the diagonally balanced matrix class.

Pair-indexed storage: quantities attached to unordered node pairs live in
flat arrays of length n*(n-1)/2, ordered row-major over the strict lower
triangle, i.e. pair (i, j) with i > j sits at offset i*(i-1)/2 + j.  This is
the order produced by ``numpy.tril_indices(n, -1)``, so row i's pairs form one
contiguous block; ``symmetric_from_pairs`` is the one writer of a dense matrix
from pair order.  Pair covariates are stored column-major: each covariate is
one contiguous run of n*(n-1)/2 values.
"""

import functools
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _array, _finite, _integer


def pair_count(n):
    """Number of unordered pairs of ``n`` nodes, an integer or an integer array."""
    n = _integer("n", n, 0)
    return n * (n - 1) // 2


def pair_offset(i, j):
    """Flat offset of unordered pair {i, j} in lower-triangle row-major order;
    ``i`` and ``j`` are node ids, or lists or integer arrays of them."""
    i, j = (_integer("node id", _array(k), 0) for k in (i, j))
    if np.any(i == j):
        raise DataError("self-pairs have no offset")
    hi = np.maximum(i, j)
    lo = np.minimum(i, j)
    return hi * (hi - 1) // 2 + lo


def pair_indices(n):
    """(rows, cols) node ids for all pairs in storage order; rows > cols."""
    return np.tril_indices(n, -1)


def symmetric_from_pairs(n, pair_values, diagonal=0.0, out=None):
    """The symmetric (n, n) matrix with ``pair_values`` (in pair order) off the
    diagonal and ``diagonal`` on it, written into every entry of ``out`` (a new
    array when None) one row block at a time."""
    out = np.empty((n, n)) if out is None else out
    start = 0
    for i in range(1, n):
        out[i, :i] = out[:i, i] = pair_values[start:start + i]
        start += i
    np.fill_diagonal(out, diagonal)
    return out


class NetworkData:
    """An undirected network with pair covariates.

    Parameters
    ----------
    adjacency : (n, n) array
        Symmetric edge weights with zero diagonal (self-loops rejected).
    covariates : (n*(n-1)/2, p) array
        One covariate vector per unordered pair, in lower-triangle
        row-major order; p >= 1.

    Stored in pair order; ``adjacency`` is rebuilt on first access.  The
    covariates are copied once in column-major (Fortran) order: ``covariates``
    is (n_pairs, p) and its transpose a contiguous (p, n_pairs) block.  Every
    stored array is read-only, so instances are safe for concurrent reads.
    """

    def __init__(self, adjacency, covariates):
        # read in place; C order sums each row as a copy would
        a = np.asarray(_finite("adjacency", adjacency), order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"adjacency must be square, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise DataError("a network needs at least two nodes")
        if np.any(np.diag(a) != 0.0):
            bad = np.nonzero(np.diag(a))[0]
            raise DataError(f"self-loops are not allowed (nodes {bad.tolist()})")
        if not np.array_equal(a, a.T):
            raise DataError("adjacency must be exactly symmetric")

        z = np.array(_finite("covariates", covariates), order="F")
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2 or z.shape[0] != pair_count(n) or z.shape[1] < 1:
            raise DataError(
                f"covariates must have shape ({pair_count(n)}, p>=1), got {z.shape}"
            )

        self.n = n
        self.rows, self.cols = pair_indices(n)
        self._row_starts = pair_count(np.arange(1, n))  # starts of rows 1..n-1; row 0 has none
        self.covariates = z
        self.pair_weights = a[self.rows, self.cols]
        with np.errstate(over="ignore"):
            self.degrees = a.sum(axis=1)
        for array in (z, self.pair_weights, self.degrees):
            array.setflags(write=False)

    @functools.cached_property
    def adjacency(self):
        """The (n, n) symmetric weight matrix, built from the pair weights."""
        a = symmetric_from_pairs(self.n, self.pair_weights)
        a.setflags(write=False)
        return a

    @property
    def n_pairs(self):
        return pair_count(self.n)

    @property
    def n_covariates(self):
        return self.covariates.shape[1]

    def node_pair_sums(self, pair_values):
        """Per-node sums over incident pairs of a pair-indexed array.

        For values x indexed by unordered pairs, returns the vector with
        entries sum_{j != i} x_ij.  Accepts shape (n_pairs,) or (n_pairs, k).
        """
        x = np.asarray(pair_values, dtype=float)
        columns = x.reshape(len(x), -1)
        out = np.zeros((self.n, columns.shape[1]))
        out[1:] = np.add.reduceat(columns, self._row_starts, axis=0)  # each row's block of pairs
        for k in range(columns.shape[1]):
            out[:, k] += np.bincount(self.cols, weights=columns[:, k], minlength=self.n)
        return out.reshape((self.n,) + x.shape[1:])


def _network(data):
    """``data``; ``DataError`` unless it is a ``NetworkData``."""
    if not isinstance(data, NetworkData):
        raise DataError(f"data must be a NetworkData, got {reprlib.repr(data)}")
    return data


def covariate_magnitude(data):
    """Largest absolute covariate entry over all pairs (design magnitude)."""
    return float(np.abs(_network(data).covariates).max())


@dataclass(frozen=True)
class BalanceCheck:
    """Result of a diagonally-balanced-class membership test."""

    is_member: bool
    min_offdiag: float
    max_offdiag: float


# relative rounding allowance per summed entry in the balance test
_BALANCE_REL_TOL = 1e-10


def check_diagonally_balanced(v):
    """Test membership in the diagonally balanced positive matrix class.

    A member has strictly positive off-diagonal entries and each diagonal
    entry equal to the sum of the off-diagonal entries in its row, up to an
    accumulated-rounding allowance of n * max_offdiag * 1e-10.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DataError(f"expected a square matrix, got shape {v.shape}")
    n = v.shape[0]
    if n < 2:
        raise DataError("balance is undefined for matrices smaller than 2x2")
    off_mask = ~np.eye(n, dtype=bool)
    off = v[off_mask]
    m_n = float(off.min())
    M_n = float(off.max())
    if m_n <= 0.0:
        return BalanceCheck(False, m_n, M_n)
    row_off_sums = v.sum(axis=1) - np.diag(v)
    tol = n * M_n * _BALANCE_REL_TOL
    balanced = bool(np.all(np.abs(np.diag(v) - row_off_sums) <= tol))
    return BalanceCheck(balanced, m_n, M_n)
