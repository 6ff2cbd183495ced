"""Network data model and the diagonally balanced matrix class.

Pair-indexed storage: quantities attached to unordered node pairs live in
flat arrays of length n*(n-1)/2, ordered row-major over the strict lower
triangle, i.e. pair (i, j) with i > j sits at offset i*(i-1)/2 + j.  This is
the order produced by ``numpy.tril_indices(n, -1)``, so row i's pairs form one
contiguous block; ``symmetric_from_pairs`` is the one writer of a dense matrix
from pair order.  Pair covariates are stored column-major: each covariate is
one contiguous run of n*(n-1)/2 values.

The pair index depends on n alone, so no network stores its own.  Row i
holds i pairs, so the row ends of all pairs are ``repeat(arange(n))`` of a
per-node array (``_row_ends``).  The column ids are one array per n, shared
by every live network of that size and freed with the last of them
(``_pair_columns``); ``_col_ends`` gathers the column ends with it.
"""

import functools
import math
import reprlib
import weakref
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
    n = _integer("n", n, 0)
    if np.ndim(n):
        raise DataError(f"n must be one integer, got an array of shape {np.shape(n)}")
    return np.tril_indices(n, -1)


def _below_diagonal(a):
    """The entries below the diagonal of the square ``a``, in pair order, as a new array."""
    return a[np.tri(len(a), k=-1, dtype=bool)]


# n -> the column ids of pair_indices(n), held while a network of n nodes holds them.
# No lock: threads that miss at once each build an equal array, which costs memory
# only; a lock held across a fork would hang the study's forked workers.
_PAIR_COLUMNS = weakref.WeakValueDictionary()


def _pair_columns(n):
    """The column ids of ``pair_indices(n)``, one array shared while any holder lives.
    It stays writeable because ``np.take`` and ``np.bincount`` copy a read-only
    index; networks hand it out read-only as ``cols``."""
    cols = _PAIR_COLUMNS.get(n)
    if cols is None:
        cols = _PAIR_COLUMNS[n] = _below_diagonal(np.broadcast_to(np.arange(n), (n, n)))
    return cols


def _row_ends(x):
    """x[rows] along axis 0 for the pairs of len(x) nodes, as a new array:
    row i repeats x[i] i times."""
    return x.repeat(np.arange(len(x)), axis=0)


def _col_ends(x):
    """x[cols] along axis 0 for the pairs of len(x) nodes, as a new array,
    gathered by the shared column ids."""
    return x.take(_pair_columns(len(x)), axis=0)


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


def _row_sums(a):
    """Row sums of the finite matrix ``a``; inf where a sum passes the float range.

    numpy's pairwise sum can form a +inf and a -inf partial sum from finite
    entries whose total is finite, which gives NaN.  The rows whose plain
    sum is not finite are summed again with ``math.fsum``, correctly
    rounded, after an exact division by the power of two just above their
    largest magnitude, which keeps every partial sum finite; every other
    row keeps its plain sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = a.sum(axis=1)
        bad = np.nonzero(~np.isfinite(sums))[0]
        if bad.size:
            shift = -np.frexp(np.abs(a[bad]).max(axis=1))[1]
            scaled = np.ldexp(a[bad], shift[:, None])
            sums[bad] = np.ldexp([math.fsum(row) for row in scaled], -shift)
    return sums


class NetworkData:
    """An undirected network with pair covariates.

    Parameters
    ----------
    adjacency : (n, n) array
        Symmetric edge weights with zero diagonal (self-loops rejected).
    covariates : (n*(n-1)/2, p) array
        One covariate vector per unordered pair, in lower-triangle
        row-major order; p >= 1.

    Stored in pair order: (p + 1) n_pairs doubles (``covariates`` and
    ``pair_weights``) plus the n ``degrees``.  ``adjacency`` is rebuilt on
    first access.  The covariates are copied once in column-major (Fortran)
    order: ``covariates`` is (n_pairs, p) and its transpose a contiguous
    (p, n_pairs) block.  No pair index is its own: ``cols`` is a view of the
    column ids every live network of n nodes shares, and ``rows`` builds the
    row ids on each access.  Every array a network hands out is read-only,
    so instances are safe for concurrent reads.
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
        self._cols = _pair_columns(n)
        self.cols = self._cols.view()
        self._row_starts = pair_count(np.arange(1, n))  # starts of rows 1..n-1; row 0 has none
        self.covariates = z
        self.pair_weights = _below_diagonal(a)
        self.degrees = _row_sums(a)
        for array in (z, self.cols, self.pair_weights, self.degrees):
            array.setflags(write=False)

    @property
    def rows(self):
        """The row ids of the pairs in storage order, a new array: row i repeats i i times."""
        return _row_ends(np.arange(self.n))

    @functools.cached_property
    def adjacency(self):
        """The (n, n) symmetric weight matrix, built from the pair weights."""
        a = symmetric_from_pairs(self.n, self.pair_weights)
        a.setflags(write=False)
        return a

    @functools.cached_property
    def _column_magnitudes(self):
        """The largest absolute entry of each covariate column, as floats,
        from its max and min: no (n_pairs, p) temporary."""
        z = self.covariates
        return tuple(np.maximum(np.abs(z.max(axis=0)), np.abs(z.min(axis=0))).tolist())

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
            out[:, k] += np.bincount(self._cols, weights=columns[:, k], minlength=self.n)
        return out.reshape((self.n,) + x.shape[1:])


def _network(data):
    """``data``; ``DataError`` unless it is a ``NetworkData``."""
    if not isinstance(data, NetworkData):
        raise DataError(f"data must be a NetworkData, got {reprlib.repr(data)}")
    return data


def covariate_magnitude(data):
    """Largest absolute covariate entry over all pairs (design magnitude), scanned once."""
    return max(_network(data)._column_magnitudes)


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
