"""Why a diagonal approximation is enough to invert the degree system.

The Jacobian of the degree residuals, negated, lands in a special class of
matrices: strictly positive off-diagonal entries with each diagonal entry
equal to its row's off-diagonal sum.  For that class the inverse is close
to the inverse of the diagonal alone, and the gap shrinks as the network
grows.  The consistency argument for the moment estimator rests on this.
The package's Newton solver puts it to work: it solves the Jacobian by
conjugate gradients preconditioned with the diagonal, which converge in
about ten steps because of it.

This script verifies class membership for Jacobians from all three edge
families and then measures the max-norm gap between the true inverse and
the diagonal approximation on random members of growing size.

Run it from the repository root:

    python3 demos/diagonal_inverse_decay.py
"""

import numpy as np

from netmoment import CovariateRule, GenSpec, generate_with_truth, pair_indices
from netmoment.estimation import degree_jacobian
from netmoment.network import check_diagonally_balanced


def random_balanced_matrix(n, low, high, rng):
    """Random member of the class with off-diagonals uniform on [low, high]."""
    v = np.zeros((n, n))
    rows, cols = pair_indices(n)
    v[rows, cols] = v[cols, rows] = rng.uniform(low, high, size=rows.size)
    v[np.diag_indices(n)] = v.sum(axis=1)
    return v


def diagonal_inverse_approx(v):
    """The inverse of the diagonal of v: diag(1/v_11, ..., 1/v_nn)."""
    return np.diag(1.0 / np.diag(v))


def check_membership():
    print("negated degree Jacobians belong to the balanced class:")
    rng = np.random.default_rng(3)
    for name in ("logistic", "poisson", "probit"):
        spec = GenSpec(
            n=15,
            family=name,
            gamma_star=(0.4,),
            covariates=CovariateRule(kind="iid_pm1", p=1),
            seed=101,
        )
        network = generate_with_truth(spec)
        beta = rng.uniform(-0.5, 0.5, size=15)
        v = degree_jacobian(network.data, name, beta, np.array([0.4]))
        check = check_diagonally_balanced(-v)
        print(f"  {name:>8}: member = {check.is_member}, off-diagonal range "
              f"[{check.min_offdiag:.4f}, {check.max_offdiag:.4f}]")
        assert check.is_member


def measure_decay():
    print("\nmax-norm gap between inverse and diagonal approximation")
    print("(median over 20 random balanced matrices per size):")
    rng = np.random.default_rng(12)
    previous = None
    for n in (20, 40, 80, 160):
        gaps = []
        for _ in range(20):
            v = random_balanced_matrix(n, 1.0, 2.0, rng)
            gap = np.abs(np.linalg.inv(v) - diagonal_inverse_approx(v)).max()
            gaps.append(gap)
        med = float(np.median(gaps))
        note = ""
        if previous is not None:
            note = f"  ({previous / med:.1f}x smaller than at n/2)"
        print(f"  n = {n:>4}: {med:.3e}{note}")
        previous = med


def main():
    check_membership()
    measure_decay()
    print("\nthe decay carries the consistency argument and makes diagonally "
          "preconditioned conjugate gradients converge fast")


if __name__ == "__main__":
    main()
