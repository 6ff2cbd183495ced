"""Fit one synthetic network and compare the estimates to the truth.

Generates a logistic network with known degree parameters and one homophily
coefficient, runs the moment estimator, and prints the estimated degree
parameters, the raw and bias-corrected homophily coefficients, and their
standard errors next to the values that generated the data.

Run it from the repository root:

    python3 demos/fit_single_network.py
"""

import numpy as np

from netmoment import CovariateRule, GenSpec, fit, generate_with_truth


def main():
    spec = GenSpec(
        n=80,
        family="logistic",
        gamma_star=(0.6,),
        beta_range=0.8,
        covariates=CovariateRule(kind="iid_pm1", p=1),
        seed=42,
    )
    network = generate_with_truth(spec)
    data = network.data

    degrees = np.zeros(data.n)
    np.add.at(degrees, data.rows, data.pair_weights)
    np.add.at(degrees, data.cols, data.pair_weights)
    print(f"generated a {data.n}-node logistic network, seed {spec.seed}")
    print(f"observed degrees range from {degrees.min():.0f} to {degrees.max():.0f}")

    result = fit(data, "logistic")
    print(f"\nconverged: {result.converged} after {result.iterations} Newton iterates")
    print(f"degree residual  {result.residual_degree:.2e}")
    print(f"profile residual {result.residual_covariate:.2e}")

    err = np.abs(result.beta - network.beta_star)
    print(f"\ndegree parameters: max error {err.max():.3f}, typical se "
          f"{np.median(result.se_beta):.3f}")
    print("first five nodes (truth, estimate, se):")
    for i in range(5):
        print(f"  node {i}: {network.beta_star[i]:>7.3f} "
              f"{result.beta[i]:>7.3f} {result.se_beta[i]:>6.3f}")

    truth = spec.gamma_star[0]
    raw = result.gamma[0]
    corrected = result.gamma_bc[0]
    se = result.se_gamma[0]
    print(f"\nhomophily coefficient (truth {truth}):")
    print(f"  raw estimate        {raw:>8.4f}  (off by {raw - truth:+.4f})")
    print(f"  bias corrected      {corrected:>8.4f}  (off by {corrected - truth:+.4f})")
    print(f"  standard error      {se:>8.4f}")
    lo, hi = corrected - 1.96 * se, corrected + 1.96 * se
    print(f"  95% interval        [{lo:.4f}, {hi:.4f}]"
          + ("  covers the truth" if lo <= truth <= hi else ""))


if __name__ == "__main__":
    main()
