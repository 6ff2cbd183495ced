"""Command line front end: fit, simulate, and mc-study subcommands.

Exit codes: 0 on success, 1 on data, design, usage or file errors (one-line
message on stderr), 2 on solver non-convergence (iteration trace emitted as
JSON).
"""

import argparse
import contextlib
import csv
import json
import sys

from . import dataio
from .errors import DataError, NonConvergenceError, SingularDesignError
from .estimation import SolverConfig, fit
from .network import NetworkData
from .simulation import CovariateRule, GenSpec, generate_with_truth, run_mc_study


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="netmoment", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit_p = sub.add_parser("fit", help="estimate parameters from CSV files")
    fit_p.add_argument("--family", required=True, choices=["logistic", "poisson", "probit"])
    fit_p.add_argument("--edges", required=True, metavar="PATH")
    fit_p.add_argument("--pair-covariates", metavar="PATH")
    fit_p.add_argument("--node-attrs", metavar="PATH")
    fit_p.add_argument(
        "--transform",
        default="none",
        choices=list(dataio.TRANSFORMS),
        help="how to turn node attributes into pair covariates",
    )
    fit_p.add_argument("--tol-f", type=float, default=SolverConfig.tol_f)
    fit_p.add_argument("--tol-q", type=float, default=SolverConfig.tol_q)
    fit_p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer,
                       help="cap on the iterates of the joint Newton iteration")
    fit_p.add_argument(
        "--max-inner-beta",
        type=int,
        default=SolverConfig.max_inner_beta,
        help="ignored: it caps only solve_degree_params, not fit; accepted so "
        "existing scripts run",
    )
    fit_p.add_argument(
        "--damping",
        type=float,
        default=SolverConfig.damping,
        help="deprecated and ignored; accepted so existing scripts run",
    )
    fit_p.add_argument("--no-bias-correct", action="store_true")
    fit_p.add_argument("--out", metavar="PATH")
    fit_p.add_argument("--format", default="json", choices=["json", "csv"])

    sim_p = sub.add_parser("simulate", help="generate a synthetic network as CSV files")
    sim_p.add_argument("--family", required=True, choices=["logistic", "poisson", "probit"])
    sim_p.add_argument("--n", required=True, type=int)
    sim_p.add_argument("--gamma-star", required=True, help="comma-separated coefficients")
    sim_p.add_argument("--beta-star", help="comma-separated degree parameters (default: drawn)")
    sim_p.add_argument("--beta-range", type=float, default=1.0)
    sim_p.add_argument(
        "--covariate-rule",
        default="iid_pm1",
        choices=["iid_pm1", "iid_uniform", "node_distance"],
    )
    sim_p.add_argument("--covariate-p", type=int, default=None)
    sim_p.add_argument("--covariate-low", type=float, default=0.0)
    sim_p.add_argument("--covariate-high", type=float, default=1.0)
    sim_p.add_argument("--covariate-dim", type=int, default=2)
    sim_p.add_argument("--dependence", default="independent",
                       choices=["independent", "equicorrelated_probit"])
    sim_p.add_argument("--rho", type=float, default=0.0)
    sim_p.add_argument("--noise-free", action="store_true")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--out",
        required=True,
        metavar="PREFIX",
        help="writes PREFIX_edges.csv and PREFIX_covariates.csv",
    )

    mc_p = sub.add_parser("mc-study", help="run a Monte Carlo study from a config file")
    mc_p.add_argument("--config", required=True, metavar="PATH")
    mc_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    mc_p.add_argument("--out", metavar="PATH")
    mc_p.add_argument("--format", default="json", choices=["json", "csv"])
    return parser


def _parse_floats(text, what):
    try:
        values = tuple(float(v.strip()) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise DataError(f"{what} must be comma-separated numbers: {text!r}") from exc
    if not values:
        raise DataError(f"{what} must contain at least one number")
    return values


def _write_csv(out, rows):
    """Write CSV rows to the file ``out``, or to stdout when it is None."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as handle:
        csv.writer(handle).writerows(rows)


def _run_fit(args):
    sources = (args.pair_covariates is not None) + (args.node_attrs is not None)
    if sources != 1:
        raise DataError(
            "provide exactly one covariate source: --pair-covariates PATH "
            "or --node-attrs PATH with --transform"
        )
    if args.pair_covariates is not None:
        if args.transform != "none":
            raise DataError("--transform applies to --node-attrs, not --pair-covariates")
        n, covariates = dataio.read_pair_covariates(args.pair_covariates)
    else:
        if args.transform == "none":
            raise DataError("--node-attrs requires --transform euclidean_distance or match_indicator")
        attrs = dataio.read_node_attrs(args.node_attrs)
        covariates = dataio.derive_pair_covariates(attrs, args.transform)
        n = attrs.shape[0]
    adjacency = dataio.read_edges(args.edges, n)
    data = NetworkData(adjacency, covariates)
    config = SolverConfig(
        tol_f=args.tol_f,
        tol_q=args.tol_q,
        max_outer=args.max_outer,
        max_inner_beta=args.max_inner_beta,
        damping=args.damping,
    )
    result = fit(data, args.family, config)
    bias_correct = not args.no_bias_correct
    if args.format == "json":
        if args.out:
            dataio.write_fit_result_json(args.out, result, bias_correct)
        else:
            json.dump(dataio.fit_result_to_dict(result, bias_correct), sys.stdout, indent=2)
            sys.stdout.write("\n")
    else:
        _write_csv(args.out, dataio.fit_result_csv_rows(result, bias_correct))
    return 0


def _run_simulate(args):
    gamma_star = _parse_floats(args.gamma_star, "--gamma-star")
    beta_star = _parse_floats(args.beta_star, "--beta-star") if args.beta_star else None
    rule = CovariateRule(
        kind=args.covariate_rule,
        p=len(gamma_star) if args.covariate_p is None else args.covariate_p,
        low=args.covariate_low,
        high=args.covariate_high,
        dim=args.covariate_dim,
    )
    spec = GenSpec(
        n=args.n,
        family=args.family,
        gamma_star=gamma_star,
        beta_star=beta_star,
        beta_range=args.beta_range,
        covariates=rule,
        dependence=args.dependence,
        rho=args.rho,
        noise_free=args.noise_free,
        seed=args.seed,
    )
    synth = generate_with_truth(spec)
    dataio.write_edges(f"{args.out}_edges.csv", synth.data)
    dataio.write_pair_covariates(f"{args.out}_covariates.csv", synth.data)
    return 0


def _run_mc_study(args):
    specs, replicates, config = dataio.parse_study_config(args.config, seed_override=args.seed)
    report = run_mc_study(specs, replicates, config)
    if args.format == "json":
        if args.out:
            dataio.write_report_json(args.out, report)
        else:
            json.dump(dataio.report_to_dict(report), sys.stdout, indent=2)
            sys.stdout.write("\n")
    else:
        _write_csv(args.out, dataio.report_csv_rows(report))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            if args.subcommand == "fit":
                return _run_fit(args)
            if args.subcommand == "simulate":
                return _run_simulate(args)
            return _run_mc_study(args)
        except NonConvergenceError as exc:
            payload = {"error": str(exc), "trace": exc.trace}
            if args.out:
                with open(args.out, "w") as handle:
                    json.dump(payload, handle, indent=2)
                    handle.write("\n")
            print(f"error: {exc}", file=sys.stderr)
            if not args.out:
                json.dump(payload, sys.stderr, indent=2)
                sys.stderr.write("\n")
            return 2
    except (_UsageError, DataError, SingularDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
