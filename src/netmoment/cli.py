"""Command line front end: fit, simulate, and mc-study subcommands.

Exit codes: 0 on success, 1 on data, design, usage or file errors (one-line
message on stderr), 2 on solver non-convergence (iteration trace emitted as
JSON).
"""

import argparse
import sys
from dataclasses import asdict

from . import dataio
from .errors import DataError, NonConvergenceError, SingularDesignError
from .estimation import fit
from .families import FAMILY_NAMES
from .network import NetworkData
from .simulation import COVARIATE_KINDS, DEPENDENCE_MODES, generate_with_truth, run_mc_study


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
    fit_p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    fit_p.add_argument("--edges", required=True, metavar="PATH")
    fit_p.add_argument("--pair-covariates", metavar="PATH")
    fit_p.add_argument("--node-attrs", metavar="PATH")
    fit_p.add_argument(
        "--transform",
        default="none",
        choices=dataio.TRANSFORMS,
        help="how to turn node attributes into pair covariates",
    )
    fit_p.add_argument("--tol-f", type=float)
    fit_p.add_argument("--tol-q", type=float)
    fit_p.add_argument("--max-outer", type=int,
                       help="cap on the iterates of the joint Newton iteration")
    fit_p.add_argument("--no-bias-correct", action="store_true")
    fit_p.add_argument("--out", metavar="PATH")
    fit_p.add_argument("--format", default="json", choices=["json", "csv"])

    sim_p = sub.add_parser("simulate", help="generate a synthetic network as CSV files")
    sim_p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    sim_p.add_argument("--n", required=True, type=int)
    sim_p.add_argument("--gamma-star", required=True, help="comma-separated coefficients")
    sim_p.add_argument("--beta-star", help="comma-separated degree parameters (default: drawn)")
    sim_p.add_argument("--beta-range", type=float)
    sim_p.add_argument("--covariate-rule", choices=COVARIATE_KINDS)
    sim_p.add_argument("--covariate-p", type=int)
    sim_p.add_argument("--covariate-low", type=float)
    sim_p.add_argument("--covariate-high", type=float)
    sim_p.add_argument("--covariate-dim", type=int)
    sim_p.add_argument("--dependence", choices=DEPENDENCE_MODES)
    sim_p.add_argument("--rho", type=float)
    sim_p.add_argument("--noise-free", action="store_true")
    sim_p.add_argument("--seed", type=int)
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
        values = dataio._list_of(float)(text)
    except ValueError as exc:
        raise DataError(f"{what} must be comma-separated numbers: {text!r}") from exc
    if not values:
        raise DataError(f"{what} must contain at least one number")
    return values


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
    data = NetworkData(dataio.read_edges(args.edges, n), covariates)
    del covariates  # data holds its own copy; freeing this one lowers the fit's peak memory
    result = fit(data, args.family, dataio.solver_config(vars(args)))
    bias_correct = not args.no_bias_correct
    dest = args.out or sys.stdout
    if args.format == "json":
        dataio.write_fit_result_json(dest, result, bias_correct)
    else:
        dataio.write_csv(dest, dataio.fit_result_csv_rows(result, bias_correct))
    return 0


def _run_simulate(args):
    gamma_star = _parse_floats(args.gamma_star, "--gamma-star")
    beta_star = _parse_floats(args.beta_star, "--beta-star") if args.beta_star else None
    settings = vars(args) | {"gamma_star": gamma_star, "beta_star": beta_star}
    synth = generate_with_truth(dataio.gen_spec(settings))
    dataio.write_edges(f"{args.out}_edges.csv", synth.data)
    dataio.write_pair_covariates(f"{args.out}_covariates.csv", synth.data)
    return 0


def _run_mc_study(args):
    specs, replicates, config = dataio.parse_study_config(args.config, seed_override=args.seed)
    report = run_mc_study(specs, replicates, config)
    dest = args.out or sys.stdout
    if args.format == "json":
        dataio.write_json(dest, asdict(report))
    else:
        dataio.write_csv(dest, dataio.report_csv_rows(report))
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
            if args.out:  # before the message, so a failed write gives one error line
                dataio.write_json(args.out, payload)
            print(f"error: {exc}", file=sys.stderr)
            if not args.out:
                dataio.write_json(sys.stderr, payload)
            return 2
    except (_UsageError, DataError, SingularDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
