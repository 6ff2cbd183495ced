"""Workloads: inputs made from a seed, the timed operation, and its checks.

Every workload draws its inputs from a fixed pool in ``reference.json``:
operation k of a run with workload seed s uses entry (s + k) % len(pool),
whose input seed generates the network(s) and whose stored outputs, taken
from the commit that added the benchmark, are what the operation's result
must match.  ``make_reference.py`` rebuilds that file.

Each workload exposes:
  build()      set-up before timing (input generation), repeated for setup_s
  op(k)        the timed operation as a user runs it
  traced_op(k) the same work in-process, so the tracer sees its layers
  check(out)   list of problems with one operation's output ([] when correct)
  final_check() problems found by a once-per-run check after timing
  probe_target() (data, family, fit result) for the solver probes
  rss          whose peak memory is the workload's: "self" or "children"
  fits_per_op  generate-and-fit replicates in one operation (0 if none)
  stage_s      (cli_roundtrip) seconds of each subprocess, by stage name
"""

import hashlib
import json
import math
import subprocess
import sys
import time
import tomllib

import netmoment
import netmoment.cli
from netmoment import dataio
from netmoment.simulation import CovariateRule, GenSpec

N_LARGE = 600
GAMMA_STAR = (0.5, -0.5)
MC_GRID = (50, 100, 200)
MC_REPLICATES = 1
REL_TOL = 1e-6


def large_spec(family, seed):
    return GenSpec(
        n=N_LARGE,
        family=family,
        gamma_star=GAMMA_STAR,
        beta_range=1.0,
        covariates=CovariateRule(kind="iid_pm1", p=2),
        seed=seed,
    )


def mc_specs(seed):
    """The acceptance rate-study grid: logistic, n in (50, 100, 200), p=2."""
    return [
        GenSpec(
            n=n,
            family="logistic",
            gamma_star=GAMMA_STAR,
            beta_range=1.0,
            covariates=CovariateRule(kind="iid_pm1", p=2),
            seed=seed + k,
        )
        for k, n in enumerate(MC_GRID)
    ]


def simulate_argv(seed, prefix):
    return [
        "simulate", "--family", "logistic", "--n", str(N_LARGE),
        "--gamma-star", ",".join(str(g) for g in GAMMA_STAR),
        "--seed", str(seed), "--out", prefix,
    ]


def fit_argv(prefix, out):
    return [
        "fit", "--family", "logistic", "--edges", f"{prefix}_edges.csv",
        "--pair-covariates", f"{prefix}_covariates.csv", "--out", out,
    ]


def fit_summary(result):
    """The reference fields of a fit: estimates, corrected and their errors."""
    return {
        "beta": [float(b) for b in result.beta],
        "gamma": [float(g) for g in result.gamma],
        "gamma_bc": [float(g) for g in result.gamma_bc],
        "se_gamma": [float(s) for s in result.se_gamma],
    }


def record_row(record):
    """Compact form of one Monte Carlo study record."""
    return [
        record["n"], record["replicate"], record["failed"],
        record["err_beta"], record["err_gamma"], record["err_gamma_bc"],
        record["cover_gamma"], record["cover_gamma_bc"],
    ]


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def compare(actual, expected, path="$"):
    """Problems where actual differs from expected.

    Floats match to relative 1e-6.  In a float list, an entry far smaller
    than the list's largest is compared relative to that largest entry, so a
    degree parameter near zero is held to the list's scale, not to its own.
    Everything else (keys, lengths, booleans, integers, strings) must match
    exactly.
    """
    if isinstance(expected, float):
        return _compare_floats([actual], [expected], path)
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [p for key in expected for p in compare(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        if expected and all(isinstance(v, float) for v in expected):
            return _compare_floats(actual, expected, path)
        return [p for k, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{path}[{k}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def _compare_floats(actual, expected, path):
    if not all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in actual):
        return [f"{path}: not numbers"]
    scale = max(abs(e) for e in expected)
    for k, (a, e) in enumerate(zip(actual, expected)):
        if not math.isclose(a, e, rel_tol=REL_TOL, abs_tol=REL_TOL * scale):
            return [f"{path}[{k}]: {a!r} differs from reference {e!r}"]
    return []


def launcher(root):
    """Command that runs the ``netmoment`` console script from pyproject.toml.

    The same call an installed console-script wrapper makes, so the CLI runs
    from the checkout's source without installing the package.
    """
    with open(root / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["netmoment"]
    module, func = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


class _Pooled:
    """Operation k uses pool entry (seed + k) % len(pool), so every run
    cycles through the same inputs and a run's mean does not hinge on one
    network's iteration count."""

    rss = "children"
    fits_per_op = 0

    def __init__(self, pool, seed):
        self.pool = pool
        self.seed = seed

    def _index(self, k):
        return (self.seed + k) % len(self.pool)

    def final_check(self):
        return []


class FitLarge(_Pooled):
    """In-process ``fit`` of n=600 networks of one family, fitted repeatedly."""

    rss = "self"

    def __init__(self, family, ref, seed, ctx):
        super().__init__(ref["fit"][family], seed)
        self.family = family
        self.networks = []
        self.last = None

    def build(self):
        self.networks = self.last = None  # one set in memory at a time
        self.networks = [
            netmoment.generate_with_truth(large_spec(self.family, entry["seed"])).data
            for entry in self.pool
        ]

    def op(self, k):
        i = self._index(k)
        self.last = self.networks[i], netmoment.fit(self.networks[i], self.family)
        return i, self.last[1]

    traced_op = op

    def check(self, out):
        i, result = out
        return compare(fit_summary(result), self.pool[i]["fit"])

    def probe_target(self):
        return self.last[0], self.family, self.last[1]


class McStudy(_Pooled):
    """``run_mc_study`` on the rate-study grid, a new study seed each call."""

    fits_per_op = MC_REPLICATES * len(MC_GRID)

    def __init__(self, ref, seed, ctx):
        super().__init__(ref["mc_study"], seed)
        self.specs = []

    def build(self):
        self.specs = [mc_specs(entry["seed"]) for entry in self.pool]

    def op(self, k):
        i = self._index(k)
        return i, netmoment.run_mc_study(self.specs[i], MC_REPLICATES)

    traced_op = op

    def check(self, out):
        i, report = out
        problems = compare([record_row(r) for r in report.records], self.pool[i]["records"])
        return problems + [f"study error: {e}" for e in report.errors]

    def probe_target(self):
        data = netmoment.generate_with_truth(self.specs[self._index(0)][-1]).data
        return data, "logistic", netmoment.fit(data, "logistic")


class CliRoundtrip(_Pooled):
    """``netmoment simulate`` then ``netmoment fit`` on its CSVs, as subprocesses."""

    def __init__(self, ref, seed, ctx):
        super().__init__(ref["fit"]["logistic"], seed)
        self.command = launcher(ctx.root)
        self.env = ctx.child_env
        self.prefix = str(ctx.workdir / "net")
        self.csv = {kind: f"{self.prefix}_{kind}.csv" for kind in ("edges", "covariates")}
        self.out = f"{self.prefix}_fit.json"
        self.fit = fit_argv(self.prefix, self.out)
        self.stage_s = {"cli_simulate_s": [], "cli_fit_s": []}
        self.data = self.result = None

    def build(self):
        pass

    def _simulate(self, i):
        return simulate_argv(self.pool[i]["seed"], self.prefix)

    def _run(self, argv, stage):
        start = time.perf_counter()
        code = subprocess.run(self.command + argv, env=self.env, stdout=subprocess.DEVNULL).returncode
        self.stage_s[stage].append(time.perf_counter() - start)
        return code

    def op(self, k):
        i = self._index(k)
        return i, (self._run(self._simulate(i), "cli_simulate_s"), self._run(self.fit, "cli_fit_s"))

    def traced_op(self, k):
        i = self._index(k)
        return i, (netmoment.cli.main(self._simulate(i)), netmoment.cli.main(self.fit))

    def _written(self):
        with open(self.out) as handle:
            return json.load(handle)

    def check(self, out):
        i, codes = out
        if codes != (0, 0):
            return [f"netmoment simulate, fit exited {codes}"]
        problems = [
            f"{path} does not match the reference hash"
            for kind, path in self.csv.items()
            if sha256(path) != self.pool[i]["csv_sha256"][kind]
        ]
        written = self._written()
        expected = self.pool[i]["fit"]
        return problems + compare({key: written[key] for key in expected}, expected)

    def final_check(self):
        """The CLI's JSON must match an in-process fit of the same files."""
        n, covariates = dataio.read_pair_covariates(self.csv["covariates"])
        self.data = netmoment.NetworkData(dataio.read_edges(self.csv["edges"], n), covariates)
        self.result = netmoment.fit(self.data, "logistic")
        expected = json.loads(json.dumps(dataio.fit_result_to_dict(self.result)))
        return compare(self._written(), expected)

    def probe_target(self):
        if self.result is None:
            self.final_check()
        return self.data, "logistic", self.result


def make(name, ref, seed, ctx):
    if name.startswith("fit_"):
        return FitLarge(name[len("fit_"):], ref, seed, ctx)
    return {"mc_study": McStudy, "cli_roundtrip": CliRoundtrip}[name](ref, seed, ctx)


WORKLOADS = ("fit_logistic", "fit_probit", "fit_poisson", "mc_study", "cli_roundtrip")
