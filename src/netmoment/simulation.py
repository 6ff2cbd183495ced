"""Synthetic network generation and Monte Carlo studies.

Generation draws from known truth parameters under independent dyads for
any edge family, or under a single-factor equicorrelated latent construction
for the probit family, which keeps every edge marginal exact while making
dyads dependent.  The Monte Carlo harness fits each generated network and
summarizes estimation errors, confidence-interval coverage, and empirical
convergence rates.  A study's worker processes each take the next replicate,
largest network first, from one shared counter whenever they are free, and
each sends its records once, when none is left.

All randomness flows through counter-based generators seeded from the spec:
replicate r, attempt a of a study with base seed s uses the stream
``SeedSequence(s, spawn_key=(r, a))``, so replicates are reproducible
independently of execution order or worker count.
"""

import gc
import os
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .blas import single_blas_thread
from .errors import DataError, DegenerateDegreeError, NetmomentError, _finite, _integer
from .estimation import _solver_config, check_interior_degrees, fit
from .families import get_family
from .network import (
    NetworkData, _pair_columns, _pair_differences, _row_ends, pair_count, symmetric_from_pairs)

COVARIATE_KINDS = ("iid_pm1", "iid_uniform", "node_distance")
DEPENDENCE_MODES = ("independent", "equicorrelated_probit")
_MAX_REGEN_ATTEMPTS = 10
_CI_LEVEL = 1.96

# a replicate record's error fields (the max-norm errors of beta-hat, gamma-hat
# and gamma-hat_bc) and coverage fields (per coefficient, whether the 95%
# interval around gamma-hat or gamma-hat_bc covers the truth), each with the
# key of its per-n summary: a median, and an empirical coverage rate
_ERROR_FIELDS = {"err_beta": "median_err_beta", "err_gamma": "median_err_gamma",
                 "err_gamma_bc": "median_err_gamma_bc"}
_COVERAGE_FIELDS = {"cover_gamma": "coverage_gamma", "cover_gamma_bc": "coverage_gamma_bc"}


@dataclass(frozen=True)
class CovariateRule:
    """Recipe for drawing pair covariates.

    kind "iid_pm1": p columns of independent signs.  kind "iid_uniform":
    p columns uniform on [low, high].  kind "node_distance": one column of
    Euclidean distances between node positions drawn uniformly on the unit
    cube of the given dimension.
    """

    kind: str = "iid_pm1"
    p: int = 1
    low: float = 0.0
    high: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in COVARIATE_KINDS:
            raise DataError(f"unknown covariate rule {self.kind!r}")
        if self.kind == "node_distance":
            _integer("dim", self.dim, 1, "node_distance needs an integer dim >= 1")
        else:
            _integer("p", self.p, 1, "covariate rules need an integer p >= 1")
        if self.kind == "iid_uniform":
            message = "iid_uniform needs low < high and a finite range high - low"
            low, high = _finite("low and high", (self.low, self.high), (2,), message).tolist()
            if not 0.0 < high - low < np.inf:
                raise DataError(message)

    @property
    def n_covariates(self):
        return 1 if self.kind == "node_distance" else self.p

    def draw(self, n, rng):
        m = pair_count(n)
        if self.kind == "iid_pm1":
            z = rng.integers(0, 2, size=(m, self.p)).astype(float)
            z *= 2.0
            z -= 1.0
            return z
        if self.kind == "iid_uniform":
            return rng.uniform(self.low, self.high, size=(m, self.p))
        x = rng.uniform(0.0, 1.0, size=(n, self.dim))
        return np.linalg.norm(_pair_differences(x), axis=1)[:, None]


@dataclass(frozen=True)
class GenSpec:
    """Complete recipe for one synthetic network.

    ``beta_star`` fixes the degree parameters; leaving it None draws them
    i.i.d. uniform on [-beta_range, beta_range] per network.  Dependence
    "equicorrelated_probit" replaces independent sampling by thresholding
    latent normals that share a common factor with weight sqrt(rho); it is
    only defined for the probit family, and ``rho`` must be 0 without it.
    ``noise_free``, a ``bool``, replaces sampled weights by their exact
    means, producing a fractional pseudo-network whose moment equations the
    truth solves identically.
    """

    n: int
    family: str = "logistic"
    gamma_star: tuple = (0.5,)
    beta_star: tuple = None
    beta_range: float = 1.0
    covariates: CovariateRule = field(default_factory=CovariateRule)
    dependence: str = "independent"
    rho: float = 0.0
    noise_free: bool = False
    seed: int = 0

    def __post_init__(self):
        _integer("n", self.n, 3, f"need at least 3 nodes (an integer n >= 3), got {self.n!r}")
        _integer("seed", self.seed, 0, f"seed must be nonnegative and an integer, got {self.seed!r}")
        if not isinstance(self.noise_free, (bool, np.bool_)):
            raise DataError(f"noise_free must be a bool, got {self.noise_free!r}")
        object.__setattr__(self, "family", get_family(self.family).name)
        if not isinstance(self.covariates, CovariateRule):
            raise DataError(f"covariates must be a CovariateRule, got {self.covariates!r}")
        gamma = _finite("gamma_star", self.gamma_star)
        if np.shape(gamma) != (self.covariates.n_covariates,):
            raise DataError(
                "gamma_star length must match the covariate rule's column count"
            )
        object.__setattr__(self, "gamma_star", tuple(gamma.tolist()))
        if self.beta_star is not None:
            beta = _finite("beta_star", self.beta_star)
            if np.shape(beta) != (self.n,):
                raise DataError("beta_star must have one entry per node")
            object.__setattr__(self, "beta_star", tuple(beta.tolist()))
        # the draw's width 2 * beta_range must be finite too, as numpy's uniform needs
        message = "beta_range must be nonnegative, with a finite width 2 * beta_range"
        if not 0.0 <= 2.0 * _finite("beta_range", self.beta_range, (), message) < np.inf:
            raise DataError(message)
        if not isinstance(self.dependence, str) or self.dependence not in DEPENDENCE_MODES:
            raise DataError(f"unknown dependence mode {self.dependence!r}")
        rho = _finite("rho", self.rho, ())
        if self.dependence == "equicorrelated_probit":
            if self.family != "probit":
                raise DataError("equicorrelated dependence is defined for the probit family only")
            if not 0.0 <= rho < 1.0:
                raise DataError("rho must lie in [0, 1)")
        elif rho != 0.0:
            raise DataError("rho applies only to dependence 'equicorrelated_probit'")


@dataclass(frozen=True)
class SyntheticNetwork:
    """A generated network together with the truth that produced it."""

    data: NetworkData
    beta_star: np.ndarray
    gamma_star: np.ndarray


def _rng_for(spec, replicate=0, attempt=0):
    seq = np.random.SeedSequence(spec.seed, spawn_key=(replicate, attempt))
    return np.random.Generator(np.random.Philox(seq))


def generate_with_truth(spec, rng=None):
    """Draw one network and return it with its truth parameters.

    Draw order is fixed (degree parameters, covariates, then edges) so a
    given stream always yields the same network.  ``rng``, a numpy
    ``Generator``, defaults to the spec's own stream.
    """
    if not isinstance(spec, GenSpec):
        raise DataError(f"spec must be a GenSpec, got {reprlib.repr(spec)}")
    if not isinstance(rng, (np.random.Generator, type(None))):
        raise DataError(f"rng must be a numpy Generator or None, got {reprlib.repr(rng)}")
    family = get_family(spec.family)
    if rng is None:
        rng = _rng_for(spec)
    n = spec.n
    # the column index every network of n nodes shares, held for the whole call
    # so that the covariates, the index and the network do not each build it
    cols = _pair_columns(n)
    if spec.beta_star is None:
        beta = rng.uniform(-spec.beta_range, spec.beta_range, size=n)
    else:
        beta = np.asarray(spec.beta_star, dtype=float)
    gamma = np.asarray(spec.gamma_star, dtype=float)
    z = spec.covariates.draw(n, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below, in every mode
        pi = _row_ends(beta)
        pi += beta.take(cols)
        pi += z @ gamma
    if not np.isfinite(pi).all():
        raise DataError("the index beta_i + beta_j + z_ij'gamma overflows: "
                        "beta_star, beta_range or gamma_star is too large")

    if spec.noise_free:
        weights = family.mean(pi)
    elif spec.dependence == "equicorrelated_probit":
        w = rng.standard_normal()
        eps = rng.standard_normal(pi.size)
        latent = np.sqrt(spec.rho) * w + np.sqrt(1.0 - spec.rho) * eps
        weights = (pi > latent).astype(float)
    else:
        weights = family.sample(pi, rng)

    return SyntheticNetwork(NetworkData(symmetric_from_pairs(n, weights), z), beta, gamma)


def _run_replicate(spec, replicate, config, spec_index=0):
    """Generate (with regeneration on degenerate degrees) and fit once."""
    family = get_family(spec.family)
    record = {
        "spec_index": spec_index,
        "n": spec.n,
        "replicate": replicate,
        "failed": True,
        "failure_reason": "degenerate degrees in all regeneration attempts",
    }
    record.update(dict.fromkeys([*_ERROR_FIELDS, *_COVERAGE_FIELDS]))
    for attempt in range(_MAX_REGEN_ATTEMPTS):
        synth = generate_with_truth(spec, _rng_for(spec, replicate, attempt))
        try:
            check_interior_degrees(synth.data, family)
        except DegenerateDegreeError:
            continue
        break
    else:
        return record
    try:
        result = fit(synth.data, family, config)
    except NetmomentError as exc:
        record["failure_reason"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(failed=False, failure_reason="")
    estimates = (result.beta, result.gamma, result.gamma_bc)
    truths = (synth.beta_star, synth.gamma_star, synth.gamma_star)
    for key, estimate, truth in zip(_ERROR_FIELDS, estimates, truths):
        record[key] = float(np.abs(estimate - truth).max())
    if not spec.noise_free:
        half = _CI_LEVEL * result.se_gamma
        for key, estimate in zip(_COVERAGE_FIELDS, (result.gamma, result.gamma_bc)):
            record[key] = (np.abs(estimate - synth.gamma_star) <= half).tolist()
    return record


def _worker_count(n_tasks):
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    env = os.environ.get("NETMOMENT_THREADS", "").strip()
    if env:
        try:
            limit = int(env)
        except ValueError:
            limit = None
        cap = min(cap, _integer("NETMOMENT_THREADS", limit, 1,
                                f"NETMOMENT_THREADS must be a positive integer: {env!r}"))
    return min(cap, n_tasks)


def _serve(tasks, counter, conn):
    """A study worker: claim the next index of ``tasks`` from ``counter``
    and run that task, until none is left, then send the parent its records
    over ``conn`` in one message; send the exception that stops it instead."""
    # a collection writes to the objects it visits, so in a forked worker it would
    # copy the inherited pages (the counter's allocations just before the fork
    # bring one on): only what the worker makes itself is collected
    gc.freeze()
    try:
        records = []
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            if k >= len(tasks):
                break
            records.append(_run_replicate(*tasks[k]))
        conn.send(records)
    except BaseException as exc:  # KeyboardInterrupt too: the parent raises it
        conn.send(exc)
    conn.close()


def _run_workers(tasks, workers):
    """The records of ``tasks``, run in list order by ``workers`` processes,
    forked on Linux.  Each worker claims the next task index from one shared
    counter whenever it is free, and sends all its records in one message
    once no task is left; the parent only collects.  A worker's exception
    is raised at once with its own type, and a worker that dies raises
    ``ChildProcessError``; no worker outlives the call: those still running
    are terminated.  The counter lives in multiprocessing's shared-memory
    heap, whose arena (two descriptors) the first study in a process maps
    and every later one reuses."""
    # imported here so that a process that never runs a study (the CLI's simulate
    # and fit) does not load the process machinery; numpy.random, which numpy
    # imports lazily, is loaded here once, not in every forked worker
    import multiprocessing.connection
    import numpy.random  # noqa: F401

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    counter = context.Value("q", 0)  # the next task index; it carries its own lock
    running, records, processes = {}, [], []  # the workers still running, by the parent's pipe end
    try:
        for _ in range(workers):
            conn, child = context.Pipe(duplex=False)
            process = context.Process(target=_serve, args=(tasks, counter, child))
            process.start()
            child.close()  # the worker holds the only write end, so its death ends the pipe
            processes.append(process)
            running[conn] = process
        while running:
            for conn in multiprocessing.connection.wait(list(running)):
                try:
                    result = conn.recv()
                except (EOFError, OSError):  # the worker died before or while it sent
                    process = running[conn]
                    process.join()
                    raise ChildProcessError(f"study worker exited with code {process.exitcode} "
                                            "before it sent its records") from None
                if isinstance(result, BaseException):
                    raise result
                records.extend(result)
                conn.close()
                del running[conn]
    finally:
        for conn, process in running.items():  # the call is ending on an exception
            conn.close()
            process.terminate()
        for process in processes:
            process.join()
            process.close()
    return records


@dataclass
class McStudyReport:
    """Per-replicate records plus per-n summaries of a Monte Carlo study.

    ``records`` holds one dict per replicate (sorted by (n, replicate))
    with max-norm errors, per-coefficient CI coverage indicators, and
    failure markers.  ``summaries`` holds one dict per n with medians,
    empirical coverage, and failure counts.  Rate slopes regress the log
    median degree-parameter error on log sqrt(log n / n) and the log median
    corrected-coefficient error on log (1 / n), over the specs that are not
    ``noise_free`` (their errors are rounding error, with no rate); both are
    None when fewer than two distinct n values among those specs have usable
    medians.  ``errors`` lists grid points where every replicate failed.
    """

    family: str
    n_grid: list
    replicates: int
    records: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    slope_beta: float = None
    slope_gamma_bc: float = None
    errors: list = field(default_factory=list)


def _summarize(spec, records):
    ok = [r for r in records if not r["failed"]]
    summary = {"n": spec.n, "replicates": len(records), "failures": len(records) - len(ok)}
    for key, median in _ERROR_FIELDS.items():
        summary[median] = float(np.median([r[key] for r in ok])) if ok else None
    covered = bool(ok) and not spec.noise_free
    for key, coverage in _COVERAGE_FIELDS.items():
        summary[coverage] = np.mean([r[key] for r in ok], axis=0).tolist() if covered else None
    return summary


def _rate_slope(n_values, medians, predictor):
    pts = [
        (n, m)
        for n, m in zip(n_values, medians)
        if m is not None and m > 0.0
    ]
    if len({n for n, _ in pts}) < 2:
        return None
    x = np.log([predictor(n) for n, _ in pts])
    y = np.log([m for _, m in pts])
    return float(np.polyfit(x, y, 1)[0])


def run_mc_study(specs, replicates, config=None):
    """Fit generated networks over a grid of specs and summarize.

    The specs share one family, the report's; specs of different families
    raise ``DataError``.  Each spec in the grid is run for ``replicates`` replicates.  Replicates
    with degenerate degrees are regenerated up to 10 times (fresh stream
    per attempt) and recorded as failures if still degenerate; fitting
    errors are recorded as failures as well.  Workers run in parallel when
    more than one CPU is available; the NETMOMENT_THREADS environment
    variable caps their number.  Each worker is one process that takes the
    next replicate, largest network first, from a counter the workers
    share whenever it is free, and sends the study all its records in one
    message once none is left.  The study starts its workers and joins
    them before it returns, on an exception too.

    Every replicate is fitted with one BLAS thread per process, so records
    depend neither on the worker count, nor on the caller's BLAS threads,
    nor on how workers start: ``fit`` pins OpenBLAS itself.  On Linux
    workers are forked, which starts them fastest; elsewhere they start by
    the caller's default method.  The study also holds one BLAS thread for
    the whole call, so forked workers start with it.  The setting is
    process-wide while the call runs: other threads of the caller also get
    single-threaded OpenBLAS until it returns, when the caller's thread
    counts are restored.
    """
    _integer("replicates", replicates, 1)
    specs = list(specs) if np.iterable(specs) else None
    if not specs:
        raise DataError("need at least one generation spec")
    if not all(isinstance(spec, GenSpec) for spec in specs):
        raise DataError("specs must be GenSpec instances")
    families = sorted({spec.family for spec in specs})
    if len(families) > 1:
        raise DataError(f"specs of one study must share a family, got {', '.join(families)}")
    config = _solver_config(config)

    # largest networks first, so that no worker is left with the slowest fit at the end
    tasks = [(spec, r, config, k) for k, spec in enumerate(specs) for r in range(replicates)]
    tasks.sort(key=lambda task: -task[0].n)
    workers = _worker_count(len(tasks))
    with single_blas_thread():
        if workers > 1:
            records = _run_workers(tasks, workers)
        else:
            records = [_run_replicate(*task) for task in tasks]
    records.sort(key=lambda r: (r["n"], r["spec_index"], r["replicate"]))

    summaries = [_summarize(spec, [r for r in records if r["spec_index"] == k])
                 for k, spec in enumerate(specs)]
    noisy = [s for spec, s in zip(specs, summaries) if not spec.noise_free]
    noisy_n = [s["n"] for s in noisy]
    return McStudyReport(
        family=specs[0].family,
        n_grid=[spec.n for spec in specs],
        replicates=replicates,
        records=records,
        summaries=summaries,
        slope_beta=_rate_slope(noisy_n, [s["median_err_beta"] for s in noisy],
                               lambda n: np.sqrt(np.log(n) / n)),
        slope_gamma_bc=_rate_slope(noisy_n, [s["median_err_gamma_bc"] for s in noisy],
                                   lambda n: 1.0 / n),
        errors=[f"all replicates failed at n={s['n']}"
                for s in summaries if s["failures"] == s["replicates"]],
    )
