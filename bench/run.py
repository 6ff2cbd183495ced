"""netmoment benchmark: end-to-end and per-layer metrics for each workload.

    python3 bench/run.py                       # every workload, summary table
    python3 bench/run.py --workload fit_logistic --seed 3 --seconds 15 --trace 0

With ``--workload`` the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, measured without tracing; ``--trace 1``
runs the same operations, every other one traced, and reports the per-layer
metrics plus the tracing overhead.  Per-layer counts and times are per traced
operation.  Human-readable lines, including the recorded environment, go to
standard error.  ``--out PATH`` also writes a full JSON report there.

The benchmark imports netmoment from ``src/`` of the checkout it sits in and
runs the ``netmoment`` console script the same way.  It pins no BLAS or
worker thread count: the environment is recorded as inherited.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3
MIN_OPS = 3
MIN_TRACED_OPS = 4
PROBE_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NETMOMENT_THREADS")
COUNT_STATS = ("evals", "iters", "bytes", "outer_iters")
# Per-layer metrics not summed from spans: probes, pool figures, overhead.
DERIVED = (
    "estimation.cold_solve.s", "estimation.cold_solve.iters", "estimation.profile_jacobian.probe_s",
    "cli.import_s", "simulation.replicate_s", "simulation.pool_efficiency", "simulation.workers",
    "trace.overhead_ratio",
)
# Name users quote for the median operation time of each workload.
NAMED = {
    "fit_logistic": "fit_s.logistic",
    "fit_probit": "fit_s.probit",
    "fit_poisson": "fit_s.poisson",
    "mc_study": "study_call_s",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_import_s(env, module):
    """Seconds a fresh interpreter spends importing ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def blas_threads():
    """Thread count each loaded OpenBLAS reports, read without changing it."""
    found = {}
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment(workload):
    import numpy
    import scipy

    cpus = os.cpu_count() or 1
    workers = None
    if workload.fits_per_op:
        # run_mc_study's documented rule: one worker per CPU, capped by
        # NETMOMENT_THREADS and by the number of tasks.
        cap = os.environ.get("NETMOMENT_THREADS", "").strip()
        workers = max(1, min(cpus, int(cap) if cap else cpus, workload.fits_per_op))
    return {
        "nproc": cpus,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas_threads": blas_threads(),
        "mc_workers": workers,
    }


def timed_loop(run_op, seconds, min_ops):
    """Call run_op(k), which returns the operation's seconds, until the next
    operation would end past ``seconds``; return the operation times."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_op(len(times)))
        if len(times) >= min_ops and time.perf_counter() - start + median(times) > seconds:
            return times


class Outcome:
    """Counts attempted and failed operations; failed checks count as failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, op, check):
        """Time op(), then check its output; return op's seconds."""
        self.attempted += 1
        start = time.perf_counter()
        elapsed = None
        try:
            out = op()
            elapsed = time.perf_counter() - start
            problems = check(out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            log(f"FAILED {what}: " + "; ".join(problems[:3]))
        return time.perf_counter() - start if elapsed is None else elapsed


def peak_rss_mb(who):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def run_plain(workload, seconds, outcome):
    def one(k):
        return outcome.run(f"op {k}", lambda: workload.op(k), workload.check)

    return timed_loop(one, seconds, MIN_OPS)


def run_traced(workload, seconds, outcome, tracer, targets):
    """Alternate traced and untraced operations; return both sets of times."""
    traced, plain = [], []

    def one(k):
        if k % 2:
            plain.append(outcome.run(f"op {k}", lambda: workload.traced_op(k), workload.check))
            return plain[-1]
        tracer.op_id = k
        with tracer.installed(targets):
            traced.append(outcome.run(f"traced op {k}", lambda: workload.traced_op(k), workload.check))
        tracer.collect()
        return traced[-1]

    timed_loop(one, seconds, MIN_TRACED_OPS)
    return traced, plain


def probes(workload, env, missing):
    """Solver probes at the workload's fitted solution, timed untraced."""
    import netmoment

    data, family, result = workload.probe_target()
    out = {"cli.import_s": median([child_import_s(env, "netmoment.cli") for _ in range(PROBE_REPEATS)])}
    solve = getattr(netmoment, "solve_degree_params", None)
    jacobian = getattr(netmoment, "profile_jacobian", None)
    if solve is None or jacobian is None:
        missing.extend(f"netmoment:{name}" for name, fn in
                       (("solve_degree_params", solve), ("profile_jacobian", jacobian)) if fn is None)
        return out
    cold, jac = [], []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        _, iters, _ = solve(data, family, result.gamma)
        cold.append(time.perf_counter() - t)
        t = time.perf_counter()
        jacobian(data, family, result.beta, result.gamma)
        jac.append(time.perf_counter() - t)
    out.update({
        "estimation.cold_solve.s": median(cold),
        "estimation.cold_solve.iters": iters,
        "estimation.profile_jacobian.probe_s": median(jac),
    })
    return out


def pool_metrics(spans, n_ops, fits_per_op):
    """Replicate busy time and pool efficiency from the workers' spans."""
    main = os.getpid()
    pid_of = {s.span_id: s.pid for s in spans}
    work = [
        s for s in spans
        if s.pid != main and pid_of.get(s.parent_id) != s.pid
        and s.name in ("simulation.generate_with_truth", "estimation.fit")
    ]
    if not work or not fits_per_op:
        return {"simulation.replicate_s": 0.0, "simulation.pool_efficiency": 0.0, "simulation.workers": 0}
    capacity = 0.0
    workers = 0
    for study in (s for s in spans if s.name == "simulation.run_mc_study" and s.pid == main):
        pids = {s.pid for s in work if s.op_id == study.op_id}
        capacity += (study.end - study.start) * len(pids)
        workers += len(pids)
    busy = sum(s.end - s.start for s in work)
    return {
        "simulation.replicate_s": busy / (n_ops * fits_per_op),
        "simulation.pool_efficiency": busy / capacity if capacity else 0.0,
        "simulation.workers": workers / n_ops,
    }


def layer_metrics(names, tracer, n_ops, extra):
    from tracer import layer_totals

    totals = layer_totals(tracer.spans)
    out = {}
    for name in names:
        if name in extra or name in DERIVED:
            out[name] = extra.get(name, 0)
            continue
        span, _, stat = name.rpartition(".")
        entry = totals.get(span)
        if stat not in ("calls", "busy_s", "self_s") + COUNT_STATS:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
        if entry is None:
            out[name] = 0
        else:
            out[name] = entry["value" if stat in COUNT_STATS else stat] / n_ops
    return out


def run_workload(args, spec):
    if not (SRC / "netmoment" / "__init__.py").is_file():
        log(f"error: no netmoment package under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    with open(BENCH / "reference.json") as handle:
        reference = json.load(handle)
    env = child_env()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = SimpleNamespace(root=ROOT, workdir=workdir, child_env=env)
        workload = workloads.make(args.workload, reference, args.seed, ctx)
        environ = environment(workload)
        log("environment " + json.dumps(environ))

        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - t)

        outcome = Outcome()
        report = {"workload": args.workload, "seed": args.seed, "environment": environ}
        if args.trace:
            from tracer import TARGETS, Tracer

            tracer = Tracer(workdir)
            traced, plain = run_traced(workload, args.seconds, outcome, tracer, TARGETS)
            outcome.run("final check", workload.final_check, lambda problems: problems)
            extra = probes(workload, env, tracer.missing)
            extra.update(pool_metrics(tracer.spans, len(traced), workload.fits_per_op))
            extra["trace.overhead_ratio"] = op_seconds(workload, traced) / op_seconds(workload, plain) - 1.0
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = layer_metrics(names, tracer, len(traced), extra)
            if tracer.missing:
                log("missing (reported as 0): " + ", ".join(tracer.missing))
            report["missing"] = tracer.missing
            report["samples"] = {"traced_op_s": traced, "plain_op_s": plain}
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            with open(spans_path, "w") as handle:
                for s in tracer.spans:
                    handle.write(json.dumps(list(s)) + "\n")
            log(f"{len(tracer.spans)} spans written to {spans_path}")
        else:
            samples = run_plain(workload, args.seconds, outcome)
            # read before the import probes below, which are children too
            rss = peak_rss_mb(workload.rss)
            outcome.run("final check", workload.final_check, lambda problems: problems)
            imports = [child_import_s(env, "netmoment") for _ in builds]
            setup = [i + b for i, b in zip(imports, builds)]
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {"setup_s": median(setup), "op_s": op_seconds(workload, samples), "peak_rss_mb": rss}
            report["samples"] = {"op_s": samples, "setup_s": setup}
            report["named_metrics"] = named_metrics(args.workload, workload, samples, outcome)

        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
        for name in names:
            log(f"{args.workload:13s} {name:45s} {values[name]:.6g} {units[name]}")
        if args.trace:
            log(f"{args.workload:13s} failed {outcome.failed}/{outcome.attempted}")
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
        report["result"] = result
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def op_seconds(workload, samples):
    """The op_s metric: the median operation time, except on a Monte Carlo
    workload, where it is wall seconds per replicate over the whole run.

    One run_mc_study call in netmoment 0.1.0 is either fast or about three
    times slower, by pool (BLAS oversubscription); the median of such calls
    jumps between the two modes, while the run's total time over its
    replicates is the fits-per-second figure a user sees.
    """
    if workload.fits_per_op:
        return sum(samples) / (len(samples) * workload.fits_per_op)
    return median(samples)


def named_metrics(name, workload, samples, outcome):
    """The workload's metrics under the names users quote, logged with their
    sample counts: name -> {value, unit, n, and tail percentile if any}."""
    stages = {NAMED[name]: samples} if name in NAMED else workload.stage_s
    out = {}
    for stage, times in stages.items():
        out[stage] = {"value": median(times), "unit": "s", "n": len(times)}
        tail = tail_percentile(times)
        if tail:
            out[stage][f"p{tail[0]}"] = tail[1]
    if workload.fits_per_op:
        fits = workload.fits_per_op * len(samples)
        out["fits_per_s"] = {"value": fits / sum(samples), "unit": "1/s", "n": fits}
    out["failed_ratio"] = {"value": outcome.failed / outcome.attempted, "unit": "ratio", "n": outcome.attempted}
    for metric, entry in out.items():
        extra = "".join(f", {k} {v:.4g}" for k, v in entry.items() if k.startswith("p"))
        log(f"{name:13s} {metric} {entry['value']:.4g} {entry['unit']} (n={entry['n']}{extra})")
    return out


def run_all(args, spec):
    """Run each workload in its own process, then print every metric of every
    workload by name with its unit, and one JSON line combining the results."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        out = WORK / f"report-{workload}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"{workload}: exited {proc.returncode}")
            ok = False
            continue
        report = json.loads(out.read_text())
        out.unlink()
        result = report["result"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in {**result["metrics"], **report.get("named_metrics", {})}.items():
            combined["metrics"][f"{workload}.{metric}"] = {"value": entry["value"], "unit": entry["unit"]}
            rows.append((workload, metric, entry["value"], entry["unit"]))
    log("")
    for workload, metric, value, unit in rows:
        log(f"{workload:13s} {metric:45s} {value:12.6g} {unit}")
    if not ok:
        return 1
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write a full JSON report here")
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except OSError as exc:
        log(f"error: cannot read BENCHMARK.json: {exc}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
