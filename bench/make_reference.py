"""Rebuild bench/reference.json from the netmoment in this checkout's src/.

    python3 bench/make_reference.py

Run it only on the commit whose outputs are the reference (the benchmark's
correctness gate compares every later commit against them).  Floats are
stored to 12 significant digits, far below the gate's 1e-6 tolerance.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import netmoment  # noqa: E402
from netmoment import dataio  # noqa: E402

import workloads  # noqa: E402

FAMILIES = ("logistic", "probit", "poisson")
FIT_SEEDS = [20261017 + i for i in range(6)]
MC_SEEDS = [20262017 + 10 * i for i in range(24)]


def rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def fit_entry(family, seed, workdir):
    data = netmoment.generate_with_truth(workloads.large_spec(family, seed)).data
    entry = {"seed": seed, "fit": rounded(workloads.fit_summary(netmoment.fit(data, family)))}
    if family == "logistic":
        prefix = workdir / "net"
        dataio.write_edges(f"{prefix}_edges.csv", data)
        dataio.write_pair_covariates(f"{prefix}_covariates.csv", data)
        entry["csv_sha256"] = {
            kind: workloads.sha256(f"{prefix}_{kind}.csv") for kind in ("edges", "covariates")
        }
    return entry


def main():
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    reference = {"fit": {}, "mc_study": []}
    for family in FAMILIES:
        reference["fit"][family] = [fit_entry(family, seed, workdir) for seed in FIT_SEEDS]
        print(family, "done", flush=True)
    for seed in MC_SEEDS:
        report = netmoment.run_mc_study(workloads.mc_specs(seed), workloads.MC_REPLICATES)
        assert not any(r["failed"] for r in report.records), seed
        reference["mc_study"].append(
            {"seed": seed, "records": [rounded(workloads.record_row(r)) for r in report.records]}
        )
    with open(BENCH / "reference.json", "w") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
