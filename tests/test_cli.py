"""End-to-end tests for the command line interface.

Subcommands run in process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted directly; one subprocess test checks the
module entry point wiring.
"""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

from conftest import build_instance
from netmoment import estimation
from netmoment.cli import main
from netmoment.dataio import read_pair_covariates, write_edges, write_pair_covariates
from netmoment.network import NetworkData
from netmoment.simulation import CovariateRule, GenSpec, generate_with_truth

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_REFERENCE = SRC.parent / "bench" / "reference.json"
N_NODES = 12
BETA_STAR = ",".join(["0.2"] * N_NODES)


def _network(family, n, seed, gamma_star=(0.5, -0.5)):
    spec = GenSpec(n=n, family=family, gamma_star=gamma_star,
                   covariates=CovariateRule(kind="iid_pm1", p=len(gamma_star)), seed=seed)
    return generate_with_truth(spec).data


def _assert_close_json(actual, golden, path="$"):
    """Recursive equality with relative 1e-6 tolerance on floats."""
    if isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=1e-6, abs=1e-12), path
    elif isinstance(golden, dict):
        assert isinstance(actual, dict) and set(actual) == set(golden), path
        for key in golden:
            _assert_close_json(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), path
        for k, (a, g) in enumerate(zip(actual, golden)):
            _assert_close_json(a, g, f"{path}[{k}]")
    else:
        assert actual == golden, path


@pytest.fixture
def noise_free_files(tmp_path):
    """Exact-mean network files whose fit recovers the written truth."""
    prefix = str(tmp_path / "exact")
    code = main([
        "simulate", "--family", "logistic", "--n", str(N_NODES),
        "--gamma-star", "0.5", "--beta-star", BETA_STAR,
        "--noise-free", "--seed", "3", "--out", prefix,
    ])
    assert code == 0
    return f"{prefix}_edges.csv", f"{prefix}_covariates.csv"


@pytest.fixture
def noisy_files(tmp_path):
    prefix = str(tmp_path / "noisy")
    code = main([
        "simulate", "--family", "logistic", "--n", "16",
        "--gamma-star", "0.4", "--seed", "11", "--out", prefix,
    ])
    assert code == 0
    return f"{prefix}_edges.csv", f"{prefix}_covariates.csv"


class TestSimulate:
    def test_writes_both_files(self, noisy_files):
        edges, covariates = noisy_files
        n, z = read_pair_covariates(covariates)
        assert n == 16
        assert z.shape[1] == 1
        with open(edges) as handle:
            assert handle.readline().strip() == "i,j,weight"

    @pytest.mark.parametrize("rule", ["iid_pm1", "iid_uniform"])
    def test_repeat_runs_are_byte_identical(self, tmp_path, rule):
        # 130 nodes have 8385 pairs, more than one block of the CSV writer
        args = ["simulate", "--family", "poisson", "--n", "130", "--gamma-star", "0.3,-0.2",
                "--covariate-rule", rule, "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("_edges.csv", "_covariates.csv"):
            a = (tmp_path / f"a{name}").read_bytes()
            b = (tmp_path / f"b{name}").read_bytes()
            assert a == b

    def test_csvs_match_the_benchmark_reference_hashes(self, tmp_path):
        """A logistic n=600 simulate writes the bytes whose SHA-256 the
        benchmark reference records, on any numpy the package supports; the
        benchmark's own check of them needs Python 3.11."""
        expected = json.loads(BENCH_REFERENCE.read_text())["fit"]["logistic"][0]
        prefix = tmp_path / "net"
        assert main(["simulate", "--family", "logistic", "--n", "600", "--gamma-star", "0.5,-0.5",
                     "--seed", str(expected["seed"]), "--out", str(prefix)]) == 0
        for kind, digest in expected["csv_sha256"].items():
            got = hashlib.sha256(Path(f"{prefix}_{kind}.csv").read_bytes()).hexdigest()
            assert got == digest, kind

    @pytest.mark.parametrize("gamma_star, message", [
        ("a,b", "error: --gamma-star must be comma-separated numbers: 'a,b'\n"),
        (",", "error: --gamma-star must contain at least one number\n"),
    ], ids=["letters", "no-number"])
    def test_bad_gamma_star_exits_one(self, tmp_path, capsys, gamma_star, message):
        code = main(["simulate", "--family", "logistic", "--n", "10",
                     "--gamma-star", gamma_star, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == message

    def test_covariate_width_mismatch_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--family", "logistic", "--n", "10",
                     "--gamma-star", "0.5", "--covariate-p", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "gamma_star length" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--covariate-rule", "iid_uniform", "--covariate-high", "inf"],
    ])
    def test_invalid_generation_setting_exits_one(self, tmp_path, capsys, flags):
        code = main(["simulate", "--family", "logistic", "--n", "10", "--gamma-star", "0.5",
                     "--out", str(tmp_path / "x"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--gamma-star", "nan"], "error: gamma_star must be finite\n"),
        (["--gamma-star", "0.5", "--rho", "0.7"],
         "error: rho applies only to dependence 'equicorrelated_probit'\n"),
    ])
    def test_ignored_or_nonfinite_setting_exits_one(self, tmp_path, capsys, flags, message):
        code = main(["simulate", "--family", "probit", "--n", "10",
                     "--out", str(tmp_path / "x"), *flags])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "x_edges.csv").exists()

    def test_unsamplable_poisson_mean_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--family", "poisson", "--n", "20",
                     "--gamma-star", "0.5", "--beta-range", "25",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Poisson mean" in err and "too large to sample" in err
        assert "Traceback" not in err


class TestFit:
    def test_bundled_noise_free_fixture(self, tmp_path):
        """The committed exact-mean fixture fits cleanly: exit 0 and both
        residual norms at the solver tolerance."""
        out = tmp_path / "fit.json"
        code = main(["fit", "--family", "logistic",
                     "--edges", str(FIXTURES / "noise_free_edges.csv"),
                     "--pair-covariates", str(FIXTURES / "noise_free_covariates.csv"),
                     "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["converged"] is True
        assert result["residual_degree"] <= 1e-8
        assert result["residual_covariate"] <= 1e-8
        assert abs(result["gamma"][0] - 0.5) <= 1e-6

    def test_recovers_truth_from_noise_free_files(self, noise_free_files, tmp_path, capsys):
        edges, covariates = noise_free_files
        out = tmp_path / "fit.json"
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates, "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["converged"] is True
        assert abs(result["gamma"][0] - 0.5) <= 1e-6
        assert np.abs(np.asarray(result["beta"]) - 0.2).max() <= 1e-6
        assert result["gamma_bc"] is not None

    def test_json_to_stdout(self, noise_free_files, capsys):
        edges, covariates = noise_free_files
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["converged"] is True

    def test_csv_to_stdout(self, noise_free_files, capsys):
        edges, covariates = noise_free_files
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates, "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,index,estimate,std_error"
        assert len(lines) == 1 + N_NODES + 1 + 1

    def test_json_stdout_equals_out_file(self, noise_free_files, tmp_path, capsys):
        edges, covariates = noise_free_files
        argv = ["fit", "--family", "logistic", "--edges", edges,
                "--pair-covariates", covariates]
        out = tmp_path / "fit.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("flag", ["--tol-f", "--tol-q"])
    def test_infinite_tolerance_exits_one(self, noise_free_files, capsys, flag):
        edges, covariates = noise_free_files
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates, flag, "inf"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "finite and positive" in captured.err

    def test_csv_stdout_equals_out_file(self, noise_free_files, tmp_path, capsys):
        edges, covariates = noise_free_files
        argv = ["fit", "--family", "logistic", "--edges", edges,
                "--pair-covariates", covariates, "--format", "csv"]
        out = tmp_path / "fit.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_no_bias_correct_nulls_fields(self, noise_free_files, tmp_path):
        edges, covariates = noise_free_files
        out = tmp_path / "fit.json"
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates, "--no-bias-correct",
                     "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["gamma_bc"] is None
        assert result["bias"] is None

    def test_node_attrs_with_match_transform(self, tmp_path):
        """A fit whose covariate is derived from node attributes recovers a
        truth planted through the same match indicator."""
        from scipy.special import expit
        from netmoment.network import NetworkData, pair_indices
        from netmoment.dataio import write_edges

        n, beta_true, gamma_true = 10, 0.1, 0.7
        groups = np.array([i % 2 for i in range(n)], dtype=float)
        rows, cols = pair_indices(n)
        match = (groups[rows] == groups[cols]).astype(float)
        pi = 2.0 * beta_true + gamma_true * match
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = expit(pi)
        adjacency[cols, rows] = expit(pi)
        edges = tmp_path / "edges.csv"
        write_edges(str(edges), NetworkData(adjacency, match))
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("i,x1\n" + "".join(f"{i},{groups[i]}\n" for i in range(n)))

        out = tmp_path / "fit.json"
        code = main(["fit", "--family", "logistic", "--edges", str(edges),
                     "--node-attrs", str(attrs), "--transform", "match_indicator",
                     "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert abs(result["gamma"][0] - gamma_true) <= 1e-6

    def test_requires_exactly_one_covariate_source(self, noise_free_files, tmp_path, capsys):
        edges, covariates = noise_free_files
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("i,x1\n0,1.0\n1,2.0\n")
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates,
                     "--node-attrs", str(attrs)])
        assert code == 1
        assert "exactly one covariate source" in capsys.readouterr().err
        code = main(["fit", "--family", "logistic", "--edges", edges])
        assert code == 1

    def test_transform_flag_misuse_exits_one(self, noise_free_files, tmp_path, capsys):
        edges, covariates = noise_free_files
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates,
                     "--transform", "match_indicator"])
        assert code == 1
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("i,x1\n0,1.0\n1,2.0\n")
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--node-attrs", str(attrs)])
        assert code == 1
        assert "requires --transform" in capsys.readouterr().err

    def test_malformed_edges_exits_one(self, noise_free_files, tmp_path, capsys):
        _, covariates = noise_free_files
        bad = tmp_path / "bad.csv"
        bad.write_text("from,to,w\n0,1,1\n")
        code = main(["fit", "--family", "logistic", "--edges", str(bad),
                     "--pair-covariates", covariates])
        assert code == 1
        assert "expected header" in capsys.readouterr().err

    def test_saturated_hub_exits_one_naming_node(self, tmp_path, capsys):
        """A star graph pins the hub's degree to its maximum, which the
        degree check rejects before any solving starts."""
        n = 5
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j,weight\n" + "".join(f"{i},0,1.0\n" for i in range(1, n)))
        from netmoment.network import pair_indices
        rows, cols = pair_indices(n)
        covariates = tmp_path / "z.csv"
        covariates.write_text("i,j,z1\n" + "".join(
            f"{i},{j},{float((i + j) % 2)}\n" for i, j in zip(rows, cols)))
        code = main(["fit", "--family", "logistic", "--edges", str(edges),
                     "--pair-covariates", str(covariates)])
        assert code == 1
        err = capsys.readouterr().err
        assert "nodes [0]" in err and "boundary" in err

    @pytest.mark.parametrize("family", ["logistic", "poisson", "probit"])
    def test_overflowing_degrees_exit_one_naming_node(self, family, tmp_path, capsys):
        """Finite weights can sum past the float range: one error line names
        the node, with no numpy warning before it."""
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j,weight\n1,0,1.7e308\n2,0,1.7e308\n")
        covariates = tmp_path / "z.csv"
        covariates.write_text("i,j,z1\n1,0,0.5\n2,0,-0.5\n2,1,1.0\n")
        code = main(["fit", "--family", family, "--edges", str(edges),
                     "--pair-covariates", str(covariates)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "nodes [0]" in err and "overflow" in err

    def test_cancelling_weights_exit_one_on_the_boundary(self, tmp_path, capsys):
        """Node 5's finite weights total -2^970, below zero, though numpy's
        pairwise sum meets +inf and -inf partial sums: one error line names
        the boundary, with no numpy warning before it."""
        weights = ["9.9792015476736e+291", "1.7976931348623157e+308", "-8.98846567431158e+307",
                   "-8.98846567431158e+307"]
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j,weight\n" + "".join(f"5,{j},{w}\n" for j, w in enumerate(weights)))
        from netmoment.network import pair_indices
        rows, cols = pair_indices(8)
        covariates = tmp_path / "z.csv"
        covariates.write_text("i,j,z1\n" + "".join(
            f"{i},{j},{float((i + j) % 2)}\n" for i, j in zip(rows, cols)))
        code = main(["fit", "--family", "logistic", "--edges", str(edges),
                     "--pair-covariates", str(covariates)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "boundary" in err
        assert re.search(r"nodes \[[^]]*\b5\b", err)

    @pytest.mark.parametrize("family", ["logistic", "poisson", "probit"])
    def test_oversized_covariate_exits_one_naming_the_column(self, family, tmp_path, capsys):
        """A covariate column so large that the curvature's sums over the
        pairs would overflow: one error line names the column, with no numpy
        warning before it."""
        data = _network(family, 30, seed=3)
        z = data.covariates.copy()
        z[:, 1] *= 1e155
        edges, covariates = tmp_path / "edges.csv", tmp_path / "z.csv"
        write_edges(edges, data)
        write_pair_covariates(covariates, NetworkData(data.adjacency, z))
        code = main(["fit", "--family", family, "--edges", str(edges),
                     "--pair-covariates", str(covariates)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: covariate z2 has magnitude 1e+155, above the limit")

    def test_non_convergence_exits_two_with_trace(self, noisy_files, tmp_path, capsys):
        edges, covariates = noisy_files
        out = tmp_path / "fail.json"
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates,
                     "--tol-q", "1e-14", "--max-outer", "1", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert "error" in payload
        assert len(payload["trace"]) >= 1
        assert "residual_covariate" in payload["trace"][0]

    def test_stall_keeps_trace(self, tmp_path, monkeypatch):
        # the first full Newton step on this network is rejected; with no
        # halvings allowed the fit stalls at its starting point
        data, _, _ = build_instance("poisson", 10, 2, seed=54)
        edges, covariates = tmp_path / "edges.csv", tmp_path / "z.csv"
        write_edges(edges, data)
        write_pair_covariates(covariates, data)
        monkeypatch.setattr(estimation, "_MAX_HALVINGS", 0)
        out = tmp_path / "fail.json"
        code = main(["fit", "--family", "poisson", "--edges", str(edges),
                     "--pair-covariates", str(covariates), "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert "stalled" in payload["error"]
        (entry,) = payload["trace"]
        assert entry["outer"] == 1
        assert entry["halvings"] == 0

    def test_solve_step_cap_exits_two_with_trace(self, tmp_path, monkeypatch):
        """A degree Jacobian solve that reaches its conjugate-gradient cap ends
        the fit as non-convergence, with the trace of the iterates so far.
        Steps solve to ``_CG_RTOL`` here: a looser step solve would return its
        iterate at the cap."""
        data = _network("logistic", 250, seed=7)
        edges, covariates = tmp_path / "edges.csv", tmp_path / "z.csv"
        write_edges(edges, data)
        write_pair_covariates(covariates, data)
        monkeypatch.setattr(estimation, "_CG_MAX_STEPS", 1)
        monkeypatch.setattr(estimation, "_CG_FORCING_CAP", estimation._CG_RTOL)
        out = tmp_path / "fail.json"
        code = main(["fit", "--family", "logistic", "--edges", str(edges),
                     "--pair-covariates", str(covariates), "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert "conjugate-gradient" in payload["error"]
        (entry,) = payload["trace"]
        assert entry["outer"] == 1

    def test_saturated_fit_exits_two(self, tmp_path):
        # the probit means of this network saturate before the moment
        # equations reach a root, which has no finite location
        data, _, _ = build_instance("probit", 8, 2, seed=180)
        edges, covariates = tmp_path / "edges.csv", tmp_path / "z.csv"
        write_edges(edges, data)
        write_pair_covariates(covariates, data)
        out = tmp_path / "fail.json"
        code = main(["fit", "--family", "probit", "--edges", str(edges),
                     "--pair-covariates", str(covariates), "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert "saturated" in payload["error"]
        assert payload["trace"]

    def test_constant_covariate_exits_one(self, noisy_files, tmp_path, capsys):
        edges, _ = noisy_files
        from netmoment.network import pair_indices
        rows, cols = pair_indices(16)
        covariates = tmp_path / "z.csv"
        covariates.write_text("i,j,z1\n" + "".join(
            f"{i},{j},1.0\n" for i, j in zip(rows, cols)))
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", str(covariates)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "profile Jacobian" in err
        assert "Traceback" not in err

    # the second case fails to converge, so the exit-2 payload is unwritable
    @pytest.mark.parametrize("flags", [[], ["--tol-q", "1e-14", "--max-outer", "1"]])
    def test_unwritable_out_exits_one(self, noisy_files, tmp_path, capsys, flags):
        edges, covariates = noisy_files
        out = tmp_path / "missing" / "x.json"
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates, "--out", str(out)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    def test_non_convergence_trace_on_stderr_without_out(self, noisy_files, capsys):
        edges, covariates = noisy_files
        code = main(["fit", "--family", "logistic", "--edges", edges,
                     "--pair-covariates", covariates,
                     "--tol-q", "1e-14", "--max-outer", "1"])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err[err.index("{"):])
        assert payload["trace"]

    def test_non_convergence_payload_on_stderr_equals_out_file(self, noisy_files, tmp_path,
                                                               capsys):
        """Without --out the exit-2 payload follows the error line on
        stderr, byte for byte as --out holds it."""
        edges, covariates = noisy_files
        argv = ["fit", "--family", "logistic", "--edges", edges,
                "--pair-covariates", covariates, "--tol-q", "1e-14", "--max-outer", "1"]
        out = tmp_path / "fail.json"
        assert main(argv + ["--out", str(out)]) == 2
        line = capsys.readouterr().err
        assert main(argv) == 2
        assert capsys.readouterr().err.encode() == line.encode() + out.read_bytes()


class TestMcStudy:
    CONFIG = """\
family = logistic
n_grid = 10, 14
replicates = 2
gamma_star = 0.4
seed = 5
"""

    def test_json_report(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "report.json"
        code = main(["mc-study", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_grid"] == [10, 14]
        assert len(report["records"]) == 4
        assert report["errors"] == []

    def test_csv_report_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        code = main(["mc-study", "--config", str(cfg), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("spec_index,n,replicate,failed")
        assert len(lines) == 1 + 4

    def test_csv_stdout_equals_out_file(self, tmp_path, capsys):
        """A failure reason holding a comma is quoted on stdout as in the
        --out file, so every row parses to the header's width."""
        cfg = tmp_path / "study.cfg"
        cfg.write_text("family = logistic\nn_grid = 20\nreplicates = 1\n"
                       "gamma_star = 0.5\nmax_outer = 1\nseed = 3\n")
        out = tmp_path / "report.csv"
        assert main(["mc-study", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["mc-study", "--config", str(cfg), "--format", "csv"]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes()
        rows = list(csv.reader(io.StringIO(printed)))
        assert "," in rows[1][rows[0].index("failure_reason")]
        assert {len(row) for row in rows} == {len(rows[0])}

    def test_json_stdout_equals_out_file(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "report.json"
        assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["mc-study", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mc-study", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["mc-study", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_seed_override_changes_records(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mc-study", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["mc-study", "--config", str(cfg), "--seed", "123",
                     "--out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["records"] != b["records"]

    @pytest.mark.parametrize("flags, extra", [
        (["--seed", "-3"], ""),
        ([], "covariate_rule = iid_uniform\ncovariate_high = inf\n"),
    ])
    def test_invalid_generation_setting_exits_one(self, tmp_path, capsys, flags, extra):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG + extra)
        assert main(["mc-study", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["mc-study", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "cannot open" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_thread_cap_exits_one(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("NETMOMENT_THREADS", threads)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        assert main(["mc-study", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: NETMOMENT_THREADS must be a positive integer")

    def test_matches_golden_report(self, tmp_path, monkeypatch):
        """A fresh run of the committed study config reproduces the frozen
        report; records are worker-count invariant, so the thread cap only
        makes the run hermetic."""
        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        out = tmp_path / "report.json"
        code = main(["mc-study", "--config", str(FIXTURES / "golden_study.cfg"),
                     "--out", str(out)])
        assert code == 0
        fresh = json.loads(out.read_text())
        golden = json.loads((FIXTURES / "golden_study.json").read_text())
        _assert_close_json(fresh, golden)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["train"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["fit", "--family", "logistic", "--edges", "e.csv",
                     "--pair-covariates", "z.csv", "--fast"]) == 1

    def test_bad_choice(self, capsys):
        assert main(["fit", "--family", "gaussian", "--edges", "e.csv",
                     "--pair-covariates", "z.csv"]) == 1

    @pytest.mark.parametrize("flag", [["--damping", "0.5"], ["--max-inner-beta", "5"]])
    def test_removed_solver_flags(self, capsys, flag):
        assert main(["fit", "--family", "logistic", "--edges", "e.csv",
                     "--pair-covariates", "z.csv", *flag]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and flag[0] in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netmoment.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "mc-study" in proc.stdout

    def test_console_script_registered(self):
        scripts = entry_points(group="console_scripts")
        matches = [ep for ep in scripts if ep.name == "netmoment"]
        assert len(matches) == 1
        assert matches[0].value == "netmoment.cli:main"


@pytest.mark.parametrize("n", [16, 400])
@pytest.mark.parametrize("family", ["logistic", "poisson", "probit"])
def test_cli_processes_load_no_scipy(tmp_path, family, n):
    """``netmoment simulate`` and then ``netmoment fit``, each its own process
    as a user runs them, import no scipy module: no family needs one, not
    even lazily, on a small network or a larger one.  scipy.special alone
    takes longer to import than the whole package.  Nor do they import
    ``multiprocessing`` or ``concurrent.futures``: ``run_mc_study`` imports
    its pool machinery itself, so processes that run no study skip it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    prefix = str(tmp_path / "net")
    for argv in (
        ["simulate", "--family", family, "--n", str(n), "--gamma-star", "0.4", "--seed", "11",
         "--out", prefix],
        ["fit", "--family", family, "--edges", prefix + "_edges.csv", "--pair-covariates",
         prefix + "_covariates.csv", "--out", prefix + "_fit.json"],
    ):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "netmoment.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "import time:" in proc.stderr
        loaded = re.findall(r"\|\s+((?:scipy|multiprocessing|concurrent)(?:\.\S*)?)\s*$",
                            proc.stderr, flags=re.MULTILINE)
        assert loaded == [], (argv[0], loaded)
    assert json.loads(Path(prefix + "_fit.json").read_text())["converged"]


def test_fit_output_independent_of_blas_threads(tmp_path):
    """``netmoment fit`` in fresh interpreters writes the same JSON whether
    OpenBLAS starts with its default thread count or one thread, on a network
    with two covariates and on a larger one with a single covariate.  On a
    2-CPU host, results differ in their last digits between one and two
    threads when the fit is left to the caller's BLAS threads: OpenBLAS
    splits a matrix-vector product from about 700 rows and a long dot product
    by thread count."""
    networks = {150: (0.5, -0.5), 731: (0.5,)}
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for n, gamma_star in networks.items():
        edges, covariates = tmp_path / f"edges_{n}.csv", tmp_path / f"z_{n}.csv"
        data = _network("logistic", n, seed=n, gamma_star=gamma_star)
        write_edges(edges, data)
        write_pair_covariates(covariates, data)
        argv = [sys.executable, "-m", "netmoment.cli", "fit", "--family", "logistic",
                "--edges", str(edges), "--pair-covariates", str(covariates)]
        outputs = []
        for blas in (None, "1"):
            run_env = env if blas is None else dict(env, OPENBLAS_NUM_THREADS=blas)
            proc = subprocess.run(argv, env=run_env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert json.loads(outputs[0])["converged"]
        assert outputs[1] == outputs[0], n
