"""Tests for CSV readers and writers, derived covariates, and serialization."""

import csv
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoment.dataio import (
    derive_pair_covariates,
    fit_result_csv_rows,
    fit_result_to_dict,
    gen_spec,
    parse_study_config,
    read_edges,
    read_node_attrs,
    read_pair_covariates,
    report_csv_rows,
    solver_config,
    write_edges,
    write_fit_result_json,
    write_pair_covariates,
    write_report_json,
)
from netmoment.errors import DataError
from netmoment.estimation import SolverConfig, fit
from netmoment.families import get_family
from netmoment.network import NetworkData, pair_count, pair_indices
from netmoment.simulation import CovariateRule, GenSpec, generate_with_truth, run_mc_study

from conftest import build_noise_free
from oracles import read_edges_ref, read_node_attrs_ref, read_pair_covariates_ref


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestReadEdges:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Fractional weights survive a write/read cycle unchanged because
        floats are written with repr."""
        data, _, _ = build_noise_free("logistic", 11, 2, seed=4)
        path = tmp_path / "edges.csv"
        write_edges(str(path), data)
        adjacency = read_edges(str(path), 11)
        assert np.array_equal(adjacency, data.adjacency)

    def test_zero_weights_are_omitted(self, tmp_path):
        spec = GenSpec(n=12, family="logistic", gamma_star=(0.4,), seed=10)
        data = generate_with_truth(spec).data
        path = tmp_path / "edges.csv"
        write_edges(str(path), data)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        nonzero = int(np.count_nonzero(data.pair_weights))
        assert len(rows) == 1 + nonzero
        assert np.array_equal(read_edges(str(path), 12), data.adjacency)

    def test_missing_pairs_default_to_zero(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0,1,2.5\n")
        adjacency = read_edges(path, 4)
        assert adjacency[0, 1] == 2.5 and adjacency[1, 0] == 2.5
        assert np.count_nonzero(adjacency) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            read_edges(str(tmp_path / "absent.csv"), 5)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "e.csv", "")
        with pytest.raises(DataError, match="expected a header"):
            read_edges(path, 5)

    def test_wrong_header(self, tmp_path):
        path = _write(tmp_path / "e.csv", "a,b,w\n0,1,1\n")
        with pytest.raises(DataError, match="expected header 'i,j,weight'"):
            read_edges(path, 5)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0,1\n")
        with pytest.raises(DataError, match="expected 3 fields"):
            read_edges(path, 5)

    def test_non_integer_id(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0.5,1,1\n")
        with pytest.raises(DataError, match="not an integer"):
            read_edges(path, 5)

    def test_non_numeric_weight(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0,1,heavy\n")
        with pytest.raises(DataError, match="not a number"):
            read_edges(path, 5)

    def test_non_finite_weight(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0,1,inf\n")
        with pytest.raises(DataError, match="must be finite"):
            read_edges(path, 5)

    def test_self_loop(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n2,2,1\n")
        with pytest.raises(DataError, match="self-loop at node 2"):
            read_edges(path, 5)

    def test_id_out_of_range(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n0,5,1\n")
        with pytest.raises(DataError, match="out of range"):
            read_edges(path, 5)

    def test_duplicate_pair_in_either_order(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n1,2,1\n2,1,3\n")
        with pytest.raises(DataError, match="duplicate unordered pair"):
            read_edges(path, 5)


class TestReadPairCovariates:
    def test_round_trip_is_bit_exact(self, tmp_path):
        data, _, _ = build_noise_free("poisson", 9, 3, seed=8)
        path = tmp_path / "z.csv"
        write_pair_covariates(str(path), data)
        n, z = read_pair_covariates(str(path))
        assert n == 9
        assert np.array_equal(z, data.covariates)

    def test_infers_node_count_from_ids(self, tmp_path):
        lines = ["i,j,z1"]
        rows, cols = pair_indices(5)
        for i, j in zip(rows, cols):
            lines.append(f"{i},{j},{float(i + j)}")
        path = _write(tmp_path / "z.csv", "\n".join(lines) + "\n")
        n, z = read_pair_covariates(path)
        assert n == 5
        assert z.shape == (pair_count(5), 1)

    def test_wrong_header(self, tmp_path):
        path = _write(tmp_path / "z.csv", "a,b,z1\n1,0,0.5\n")
        with pytest.raises(DataError, match="expected header"):
            read_pair_covariates(path)

    def test_misnamed_covariate_columns(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z2,z1\n1,0,0.5,0.5\n")
        with pytest.raises(DataError, match="must be named z1,z2"):
            read_pair_covariates(path)

    def test_no_rows(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n")
        with pytest.raises(DataError, match="no covariate rows"):
            read_pair_covariates(path)

    def test_self_pair(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n1,1,0.5\n")
        with pytest.raises(DataError, match="self-pair"):
            read_pair_covariates(path)

    def test_negative_id(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n-1,0,0.5\n")
        with pytest.raises(DataError, match="nonnegative"):
            read_pair_covariates(path)

    def test_row_count_must_cover_every_pair(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n1,0,0.5\n2,1,0.5\n")
        with pytest.raises(DataError, match="every pair must appear exactly once"):
            read_pair_covariates(path)

    def test_duplicate_pair(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n1,0,0.5\n2,0,0.5\n0,1,0.5\n")
        with pytest.raises(DataError, match=r"duplicate unordered pair \(1, 0\)"):
            read_pair_covariates(path)

    def test_non_finite_covariate(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1\n1,0,nan\n2,0,0.5\n2,1,0.5\n")
        with pytest.raises(DataError, match="must be finite"):
            read_pair_covariates(path)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path / "z.csv", "i,j,z1,z2\n1,0,0.5\n")
        with pytest.raises(DataError, match="expected 4 fields"):
            read_pair_covariates(path)


class TestReadNodeAttrs:
    def test_reads_rows_by_id(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1,x2\n2,5.0,6.0\n0,1.0,2.0\n1,3.0,4.0\n")
        attrs = read_node_attrs(path)
        assert np.array_equal(attrs, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_wrong_header(self, tmp_path):
        path = _write(tmp_path / "x.csv", "node,x1\n0,1.0\n")
        with pytest.raises(DataError, match="expected header"):
            read_node_attrs(path)

    def test_misnamed_attribute_columns(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1,y\n0,1.0,2.0\n")
        with pytest.raises(DataError, match="must be named x1,x2"):
            read_node_attrs(path)

    def test_no_rows(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1\n")
        with pytest.raises(DataError, match="no attribute rows"):
            read_node_attrs(path)

    def test_id_out_of_range(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1\n0,1.0\n5,2.0\n")
        with pytest.raises(DataError, match="outside"):
            read_node_attrs(path)

    def test_repeated_id(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1\n0,1.0\n0,2.0\n")
        with pytest.raises(DataError, match="appears twice"):
            read_node_attrs(path)

    def test_non_finite_attribute(self, tmp_path):
        path = _write(tmp_path / "x.csv", "i,x1\n0,inf\n1,2.0\n")
        with pytest.raises(DataError, match="must be finite"):
            read_node_attrs(path)


# Valid files of each format whose body line 4 (the header is line 1) the
# corpus below replaces with a defective row.
_VALID = {
    "edges": ["i,j,weight", "1,0,0.5", "2,0,1.5", "2,1,2.0", "3,1,1.0", "4,3,0.25"],
    "covariates": ["i,j,z1,z2", "1,0,0.1,0.2", "2,0,0.3,0.4", "2,1,0.5,0.6",
                   "3,0,0.7,0.8", "3,1,0.9,1.0", "3,2,1.1,1.2"],
    "attrs": ["i,x1,x2", "0,1.0,2.0", "1,3.0,4.0", "2,5.0,6.0", "3,7.0,8.0", "4,9.0,0.5"],
}
_READERS = {
    "edges": (lambda path: read_edges(path, 5), lambda path: read_edges_ref(path, 5)),
    "covariates": (read_pair_covariates, read_pair_covariates_ref),
    "attrs": (read_node_attrs, read_node_attrs_ref),
}
_LINE_4_DEFECTS = [
    ("edges", "2,1"),                     # wrong field count
    ("edges", "2,1,2.0,7"),
    ("edges", ""),
    ("edges", "2.5,1,2.0"),               # non-integer id
    ("edges", "2,x,2.0"),
    ("edges", " ,1,2.0"),
    ("edges", "2,1,heavy"),               # non-number value
    ("edges", "2,1,"),
    ("edges", "2,1,inf"),                 # non-finite value
    ("edges", "2,1,nan"),
    ("edges", "2,1,1e400"),
    ("edges", "2,2,1.0"),                 # self-loop
    ("edges", "2,5,1.0"),                 # id out of range
    ("edges", "-1,2,1.0"),
    ("edges", "0,1,1.0"),                 # duplicate pair, reversed
    ("edges", "2,0,3.0"),                 # duplicate pair, same order
    ("covariates", "2,1,0.5"),
    ("covariates", "2,1,0.5,0.6,0.7"),
    ("covariates", "2,one,0.5,0.6"),
    ("covariates", "2.0,1,0.5,0.6"),
    ("covariates", "2,1,abc,0.6"),
    ("covariates", "2,1,0.5,"),
    ("covariates", "2,1,nan,0.6"),
    ("covariates", "2,1,inf,x"),          # the first bad field of the row wins
    ("covariates", "2,1,0.5,-inf"),
    ("covariates", "1,1,0.5,0.6"),        # self-pair
    ("covariates", "-1,2,0.5,0.6"),       # negative id
    ("covariates", "2,9,0.5,0.6"),        # outside id: the row count no longer fits
    ("covariates", "1,0,0.5,0.6"),        # duplicate pair
    ("covariates", "0,2,0.5,0.6"),        # duplicate pair, reversed
    ("attrs", "2,5.0"),
    ("attrs", "2,5.0,6.0,7.0"),
    ("attrs", "two,5.0,6.0"),
    ("attrs", "2,5.0,six"),
    ("attrs", "2,inf,6.0"),
    ("attrs", "2,5.0,nan"),
    ("attrs", "5,5.0,6.0"),               # id outside [0, n)
    ("attrs", "-1,5.0,6.0"),
    ("attrs", "1,5.0,6.0"),               # repeated node
]


def _with_line_4(kind, row):
    lines = list(_VALID[kind])
    lines[3] = row
    return "\n".join(lines) + "\n"


class TestReaderContract:
    """Each reader's error text, file and line included, equals that of the
    row-by-row reference reader in ``tests/oracles.py``."""

    @pytest.mark.parametrize("kind", sorted(_VALID))
    def test_valid_file_matches_reference(self, kind, tmp_path):
        path = _write(tmp_path / f"{kind}.csv", "\n".join(_VALID[kind]) + "\n")
        read, reference = _READERS[kind]
        got, want = read(path), reference(path)
        if kind == "covariates":
            assert got[0] == want[0]
            got, want = got[1], want[1]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,row", _LINE_4_DEFECTS)
    def test_defect_message_matches_reference(self, kind, row, tmp_path):
        path = _write(tmp_path / f"{kind}.csv", _with_line_4(kind, row))
        read, reference = _READERS[kind]
        with pytest.raises(DataError) as expected:
            reference(path)
        with pytest.raises(DataError) as got:
            read(path)
        assert str(got.value) == str(expected.value)
        if row != "2,9,0.5,0.6":
            assert str(got.value).startswith(f"{path} line 4: ")

    @pytest.mark.parametrize("kind,row", [
        ("edges", '"2", 1 ,+2.0e0'),          # quoted, padded and signed fields
        ("edges", "2,1,-0.0"),
        ("covariates", "2,1,5e-324,-1.7976931348623157e308"),
        ("attrs", "2,1_000.5,6"),             # Python number syntax
    ])
    def test_field_syntax_matches_reference(self, kind, row, tmp_path):
        path = _write(tmp_path / f"{kind}.csv", _with_line_4(kind, row))
        read, reference = _READERS[kind]
        got, want = read(path), reference(path)
        if kind == "covariates":
            got, want = got[1], want[1]
        assert np.array_equal(got, want)

    def test_overlong_field(self, tmp_path):
        path = _write(tmp_path / "e.csv", "i,j,weight\n1,0,1\n2,1," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"line 3: field larger than field limit"):
            read_edges(path, 5)

    def test_id_beyond_64_bits(self, tmp_path):
        path = _write(tmp_path / "e.csv", _with_line_4("edges", "2,9223372036854775808,1.0"))
        with pytest.raises(DataError) as got:
            read_edges(path, 5)
        assert str(got.value) == (
            f"{path} line 4: node id '9223372036854775808' is out of range"
        )


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0]),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12), p=st.integers(1, 3))
    def test_write_then_read_is_bit_exact(self, data, n, p):
        """Any finite floats, subnormal and extreme ones included, survive a
        write/read cycle bit for bit.  The edge format omits zero weights, so
        a weight of -0.0 reads back as 0.0."""
        pairs = pair_count(n)
        weights = np.array(data.draw(st.lists(_FLOATS, min_size=pairs, max_size=pairs)))
        z = np.array(data.draw(st.lists(_FLOATS, min_size=pairs * p, max_size=pairs * p)))
        rows, cols = pair_indices(n)
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = weights
        adjacency[cols, rows] = weights
        network = NetworkData(adjacency, z.reshape(pairs, p))
        with tempfile.TemporaryDirectory() as tmp:
            edges, covariates = str(Path(tmp, "e.csv")), str(Path(tmp, "z.csv"))
            write_edges(edges, network)
            write_pair_covariates(covariates, network)
            got_n, got_z = read_pair_covariates(covariates)
            got_adjacency = read_edges(edges, n)
        assert got_n == n
        assert got_z.tobytes() == network.covariates.tobytes()
        assert got_adjacency.tobytes() == (network.adjacency + 0.0).tobytes()


class TestDerivePairCovariates:
    def test_euclidean_distance_known_values(self):
        attrs = [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]
        z = derive_pair_covariates(attrs, "euclidean_distance")
        assert z.shape == (3, 1)
        assert z[0, 0] == 5.0  # pair (1, 0)
        assert z[1, 0] == 0.0  # pair (2, 0), identical attributes
        assert z[2, 0] == 5.0  # pair (2, 1)

    def test_euclidean_distance_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        attrs = rng.normal(size=(8, 3))
        z = derive_pair_covariates(attrs, "euclidean_distance")
        rows, cols = pair_indices(8)
        for offset, (i, j) in enumerate(zip(rows, cols)):
            expected = np.sqrt(np.sum((attrs[i] - attrs[j]) ** 2))
            assert np.isclose(z[offset, 0], expected, rtol=1e-12, atol=0.0)

    def test_match_indicator(self):
        attrs = [[1.0], [2.0], [1.0], [2.0]]
        z = derive_pair_covariates(attrs, "match_indicator")
        rows, cols = pair_indices(4)
        expected = (np.asarray(attrs)[rows, 0] == np.asarray(attrs)[cols, 0])
        assert np.array_equal(z[:, 0], expected.astype(float))

    def test_unknown_transform(self):
        with pytest.raises(DataError, match="unknown transform"):
            derive_pair_covariates([[1.0], [2.0]], "cosine")

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(DataError, match="2-D"):
            derive_pair_covariates([1.0, 2.0, 3.0], "euclidean_distance")

    def test_rejects_non_finite_attributes(self):
        with pytest.raises(DataError, match="finite"):
            derive_pair_covariates([[1.0], [np.nan]], "euclidean_distance")


@pytest.fixture(scope="module")
def result():
    data, _, _ = build_noise_free("logistic", 10, 2, seed=6)
    return fit(data, get_family("logistic"))


@pytest.fixture(scope="module")
def report():
    specs = [
        GenSpec(n=10, family="logistic", gamma_star=(0.4,), seed=51),
        GenSpec(n=14, family="logistic", gamma_star=(0.4,), seed=52),
    ]
    return run_mc_study(specs, replicates=2)


class TestFitResultSerialization:
    def test_dict_field_names(self, result):
        out = fit_result_to_dict(result)
        assert set(out) == {
            "beta", "gamma", "gamma_bc", "se_beta", "se_gamma", "bias",
            "converged", "iterations", "residual_degree",
            "residual_covariate", "diagnostics", "trace",
        }
        assert out["converged"] is True
        assert out["beta"] == result.beta.tolist()

    def test_skipping_bias_correction_nulls_fields(self, result):
        out = fit_result_to_dict(result, bias_correct=False)
        assert out["gamma_bc"] is None
        assert out["bias"] is None
        assert out["gamma"] == result.gamma.tolist()

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "fit.json"
        write_fit_result_json(str(path), result)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["beta"] == result.beta.tolist()
        assert loaded["se_gamma"] == result.se_gamma.tolist()
        assert loaded["trace"] == list(result.trace)

    def test_csv_rows_shape_and_exact_values(self, result):
        rows = fit_result_csv_rows(result)
        assert rows[0] == ["parameter", "index", "estimate", "std_error"]
        assert len(rows) == 1 + 10 + 2 + 2
        labels = [row[0] for row in rows[1:]]
        assert labels == ["beta"] * 10 + ["gamma"] * 2 + ["gamma_bc"] * 2
        assert float(rows[1][2]) == result.beta[0]
        assert float(rows[11][2]) == result.gamma[0]
        assert float(rows[13][2]) == result.gamma_bc[0]
        without = fit_result_csv_rows(result, bias_correct=False)
        assert len(without) == 1 + 10 + 2


class TestReportSerialization:
    def test_dict_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(str(path), report)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded == json.loads(json.dumps(asdict(report)))
        assert loaded["n_grid"] == [10, 14]
        assert len(loaded["records"]) == 4

    def test_csv_rows_expand_coverage_columns(self, report):
        rows = report_csv_rows(report)
        assert len(rows) == 1 + len(report.records)
        assert rows[0] == [
            "spec_index", "n", "replicate", "failed", "failure_reason",
            "err_beta", "err_gamma", "err_gamma_bc",
            "cover_gamma_1", "cover_gamma_bc_1",
        ]
        for row, record in zip(rows[1:], report.records):
            assert row[1] == record["n"]
            if not record["failed"]:
                assert float(row[5]) == record["err_beta"]
                assert row[8] in (0, 1)

    def test_failed_rows_leave_blanks(self):
        specs = [GenSpec(n=5, family="logistic", gamma_star=(0.0,),
                         beta_star=(-12.0,) * 5, seed=1)]
        report = run_mc_study(specs, replicates=1)
        rows = report_csv_rows(report)
        # no surviving replicate has coverage, so no coverage columns at all
        assert rows[0][-1] == "err_gamma_bc"
        assert rows[1][3] == 1
        assert rows[1][5] == ""

    def test_noise_free_report_has_no_coverage_columns(self):
        specs = [GenSpec(n=10, family="logistic", gamma_star=(0.3,),
                         seed=61, noise_free=True)]
        rows = report_csv_rows(run_mc_study(specs, replicates=2))
        assert rows[0][-1] == "err_gamma_bc"


class TestStudyConfig:
    GOOD = """\
# Monte Carlo study over a grid of sizes
family = logistic
n_grid = 20, 40, 80
replicates = 5
gamma_star = 0.5, -0.5
covariate_p = 2   # two sign covariates

seed = 7
tol_f = 1e-9
max_outer = 150
"""

    def test_parses_full_config(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD)
        specs, replicates, config = parse_study_config(path)
        assert replicates == 5
        assert [s.n for s in specs] == [20, 40, 80]
        assert [s.seed for s in specs] == [7, 8, 9]
        assert all(s.family == "logistic" for s in specs)
        assert all(s.gamma_star == (0.5, -0.5) for s in specs)
        assert all(s.covariates.p == 2 for s in specs)
        assert config.tol_f == 1e-9
        assert config.max_outer == 150
        assert config.tol_q == 1e-8  # untouched default

    def test_seed_override(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD)
        specs, _, _ = parse_study_config(path, seed_override=100)
        assert [s.seed for s in specs] == [100, 101, 102]

    def test_covariate_width_defaults_to_gamma_length(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = poisson\nn_grid = 10\nreplicates = 2\n"
                      "gamma_star = 0.1, 0.2, 0.3\n")
        specs, _, _ = parse_study_config(path)
        assert specs[0].covariates.p == 3

    def test_node_distance_rule(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = logistic\nn_grid = 10\nreplicates = 2\n"
                      "gamma_star = -0.8\ncovariate_rule = node_distance\n"
                      "covariate_dim = 3\n")
        specs, _, _ = parse_study_config(path)
        assert specs[0].covariates.kind == "node_distance"
        assert specs[0].covariates.dim == 3

    def test_missing_required_keys(self, tmp_path):
        path = _write(tmp_path / "study.cfg", "family = logistic\n")
        with pytest.raises(DataError, match="missing required config keys"):
            parse_study_config(path)

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD + "solver = fast\n")
        with pytest.raises(DataError, match="unknown config key 'solver'"):
            parse_study_config(path)

    @pytest.mark.parametrize("line", ["damping = 0.5", "max_inner_beta = 5"])
    def test_removed_solver_keys_are_unknown(self, tmp_path, line):
        path = _write(tmp_path / "study.cfg", self.GOOD + line + "\n")
        key = line.split()[0]
        with pytest.raises(DataError, match=f"unknown config key '{key}'"):
            parse_study_config(path)

    def test_absent_settings_take_dataclass_defaults(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = probit\nn_grid = 10, 12\nreplicates = 2\n"
                      "gamma_star = 0.1, 0.2\n")
        specs, _, config = parse_study_config(path)
        rule = CovariateRule(p=2)
        assert specs == [GenSpec(n=10, family="probit", gamma_star=(0.1, 0.2), covariates=rule),
                         GenSpec(n=12, family="probit", gamma_star=(0.1, 0.2), covariates=rule,
                                 seed=1)]
        assert config == SolverConfig()

    def test_settings_helpers_skip_none(self):
        flat = {"n": 9, "family": "poisson", "gamma_star": [0.3], "rho": None,
                "covariate_rule": "iid_uniform", "covariate_low": None,
                "covariate_high": 4.0, "tol_f": None, "max_outer": 7}
        assert gen_spec(flat) == GenSpec(
            n=9, family="poisson", gamma_star=(0.3,),
            covariates=CovariateRule(kind="iid_uniform", p=1, high=4.0),
        )
        assert solver_config(flat) == SolverConfig(max_outer=7)

    def test_non_finite_tolerance_rejected(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD + "tol_q = nan\n")
        with pytest.raises(DataError, match="finite and positive"):
            parse_study_config(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD + "seed = 9\n")
        with pytest.raises(DataError, match="duplicate key 'seed'"):
            parse_study_config(path)

    def test_unparseable_value(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = logistic\nn_grid = ten\nreplicates = 2\n"
                      "gamma_star = 0.5\n")
        with pytest.raises(DataError, match="cannot parse n_grid"):
            parse_study_config(path)

    def test_line_without_equals(self, tmp_path):
        path = _write(tmp_path / "study.cfg", "family logistic\n")
        with pytest.raises(DataError, match="expected 'key = value'"):
            parse_study_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            parse_study_config(str(tmp_path / "absent.cfg"))

    def test_spec_validation_bubbles_up(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = logistic\nn_grid = 10\nreplicates = 2\n"
                      "gamma_star = 0.5, -0.5\ncovariate_p = 1\n")
        with pytest.raises(DataError, match="gamma_star length"):
            parse_study_config(path)
