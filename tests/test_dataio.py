"""Tests for CSV readers and writers, derived covariates, and serialization."""

import csv
import io
import json
import math
import re
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmoment import dataio
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
    write_json,
    write_pair_covariates,
)
from netmoment.errors import DataError
from netmoment.estimation import SolverConfig, fit
from netmoment.families import get_family
from netmoment.network import NetworkData, pair_count, pair_indices
from netmoment.simulation import CovariateRule, GenSpec, generate_with_truth, run_mc_study

from conftest import build_noise_free
from oracles import read_edges_ref, read_node_attrs_ref, read_pair_covariates_ref, write_table_ref

FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"i,j,weight\n1,0,1\n2,\xff,1\n")
        with pytest.raises(DataError, match=r"e\.csv: not UTF-8 text"):
            read_edges(str(path), 3)

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

_EDGES = b"i,j,weight\n"
_COVARIATES = b"i,j,z1\n"
_ATTRS = b"i,x1\n"
# Files on which numpy's C reader and the checked reader could disagree.
_DISAGREEMENTS = [
    ("edges", _EDGES + b"1,0,0.5\n\n2,1,1.5\n"),              # blank line in the body
    ("edges", _EDGES + b"1,0,0.5\n2,1,1.5\n\n"),              # trailing blank line
    ("edges", _EDGES + b"1,0,0.5\n   \n2,1,1.5\n"),           # whitespace-only line
    ("edges", _EDGES + b"1,0,0.5\r\n\r\n2,1,1.5\r\n"),        # blank \r\n line
    ("edges", b"\xef\xbb\xbf" + _EDGES + b"1,0,0.5\n"),        # UTF-8 BOM
    ("covariates", b"\xef\xbb\xbf" + _COVARIATES + b"1,0,1\n2,0,2\n2,1,3\n"),
    ("edges", _EDGES.replace(b"\n", b"\r\n") + b"1,0,0.5\r\n2,1,1.5\r\n"),  # \r\n line ends
    ("edges", _EDGES + b"1,0,0.5\r2,1,1.5\n"),                # lone \r
    ("edges", _EDGES + b"1,0,0.5\r2,1,1.5\n\n"),             # lone \r and a blank line
    ("edges", b"i,j,weight\r1,0,0.5\n2,1,1.5\n"),            # lone \r after the header
    ("edges", b'i,j,"weight\r"\n1,0,0.5\n2,1,1.5\n'),         # lone \r in a quoted header
    ("edges", b'i,j,"weight\n1,0,0.5\n'),                    # quote left open in the header
    ("covariates", b'i,j,"z1\n1,0,1\n2,0,2\n2,1,3\n'),
    ("edges", _EDGES + b"1,0,0.5\n2,1,1.5"),                  # no final newline
    ("attrs", _ATTRS + b"0,1.5\n1,2.5"),
    ("edges", _EDGES + b'"1","0","0.5"\n2,1,1.5\n'),          # quoted fields
    ("edges", _EDGES + b'1,0,"0,5"\n'),                       # quoted comma
    ("edges", _EDGES + b"#1,0,0.5\n"),                        # fields starting with #
    ("edges", _EDGES + b"1,0,#0.5\n"),
    pytest.param(
        "edges", _EDGES + b"1,0,0.5\x00\n",                   # NUL byte
        marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL before 3.11"),
    ),
    ("edges", _EDGES + b"\t1\t,0,\t0.5\t\n"),                 # tab padding
    ("attrs", _ATTRS + b"1,\t2.5\n0, 1.5 \n"),
    ("edges", _EDGES + "\u0662,0,0.5\n".encode()),            # Arabic-Indic digit id
    ("edges", _EDGES + b"1,0,1_000.5\n"),
    ("covariates", _COVARIATES + b"1,0,1_0\n2,0,2\n2,1,3\n"),
    ("edges", _EDGES + b"1.0,0,0.5\n"),                       # id written as a float
    ("covariates", _COVARIATES + b"1,0,1\n2.0,0,2\n2,1,3\n"),
    ("edges", _EDGES + b"1,0,nan\n"),                         # non-finite spellings
    ("edges", _EDGES + b"1,0,Infinity\n"),
    ("edges", _EDGES + b"1,0,1e400\n"),
    ("covariates", _COVARIATES + b"1,0,1\n2,0,-1e400\n2,1,3\n"),
    ("attrs", _ATTRS + b"0,1.5\n1,1e400\n"),
    ("edges", _EDGES + b"1,0,1.5\x1c\n"),                     # numpy strips \x1c as space
    ("edges", _EDGES),                                         # header only
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

    def test_overlong_field_that_numpy_reads(self, tmp_path):
        """``np.loadtxt`` parses a field of 200,000 zeros; csv refuses it."""
        path = _write(tmp_path / "e.csv", "i,j,weight\n1,0,1\n2,1," + "0" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"line 3: field larger than field limit"):
            read_edges(path, 5)

    @pytest.mark.parametrize("kind,text", _DISAGREEMENTS)
    def test_parser_disagreement_matches_reference(self, kind, text, tmp_path):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(text)
        read, reference = _READERS[kind]
        got, want = _outcome(read, str(path)), _outcome(reference, str(path))
        if isinstance(want, str):
            assert got == want
        elif kind == "covariates":
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,text", [
        ("covariates", b"i,j,z1\n1,0,abc\n2,2,1\n2,1,3\n"),   # bad value before a self-pair
        ("attrs", b"i,x1\n0,nan\n0,1.5\n"),                   # bad value before a repeated id
        ("edges", b"i,j,weight\n1,x,1\n2,1\n"),               # bad id before a short row
    ])
    def test_first_defective_line_wins(self, kind, text, tmp_path):
        """With several parse defects, or a parse defect before a structural
        one, the error names the first defective line, as the row-by-row
        reference does."""
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(text)
        read, reference = _READERS[kind]
        assert _outcome(read, str(path)) == _outcome(reference, str(path))
        assert " line 2: " in _outcome(read, str(path))

    def test_parse_defect_is_reported_before_structural_defect(self, tmp_path):
        """Every row is parsed before the structural checks (self-loops, id
        range, repeated pairs) run, so a parse defect on a later line is
        reported where the row-by-row reference names the earlier self-loop."""
        path = tmp_path / "edges.csv"
        path.write_bytes(b"i,j,weight\n1,1,0.5\n2,0,x\n")
        assert _outcome(_READERS["edges"][0], str(path)) == (
            f"{path} line 3: weight 'x' is not a number"
        )
        assert _outcome(_READERS["edges"][1], str(path)) == (
            f"{path} line 2: self-loop at node 1 is not allowed"
        )


def _outcome(read, path):
    """What ``read(path)`` returns, or the text of the ``DataError`` it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


@pytest.fixture
def no_checked_reader(monkeypatch):
    def checked(*args):
        raise AssertionError("the checked reader ran on a plain file")

    monkeypatch.setattr(dataio, "_read_checked", checked)


class TestFastPath:
    """Plain files are parsed by ``np.loadtxt`` alone.  A silent fallback to
    the checked reader would keep every other test green and lose the speed."""

    @pytest.mark.parametrize("kind", sorted(_VALID))
    @pytest.mark.parametrize("newline,end", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
    @pytest.mark.usefixtures("no_checked_reader")
    def test_plain_file_skips_checked_reader(self, kind, newline, end, tmp_path):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes((newline.join(_VALID[kind]) + end).encode())
        read, reference = _READERS[kind]
        got, want = read(str(path)), reference(str(path))
        if kind == "covariates":
            assert got[0] == want[0]
            got, want = got[1], want[1]
        assert np.array_equal(got, want)

    @pytest.mark.usefixtures("no_checked_reader")
    def test_written_files_skip_checked_reader(self, tmp_path):
        data, _, _ = build_noise_free("logistic", 11, 2, seed=4)
        edges, covariates = str(tmp_path / "e.csv"), str(tmp_path / "z.csv")
        write_edges(edges, data)
        write_pair_covariates(covariates, data)
        n, z = read_pair_covariates(covariates)
        assert n == 11 and np.array_equal(z, data.covariates)
        assert np.array_equal(read_edges(edges, n), data.adjacency)

    @pytest.mark.usefixtures("no_checked_reader")
    def test_line_end_split_between_reads(self, tmp_path, monkeypatch):
        """The body is scanned in reads of half the csv field limit; a read
        that ends between ``\\r`` and ``\\n`` holds no lone ``\\r``."""
        monkeypatch.setattr(csv, "field_size_limit", lambda: 16)  # reads of 7 bytes
        path = tmp_path / "x.csv"
        path.write_bytes(b"i,x1\r\n" + b"".join(b"%d,%d\r\n" % (k, k) for k in range(8)))
        assert np.array_equal(read_node_attrs(str(path)), np.arange(8.0)[:, None])

    @pytest.mark.parametrize("kind,row", [
        ("edges", "2,2,1.0"),                 # self-loop
        ("edges", "0,1,1.0"),                 # duplicate pair, reversed
        ("covariates", "2,9,0.5,0.6"),        # the row count no longer fits
        ("covariates", "0,2,0.5,0.6"),        # duplicate pair, reversed
        ("attrs", "1,5.0,6.0"),               # repeated node
    ])
    @pytest.mark.usefixtures("no_checked_reader")
    def test_checked_defect_reported_from_first_parse(self, kind, row, tmp_path):
        """A plain file whose rows parse but fail the reader's own checks is
        reported from numpy's parse, with the reference reader's message."""
        path = _write(tmp_path / f"{kind}.csv", _with_line_4(kind, row))
        read, reference = _READERS[kind]
        got = _outcome(read, path)
        assert isinstance(got, str) and got == _outcome(reference, path)

    def test_numpy_warning_falls_back(self, tmp_path, monkeypatch):
        """numpy 1.23 to 1.26 parse an id written ``1.0`` with a
        ``DeprecationWarning``; a warning must send the file to the checked
        reader even when numpy returns ids that would pass every check."""
        path = _write(tmp_path / "e.csv", "\n".join(_VALID["edges"]) + "\n")
        loadtxt = np.loadtxt

        def warn_with_wrong_ids(*args, **kwargs):
            body = loadtxt(*args, **kwargs)
            body["ids"] = 4 - body["ids"]
            warnings.warn("conversion of a float to an integer", DeprecationWarning)
            return body

        monkeypatch.setattr(np, "loadtxt", warn_with_wrong_ids)
        assert np.array_equal(read_edges(path, 5), read_edges_ref(path, 5))

    def test_header_only_edges_file_warns_nothing(self, tmp_path):
        """``np.loadtxt`` warns on a body without rows; the warning must not
        reach the caller, even when warnings are errors."""
        path = _write(tmp_path / "e.csv", "i,j,weight\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjacency = read_edges(path, 4)
        assert np.array_equal(adjacency, np.zeros((4, 4)))


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0]),
)


@st.composite
def _pair_tables(draw):
    """(n, pair weights, (n_pairs, p) covariates) of 2 to 12 nodes and 1 to 3 columns."""
    n, p = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    pairs = pair_count(n)
    weights = draw(st.lists(_FLOATS, min_size=pairs, max_size=pairs))
    z = draw(st.lists(_FLOATS, min_size=pairs * p, max_size=pairs * p))
    return n, np.array(weights), np.array(z).reshape(pairs, p)


# node 5's weights total -2^970, but numpy's pairwise row sum meets a +inf
# and a -inf partial sum on the way, which once made the degree NaN
_CANCELLING_WEIGHTS = np.zeros(28)
_CANCELLING_WEIGHTS[10:14] = [2.0**970, 1.7976931348623157e308, -8.98846567431158e307,
                              -8.98846567431158e307]


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(tables=_pair_tables())
    @example(tables=(8, _CANCELLING_WEIGHTS, np.ones((28, 1))))
    def test_write_then_read_is_bit_exact(self, tables):
        """Any finite floats, subnormal and extreme ones included, survive a
        write/read cycle bit for bit.  The edge format omits zero weights, so
        a weight of -0.0 reads back as 0.0."""
        n, weights, z = tables
        rows, cols = pair_indices(n)
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = weights
        adjacency[cols, rows] = weights
        network = NetworkData(adjacency, z)
        with tempfile.TemporaryDirectory() as tmp:
            edges, covariates = str(Path(tmp, "e.csv")), str(Path(tmp, "z.csv"))
            write_edges(edges, network)
            write_pair_covariates(covariates, network)
            got_n, got_z = read_pair_covariates(covariates)
            got_adjacency = read_edges(edges, n)
        assert got_n == n
        assert got_z.tobytes() == network.covariates.tobytes()
        assert got_adjacency.tobytes() == (network.adjacency + 0.0).tobytes()


# both zeros, subnormals, the extremes and values whose repr switches notation
_WRITER_SPECIALS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5,
                    1.7976931348623157e308, -1.7976931348623157e308]


def _table_bytes(write, network, block_rows, table=dataio._write_table):
    """The bytes ``write(path, network)`` puts in a file when ``_write_table`` is
    ``table`` and blocks hold ``block_rows`` rows."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_write_table", table), \
            mock.patch.object(dataio, "_BLOCK_ROWS", block_rows):
        path = Path(tmp, "out.csv")
        write(str(path), network)
        return path.read_bytes()


class TestWriterBytes:
    """The block writer's bytes equal those of ``csv.writer`` fed one
    ``str``/``repr`` cell at a time."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12), p=st.integers(1, 3),
           block_rows=st.sampled_from([3, 8192]), no_edges=st.booleans())
    def test_edges_and_covariates_match_csv_writer(self, data, n, p, block_rows, no_edges):
        pairs = pair_count(n)
        pool = data.draw(st.lists(_FLOATS, min_size=1, max_size=3))  # values drawn repeatedly
        cells = st.one_of(_FLOATS, st.sampled_from(_WRITER_SPECIALS + pool))
        weights = np.zeros(pairs) if no_edges else np.array(
            data.draw(st.lists(cells, min_size=pairs, max_size=pairs)))
        z = np.array(data.draw(st.lists(cells, min_size=pairs * p, max_size=pairs * p)))
        rows, cols = pair_indices(n)
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = adjacency[cols, rows] = weights
        network = NetworkData(adjacency, z.reshape(pairs, p))
        for write in (write_edges, write_pair_covariates):
            got = _table_bytes(write, network, block_rows)
            assert got == _table_bytes(write, network, block_rows, write_table_ref)
        if no_edges:
            assert _table_bytes(write_edges, network, block_rows) == b"i,j,weight\r\n"

    def test_extreme_ids_across_blocks(self, tmp_path, monkeypatch):
        """Ids near ±2**63, and values repeated within and across blocks of 3 rows."""
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 3)
        big = 2**63 - 1
        ids = [np.array([big, -big - 1, 0, big, -1, -big - 1, big - 1, 7], np.int64),
               np.array([-big - 1, big, big, 1, -big - 1, 0, 2**53 + 1, big], np.int64)]
        values = [np.array([-0.0, 0.0, 1e16, -0.0, 5e-324, 0.0, 1e-5, 1e16]),
                  np.array([1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.1,
                            -2.2250738585072014e-308, 0.1, -0.0, 3.0])]
        header = ["i", "j", "z1", "z2"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        dataio._write_table(str(got), header, ids, values)
        write_table_ref(str(want), header, ids, values)
        assert got.read_bytes() == want.read_bytes()
        first_row = b"9223372036854775807,-9223372036854775808,-0.0,1.7976931348623157e+308"
        assert got.read_bytes().splitlines()[1] == first_row


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

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_both_transforms_equal_the_pair_index_formula(self, n, d):
        attrs = np.random.default_rng(n * d).normal(size=(n, d))
        attrs[-1] = attrs[0]  # one matching pair
        rows, cols = pair_indices(n)
        distance = np.linalg.norm(attrs[rows] - attrs[cols], axis=1)[:, None]
        match = np.all(attrs[rows] == attrs[cols], axis=1).astype(float)[:, None]
        assert np.array_equal(derive_pair_covariates(attrs, "euclidean_distance"), distance)
        assert np.array_equal(derive_pair_covariates(attrs, "match_indicator"), match)

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

    def test_dict_key_order_follows_readme(self, result):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("The JSON result has exactly these fields:")[1].split("\n\n")[1]
        documented = [name for line in table.splitlines()[2:]
                      for name in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert documented[0] == "beta" and documented[-1] == "trace"
        assert list(fit_result_to_dict(result)) == documented

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


@pytest.fixture(scope="module")
def pinned_report():
    """A study that fills every kind of CSV cell: a p=1 and a p=2 spec (so the
    p=1 rows pad their coverage with blanks), a spec whose every replicate is
    degenerate, and a noise-free spec, which has no coverage."""
    specs = [
        GenSpec(n=10, family="logistic", gamma_star=(0.4,), seed=71),
        GenSpec(n=12, family="logistic", gamma_star=(0.5, -0.5), covariates=CovariateRule(p=2),
                seed=72),
        GenSpec(n=5, family="logistic", gamma_star=(0.0,), beta_star=(-12.0,) * 5, seed=73),
        GenSpec(n=10, family="logistic", gamma_star=(0.3,), seed=74, noise_free=True),
    ]
    return run_mc_study(specs, replicates=2)


def _assert_pinned(actual, pinned, path="$"):
    """Equal values of equal types, dict keys in the same order; floats to 1e-9
    relative, so that BLAS builds that round differently still agree."""
    assert type(actual) is type(pinned), path
    if isinstance(pinned, float):
        assert math.isclose(actual, pinned, rel_tol=1e-9, abs_tol=1e-12), path
    elif isinstance(pinned, dict):
        assert list(actual) == list(pinned), path
        for key in pinned:
            _assert_pinned(actual[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert len(actual) == len(pinned), path
        for k, (a, p) in enumerate(zip(actual, pinned)):
            _assert_pinned(a, p, f"{path}[{k}]")
    else:
        assert actual == pinned, path


class TestReportSerialization:
    def test_report_matches_pinned_json(self, pinned_report):
        """``asdict(report)`` as JSON, against ``fixtures/pinned_study.json``.
        A new record or summary key must update that file deliberately."""
        fresh = io.StringIO()
        write_json(fresh, asdict(pinned_report))
        pinned = (FIXTURES / "pinned_study.json").read_text()
        _assert_pinned(json.loads(fresh.getvalue()), json.loads(pinned))

    def test_csv_matches_pinned_csv(self, pinned_report):
        """``report_csv_rows`` written as CSV, against ``fixtures/pinned_study.csv``:
        every cell the same text, but error cells only to 1e-9 relative."""
        fresh = io.StringIO()
        dataio.write_csv(fresh, report_csv_rows(pinned_report))
        text = fresh.getvalue()
        pinned = (FIXTURES / "pinned_study.csv").read_bytes().decode()
        rows = list(csv.reader(io.StringIO(text)))
        pinned_rows = list(csv.reader(io.StringIO(pinned)))
        assert text.count("\r\n") == pinned.count("\r\n") == len(pinned_rows)
        header = pinned_rows[0]
        assert rows[0] == header
        assert len(rows) == len(pinned_rows)
        for row, pinned_row in zip(rows[1:], pinned_rows[1:]):
            assert len(row) == len(header)
            for name, cell, pinned_cell in zip(header, row, pinned_row):
                if name.startswith("err_") and pinned_cell:
                    assert math.isclose(float(cell), float(pinned_cell),
                                        rel_tol=1e-9, abs_tol=1e-12), (name, row)
                else:
                    assert cell == pinned_cell, (name, row)

    def test_dict_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_json(str(path), asdict(report))
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

    @pytest.mark.parametrize("line, message", [
        ("gamma_star = nan", "gamma_star must be finite"),
        ("rho = 0.7", "rho applies only to dependence 'equicorrelated_probit'"),
    ])
    def test_nonfinite_gamma_or_ignored_rho_rejected(self, tmp_path, line, message):
        text = "family = probit\nn_grid = 10\nreplicates = 2\n"
        if not line.startswith("gamma_star"):
            text += "gamma_star = 0.5\n"
        path = _write(tmp_path / "study.cfg", text + line + "\n")
        with pytest.raises(DataError, match=message):
            parse_study_config(path)

    def test_non_finite_tolerance_rejected(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD + "tol_q = nan\n")
        with pytest.raises(DataError, match="finite and positive"):
            parse_study_config(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path / "study.cfg", self.GOOD + "seed = 9\n")
        with pytest.raises(DataError, match="duplicate key 'seed'"):
            parse_study_config(path)

    @pytest.mark.parametrize("line", ["n_grid = ten", "noise_free = maybe"])
    def test_unparseable_value(self, tmp_path, line):
        path = _write(tmp_path / "study.cfg",
                      "family = logistic\nreplicates = 2\ngamma_star = 0.5\n" + line + "\n")
        key, value = line.split(" = ")
        with pytest.raises(DataError, match=f"line 4: cannot parse {key} = '{value}'"):
            parse_study_config(path)

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("YES", True), ("1", True), ("False", False), ("nO", False), ("0", False),
    ])
    def test_noise_free_flag(self, tmp_path, value, expected):
        path = _write(tmp_path / "study.cfg", self.GOOD + f"noise_free = {value}\n")
        specs, _, _ = parse_study_config(path)
        assert [s.noise_free for s in specs] == [expected] * 3

    def test_line_without_equals(self, tmp_path):
        path = _write(tmp_path / "study.cfg", "family logistic\n")
        with pytest.raises(DataError, match="expected 'key = value'"):
            parse_study_config(path)

    def test_non_utf8_comment(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_bytes("# r\u00e9sum\u00e9\n".encode("latin-1") + self.GOOD.encode())
        with pytest.raises(DataError, match=r"study\.cfg: not UTF-8 text"):
            parse_study_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            parse_study_config(str(tmp_path / "absent.cfg"))

    def test_spec_validation_bubbles_up(self, tmp_path):
        path = _write(tmp_path / "study.cfg",
                      "family = logistic\nn_grid = 10\nreplicates = 2\n"
                      "gamma_star = 0.5, -0.5\ncovariate_p = 1\n")
        with pytest.raises(DataError, match="gamma_star length"):
            parse_study_config(path)
