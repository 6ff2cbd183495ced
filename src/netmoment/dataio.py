"""CSV ingestion, covariate derivation, and result serialization.

File conventions: comma separator, ``.`` decimal point, mandatory header
row, 0-based integer node ids.  Edge lists carry one row per unordered
pair with nonzero weight; covariate files carry every unordered pair
exactly once, so they also fix the node count.  Floats are written with
``repr`` so a write/read round trip is bit-exact.  Edge and covariate
files are written in blocks of rows that format each distinct bit pattern
of a column once, with ``str`` for an id and ``repr`` for a float; their
bytes equal those of ``csv.writer``, which writes every other CSV output.
Tables are parsed by numpy's C reader when that is safe, else by a
checked reader that alone writes parse errors (see ``_read_table``); each
reader then checks the parsed columns once, whichever parse ran.
"""

import contextlib
import csv
import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError, _finite, _integer
from .estimation import SolverConfig
from .network import _network, _pair_differences, pair_count, pair_offset, symmetric_from_pairs
from .simulation import _COVERAGE_FIELDS, CovariateRule, GenSpec

TRANSFORMS = ("none", "euclidean_distance", "match_indicator")
# the bytes of a body whose numbers numpy's and Python's parsers read alike
_PLAIN_BYTES = b"0123456789+-.eE, \r\n"
_BLOCK_ROWS = 8192


def _read_table(path, check_header, *spec):
    """The int64 id columns and float value columns of the CSV file at ``path``.

    numpy's C reader (``np.loadtxt``) parses the columns first.  They are
    returned only if the header has no quote and passes ``check_header``,
    the body is plain (``_plain_lines``), numpy parsed a row per line with
    no error or warning, and every value is finite; then row r is line
    r + 2, as for ``_read_checked``.  On any doubt ``_read_checked`` parses
    the file instead: it alone writes parse errors.  Each reader checks the
    returned columns once, whichever parser ran.
    """
    with contextlib.suppress(DataError, OSError, ValueError, csv.Error, Warning):
        with open(path, "rb") as handle:
            header, lines = handle.readline(), _plain_lines(handle)
        if b'"' in header:  # a quote may open a field that runs past this line
            raise ValueError("quoted header")
        n_ids, width, _ = check_header(path, next(csv.reader([header.decode()])), lines == 0, *spec)
        dtype = [("ids", np.int64, (n_ids,)), ("values", float, (width - n_ids,))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(path, dtype, delimiter=",", skiprows=1, ndmin=1, encoding="utf-8")
        if len(body) == lines and np.isfinite(body["values"]).all():
            return body["ids"], body["values"]
    return _read_checked(path, check_header, *spec)


def _plain_lines(handle):
    """The number of lines left in the binary file ``handle``; raises ``ValueError`` unless all
    bytes are ``_PLAIN_BYTES``, each ``\\r`` ends a line and every line fits csv's field limit."""
    size = csv.field_size_limit() // 2 - 1  # a line over the limit fills a whole read
    lines, last = 0, b"\n"
    while block := handle.read(size):
        if block.endswith(b"\r"):
            block += handle.read(1)
        newline, cr = (np.frombuffer(block, np.uint8) == byte for byte in b"\n\r")
        lone_cr = np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & newline[1:])
        ends = np.count_nonzero(newline)
        if block.translate(None, _PLAIN_BYTES) or lone_cr or not ends and len(block) >= size:
            raise ValueError("not a plain body")
        lines, last = lines + ends, block[-1:]
    return lines + (last != b"\n")


def _read_checked(path, check_header, *spec):
    """The columns ``csv`` and ``_number`` read.  ``check_header(path, header, empty, *spec)``
    rejects a bad header or ``empty`` body, or returns (id columns, fields, values' name)."""
    reader = csv.reader(_lines(path))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty, expected a header row")
    n_ids, width, what = check_header(path, rows[0], len(rows) == 1, *spec)
    ids, values = [], []
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            ids += [_number(field, int, "node id") for field in row[:n_ids]]
            values += [_number(field, float, what) for field in row[n_ids:]]
        except ValueError as exc:
            raise DataError(f"{path} line {line}: {exc}") from None
    return np.array(ids, np.int64).reshape(-1, n_ids), np.array(values).reshape(-1, width - n_ids)


def _lines(path):
    """The lines of the UTF-8 text file at ``path``, line ends kept."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield from handle
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        # no line number: the text layer decodes ahead of the reader in chunks
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _number(text, kind, what):
    """The field ``text`` as an int64 ``int`` or a finite ``float``; raises ``ValueError``."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not {'an integer' if kind is int else 'a number'}")
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} {text!r} is out of range")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


def _check(path, bad, message):
    """Raise a ``DataError`` with ``message(r)`` for the first row r of the mask ``bad``."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise DataError(f"{path} line {hits[0] + 2}: {message(hits[0])}")


def _check_pairs(path, i, j):
    """Reject a pair repeated in either order; return the pair offsets."""
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    offsets = pair_offset(hi, lo)
    _check(path, _repeats(offsets), lambda r: f"duplicate unordered pair ({hi[r]}, {lo[r]})")
    return offsets


def _repeats(keys):
    """Mask of the entries equal to an earlier entry."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _numbered_header(path, header, empty, ids, prefix, usage, noun):
    """Check for a header ``ids`` then prefix1, prefix2, ... and for a body."""
    header = [c.strip() for c in header]
    if len(header) <= len(ids) or header[: len(ids)] != ids:
        raise DataError(f"{path}: expected header {usage!r}")
    expected = [f"{prefix}{k}" for k in range(1, len(header) - len(ids) + 1)]
    if header[len(ids) :] != expected:
        raise DataError(f"{path}: {noun} columns must be named {','.join(expected)}")
    if empty:
        raise DataError(f"{path}: no {noun} rows")
    return len(ids), len(header), noun


def _edge_header(path, header, empty):
    """Check for the header ``i,j,weight``; an edge list may be ``empty``."""
    if [c.strip() for c in header] != ["i", "j", "weight"]:
        raise DataError(f"{path}: expected header 'i,j,weight', got {','.join(header)!r}")
    return 2, 3, "weight"


def read_edges(path, n):
    """Read an edge-list CSV (header ``i,j,weight``) into an adjacency matrix.

    Pairs absent from the file get weight zero.  Self-loops, duplicate
    unordered pairs, and node ids outside [0, n) are rejected.
    """
    n = _integer("n", n, 0)
    ids, weights = _read_table(path, _edge_header)
    i, j = ids.T
    _check(path, i == j, lambda r: f"self-loop at node {i[r]} is not allowed")
    _check(path, (i < 0) | (j < 0) | (i >= n) | (j >= n), lambda r: f"node id out of range [0, {n})")
    pair_weights = np.zeros(pair_count(n))
    pair_weights[_check_pairs(path, i, j)] = weights[:, 0]
    return symmetric_from_pairs(n, pair_weights)


def read_pair_covariates(path):
    """Read a covariate CSV (header ``i,j,z1,...,zp``).

    Every unordered pair must appear exactly once; the node count is
    inferred from the largest id and validated against the row count.
    Returns (n, covariates) with covariates in pair-offset order.
    """
    ids, z = _read_table(path, _numbered_header, ["i", "j"], "z", "i,j,z1,...,zp", "covariate")
    i, j = ids.T
    _check(path, i == j, lambda r: f"self-pair at node {i[r]} is not allowed")
    _check(path, (i < 0) | (j < 0), lambda r: "node ids must be nonnegative")
    n = int(ids.max()) + 1
    if len(z) != pair_count(n):
        raise DataError(
            f"{path}: {len(z)} rows but {pair_count(n)} unordered pairs "
            f"exist for the {n} nodes referenced; every pair must appear exactly once"
        )
    # duplicates are rejected and the row count matches, so no pair is missing
    covariates = np.empty_like(z)
    covariates[_check_pairs(path, i, j)] = z
    return n, covariates


def read_node_attrs(path):
    """Read a node-attribute CSV (header ``i,x1,...,xk``), one row per node."""
    ids, x = _read_table(path, _numbered_header, ["i"], "x", "i,x1,...,xk", "attribute")
    i, n = ids[:, 0], len(ids)
    outside = f"outside [0, {n}); ids must cover every node exactly once"
    _check(path, (i < 0) | (i >= n), lambda r: f"node id {i[r]} {outside}")
    _check(path, _repeats(i), lambda r: f"node {i[r]} appears twice")
    attrs = np.empty_like(x)
    attrs[i] = x
    return attrs


def derive_pair_covariates(node_attrs, transform):
    """Build symmetric pair covariates from per-node attributes.

    ``euclidean_distance`` gives one column with the distance between the
    two nodes' attribute vectors; ``match_indicator`` gives one column that
    is 1.0 when the vectors are identical and 0.0 otherwise.
    """
    if not isinstance(transform, str) or transform not in TRANSFORMS[1:]:
        choices = " or ".join(TRANSFORMS[1:])
        raise DataError(f"unknown transform {transform!r}; choose {choices}")
    attrs = _finite("node attributes", node_attrs)
    if np.ndim(attrs) != 2 or attrs.shape[0] < 2:
        raise DataError("node attributes must be a 2-D array with at least 2 rows")
    diff = _pair_differences(attrs)
    if transform == "euclidean_distance":
        # each row divided exactly by the power of two just above its largest
        # magnitude, so that no square overflows where the distance is finite
        shift = -np.frexp(np.abs(diff).max(axis=1))[1]
        return np.ldexp(np.linalg.norm(np.ldexp(diff, shift[:, None]), axis=1), -shift)[:, None]
    return np.all(diff == 0.0, axis=1).astype(float)[:, None]  # finite: a - b == 0 iff a == b


def _output(dest):
    """``dest`` if it is a text stream, else the file at path ``dest`` opened for writing."""
    if hasattr(dest, "write"):
        return contextlib.nullcontext(dest)
    return open(dest, "w", newline="", encoding="utf-8")


def write_json(dest, obj):
    """Write ``obj`` as indented JSON and a newline to a path or text stream."""
    with _output(dest) as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def write_csv(dest, rows):
    """Write ``rows`` as CSV to a path or text stream."""
    with _output(dest) as handle:
        csv.writer(handle).writerows(rows)


def _cells(column, text):
    """``text(v)`` for each entry v of the 8-byte ``column``, as a list; ``text`` runs
    once per distinct bit pattern, so -0.0 and 0.0 keep their own reprs."""
    keys, where = np.unique(column.view(np.int64), return_inverse=True)
    distinct = [text(v) for v in keys.view(column.dtype).tolist()]
    return np.array(distinct, dtype=object)[where].tolist()


def _write_table(path, header, ids, values):
    """Write int id columns and float value columns as CSV, ``_BLOCK_ROWS`` rows at a time.

    Ids are written with ``str`` and floats with ``repr``; neither ever needs
    quoting, so joining the cells with "," and ending each row with "\\r\\n"
    gives the bytes ``csv.writer`` would.
    """
    ids = [np.asarray(c, np.int64) for c in ids]  # node ids are intp, 4 bytes on 32-bit builds
    with _output(path) as handle:
        handle.write(",".join(header) + "\r\n")
        for k in range(0, len(ids[0]), _BLOCK_ROWS):
            part = slice(k, k + _BLOCK_ROWS)
            columns = [_cells(c[part], str) for c in ids] + [_cells(c[part], repr) for c in values]
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def write_edges(path, data):
    """Write the nonzero unordered pairs of a network as an edge-list CSV."""
    weights = _network(data).pair_weights
    keep = weights != 0.0
    _write_table(path, ["i", "j", "weight"], [data.rows[keep], data.cols[keep]], [weights[keep]])


def write_pair_covariates(path, data):
    """Write every unordered pair's covariate row as a CSV."""
    z = _network(data).covariates
    header = ["i", "j"] + [f"z{k}" for k in range(1, z.shape[1] + 1)]
    _write_table(path, header, [data.rows, data.cols], z.T)


def fit_result_to_dict(result, bias_correct=True):
    """JSON-ready dict of the ``FitResult`` fields but ``profile_hessian``, arrays as lists;
    ``gamma_bc`` and ``bias`` are None without bias correction."""
    out = asdict(result)
    del out["profile_hessian"]
    if not bias_correct:
        out["gamma_bc"] = out["bias"] = None
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def write_fit_result_json(dest, result, bias_correct=True):
    """Write ``fit_result_to_dict`` as JSON to a path or text stream."""
    write_json(dest, fit_result_to_dict(result, bias_correct))


def fit_result_csv_rows(result, bias_correct=True):
    """Flat rows (parameter, index, estimate, std_error) for a fit."""
    blocks = [("beta", result.beta, result.se_beta), ("gamma", result.gamma, result.se_gamma)]
    if bias_correct:
        blocks.append(("gamma_bc", result.gamma_bc, result.se_gamma))
    return [["parameter", "index", "estimate", "std_error"]] + [
        [name, k, repr(float(value)), repr(float(se))]
        for name, values, errors in blocks for k, (value, se) in enumerate(zip(values, errors))]


def _csv_cell(value):
    """A record value as a CSV cell: blank for None, 0 or 1 for a flag, repr for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def report_csv_rows(report):
    """One flat CSV row per replicate, its columns in record order; each coverage
    field expands to one column per coefficient, blank past a record's own."""
    p = max((len(record[key] or []) for record in report.records for key in _COVERAGE_FIELDS),
            default=0)
    rows = []
    for record in report.records:
        row = {}
        for key, value in record.items():
            if key in _COVERAGE_FIELDS:
                flags = value or []
                for k, flag in enumerate(flags + [None] * (p - len(flags)), start=1):
                    row[f"{key}_{k}"] = _csv_cell(flag)
            else:
                row[key] = _csv_cell(value)
        rows.append(row)
    header = list(rows[0]) if rows else []
    return [header] + [list(row.values()) for row in rows]


def _bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _list_of(kind):
    return lambda text: [kind(v.strip()) for v in text.split(",") if v.strip()]


# each study-config key and the parser of its value
_STUDY_KEYS = {
    "family": str,
    "n_grid": _list_of(int),
    "replicates": int,
    "gamma_star": _list_of(float),
    "beta_range": float,
    "covariate_rule": str,
    "covariate_p": int,
    "covariate_low": float,
    "covariate_high": float,
    "covariate_dim": int,
    "dependence": str,
    "rho": float,
    "noise_free": _bool,
    "seed": int,
    "tol_f": float,
    "tol_q": float,
    "max_outer": int,
}

_REQUIRED_STUDY_KEYS = ("family", "n_grid", "replicates", "gamma_star")

# settings named like the simulate flags, and the CovariateRule fields they set
_RULE_SETTINGS = {
    "covariate_rule": "kind",
    "covariate_p": "p",
    "covariate_low": "low",
    "covariate_high": "high",
    "covariate_dim": "dim",
}


def _given(settings, cls, names=None):
    """Keyword arguments for ``cls`` from the settings present and not None.

    ``names`` maps each setting to its field; by default settings are named
    like the fields of ``cls``.
    """
    names = names or {f.name: f.name for f in fields(cls)}
    return {field: settings[key] for key, field in names.items() if settings.get(key) is not None}


def solver_config(settings):
    """The ``SolverConfig`` of a mapping of settings such as ``tol_f``;
    absent settings take the dataclass defaults."""
    return SolverConfig(**_given(settings, SolverConfig))


def gen_spec(settings):
    """The ``GenSpec`` of a mapping of settings named like the study-config
    keys (``n``, ``family``, ``gamma_star``, ``covariate_rule``, ...).

    Absent settings take the dataclass defaults, except that ``covariate_p``
    defaults to the length of ``gamma_star``.
    """
    rule = {"p": len(settings["gamma_star"]), **_given(settings, CovariateRule, _RULE_SETTINGS)}
    return GenSpec(**_given(settings, GenSpec), covariates=CovariateRule(**rule))


def parse_study_config(path, seed_override=None):
    """Parse a flat ``key = value`` study config into run_mc_study inputs.

    Lines are ``key = value`` with ``#`` comments and blank lines ignored.
    Returns (specs, replicates, solver_config); spec k in the n-grid uses
    seed ``seed + k`` so grid points draw from distinct streams.
    """
    values = {}
    for line_no, raw_line in enumerate(_lines(path), start=1):
        text = raw_line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path} line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _STUDY_KEYS:
            raise DataError(f"{path} line {line_no}: unknown config key {key!r}")
        if key in values:
            raise DataError(f"{path} line {line_no}: duplicate key {key!r}")
        try:
            values[key] = _STUDY_KEYS[key](raw)
        except ValueError as exc:
            raise DataError(f"{path} line {line_no}: cannot parse {key} = {raw!r}") from exc

    missing = [key for key in _REQUIRED_STUDY_KEYS if key not in values]
    if missing:
        raise DataError(f"{path}: missing required config keys: {', '.join(missing)}")

    seed = values.get("seed", GenSpec.seed) if seed_override is None else seed_override
    seed = _integer("seed", seed, 0, f"seed must be nonnegative and an integer, got {seed!r}")
    specs = [gen_spec({**values, "n": n, "seed": seed + k}) for k, n in enumerate(values["n_grid"])]
    return specs, values["replicates"], solver_config(values)
