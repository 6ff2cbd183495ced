"""CSV ingestion, covariate derivation, and result serialization.

File conventions: comma separator, ``.`` decimal point, mandatory header
row, 0-based integer node ids.  Edge lists carry one row per unordered
pair with nonzero weight; covariate files carry every unordered pair
exactly once, so they also fix the node count.  Floats are written with
``repr`` so a write/read round trip is bit-exact.
"""

import csv
import json
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError
from .estimation import SolverConfig
from .network import pair_count, pair_indices, pair_offset
from .simulation import CovariateRule, GenSpec

TRANSFORMS = ("none", "euclidean_distance", "match_indicator")


def _read_table(path, check_header, *spec):
    """Open the CSV table at ``path`` and return its body as a ``_Table``;
    ``check_header(path, rows, *spec)`` raises on a bad header row or a
    missing body, else returns the number of fields every body row must have."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty, expected a header row")
    return _Table(path, rows[1:], check_header(path, rows, *spec))


class _Table:
    """The body rows of a CSV table as an object array of field strings.

    A check that fails raises a ``DataError`` naming the file and the line
    of the first row that fails it.
    """

    def __init__(self, path, body, width):
        self.path = path
        counts = np.fromiter(map(len, body), dtype=np.intp, count=len(body))
        self.check(counts != width, lambda r: f"expected {width} fields, got {counts[r]}")
        self.text = np.array(body, dtype=object).reshape(len(body), width)

    def check(self, bad, message):
        """Raise ``message(r)`` for the first row r of the mask ``bad``."""
        hits = np.flatnonzero(bad)
        if hits.size:
            raise DataError(f"{self.path} line {hits[0] + 2}: {message(hits[0])}")

    def parse(self, columns, dtype, what):
        """The given columns as ``dtype``; float columns must be finite."""
        block = self.text[:, columns]
        try:
            values = block.astype(dtype)
        except (ValueError, OverflowError):
            defects = (_field_defect(text, dtype, what) for text in block.ravel().tolist())
            k, defect = next((k, d) for k, d in enumerate(defects) if d)
            raise DataError(f"{self.path} line {k // block.shape[1] + 2}: {defect}") from None
        self.check(~np.isfinite(values).all(axis=1), lambda r: f"{what} must be finite")
        return values

    def check_pairs(self, i, j):
        """Reject a pair repeated in either order; return the pair offsets."""
        hi, lo = np.maximum(i, j), np.minimum(i, j)
        offsets = pair_offset(hi, lo)
        self.check(_repeats(offsets), lambda r: f"duplicate unordered pair ({hi[r]}, {lo[r]})")
        return offsets


def _field_defect(text, dtype, what):
    """What is wrong with one field, or None."""
    try:
        value = np.array(text, dtype=object).astype(dtype)
    except ValueError:
        return f"{what} {text!r} is not {'a number' if dtype is float else 'an integer'}"
    except OverflowError:
        return f"{what} {text!r} is out of range"
    return None if np.isfinite(value) else f"{what} must be finite"


def _repeats(keys):
    """Mask of the entries equal to an earlier entry."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _numbered_header(path, rows, ids, prefix, usage, noun):
    """Check for a header ``ids`` then prefix1, prefix2, ... and for a body."""
    header = [c.strip() for c in rows[0]]
    if len(header) <= len(ids) or header[: len(ids)] != ids:
        raise DataError(f"{path}: expected header {usage!r}")
    expected = [f"{prefix}{k}" for k in range(1, len(header) - len(ids) + 1)]
    if header[len(ids) :] != expected:
        raise DataError(f"{path}: {noun} columns must be named {','.join(expected)}")
    if len(rows) == 1:
        raise DataError(f"{path}: no {noun} rows")
    return len(header)


def _edge_header(path, rows):
    if [c.strip() for c in rows[0]] != ["i", "j", "weight"]:
        raise DataError(f"{path}: expected header 'i,j,weight', got {','.join(rows[0])!r}")
    return 3


def read_edges(path, n):
    """Read an edge-list CSV (header ``i,j,weight``) into an adjacency matrix.

    Pairs absent from the file get weight zero.  Self-loops, duplicate
    unordered pairs, and node ids outside [0, n) are rejected.
    """
    table = _read_table(path, _edge_header)
    i, j = table.parse([0, 1], np.int64, "node id").T
    weight = table.parse([2], float, "weight")[:, 0]
    table.check(i == j, lambda r: f"self-loop at node {i[r]} is not allowed")
    table.check((i < 0) | (j < 0) | (i >= n) | (j >= n), lambda r: f"node id out of range [0, {n})")
    table.check_pairs(i, j)
    adjacency = np.zeros((n, n))
    adjacency[i, j] = weight
    adjacency[j, i] = weight
    return adjacency


def read_pair_covariates(path):
    """Read a covariate CSV (header ``i,j,z1,...,zp``).

    Every unordered pair must appear exactly once; the node count is
    inferred from the largest id and validated against the row count.
    Returns (n, covariates) with covariates in pair-offset order.
    """
    table = _read_table(path, _numbered_header, ["i", "j"], "z", "i,j,z1,...,zp", "covariate")
    i, j = table.parse([0, 1], np.int64, "node id").T
    table.check(i == j, lambda r: f"self-pair at node {i[r]} is not allowed")
    table.check((i < 0) | (j < 0), lambda r: "node ids must be nonnegative")
    z = table.parse(slice(2, None), float, "covariate")
    n = int(max(i.max(), j.max())) + 1
    if len(z) != pair_count(n):
        raise DataError(
            f"{path}: {len(z)} rows but {pair_count(n)} unordered pairs "
            f"exist for the {n} nodes referenced; every pair must appear exactly once"
        )
    offsets = table.check_pairs(i, j)
    # duplicates were rejected and the row count matches, so no pair is missing
    covariates = np.empty_like(z)
    covariates[offsets] = z
    return n, covariates


def read_node_attrs(path):
    """Read a node-attribute CSV (header ``i,x1,...,xk``), one row per node."""
    table = _read_table(path, _numbered_header, ["i"], "x", "i,x1,...,xk", "attribute")
    n = len(table.text)
    i = table.parse([0], np.int64, "node id")[:, 0]
    table.check(
        (i < 0) | (i >= n),
        lambda r: f"node id {i[r]} outside [0, {n}); ids must cover every node exactly once",
    )
    table.check(_repeats(i), lambda r: f"node {i[r]} appears twice")
    x = table.parse(slice(1, None), float, "attribute")
    attrs = np.empty_like(x)
    attrs[i] = x
    return attrs


def derive_pair_covariates(node_attrs, transform):
    """Build symmetric pair covariates from per-node attributes.

    ``euclidean_distance`` gives one column with the distance between the
    two nodes' attribute vectors; ``match_indicator`` gives one column that
    is 1.0 when the vectors are identical and 0.0 otherwise.
    """
    attrs = np.asarray(node_attrs, dtype=float)
    if attrs.ndim != 2 or attrs.shape[0] < 2:
        raise DataError("node attributes must be a 2-D array with at least 2 rows")
    if not np.isfinite(attrs).all():
        raise DataError("node attributes must be finite")
    rows, cols = pair_indices(attrs.shape[0])
    if transform == "euclidean_distance":
        return np.linalg.norm(attrs[rows] - attrs[cols], axis=1)[:, None]
    if transform == "match_indicator":
        return np.all(attrs[rows] == attrs[cols], axis=1).astype(float)[:, None]
    raise DataError(f"unknown transform {transform!r}; choose euclidean_distance or match_indicator")


def _write_table(path, header, ids, values):
    """Write int id columns and float value columns as CSV; ``repr`` floats read back bit-exact."""
    fields = [map(str, c.tolist()) for c in ids] + [map(repr, c.tolist()) for c in values]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*fields))


def write_edges(path, data):
    """Write the nonzero unordered pairs of a network as an edge-list CSV."""
    weights = data.pair_weights
    keep = weights != 0.0
    _write_table(path, ["i", "j", "weight"], [data.rows[keep], data.cols[keep]], [weights[keep]])


def write_pair_covariates(path, data):
    """Write every unordered pair's covariate row as a CSV."""
    z = data.covariates
    header = ["i", "j"] + [f"z{k}" for k in range(1, z.shape[1] + 1)]
    _write_table(path, header, [data.rows, data.cols], z.T)


def fit_result_to_dict(result, bias_correct=True):
    """JSON-ready dict of a fit with stable field names."""
    out = {
        "beta": result.beta.tolist(),
        "gamma": result.gamma.tolist(),
        "gamma_bc": result.gamma_bc.tolist() if bias_correct else None,
        "se_beta": result.se_beta.tolist(),
        "se_gamma": result.se_gamma.tolist(),
        "bias": result.bias.tolist() if bias_correct else None,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_degree": result.residual_degree,
        "residual_covariate": result.residual_covariate,
        "diagnostics": dict(result.diagnostics),
        "trace": list(result.trace),
    }
    return out


def write_fit_result_json(path, result, bias_correct=True):
    with open(path, "w") as handle:
        json.dump(fit_result_to_dict(result, bias_correct), handle, indent=2)
        handle.write("\n")


def fit_result_csv_rows(result, bias_correct=True):
    """Flat rows (parameter, index, estimate, std_error) for a fit."""
    rows = [["parameter", "index", "estimate", "std_error"]]
    for i, (b, se) in enumerate(zip(result.beta, result.se_beta)):
        rows.append(["beta", i, repr(float(b)), repr(float(se))])
    for k, (g, se) in enumerate(zip(result.gamma, result.se_gamma)):
        rows.append(["gamma", k, repr(float(g)), repr(float(se))])
    if bias_correct:
        for k, (g, se) in enumerate(zip(result.gamma_bc, result.se_gamma)):
            rows.append(["gamma_bc", k, repr(float(g)), repr(float(se))])
    return rows


def write_report_json(path, report):
    with open(path, "w") as handle:
        json.dump(asdict(report), handle, indent=2)
        handle.write("\n")


def report_csv_rows(report):
    """One flat CSV row per replicate; coverage expands per coefficient."""
    p = 0
    for record in report.records:
        if record["cover_gamma"] is not None:
            p = max(p, len(record["cover_gamma"]))
    header = [
        "spec_index",
        "n",
        "replicate",
        "failed",
        "failure_reason",
        "err_beta",
        "err_gamma",
        "err_gamma_bc",
    ]
    header += [f"cover_gamma_{k}" for k in range(1, p + 1)]
    header += [f"cover_gamma_bc_{k}" for k in range(1, p + 1)]
    rows = [header]
    for record in report.records:
        row = [
            record["spec_index"],
            record["n"],
            record["replicate"],
            int(record["failed"]),
            record["failure_reason"],
        ]
        for key in ("err_beta", "err_gamma", "err_gamma_bc"):
            row.append("" if record[key] is None else repr(record[key]))
        for key in ("cover_gamma", "cover_gamma_bc"):
            values = record[key]
            for k in range(p):
                if values is None or k >= len(values):
                    row.append("")
                else:
                    row.append(int(values[k]))
        rows.append(row)
    return rows


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
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc

    values = {}
    for line_no, raw_line in enumerate(lines, start=1):
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
    specs = [gen_spec({**values, "n": n, "seed": seed + k}) for k, n in enumerate(values["n_grid"])]
    return specs, values["replicates"], solver_config(values)
