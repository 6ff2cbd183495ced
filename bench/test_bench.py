"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import netmoment  # noqa: E402
import netmoment.cli  # noqa: E402
from netmoment import estimation, families, network, simulation  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Span, Tracer, layer_totals, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _site_ids():
    modules = [m for k, m in sys.modules.items() if k == "netmoment" or k.startswith("netmoment.")]
    ids = {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items() if callable(v)}
    for cls in (families.LogisticFamily, families.ProbitFamily, families.PoissonFamily, network.NetworkData):
        ids.update({(cls.__name__, k): id(v) for k, v in vars(cls).items() if callable(v)})
    return ids


def test_wrappers_are_restored_even_after_an_error(tmp_path):
    before = _site_ids()
    tracer = Tracer(tmp_path)
    with pytest.raises(RuntimeError):
        with tracer.installed(TARGETS):
            assert simulation.fit is not estimation.__dict__["fit"].__wrapped__
            assert netmoment.cli.fit is simulation.fit is netmoment.fit
            assert estimation.check_diagonally_balanced.__wrapped__ is network.check_diagonally_balanced.__wrapped__
            assert families.LogisticFamily.mean.__wrapped__ is not None
            raise RuntimeError("leave the block early")
    assert _site_ids() == before
    assert tracer.missing == []


def test_missing_names_are_reported_not_raised(tmp_path):
    tracer = Tracer(tmp_path)
    gone = [("estimation.folded", "netmoment.estimation", "folded_away", None),
            ("families.gone", "netmoment.families", "NoSuchFamily.mean", None)]
    with tracer.installed(gone + TARGETS[:1]):
        pass
    assert tracer.missing == ["netmoment.estimation:folded_away", "netmoment.families:NoSuchFamily.mean"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, 0, "root", 0.0, 10.0, 1, None),
        Span(2, 1, 0, "a", 1.0, 4.0, 1, None),
        Span(3, 2, 0, "a", 2.0, 3.0, 1, None),
        # children in two worker processes overlap each other and the root's end
        Span(4, 1, 0, "w", 3.0, 7.0, 2, None),
        Span(5, 1, 0, "w", 6.0, 12.0, 3, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 9.0)  # covered: [1, 10]
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["busy_s"] == pytest.approx(3.0)  # nested same-name call not counted twice
    assert totals["w"]["busy_s"] == pytest.approx(10.0)


def test_metric_names_are_well_formed_and_computable(tmp_path):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert set(run.DERIVED) <= set(per_layer)
    assert set(run.layer_metrics(per_layer, Tracer(tmp_path), 1, {})) == set(per_layer)


def test_gate_fails_on_a_perturbed_fit():
    ref = json.loads((BENCH / "reference.json").read_text())["fit"]["logistic"][0]["fit"]
    assert workloads.compare(json.loads(json.dumps(ref)), ref) == []
    for key, k, factor in (("beta", 7, 1 + 1e-5), ("gamma_bc", 1, 1 - 1e-5), ("se_gamma", 0, 1.001)):
        bad = json.loads(json.dumps(ref))
        bad[key][k] *= factor
        assert workloads.compare(bad, ref), key
    close = json.loads(json.dumps(ref))
    close["gamma"][0] *= 1 + 1e-8
    assert workloads.compare(close, ref) == []


def test_gate_fails_on_a_flipped_coverage_flag():
    rows = json.loads((BENCH / "reference.json").read_text())["mc_study"][0]["records"]
    bad = json.loads(json.dumps(rows))
    bad[0][6][0] = not bad[0][6][0]
    assert workloads.compare(bad, rows)
    assert workloads.compare(json.loads(json.dumps(rows)), rows) == []


def test_worker_spans_reach_the_parent(tmp_path):
    specs = [simulation.GenSpec(n=n, gamma_star=(0.5,), seed=3 + k) for k, n in enumerate((12, 16))]
    tracer = Tracer(tmp_path)
    with tracer.installed(TARGETS):
        netmoment.run_mc_study(specs, replicates=4)
    tracer.collect()
    totals = layer_totals(tracer.spans)
    assert totals["estimation.fit"]["calls"] == 8
    assert totals["simulation.run_mc_study"]["calls"] == 1
    workers = {s.pid for s in tracer.spans if s.name == "estimation.fit"}
    if (run.os.cpu_count() or 1) > 1:
        assert run.os.getpid() not in workers
    assert list(tmp_path.iterdir()) == []
