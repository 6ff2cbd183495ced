"""Tests for synthetic network generation and the Monte Carlo harness."""

import contextlib
import functools
import gc
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import struct
import subprocess
import sys
import threading
import time
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from netmoment import blas, network, simulation
from netmoment.blas import openblas_thread_controls, single_blas_thread
from netmoment.errors import DataError, DegenerateDegreeError
from netmoment.estimation import SolverConfig, check_interior_degrees, fit
from netmoment.families import get_family
from netmoment.network import pair_count, pair_indices, pair_offset
from netmoment.simulation import (
    COVARIATE_KINDS,
    CovariateRule,
    GenSpec,
    _rate_slope,
    _rng_for,
    _run_replicate,
    _worker_count,
    generate_with_truth,
    run_mc_study,
)

from conftest import TWO_FORKED_WORKERS
from oracles import traced_peak

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_REFERENCE = SRC.parent / "bench" / "reference.json"


class TestCovariateRule:
    def test_pm1_values_and_shape(self):
        rule = CovariateRule(kind="iid_pm1", p=3)
        z = rule.draw(9, np.random.default_rng(0))
        assert z.shape == (pair_count(9), 3)
        assert set(np.unique(z)) == {-1.0, 1.0}

    def test_uniform_range(self):
        rule = CovariateRule(kind="iid_uniform", p=2, low=-0.5, high=2.0)
        z = rule.draw(12, np.random.default_rng(1))
        assert z.shape == (pair_count(12), 2)
        assert z.min() >= -0.5 and z.max() <= 2.0

    def test_node_distance_geometry(self):
        """Distances live in [0, sqrt(dim)] and obey the triangle inequality."""
        rule = CovariateRule(kind="node_distance", dim=3)
        assert rule.n_covariates == 1
        n = 7
        z = rule.draw(n, np.random.default_rng(2))[:, 0]
        assert z.shape == (pair_count(n),)
        assert z.min() >= 0.0
        assert z.max() <= np.sqrt(3.0)
        for i in range(n):
            for j in range(i):
                for k in range(n):
                    if k in (i, j):
                        continue
                    d_ij = z[pair_offset(i, j)]
                    d_ik = z[pair_offset(i, k)]
                    d_jk = z[pair_offset(j, k)]
                    assert d_ij <= d_ik + d_jk + 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_node_distance_equals_the_pair_index_formula(self, n, dim):
        z = CovariateRule(kind="node_distance", dim=dim).draw(n, np.random.default_rng(n))
        x = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, dim))
        rows, cols = pair_indices(n)
        assert np.array_equal(z, np.linalg.norm(x[rows] - x[cols], axis=1)[:, None])

    def test_rejects_unknown_kind(self):
        with pytest.raises(DataError, match="unknown covariate rule"):
            CovariateRule(kind="gaussian")

    def test_rejects_empty_uniform_interval(self):
        with pytest.raises(DataError, match="low < high"):
            CovariateRule(kind="iid_uniform", low=1.0, high=1.0)

    @pytest.mark.parametrize("low, high",
                             [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (-1e308, 1e308)])
    def test_rejects_infinite_uniform_range(self, low, high):
        with pytest.raises(DataError, match="finite range"):
            CovariateRule(kind="iid_uniform", low=low, high=high)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DataError, match="p >= 1"):
            CovariateRule(kind="iid_pm1", p=0)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(DataError, match="dim >= 1"):
            CovariateRule(kind="node_distance", dim=0)


class TestGenSpecValidation:
    def test_rejects_tiny_network(self):
        with pytest.raises(DataError, match="at least 3 nodes"):
            GenSpec(n=2)

    def test_rejects_negative_seed(self):
        with pytest.raises(DataError, match="seed must be nonnegative"):
            GenSpec(n=10, seed=-1)

    def test_rejects_unknown_family(self):
        with pytest.raises(DataError):
            GenSpec(n=10, family="cauchy")

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None])
    def test_rejects_noise_free_that_is_not_a_bool(self, value):
        # a truthy "no" once generated a noise-free network
        with pytest.raises(DataError, match="noise_free must be a bool"):
            GenSpec(n=10, noise_free=value)

    def test_numpy_bool_noise_free_accepted(self):
        assert GenSpec(n=10, noise_free=np.True_).noise_free

    def test_rejects_gamma_length_mismatch(self):
        with pytest.raises(DataError, match="gamma_star length"):
            GenSpec(n=10, gamma_star=(0.5, -0.5), covariates=CovariateRule(p=1))

    def test_rejects_beta_star_length_mismatch(self):
        with pytest.raises(DataError, match="one entry per node"):
            GenSpec(n=10, beta_star=(0.0,) * 9)

    def test_rejects_nonfinite_beta_star(self):
        with pytest.raises(DataError, match="finite"):
            GenSpec(n=4, beta_star=(0.0, np.nan, 0.0, 0.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_gamma_star(self, value):
        with pytest.raises(DataError, match="gamma_star must be finite"):
            GenSpec(n=10, gamma_star=(value,))

    @pytest.mark.parametrize("dependence", [None, "independent"])
    def test_rejects_rho_without_equicorrelated_dependence(self, dependence):
        kwargs = {} if dependence is None else {"dependence": dependence}
        with pytest.raises(DataError, match="rho applies only to dependence 'equicorrelated_probit'"):
            GenSpec(n=10, family="probit", rho=0.7, **kwargs)

    def test_zero_rho_is_valid_without_dependence(self):
        assert GenSpec(n=10, family="probit", rho=0.0).rho == 0.0

    def test_rejects_negative_beta_range(self):
        with pytest.raises(DataError, match="beta_range"):
            GenSpec(n=10, beta_range=-1.0)

    @pytest.mark.parametrize("beta_range", [1e308, np.finfo(float).max])
    def test_rejects_beta_range_whose_draw_overflows(self, beta_range):
        # numpy's uniform on [-beta_range, beta_range] needs a finite width
        with pytest.raises(DataError, match="beta_range must be nonnegative, with a finite width"):
            GenSpec(n=10, beta_range=beta_range)

    def test_rejects_unknown_dependence(self):
        with pytest.raises(DataError, match="dependence mode"):
            GenSpec(n=10, dependence="markov")

    def test_rejects_equicorrelated_logistic(self):
        with pytest.raises(DataError, match="probit family only"):
            GenSpec(n=10, family="logistic", dependence="equicorrelated_probit", rho=0.3)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rejects_rho_outside_unit_interval(self, rho):
        with pytest.raises(DataError, match="rho"):
            GenSpec(n=10, family="probit", dependence="equicorrelated_probit", rho=rho)


class TestGenerate:
    def test_bit_identical_regeneration(self):
        spec = GenSpec(n=15, family="logistic", gamma_star=(0.4,), seed=7)
        a = generate_with_truth(spec)
        b = generate_with_truth(spec)
        assert np.array_equal(a.data.adjacency, b.data.adjacency)
        assert np.array_equal(a.data.covariates, b.data.covariates)
        assert np.array_equal(a.beta_star, b.beta_star)

    def test_noise_flag_shares_parameter_draws(self):
        """Parameters and covariates are drawn before edges, so flipping the
        noise flag changes only the weights."""
        noisy = GenSpec(n=12, family="poisson", gamma_star=(0.2,), seed=3)
        exact = GenSpec(n=12, family="poisson", gamma_star=(0.2,), seed=3, noise_free=True)
        a = generate_with_truth(noisy)
        b = generate_with_truth(exact)
        assert np.array_equal(a.beta_star, b.beta_star)
        assert np.array_equal(a.data.covariates, b.data.covariates)

    @pytest.mark.parametrize("kind", COVARIATE_KINDS)
    def test_column_index_built_once(self, monkeypatch, kind):
        """With no network of its size alive, a generation builds the shared
        column index once: not again for the covariates, the index and the network."""
        builds = []

        class Counting(weakref.WeakValueDictionary):
            def __setitem__(self, key, value):
                builds.append(key)
                super().__setitem__(key, value)

        monkeypatch.setattr(network, "_PAIR_COLUMNS", Counting())
        generate_with_truth(GenSpec(n=23, covariates=CovariateRule(kind), seed=1))
        assert builds == [23]

    @pytest.mark.parametrize("kwargs", [
        {}, {"noise_free": True},
        {"family": "probit", "dependence": "equicorrelated_probit", "rho": 0.3}],
        ids=["independent", "noise_free", "equicorrelated_probit"])
    @pytest.mark.parametrize("truth", [
        {"gamma_star": (1e308, 1e308)},
        {"beta_star": (1e308,) * 5, "gamma_star": (-1e308, -1e308)}], ids=["inf", "inf_and_nan"])
    def test_overflowing_index_raises_data_error(self, kwargs, truth):
        """An index past the float range, infinite or NaN, raises ``DataError``
        in every mode, with no numpy warning; it is never sampled or thresholded."""
        spec = GenSpec(n=5, covariates=CovariateRule(p=2), **truth, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="index .* overflows"):
                generate_with_truth(spec)

    def test_replicate_and_attempt_streams_differ(self):
        spec = GenSpec(n=15, family="logistic", gamma_star=(0.4,), seed=7)
        base = generate_with_truth(spec, _rng_for(spec, 0, 0))
        other_rep = generate_with_truth(spec, _rng_for(spec, 1, 0))
        other_att = generate_with_truth(spec, _rng_for(spec, 0, 1))
        assert not np.array_equal(base.data.adjacency, other_rep.data.adjacency)
        assert not np.array_equal(base.data.adjacency, other_att.data.adjacency)

    def test_fixed_beta_star_is_used_verbatim(self):
        beta = tuple(np.linspace(-0.8, 0.8, 10))
        spec = GenSpec(n=10, beta_star=beta, gamma_star=(0.1,), seed=11)
        synth = generate_with_truth(spec)
        assert np.array_equal(synth.beta_star, np.asarray(beta))

    def test_noise_free_weights_equal_means(self):
        for name in ("logistic", "poisson", "probit"):
            spec = GenSpec(n=9, family=name, gamma_star=(0.3,), seed=21, noise_free=True)
            synth = generate_with_truth(spec)
            family = get_family(name)
            pi = (
                synth.beta_star[synth.data.rows]
                + synth.beta_star[synth.data.cols]
                + synth.data.covariates @ synth.gamma_star
            )
            assert np.array_equal(synth.data.pair_weights, family.mean(pi))

    def test_logistic_density_half_at_zero_parameters(self):
        spec = GenSpec(n=60, beta_star=(0.0,) * 60, gamma_star=(0.0,), seed=13)
        data = generate_with_truth(spec).data
        m = data.n_pairs
        sigma = 0.5 / np.sqrt(m)
        assert abs(data.pair_weights.mean() - 0.5) <= 4.0 * sigma

    def test_poisson_sample_mean_matches_index_means(self):
        spec = GenSpec(n=60, family="poisson", beta_star=(0.0,) * 60,
                       gamma_star=(0.3,), seed=17)
        synth = generate_with_truth(spec)
        pi = synth.data.covariates @ synth.gamma_star
        mu = np.exp(pi)
        sigma = np.sqrt(mu.sum()) / mu.size
        assert abs(synth.data.pair_weights.mean() - mu.mean()) <= 4.0 * sigma
        assert np.array_equal(synth.data.pair_weights, np.round(synth.data.pair_weights))

    @pytest.mark.parametrize("name", ["logistic", "poisson", "probit"])
    def test_per_pair_means_match_marginals(self, name):
        """With fixed truth parameters, every pair's empirical mean over
        3000 draws sits within 4 standard errors of its marginal mean."""
        n, reps = 10, 3000
        beta = tuple(np.linspace(-0.6, 0.6, n))
        spec = GenSpec(n=n, family=name, beta_star=beta, gamma_star=(0.0,), seed=23)
        total = np.zeros(pair_count(n))
        for r in range(reps):
            total += generate_with_truth(spec, _rng_for(spec, r)).data.pair_weights
        empirical = total / reps
        family = get_family(name)
        synth = generate_with_truth(spec)
        pi = (synth.beta_star[synth.data.rows] + synth.beta_star[synth.data.cols])
        band = 4.0 * np.sqrt(family.variance(pi) / reps)
        assert np.all(np.abs(empirical - family.mean(pi)) <= band)

    def test_zero_rho_matches_independent_probit(self):
        """With no shared factor the latent construction has the same
        marginal as independent sampling."""
        kwargs = dict(n=40, family="probit", beta_star=(0.0,) * 40,
                      gamma_star=(0.0,), seed=29)
        dep = GenSpec(dependence="equicorrelated_probit", rho=0.0, **kwargs)
        ind = GenSpec(**kwargs)
        reps = 20
        p_dep = np.mean([generate_with_truth(dep, _rng_for(dep, r)).data.pair_weights.mean()
                         for r in range(reps)])
        p_ind = np.mean([generate_with_truth(ind, _rng_for(ind, r)).data.pair_weights.mean()
                         for r in range(reps)])
        draws = reps * pair_count(40)
        sigma = np.sqrt(2.0 * 0.25 / draws)
        assert abs(p_dep - p_ind) <= 4.0 * sigma

    def test_equicorrelated_keeps_marginal_but_clusters(self):
        """The shared factor leaves each edge marginal at one half while
        inflating the spread of per-network densities.  At rho = 0.5 that
        spread is near 1/sqrt(12), far above the independent value."""
        kwargs = dict(n=16, family="probit", beta_star=(0.0,) * 16,
                      gamma_star=(0.0,), seed=5)
        dep = GenSpec(dependence="equicorrelated_probit", rho=0.5, **kwargs)
        ind = GenSpec(**kwargs)
        reps = 200
        dens_dep = np.array([generate_with_truth(dep, _rng_for(dep, r)).data.pair_weights.mean()
                             for r in range(reps)])
        dens_ind = np.array([generate_with_truth(ind, _rng_for(ind, r)).data.pair_weights.mean()
                             for r in range(reps)])
        cluster_sigma = np.sqrt(1.0 / 12.0)
        assert abs(dens_dep.mean() - 0.5) <= 4.0 * cluster_sigma / np.sqrt(reps)
        assert dens_dep.std() > 0.15
        assert dens_ind.std() < 0.10


class TestAllocationBudgets:
    """What generation and a fit allocate, counted by ``tracemalloc`` in pair
    vectors (n_pairs doubles) at n = 400 and p = 2.  The counts are
    deterministic; the resident size also moves with the heap's layout."""

    N = 400
    VECTOR = 8 * pair_count(N)  # bytes

    def _generate(self, family):
        spec = functools.partial(GenSpec, family=family, gamma_star=(0.5, -0.5),
                                 covariates=CovariateRule(p=2))
        generate_with_truth(spec(n=8))  # the first call's lazy imports are not counted
        gc.collect()
        return traced_peak(generate_with_truth, spec(n=self.N, seed=3))

    @pytest.mark.parametrize("family", ["logistic", "probit", "poisson"])
    def test_generation(self, family):
        # kept: the covariates, the weights and the shared column index; the
        # 0.02 vectors above 4 are the degrees, beta and the row starts
        _, kept, peak = self._generate(family)
        assert kept <= 4.05 * self.VECTOR
        assert peak <= 12.0 * self.VECTOR

    @pytest.mark.parametrize("family", ["logistic", "probit", "poisson"])
    def test_fit_above_its_inputs(self, family):
        # 6.1 vectors for logistic and probit, 5.1 for Poisson: the (n, n)
        # buffer of -V (two vectors, which also hold the products with the two
        # covariate columns) and at most four pair vectors at once, three for
        # Poisson, whose slope is its mean; a copy of the column index (np.take
        # and np.bincount copy a read-only one) makes 7.1
        synth, _, _ = self._generate(family)
        _, _, peak = traced_peak(fit, synth.data, family)
        assert peak <= 6.5 * self.VECTOR


class TestRunReplicate:
    CONFIG = SolverConfig()

    def test_success_record_fields(self):
        spec = GenSpec(n=20, family="logistic", gamma_star=(0.5,), seed=41)
        record = _run_replicate(spec, 0, self.CONFIG)
        assert record["failed"] is False
        assert record["failure_reason"] == ""
        assert record["n"] == 20 and record["replicate"] == 0
        for key in ("err_beta", "err_gamma", "err_gamma_bc"):
            assert isinstance(record[key], float) and record[key] >= 0.0
        assert len(record["cover_gamma"]) == 1
        assert len(record["cover_gamma_bc"]) == 1
        assert all(isinstance(c, bool) for c in record["cover_gamma"])

    def test_noise_free_record_skips_coverage(self):
        spec = GenSpec(n=15, family="poisson", gamma_star=(0.3,), seed=43,
                       noise_free=True)
        record = _run_replicate(spec, 0, self.CONFIG)
        assert record["failed"] is False
        assert record["err_gamma"] <= 1e-6
        assert record["cover_gamma"] is None
        assert record["cover_gamma_bc"] is None

    def test_regenerates_degenerate_draws(self):
        """A draw with an isolated or saturated node is replaced by a fresh
        attempt rather than recorded as a failure."""
        spec = GenSpec(n=8, family="logistic", gamma_star=(0.3,),
                       beta_range=2.2, seed=99)
        family = get_family("logistic")
        first = generate_with_truth(spec, _rng_for(spec, 1, 0))
        with pytest.raises(DegenerateDegreeError):
            check_interior_degrees(first.data, family)
        record = _run_replicate(spec, 1, self.CONFIG)
        assert record["failed"] is False

    def test_all_attempts_degenerate_marked_failed(self):
        spec = GenSpec(n=5, family="logistic", gamma_star=(0.0,),
                       beta_star=(-12.0,) * 5, seed=1)
        record = _run_replicate(spec, 0, self.CONFIG)
        assert record["failed"] is True
        assert "degenerate degrees" in record["failure_reason"]
        assert record["err_beta"] is None

    def test_fit_failure_recorded_with_exception_name(self):
        spec = GenSpec(n=12, family="logistic", gamma_star=(0.5,), seed=47)
        strict = SolverConfig(tol_q=1e-14, max_outer=1)
        record = _run_replicate(spec, 0, strict)
        assert record["failed"] is True
        assert "NonConvergenceError" in record["failure_reason"]


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        assert _worker_count(64) == 1

    def test_task_count_caps_workers(self, monkeypatch):
        monkeypatch.delenv("NETMOMENT_THREADS", raising=False)
        assert _worker_count(1) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("NETMOMENT_THREADS", "many")
        with pytest.raises(DataError, match="NETMOMENT_THREADS must be a positive integer"):
            _worker_count(4)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_env_raises(self, monkeypatch, value):
        monkeypatch.setenv("NETMOMENT_THREADS", value)
        with pytest.raises(DataError, match="NETMOMENT_THREADS must be a positive integer"):
            _worker_count(4)

    def test_affinity_caps_workers(self, monkeypatch):
        monkeypatch.delenv("NETMOMENT_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _worker_count(64) == 3

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delenv("NETMOMENT_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _worker_count(64) == 5


class TestRateSlope:
    def test_exact_power_law_has_unit_slope(self):
        n_values = [10, 20, 40, 80]
        medians = [3.0 / n for n in n_values]
        slope = _rate_slope(n_values, medians, lambda n: 1.0 / n)
        assert abs(slope - 1.0) <= 1e-12

    def test_square_law_has_slope_two(self):
        n_values = [10, 20, 40]
        medians = [5.0 / n**2 for n in n_values]
        slope = _rate_slope(n_values, medians, lambda n: 1.0 / n)
        assert abs(slope - 2.0) <= 1e-12

    def test_insufficient_points_give_none(self):
        assert _rate_slope([10], [0.5], lambda n: 1.0 / n) is None
        assert _rate_slope([10, 20], [0.5, None], lambda n: 1.0 / n) is None
        assert _rate_slope([10, 20], [0.0, 0.1], lambda n: 1.0 / n) is None

    def test_single_distinct_n_gives_none(self):
        assert _rate_slope([30, 30], [0.5, 0.4], lambda n: 1.0 / n) is None
        assert _rate_slope([30, 30, 40], [0.5, 0.4, None], lambda n: 1.0 / n) is None


class TestRunMcStudy:
    def test_report_structure_and_slopes(self):
        specs = [
            GenSpec(n=20, family="logistic", gamma_star=(0.5,), seed=71),
            GenSpec(n=40, family="logistic", gamma_star=(0.5,), seed=72),
        ]
        report = run_mc_study(specs, replicates=6)
        assert report.family == "logistic"
        assert report.n_grid == [20, 40]
        assert len(report.records) == 12
        keys = [(r["n"], r["spec_index"], r["replicate"]) for r in report.records]
        assert keys == sorted(keys)
        assert len(report.summaries) == 2
        for summary in report.summaries:
            assert summary["replicates"] == 6
            assert summary["failures"] + sum(
                1 for r in report.records
                if r["spec_index"] == report.summaries.index(summary) and not r["failed"]
            ) == 6
            for c in summary["coverage_gamma"] + summary["coverage_gamma_bc"]:
                assert 0.0 <= c <= 1.0
        assert isinstance(report.slope_beta, float)
        assert isinstance(report.slope_gamma_bc, float)
        assert report.errors == []

    def test_noise_free_study_recovers_truth(self):
        specs = [
            GenSpec(n=12, family="probit", gamma_star=(0.4,), seed=81, noise_free=True),
            GenSpec(n=18, family="probit", gamma_star=(0.4,), seed=82, noise_free=True),
        ]
        report = run_mc_study(specs, replicates=3)
        for summary in report.summaries:
            assert summary["failures"] == 0
            assert summary["median_err_gamma"] <= 1e-6
            assert summary["coverage_gamma"] is None
        # noise-free errors are rounding error: no rate to fit
        assert report.slope_beta is None
        assert report.slope_gamma_bc is None

    def test_total_failure_listed_in_errors(self):
        specs = [GenSpec(n=5, family="logistic", gamma_star=(0.0,),
                         beta_star=(-12.0,) * 5, seed=1)]
        report = run_mc_study(specs, replicates=2)
        assert report.errors == ["all replicates failed at n=5"]
        assert report.summaries[0]["failures"] == 2
        assert report.summaries[0]["median_err_beta"] is None
        assert report.slope_beta is None

    def test_repeated_n_grid_has_no_slopes(self, monkeypatch):
        """A grid holding one distinct size has no rate to regress on, so
        both slopes are None and no poorly conditioned fit warns."""
        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        specs = [GenSpec(n=20, family="logistic", gamma_star=(0.5,), seed=s) for s in (1, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_mc_study(specs, replicates=2)
        assert [s["failures"] for s in report.summaries] == [0, 0]
        assert report.slope_beta is None
        assert report.slope_gamma_bc is None

    def test_input_validation(self):
        spec = GenSpec(n=10, seed=0)
        with pytest.raises(DataError, match="replicates"):
            run_mc_study([spec], replicates=0)
        with pytest.raises(DataError, match="at least one"):
            run_mc_study([], replicates=5)

    def test_specs_of_different_families_rejected(self):
        """A report has one family and one rate slope, so a grid mixing
        families would fit one slope across both."""
        specs = [GenSpec(n=20, family="logistic", seed=1), GenSpec(n=30, family="poisson", seed=2)]
        with pytest.raises(DataError, match="share a family, got logistic, poisson"):
            run_mc_study(specs, 1)

    def test_invalid_thread_env_raises(self, monkeypatch):
        monkeypatch.setenv("NETMOMENT_THREADS", "2.5")
        spec = GenSpec(n=10, seed=0)
        with pytest.raises(DataError, match="NETMOMENT_THREADS"):
            run_mc_study([spec], replicates=2)

    def test_largest_networks_run_first(self, monkeypatch):
        """Replicates are fitted largest network first; records keep grid order."""
        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        sizes = []

        def recording(spec, replicate, config, spec_index):
            sizes.append(spec.n)
            return _run_replicate(spec, replicate, config, spec_index)

        monkeypatch.setattr(simulation, "_run_replicate", recording)
        specs = [GenSpec(n=n, gamma_star=(0.4,), seed=n) for n in (10, 16, 12)]
        report = run_mc_study(specs, replicates=2)
        assert sizes == [16, 16, 12, 12, 10, 10]
        assert [(r["n"], r["replicate"]) for r in report.records] == [
            (10, 0), (10, 1), (12, 0), (12, 1), (16, 0), (16, 1)]

    def test_parallel_matches_serial(self, monkeypatch):
        """Replicate records are identical whatever the worker count,
        because every replicate owns a counter-based stream."""
        specs = [
            GenSpec(n=12, family="logistic", gamma_star=(0.4,), seed=91),
            GenSpec(n=16, family="logistic", gamma_star=(0.4,), seed=92),
        ]
        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        serial = run_mc_study(specs, replicates=3)
        monkeypatch.setenv("NETMOMENT_THREADS", "2")
        parallel = run_mc_study(specs, replicates=3)
        assert serial.records == parallel.records
        assert serial.summaries == parallel.summaries


class TestStudyWorkers:
    """Study workers each run the next replicate, largest network first,
    whenever they are free; whatever happens in a worker, the study ends
    with every worker joined."""

    @staticmethod
    def _placed(monkeypatch, sizes, replicates, sleep):
        """Each replicate of a two-worker study over ``sizes`` as (n, replicate,
        pid, start time), the replicate stubbed to sleep ``sleep(n, replicate)`` s."""
        monkeypatch.setenv("NETMOMENT_THREADS", "2")

        def stub(spec, replicate, config, spec_index):
            start = time.monotonic()
            time.sleep(sleep(spec.n, replicate))
            return {"spec_index": spec_index, "n": spec.n, "replicate": replicate,
                    "failed": True, "pid": os.getpid(), "start": start}

        monkeypatch.setattr(simulation, "_run_replicate", stub)
        specs = [GenSpec(n=n, seed=k) for k, n in enumerate(sizes)]
        records = run_mc_study(specs, replicates).records
        assert multiprocessing.active_children() == []
        return [(r["n"], r["replicate"], r["pid"], r["start"]) for r in records]

    @staticmethod
    def _runs(placed):
        """The n of each replicate, by worker, in the order each worker ran them."""
        runs = {}
        for n, _, pid, start in sorted(placed, key=lambda r: r[3]):
            runs.setdefault(pid, []).append(n)
        return sorted(runs.values())

    @TWO_FORKED_WORKERS
    def test_largest_fit_runs_alone_while_the_other_worker_runs_the_rest(self, monkeypatch):
        """The benchmark's grid, each replicate sleeping in proportion to n^2
        as a fit's work grows: n = 200 on one worker, n = 100 then n = 50 on
        the other."""
        placed = self._placed(monkeypatch, (200, 100, 50), 1, lambda n, r: 2e-5 * n * n)
        assert self._runs(placed) == [[100, 50], [200]]

    @TWO_FORKED_WORKERS
    def test_a_slow_replicate_leaves_the_rest_to_the_free_worker(self, monkeypatch):
        """While the first n = 16 replicate sleeps, the other worker runs all
        five other replicates, whatever their sizes."""
        placed = self._placed(monkeypatch, (16, 12), 3, lambda n, r: 1.0 if (n, r) == (16, 0) else 0)
        slow = next(pid for n, r, pid, _ in placed if (n, r) == (16, 0))
        assert [(n, r) for n, r, pid, _ in placed if pid == slow] == [(16, 0)]
        assert len({pid for _, _, pid, _ in placed}) == 2

    def _study(self, monkeypatch, first, second=_run_replicate):
        """A study of n = 16 and 12 on two workers: the first runs ``first``
        for its n = 16 replicate, the second ``second`` for its n = 12 one."""
        monkeypatch.setenv("NETMOMENT_THREADS", "2")

        def patched(spec, *args):
            return (first if spec.n == 16 else second)(spec, *args)

        monkeypatch.setattr(simulation, "_run_replicate", patched)
        return run_mc_study([GenSpec(n=n, gamma_star=(0.4,), seed=n) for n in (16, 12)], 1)

    @staticmethod
    def _failing(spec, *args):
        raise ZeroDivisionError(f"replicate of n={spec.n}")

    @staticmethod
    def _dying(*args):
        os._exit(3)

    @TWO_FORKED_WORKERS
    def test_worker_exception_keeps_its_type_and_message(self, monkeypatch):
        with pytest.raises(ZeroDivisionError, match="replicate of n=16"):
            self._study(monkeypatch, self._failing)
        assert multiprocessing.active_children() == []

    @TWO_FORKED_WORKERS
    def test_worker_that_dies_raises_child_process_error(self, monkeypatch):
        with pytest.raises(ChildProcessError, match="exited with code 3 before it sent its records"):
            self._study(monkeypatch, self._dying)
        assert multiprocessing.active_children() == []

    @TWO_FORKED_WORKERS
    @pytest.mark.parametrize("failure, error", [
        (_run_replicate, None), (_failing, ZeroDivisionError), (_dying, ChildProcessError)],
        ids=["succeeds", "raises", "dies"])
    def test_study_closes_its_descriptors(self, monkeypatch, failure, error):
        """With the cyclic garbage collector off, a study leaves open only the
        arena of multiprocessing's shared-memory heap, which holds the study's
        task counter: the first study in a process maps it (two descriptors on
        an unlinked ``pym-*`` file) and keeps it for the life of the process,
        and every later study reuses it, so a second study leaves nothing
        open.  On an exception too: the exception, its traceback and the
        study's frames form a cycle that would keep worker objects alive."""
        def opened():
            paths = {}
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(FileNotFoundError):  # the listing's own, closed by now
                    paths[fd] = os.readlink(f"/proc/self/fd/{fd}")
            return paths

        def arena(paths):
            return {fd: path for fd, path in paths.items()
                    if os.path.basename(path).startswith("pym-")}

        gc.collect()
        gc.disable()
        try:
            before = opened()
            with pytest.raises(error) if error else contextlib.nullcontext():
                self._study(monkeypatch, failure)
            first = opened()
            with pytest.raises(error) if error else contextlib.nullcontext():
                self._study(monkeypatch, failure)
            second = opened()
        finally:
            gc.enable()
        added = {fd: path for fd, path in first.items() if before.get(fd) != path}
        assert added == ({} if arena(before) else arena(first))
        assert len(arena(first)) == 2
        assert second == first

    @TWO_FORKED_WORKERS
    def test_worker_that_dies_after_a_record_raises_child_process_error(self, monkeypatch):
        """Each worker runs one replicate and dies in its second, its first
        record unsent: the study raises ``ChildProcessError``."""
        ran = []  # each forked worker has its own copy

        def once(*args):
            if ran:
                os._exit(4)
            ran.append(args)
            return _run_replicate(*args)

        monkeypatch.setenv("NETMOMENT_THREADS", "2")
        monkeypatch.setattr(simulation, "_run_replicate", once)
        specs = [GenSpec(n=n, gamma_star=(0.4,), seed=n) for n in (16, 12)]
        with pytest.raises(ChildProcessError, match="exited with code 4 before it sent its records"):
            run_mc_study(specs, 2)
        assert multiprocessing.active_children() == []

    @TWO_FORKED_WORKERS
    def test_worker_that_dies_while_it_sends_its_records_raises_child_process_error(
            self, monkeypatch):
        """A worker gone partway through its one message, with the length
        header and part of the body written: the study raises
        ``ChildProcessError``, not the ``OSError`` the cut message gives."""
        def cut(tasks, counter, conn):
            os.write(conn.fileno(), struct.pack("!i", 1000) + b"\x80\x04")
            os._exit(9)

        monkeypatch.setenv("NETMOMENT_THREADS", "2")
        monkeypatch.setattr(simulation, "_serve", cut)
        specs = [GenSpec(n=n, gamma_star=(0.4,), seed=n) for n in (16, 12)]
        with pytest.raises(ChildProcessError, match="exited with code 9 before it sent its records"):
            run_mc_study(specs, 2)
        assert multiprocessing.active_children() == []

    @TWO_FORKED_WORKERS
    def test_parent_sends_its_workers_nothing(self, monkeypatch, tmp_path):
        """In a two-worker study of 6 replicates the parent sends no message,
        and each worker sends one: all its records."""
        log, send = tmp_path / "sends", multiprocessing.connection.Connection.send

        def logged(conn, obj):
            with open(log, "a") as handle:  # appends from every process, the workers' too
                size = len(obj) if isinstance(obj, list) else 1
                handle.write(f"{os.getpid()} {type(obj).__name__} {size}\n")
            send(conn, obj)

        monkeypatch.setenv("NETMOMENT_THREADS", "2")
        monkeypatch.setattr(multiprocessing.connection.Connection, "send", logged)
        specs = [GenSpec(n=n, gamma_star=(0.4,), seed=n) for n in (16, 12)]
        records = run_mc_study(specs, 3).records
        sends = [line.split() for line in log.read_text().splitlines()]
        assert [pid for pid, _, _ in sends].count(str(os.getpid())) == 0
        assert len({pid for pid, _, _ in sends}) == len(sends) == 2
        assert {kind for _, kind, _ in sends} == {"list"}
        assert sum(int(count) for _, _, count in sends) == len(records) == 6

    @TWO_FORKED_WORKERS
    def test_workers_freeze_what_they_inherit(self, monkeypatch):
        """Each worker freezes the objects it inherits, so that its collections
        do not copy the parent's pages; the caller's collector is left as it was."""
        def frozen(spec, replicate, config, spec_index):
            return {"spec_index": spec_index, "n": spec.n, "replicate": replicate,
                    "failed": True, "frozen": gc.get_freeze_count()}

        monkeypatch.setenv("NETMOMENT_THREADS", "2")
        monkeypatch.setattr(simulation, "_run_replicate", frozen)
        records = run_mc_study([GenSpec(n=n, seed=n) for n in (16, 12)], 2).records
        assert min(r["frozen"] for r in records) > 0
        assert gc.get_freeze_count() == 0

    @TWO_FORKED_WORKERS
    @pytest.mark.parametrize("failure, error", [
        (_failing, ZeroDivisionError), (_dying, ChildProcessError)], ids=["raises", "dies"])
    @pytest.mark.parametrize("failing_n", [16, 12], ids=["first_share", "second_share"])
    def test_failure_terminates_the_workers_still_running(self, monkeypatch, failure, error,
                                                          failing_n):
        """The other worker sleeps far past the failure; whichever share
        fails, the study raises at once and leaves no worker behind."""
        def sleeping(*args):
            time.sleep(60)

        roles = (failure, sleeping) if failing_n == 16 else (sleeping, failure)
        start = time.perf_counter()
        with pytest.raises(error):
            self._study(monkeypatch, *roles)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []


def _blas_counts():
    return [getter() for getter, _ in openblas_thread_controls()]


class TestSingleBlasThread:
    def test_pins_every_library_and_restores(self, two_blas_threads):
        with single_blas_thread():
            assert set(_blas_counts()) == {1}
        assert set(_blas_counts()) == {2}

    def test_restores_when_body_raises(self, two_blas_threads):
        with pytest.raises(RuntimeError, match="body"):
            with single_blas_thread():
                raise RuntimeError("body")
        assert set(_blas_counts()) == {2}

    def test_no_library_found_does_nothing(self, two_blas_threads, monkeypatch):
        monkeypatch.setattr(blas, "_controls", lambda: [])
        with single_blas_thread():
            assert set(_blas_counts()) == {2}
        assert set(_blas_counts()) == {2}

    def test_nested_blocks_set_and_restore_once(self, two_blas_threads):
        with single_blas_thread():
            with single_blas_thread():
                assert set(_blas_counts()) == {1}
            assert set(_blas_counts()) == {1}
        assert set(_blas_counts()) == {2}

    def test_libraries_found_once(self, monkeypatch):
        """Blocks read /proc/self/maps once per process, imports in between
        notwithstanding: numpy's OpenBLAS is loaded with numpy."""
        scans = []
        monkeypatch.setattr(blas, "openblas_thread_controls", lambda: scans.append(1) or [])
        monkeypatch.setattr(blas, "_controls", functools.cache(blas._controls.__wrapped__))
        for _ in range(3):
            with single_blas_thread():
                pass
        monkeypatch.setitem(sys.modules, "netmoment_test_import", types.ModuleType("m"))
        with single_blas_thread():
            pass
        assert len(scans) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_study_leaves_caller_counts(self, two_blas_threads, monkeypatch, threads):
        monkeypatch.setenv("NETMOMENT_THREADS", threads)
        specs = [GenSpec(n=12, family="logistic", gamma_star=(0.4,), seed=91)]
        run_mc_study(specs, replicates=2)
        assert set(_blas_counts()) == {2}

    def test_study_restores_counts_when_it_raises(self, two_blas_threads, monkeypatch):
        def failing(*args):
            raise RuntimeError("replicate")

        monkeypatch.setenv("NETMOMENT_THREADS", "1")
        monkeypatch.setattr(simulation, "_run_replicate", failing)
        with pytest.raises(RuntimeError, match="replicate"):
            run_mc_study([GenSpec(n=12, seed=0)], replicates=1)
        assert set(_blas_counts()) == {2}

    def test_concurrent_blocks_pin_throughout_and_restore_once(self, two_blas_threads):
        """Threads entering and leaving blocks at once, more of them than
        CPUs: each body sees one thread, and the counts come back at the end.
        Two threads both saving the count before either set it would restore
        one thread instead."""
        seen, switch = set(), sys.getswitchinterval()

        def worker():
            for _ in range(100):
                with single_blas_thread():
                    seen.update(_blas_counts())

        threads = [threading.Thread(target=worker) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {1}
        assert set(_blas_counts()) == {2}


STUDY_SCRIPT = """
import json
from netmoment.simulation import CovariateRule, GenSpec, run_mc_study
spec = GenSpec(n=200, family="poisson", gamma_star=(0.5, -0.5),
               covariates=CovariateRule("iid_pm1", p=2), seed=2)
print(json.dumps(run_mc_study([spec], replicates=2).records))
"""


def test_records_independent_of_blas_and_worker_threads():
    """The same study in fresh interpreters gives equal records whether
    OpenBLAS starts with its default thread count or one thread, and with
    one worker or two.  Replicate 0 of this spec differs in its last
    digits between two-thread and single-threaded BLAS on a 2-CPU host
    when the fit's BLAS threads are left as the caller set them."""
    runs = []
    for blas in (None, "1"):
        for workers in ("1", "2"):
            env = dict(os.environ, NETMOMENT_THREADS=workers)
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(name, None)
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", STUDY_SCRIPT], env=env,
                                  capture_output=True, text=True, check=True, timeout=300)
            runs.append(json.loads(proc.stdout))
    assert all(not r["failed"] for r in runs[0])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert runs[3] == runs[0]


START_METHOD_SCRIPT = """
import json, multiprocessing, sys, types
from netmoment import simulation
if sys.argv[1] != "default":
    # off Linux the workers take the caller's start method
    multiprocessing.set_start_method(sys.argv[1], force=True)
    simulation.sys = types.SimpleNamespace(platform="other")
methods, get_context = [], multiprocessing.get_context

def recording(method=None):
    context = get_context(method)
    methods.append(context.get_start_method())
    return context

multiprocessing.get_context = recording
""" + STUDY_SCRIPT + "print(json.dumps(methods))\n"


@TWO_FORKED_WORKERS
def test_records_independent_of_start_method():
    """Records do not depend on how study workers start, since each fit pins
    OpenBLAS to one thread itself.  On Linux the study forks whatever the
    caller's start method; the study here also runs through the branch
    other platforms take, under forkserver and under spawn, with workers
    that start a fresh interpreter with default BLAS threads."""
    env = dict(os.environ, NETMOMENT_THREADS="2")
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = {}
    for method in ("default", "forkserver", "spawn"):
        proc = subprocess.run([sys.executable, "-c", START_METHOD_SCRIPT, method], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        records, methods = proc.stdout.splitlines()
        runs[method] = json.loads(records)
        assert json.loads(methods) == ["fork" if method == "default" else method]
    assert runs["forkserver"] == runs["default"]
    assert runs["spawn"] == runs["default"]


WORKER_IMPORTS_SCRIPT = """
import json, sys
from netmoment import simulation
from netmoment.simulation import GenSpec, run_mc_study
run_replicate = simulation._run_replicate

def recording(*args):
    before = set(sys.modules)
    record = run_replicate(*args)
    return dict(record, imported=sorted(set(sys.modules) - before))

simulation._run_replicate = recording
assert "scipy.special" not in sys.modules
report = run_mc_study([GenSpec(n=12, family=sys.argv[1], seed=0)], replicates=2)
print(json.dumps([r["imported"] for r in report.records]))
"""


@TWO_FORKED_WORKERS
@pytest.mark.parametrize("family", ["logistic", "probit"])
def test_pool_workers_import_nothing(family):
    """A study loads numpy.random (which numpy imports lazily) before it
    forks its workers, so that no worker imports it again, which costs
    0.01 s per worker per study on a 2-CPU host; no family imports anything
    on first use."""
    env = dict(os.environ, NETMOMENT_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", WORKER_IMPORTS_SCRIPT, family], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == [[], []]


# The benchmark's inputs and its stored outputs (bench/reference.json).  The
# benchmark's own check imports tomllib, which Python 3.10 lacks, so these
# tests spell its specs out and run its comparison on every supported Python
# and numpy.
_RECORD_KEYS = ("n", "replicate", "failed", "err_beta", "err_gamma", "err_gamma_bc",
                "cover_gamma", "cover_gamma_bc")


def _reference_spec(family, n, seed):
    return GenSpec(n=n, family=family, gamma_star=(0.5, -0.5), beta_range=1.0,
                   covariates=CovariateRule(kind="iid_pm1", p=2), seed=seed)


def _assert_matches_reference(actual, expected, path="$"):
    """Floats agree to relative 1e-6, an entry of a float list held to the
    list's largest; everything else is equal, as the benchmark compares."""
    if isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-6), path
    elif isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            _assert_matches_reference(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        if expected and all(isinstance(v, float) for v in expected):
            scale = max(abs(v) for v in expected)
            for k, (a, e) in enumerate(zip(actual, expected)):
                assert math.isclose(a, e, rel_tol=1e-6, abs_tol=1e-6 * scale), f"{path}[{k}]"
        else:
            for k, (a, e) in enumerate(zip(actual, expected)):
                _assert_matches_reference(a, e, f"{path}[{k}]")
    else:
        assert actual == expected, path


@pytest.mark.parametrize("family", ["logistic", "probit", "poisson"])
def test_fit_matches_the_benchmark_reference(family):
    """The first n=600 fit of each family in the benchmark reference."""
    expected = json.loads(BENCH_REFERENCE.read_text())["fit"][family][0]
    result = fit(generate_with_truth(_reference_spec(family, 600, expected["seed"])).data, family)
    _assert_matches_reference({key: getattr(result, key).tolist() for key in expected["fit"]},
                              expected["fit"])


def test_study_matches_the_benchmark_reference():
    """The first rate study of the benchmark reference: logistic, n = 50, 100
    and 200 at seeds s, s + 1 and s + 2, one replicate each."""
    expected = json.loads(BENCH_REFERENCE.read_text())["mc_study"][0]
    specs = [_reference_spec("logistic", n, expected["seed"] + k)
             for k, n in enumerate((50, 100, 200))]
    records = run_mc_study(specs, replicates=1).records
    _assert_matches_reference([[r[key] for key in _RECORD_KEYS] for r in records],
                              expected["records"])
