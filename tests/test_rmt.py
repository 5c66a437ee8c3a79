import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from otoclab import parallel, rmt
from otoclab.cli import load_config, run
from otoclab.operators import BudgetError, cosine_observable, embed, gue_observable
from otoclab.parallel import (
    _cap_blas_threads,
    _cpu_count,
    blas_threads,
    pool_size,
    worker_blas_threads,
)
from otoclab.rmt import (
    RmtEnsembleSpec,
    analytic_otoc,
    epsilon_from_b,
    mu_rmt,
    rmt_otoc_mc,
    sample_cue,
    sample_interaction,
    sinc,
)


class TestSampleCue:
    def test_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = sample_cue(8, rng)
            assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_trace_statistics(self):
        # E Tr U = 0 and E |Tr U|^2 = 1 for Haar unitaries; plain QR
        # without the phase correction would bias the trace
        rng = np.random.default_rng(1)
        traces = np.array([np.trace(sample_cue(6, rng)) for _ in range(4000)])
        assert abs(traces.mean()) < 0.05
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) < 0.1

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            sample_cue(1, np.random.default_rng(0))


class TestSampleInteraction:
    def test_shape_and_modulus(self):
        d = sample_interaction(5, 0.3, np.random.default_rng(0))
        assert d.shape == (25,)
        assert np.allclose(np.abs(d), 1.0)

    def test_phase_range(self):
        # phases are 2 pi eps xi with xi in [-1/2, 1/2]
        eps = 0.2
        d = sample_interaction(20, eps, np.random.default_rng(3))
        phases = np.angle(d)
        assert np.all(np.abs(phases) <= np.pi * eps + 1e-12)

    def test_zero_epsilon(self):
        d = sample_interaction(4, 0.0, np.random.default_rng(0))
        assert np.allclose(d, 1.0)


class TestAnalyticFormulas:
    def test_sinc(self):
        assert sinc(0.0) == 1.0
        assert sinc(0.1 * np.pi) == pytest.approx(0.983631643083466)
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_mu_rmt_values(self):
        assert mu_rmt(0.1) == pytest.approx(0.06601519389961304)
        assert mu_rmt(0.3) == pytest.approx(0.6107697480952241)

    def test_mu_rmt_small_epsilon_expansion(self):
        # mu ~ 2 pi^2 eps^2 / 3 for small eps
        eps = 0.01
        assert mu_rmt(eps) == pytest.approx(2 * np.pi**2 * eps**2 / 3, rel=1e-3)

    def test_mu_rmt_domain(self):
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                mu_rmt(eps)

    def test_epsilon_from_b(self):
        assert epsilon_from_b(64, 0.04) == pytest.approx(0.15883852803747653)
        assert epsilon_from_b(64, 0.0) == 0.0
        with pytest.raises(ValueError):
            epsilon_from_b(64, -0.1)

    def test_analytic_otoc_values(self):
        assert analytic_otoc(0.3, 2, 1.0, 1.0, diagonal_observables=True) == (
            pytest.approx(0.4570672132923127)
        )
        assert analytic_otoc(0.3, 2, 1.0, 1.0) == pytest.approx(0.7052239891178249)
        assert analytic_otoc(0.15, 3, 1.0, 1.0, diagonal_observables=True) == (
            pytest.approx(0.25792967483579954)
        )

    def test_analytic_otoc_diagonal_zero_at_one_kick(self):
        assert analytic_otoc(0.4, 1, 3.0, 5.0, diagonal_observables=True) == 0.0

    def test_analytic_otoc_domain(self):
        with pytest.raises(ValueError):
            analytic_otoc(0.3, 0, 1.0, 1.0, diagonal_observables=True)

    def test_analytic_otoc_saturates(self):
        val = analytic_otoc(0.5, 500, 2.0, 3.0)
        assert val == pytest.approx(6.0, rel=1e-12)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RmtEnsembleSpec(N=8, epsilon=0.3, T=4, samples=0)
        with pytest.raises(ValueError):
            RmtEnsembleSpec(N=8, epsilon=-0.3, T=4, samples=10)


class TestMonteCarlo:
    def test_reproducible_and_structured(self):
        spec = RmtEnsembleSpec(N=6, epsilon=0.3, T=3, samples=20, rng_seed=5)
        o = cosine_observable(6, 0.35)
        a = rmt_otoc_mc(spec, o, o)
        b = rmt_otoc_mc(spec, o, o)
        assert np.array_equal(a.c2, b.c2) and np.array_equal(a.c4, b.c4)
        # t = 0: disjoint observables commute, C2 = C4 = Tr(O^2)^2
        assert a.c[0] == pytest.approx(0.0, abs=1e-10)
        assert a.c2[0] == pytest.approx(9.0)  # Tr(O^2) = N/2 = 3 per factor
        assert a.c_infinity == pytest.approx(9.0)

    def test_growth_toward_saturation(self):
        spec = RmtEnsembleSpec(N=8, epsilon=0.4, T=6, samples=30, rng_seed=1)
        o = cosine_observable(8, 0.35)
        series = rmt_otoc_mc(spec, o, o)
        c = series.c_norm
        # after the first scrambling kick the OTOC rises monotonically
        # (within Monte Carlo scatter) toward its saturation plateau
        assert c[1] < 0.5
        assert c[-1] > 0.8
        assert np.all(np.diff(c[1:]) > -0.1)

    def test_finite_size_deficit_shrinks_with_N(self):
        # the closed-form rate is the leading order in 1/N; the measured
        # rate at small N sits below it by roughly 2/N, so doubling N must
        # close about half of the gap
        eps = 0.35
        deficits = []
        for N, samples in ((8, 60), (16, 40)):
            spec = RmtEnsembleSpec(N=N, epsilon=eps, T=6, samples=samples, rng_seed=2)
            o = cosine_observable(N, 0.35)
            series = rmt_otoc_mc(spec, o, o)
            gap = 1.0 - series.c_norm
            mask = gap > 1e-6
            t = series.times[mask][1:]
            rate = -np.polyfit(t, np.log(gap[mask][1:]), 1)[0]
            deficits.append(1.0 - rate / mu_rmt(eps))
        assert deficits[0] > deficits[1] > 0.0
        assert deficits[1] < 0.75 * deficits[0]

    def test_single_sample_errors_zero(self):
        spec = RmtEnsembleSpec(N=4, epsilon=0.2, T=2, samples=1, rng_seed=0)
        o = gue_observable(4, 3)
        series = rmt_otoc_mc(spec, o, o)
        assert np.all(series.c_err == 0.0)


class TestMonteCarloWorkers:
    def test_same_answer_for_any_worker_count(self):
        default = blas_threads()
        if default is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        # enough kicks for a pool: 10 samples of 8 kicks at N = 16
        N = 16
        spec = RmtEnsembleSpec(N=N, epsilon=0.3, T=8, samples=10, rng_seed=4)
        o1, o2 = gue_observable(N, 1), gue_observable(N, 2)
        runs = []
        try:
            for cap in (1, 2):
                _cap_blas_threads(cap)
                runs.append(rmt_otoc_mc(spec, o1, o2))
        finally:
            _cap_blas_threads(default)
        serial, pooled = runs
        assert serial.meta["workers"] == 1
        assert serial.meta["worker_blas_threads"] == 1  # this process's own cap
        assert pooled.meta["workers"] == min(2, _cpu_count())
        for name in ("c2", "c4", "c_err"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))

    def test_budget_checked_before_workers(self, monkeypatch):
        started = []
        monkeypatch.setattr(rmt, "map_tasks", lambda *args: started.append(args))
        o = cosine_observable(91, 0.35)
        spec = RmtEnsembleSpec(N=91, epsilon=0.1, T=1, samples=4)
        with pytest.raises(BudgetError, match="path=stochastic"):
            rmt_otoc_mc(spec, o, o)
        assert started == []
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_call(self, monkeypatch):
        N = 16
        spec = RmtEnsembleSpec(N=N, epsilon=0.3, T=8, samples=10, rng_seed=2)
        o = cosine_observable(N, 0.35)
        series = rmt_otoc_mc(spec, o, o)
        assert series.meta["workers"] == pool_size(10, 10 * 8 * 4 * N**5)
        assert multiprocessing.active_children() == []
        # a non-unitary interaction trips the ||A(t)||_F drift check in
        # every realization; forked workers inherit the patch
        draw = rmt.sample_interaction
        monkeypatch.setattr(rmt, "sample_interaction", lambda *a: 1.01 * draw(*a))
        with pytest.raises(FloatingPointError, match="drifted") as pooled:
            rmt_otoc_mc(spec, o, o)
        assert multiprocessing.active_children() == []
        # the caller sees the first realization's own error
        with pytest.raises(FloatingPointError) as direct:
            rmt._sample_c2_c4(spec, embed(o, "left", N), embed(o, "right", N), 0)
        assert str(pooled.value) == str(direct.value)

    def test_sidecar_records_workers(self, tmp_path):
        cfg = load_config(None, ["scenario=rmt_otoc", "N=6", "T=3", "samples=4",
                                 "epsilon=0.3"])
        record = run(cfg, out_dir=tmp_path)
        sidecar = json.loads(Path(record.files[0]).with_suffix(".json").read_text())
        assert sidecar["fits"]["monte_carlo"] == {  # too little work for a pool
            "workers": 1,
            "worker_blas_threads": worker_blas_threads(1),
        }

    def test_small_ensemble_runs_in_process(self, monkeypatch):
        started = []
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", lambda **kw: started.append(kw))
        N = 8
        spec = RmtEnsembleSpec(N=N, epsilon=0.3, T=6, samples=2, rng_seed=1)
        o = cosine_observable(N, 0.35)
        assert rmt_otoc_mc(spec, o, o).meta["workers"] == 1
        assert started == []
