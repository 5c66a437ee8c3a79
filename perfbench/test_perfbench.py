"""The benchmark's own tests: each check accepts the program's output and
rejects a deliberately perturbed copy; tracing counts exactly and changes
no number.  Sizes are small (N <= 8), so these run in seconds."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from otoclab import cli, otoc, rmt  # noqa: E402
from otoclab.operators import SystemParams, cosine_observable  # noqa: E402

N, T = 8, 5


@pytest.fixture(scope="module")
def system():
    p = SystemParams(N=N, K1=9.0, K2=10.0, b=1.5 / N)
    ref, c_inf = worker.oracle_reference(p, T)
    return p, ref, c_inf


def bump(c, t, amount):
    out = np.array(c, dtype=float)
    out[t] += amount
    return out


def test_dense_oracle(system):
    p, ref, c_inf = system
    dense = otoc.otoc_series_dense(*worker.oracle_inputs(p), T)
    assert checks.check_close(dense.c, ref, c_inf, "dense") is None
    assert checks.check_close(bump(dense.c, 3, 1e-10 * c_inf), ref, c_inf, "dense")


def test_stochastic_oracle(system):
    p, ref, c_inf = system
    stoch = otoc.otoc_series_stochastic(
        *worker.oracle_inputs(p), T, 256, np.random.default_rng(3)
    )
    assert checks.check_within_errors(stoch.c, stoch.c_err, ref, c_inf) is None
    shifted = bump(stoch.c, 3, 10 * checks.STOCHASTIC_SIGMAS * stoch.c_err[3])
    assert checks.check_within_errors(shifted, stoch.c_err, ref, c_inf)


def test_rmt_redraw():
    o = cosine_observable(N, 0.35)
    spec = rmt.RmtEnsembleSpec(N=N, epsilon=0.2, T=4, samples=2, rng_seed=5)
    series = rmt.rmt_otoc_mc(spec, o, o)
    A0, B = checks.product_observables(checks.cosine(N), checks.cosine(N))
    c_inf = checks.saturation(checks.cosine(N), checks.cosine(N))

    def redrawn(seed):
        return np.mean([
            checks.brute_force_otoc(checks.rmt_propagators(N, 0.2, 4, seed, s), A0, B)
            for s in range(2)
        ], axis=0)

    assert checks.check_close(series.c, redrawn(5), c_inf, "rmt") is None
    assert checks.check_close(series.c, redrawn(6), c_inf, "rmt")
    assert checks.check_close(bump(series.c, 2, 1e-9 * c_inf), redrawn(5), c_inf, "rmt")


def test_invariants(system):
    _, ref, c_inf = system
    assert checks.check_early_zero(ref, c_inf) is None
    assert checks.check_early_zero(bump(ref, 1, 1e-9 * c_inf), c_inf)
    assert checks.check_bounds(ref, c_inf) is None
    assert checks.check_bounds(bump(ref, 1, -1e-6 * c_inf), c_inf)
    assert checks.check_bounds(bump(ref, 4, 2.5 * c_inf), c_inf)


def test_lyapunov_band():
    t = np.arange(6)
    c = np.r_[0.0, 0.0, np.exp(3.9 * t[2:])] * 1e-8
    fit = otoc.fit_lyapunov_phase(otoc.OtocSeries(t, c, 0 * c, 1.0))
    assert checks.check_lyapunov_slope(fit.slope) is None
    steeper = c * np.exp(0.3 * t)
    fit = otoc.fit_lyapunov_phase(otoc.OtocSeries(t, steeper, 0 * c, 1.0))
    assert checks.check_lyapunov_slope(fit.slope)


def test_rate_references():
    mu = checks.mu_reference(32, 2 / 32)
    assert mu == pytest.approx(otoc.mu_standard_map(32, 2 / 32), rel=1e-12)
    assert checks.check_rate(1.05 * mu, 32, 2 / 32) is None
    assert checks.check_rate(1.2 * mu, 32, 2 / 32)
    assert checks.check_classical(3.93, (9.0, 10.0)) is None
    assert checks.check_classical(3.916 * 1.03, (9.0, 10.0))
    assert checks.check_classical(5.435 * 0.97, (20.0, 21.0))


def test_participation():
    pr = np.linspace(0.3, 0.95, 26)
    assert checks.check_participation(pr) is None
    assert checks.check_participation(bump(pr, 25, -0.1))
    assert checks.check_participation(bump(pr, 3, 1.0))
    assert checks.check_participation(bump(pr, 0, -0.3))


def test_tracing_counts_and_changes_nothing(tmp_path):
    p = SystemParams(N=4, K1=9.0, K2=10.0, b=0.2)
    plain = otoc.otoc_series_dense(*worker.oracle_inputs(p), 3)
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        traced = otoc.otoc_series_dense(*worker.oracle_inputs(p), 3)
        cli.write_csv(tmp_path / "x.csv", {"c": traced.c.tolist()})
    finally:
        for owner, key, original in replaced:
            setattr(owner, key, original)
    assert np.array_equal(plain.c2, traced.c2) and np.array_equal(plain.c4, traced.c4)
    summary = tracing.summarize(tracer.spans)
    assert summary["bipartite.kron_conjugate"]["calls"] == 3
    assert summary["bipartite.trace_product"]["calls"] == 8
    assert summary["operators.embed"]["calls"] == 2
    assert summary["cli.write_csv"]["calls"] == 1
    assert summary["rmt.sample_cue"]["calls"] == 0
    series = summary["otoc.otoc_series_dense"]
    children = sum(
        end - start for _, start, end, parent in tracer.spans
        if parent >= 0 and tracer.spans[parent][0] == "otoc.otoc_series_dense"
    )
    span = [s for s in tracer.spans if s[0] == "otoc.otoc_series_dense"][0]
    assert series["self_s"] == pytest.approx(span[2] - span[1] - children)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.LAYER_FIELDS) <= set(tracing.TARGETS)
