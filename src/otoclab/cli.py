"""Batch experiment runner.

One invocation executes one scenario of :data:`SCENARIOS` (rotor OTOC
variants, RMT OTOC, rate scans, classical Lyapunov, Husimi grids,
participation ratio), with parameters resolved from defaults < config file
< --set overrides.  Every run writes a CSV with the column data and a JSON
sidecar echoing the fully resolved config, the fits and the analytic
reference rates, so any output file can be regenerated bit-for-bit from its
sidecar.  A fit that cannot be made is recorded as ``<name>_error`` in the
sidecar; it does not stop the run.

Every rotor OTOC scenario (``rotor_otoc``, ``gue_otoc``, ``weak_chaos``,
``same_subspace`` and each point of ``rate_scan``) builds its series in
:func:`_rotor_series`, so ``path`` selects the dense or stochastic series
for all of them.  ``lyap_window`` is the growth-fit window of the quantum
fits and of ``classical_lyapunov`` alike.

Seeding: every random draw comes from a substream
:func:`otoclab.parallel.task_rng` (seed, k), so parallel and serial
execution produce identical results.

Workers: ``rate_scan`` runs its points, and ``rmt_otoc`` its samples,
through :func:`otoclab.parallel.map_tasks`, on min(threads, points) and
:func:`otoclab.parallel.pool_size` processes (min(samples, BLAS threads,
cpus), and at most one per POOL_MIN_WORK multiply-adds of the kicks), each
capped to ``cpus // workers`` BLAS threads, and in this process when that
is one; the ``rmt_otoc`` sidecar records its count under
``fits.monte_carlo``.  No result depends on the number of workers.
"""

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classical import classical_lyapunov
from .kicked_rotor import coupled_floquet
from .operators import SystemParams, cosine_observable, embed, gue_observable
from .otoc import (
    FitResult,
    ehrenfest_time,
    fit_lyapunov_phase,
    fit_relaxation_phase,
    linear_fit,
    mu_standard_map,
    otoc_series_dense,
    otoc_series_stochastic,
    unsaturated_points,
)
from .phasespace import (
    coherent_frame,
    evolve_product_state,
    partial_trace_over_first,
    pr_series,
    reduced_husimi,
)
from .parallel import map_tasks, task_rng
from .rmt import RmtEnsembleSpec, analytic_otoc, epsilon_from_b, mu_rmt, rmt_otoc_mc


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    scenario: str = "rotor_otoc"
    N: int = 64
    K1: float = 9.0
    K2: float = 10.0
    b: float = 0.0
    alpha: float = 0.35
    epsilon: float = 0.0
    T: int = 25
    samples: int = 100          # RMT ensemble size
    ensemble: int = 100_000     # classical trajectory count
    probes: int = 256           # stochastic-trace probe vectors
    path: str = "dense"         # 'dense' or 'stochastic'
    seed: int = 0
    threads: int = 1
    q0: float = 0.7
    p0: float = 0.3
    b_list: tuple = ()          # rate_scan points
    husimi_times: tuple = (0, 2, 4, 10)
    lyap_window: tuple = ()     # empty = automatic; also the classical fit
    relax_window: tuple = ()
    out: str = "results"

    def system_params(self):
        return SystemParams(N=self.N, K1=self.K1, K2=self.K2, b=self.b, alpha=self.alpha)


@dataclass
class ResultRecord:
    scenario: str
    config: dict
    columns: dict
    fits: dict = field(default_factory=dict)
    analytic: dict = field(default_factory=dict)
    version: str = __version__
    wall_clock_s: float = 0.0
    files: tuple = ()


def _coerce(name, raw, target_type):
    try:
        if target_type is tuple:
            if raw == "":
                return ()
            return tuple(float(x) if "." in x or "e" in x.lower() else int(x)
                         for x in raw.split(","))
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: cannot parse {raw!r}") from exc


def load_config(path=None, overrides=()):
    """Flat key=value config file plus command-line overrides (which win)."""
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    values = {}

    def ingest(text, origin):
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{origin}:{lineno}: expected key=value, got {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"{origin}:{lineno}: unknown field {key!r}")
            values[key] = _coerce(key, raw, fields[key])

    if path is not None:
        ingest(Path(path).read_text(), str(path))
    ingest("\n".join(overrides), "--set")
    cfg = ExperimentConfig(**values)
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    if cfg.path not in ("dense", "stochastic"):
        raise ConfigError(f"unknown path {cfg.path!r}; choose from dense, stochastic")
    if not 0.0 <= cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in [0, 1), got {cfg.epsilon!r}")
    return cfg


def _fit_dict(fit):
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "slope_stderr": fit.slope_stderr,
        "window": list(fit.window),
    }


def _series_columns(series):
    cols = {
        "t": series.times.tolist(),
        "c2": series.c2.tolist(),
        "c4": series.c4.tolist(),
        "c": series.c.tolist(),
        "c_norm": series.c_norm.tolist(),
    }
    if series.c_err is not None:
        cols["c_err"] = series.c_err.tolist()
    return cols


def _window_or_none(cfg_window):
    return tuple(int(v) for v in cfg_window) if cfg_window else None


def _try_fit(fits, name, fit):
    """Store ``fit()`` as ``fits[name]``; if the fit cannot be made, store
    its reason as ``fits[name + "_error"]`` so the run still writes its
    series."""
    try:
        fits[name] = fit()
    except ValueError as exc:
        fits[f"{name}_error"] = str(exc)


def _phase_fits(series, cfg):
    fits = {}
    _try_fit(fits, "lyapunov", lambda: _fit_dict(
        fit_lyapunov_phase(series, _window_or_none(cfg.lyap_window))
    ))
    _try_fit(fits, "relaxation", lambda: _fit_dict(
        fit_relaxation_phase(series, _window_or_none(cfg.relax_window))
    ))
    return fits


def _loglog_fit(series):
    """Power law of 1 - C/C_inf in t from t = 5 on, for weak chaos."""
    mask = (series.times >= 5) & (1 - series.c_norm > 0)
    slope, intercept, stderr = linear_fit(
        np.log(series.times[mask]), np.log(1 - series.c_norm[mask])
    )
    return {"slope": slope, "intercept": intercept, "slope_stderr": stderr}


def _analytic_refs(cfg):
    refs = {}
    # the RMT model has no kick strength; its relaxation fit takes t_EF = 1
    if cfg.scenario != "rmt_otoc":
        try:
            refs["t_ehrenfest"] = ehrenfest_time(cfg.N, max(cfg.K1, cfg.K2))
        except ValueError:
            pass
    if cfg.b > 0:
        try:
            refs["mu_standard_map"] = mu_standard_map(cfg.N, cfg.b)
        except ValueError:
            pass
        eps = epsilon_from_b(cfg.N, cfg.b)
        refs["epsilon_from_b"] = eps
        if 0 < eps < 1:
            refs["mu_rmt_of_b"] = mu_rmt(eps)
    if cfg.epsilon > 0:
        refs["mu_rmt"] = mu_rmt(cfg.epsilon)
        # closed-form C(t)/C_inf for observables diagonal in the interaction
        # basis, as the cosine observables are
        refs["c_norm_rmt"] = [0.0] + [
            analytic_otoc(cfg.epsilon, t, 1.0, 1.0, diagonal_observables=True)
            for t in range(1, cfg.T + 1)
        ]
    return refs


def _rotor_series(cfg, o1, o2, side2="right"):
    """OTOC series of A = o1 x I against o2 on ``side2`` of the product
    space, on the path ``cfg.path`` selects.  Every stochastic series draws
    its probes from substream 0, so the points of a rate scan share them."""
    F = coupled_floquet(cfg.system_params())
    a0 = embed(o1, "left", cfg.N)
    b0 = embed(o2, side2, cfg.N)
    if cfg.path == "stochastic":
        return otoc_series_stochastic(
            F, a0, b0, cfg.T, cfg.probes, task_rng(cfg.seed, 0)
        )
    return otoc_series_dense(F, a0, b0, cfg.T)


def _gue_pair(cfg):
    return tuple(gue_observable(cfg.N, task_rng(cfg.seed, k)) for k in (1, 2))


def _run_rotor_otoc(cfg, out, stem):
    o = cosine_observable(cfg.N, cfg.alpha)
    series = _rotor_series(cfg, o, o)
    return _series_columns(series), _phase_fits(series, cfg), []


def _run_gue_otoc(cfg, out, stem):
    series = _rotor_series(cfg, *_gue_pair(cfg))
    return _series_columns(series), _phase_fits(series, cfg), []


def _run_weak_chaos(cfg, out, stem):
    series = _rotor_series(cfg, *_gue_pair(cfg))
    fits = _phase_fits(series, cfg)
    _try_fit(fits, "loglog", lambda: _loglog_fit(series))
    return _series_columns(series), fits, []


def _run_same_subspace(cfg, out, stem):
    o = cosine_observable(cfg.N, cfg.alpha)
    series = _rotor_series(cfg, o, o, side2="left")
    return _series_columns(series), _phase_fits(series, cfg), []


def _run_rmt(cfg, out, stem):
    spec = RmtEnsembleSpec(
        N=cfg.N, epsilon=cfg.epsilon, T=cfg.T, samples=cfg.samples, rng_seed=cfg.seed
    )
    o = cosine_observable(cfg.N, cfg.alpha)
    series = rmt_otoc_mc(spec, o, o)
    fits = {"monte_carlo": {
        k: series.meta[k] for k in ("workers", "worker_blas_threads")
    }}
    _try_fit(fits, "relaxation", lambda: _fit_dict(
        fit_relaxation_phase(series, _window_or_none(cfg.relax_window), t_ef=1.0)
    ))
    return _series_columns(series), fits, []


def _rate_point(cfg):
    o = cosine_observable(cfg.N, cfg.alpha)
    series = _rotor_series(cfg, o, o)
    # not _try_fit: a point that cannot be fitted fails the scan
    fit = fit_relaxation_phase(series, _window_or_none(cfg.relax_window))
    eps = epsilon_from_b(cfg.N, cfg.b)
    return {
        "b": cfg.b,
        "mu_fit": -fit.slope,
        "mu_fit_err": fit.slope_stderr,
        "mu_analytic": mu_standard_map(cfg.N, cfg.b),
        "epsilon": eps,
        "mu_rmt": mu_rmt(eps) if 0 < eps < 1 else float("nan"),
    }


def _run_rate_scan(cfg, out, stem):
    if not cfg.b_list:
        raise ConfigError("rate_scan needs b_list (field 'b_list', comma separated)")
    points = map_tasks(
        _rate_point, [dataclasses.replace(cfg, b=float(b)) for b in cfg.b_list], cfg.threads
    )
    cols = {k: [p[k] for p in points] for k in points[0]}
    return cols, {}, []


def _run_classical(cfg, out, stem):
    fit = classical_lyapunov(
        cfg.K1, cfg.K2, cfg.b,
        ensemble=cfg.ensemble,
        fit_window=_window_or_none(cfg.lyap_window),
        rng=task_rng(cfg.seed, 0),
    )
    cols = {"two_lambda_cl": [fit.slope], "stderr": [fit.slope_stderr]}
    return cols, {"classical_lyapunov": _fit_dict(fit)}, []


def _pr_relaxation(pr, cfg):
    """Slope of ln(1 - PR) past the Ehrenfest time, above twice the
    smallest gap."""
    gap = 1.0 - pr
    t_ef = ehrenfest_time(cfg.N, max(cfg.K1, cfg.K2))
    ts = np.arange(cfg.T + 1)
    good = unsaturated_points(ts, gap, t_ef, 2.0 * max(gap.min(), 1e-12))
    return FitResult(
        *linear_fit(ts[good], np.log(gap[good])), (int(ts[good[0]]), int(ts[good[-1]]))
    )


def _run_pr_series(cfg, out, stem):
    F = coupled_floquet(cfg.system_params())
    pr = pr_series(F, cfg.q0, cfg.p0, cfg.T)
    cols = {"t": list(range(cfg.T + 1)), "pr": pr.tolist()}
    fits = {}
    _try_fit(fits, "pr_relaxation", lambda: _fit_dict(_pr_relaxation(pr, cfg)))
    return cols, fits, []


def _run_husimi(cfg, out, stem):
    F = coupled_floquet(cfg.system_params())
    frame = coherent_frame(cfg.N, cfg.alpha)
    times = [int(t) for t in cfg.husimi_times]
    states = evolve_product_state(F, cfg.q0, cfg.p0, max(times), frame=frame)
    files = []
    for t in times:
        rho_b = partial_trace_over_first(states[t], cfg.N)
        grid = reduced_husimi(rho_b, frame)
        # rows are p indices, columns q indices
        path = out / f"{stem}_grid_t{t}.csv"
        np.savetxt(path, grid.T, delimiter=",", fmt="%.17g")
        files.append(str(path))
    cols = {"t": times, "grid_file": [Path(f).name for f in files]}
    meta = {"husimi": {"normalization": float(cfg.N), "layout": "rows p, columns q"}}
    return cols, meta, files


# Scenario name -> runner(cfg, out_dir, file_stem) -> (columns, fits, extra_files)
SCENARIOS = {
    "rotor_otoc": _run_rotor_otoc,
    "rmt_otoc": _run_rmt,
    "rate_scan": _run_rate_scan,
    "classical_lyapunov": _run_classical,
    "husimi": _run_husimi,
    "pr_series": _run_pr_series,
    "same_subspace": _run_same_subspace,
    "gue_otoc": _run_gue_otoc,
    "weak_chaos": _run_weak_chaos,
}


def run(config, out_dir=None):
    """Execute one scenario and write CSV + JSON into the output directory."""
    t_start = time.time()
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = f"{config.scenario}_{stamp}"
    counter = 0
    while (out / f"{stem}.csv").exists():
        counter += 1
        stem = f"{config.scenario}_{stamp}_{counter}"

    cols, fits, extra_files = SCENARIOS[config.scenario](config, out, stem)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    write_csv(csv_path, cols)
    record = ResultRecord(
        scenario=config.scenario,
        config=dataclasses.asdict(config),
        columns=cols,
        fits=fits,
        analytic=_analytic_refs(config),
        wall_clock_s=time.time() - t_start,
        files=tuple([str(csv_path)] + extra_files),
    )
    # the record's fields in order, with file names in place of the columns
    sidecar = dataclasses.asdict(record)
    del sidecar["columns"], sidecar["files"]
    sidecar.update(csv=csv_path.name, extra_files=[Path(f).name for f in extra_files])
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
    return record


def write_csv(path, cols):
    names = list(cols)
    lengths = {len(v) for v in cols.values()}
    if len(lengths) != 1:
        raise ValueError("all columns must have equal length")

    def fmt(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _config_from_argv(argv):
    """The resolved config of an ``otoclab`` command line; runs nothing."""
    parser = argparse.ArgumentParser(
        prog="otoclab", description="coupled kicked-rotor scrambling experiments"
    )
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (repeatable)")
    parser.add_argument("--scenario", type=str, default=None, choices=SCENARIOS)
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    overrides = list(args.set)
    for key in ("scenario", "out", "seed", "threads"):
        val = getattr(args, key)
        if val is not None:
            overrides.append(f"{key}={val}")
    return load_config(args.config, overrides)


def main(argv=None):
    try:
        record = run(_config_from_argv(argv))
    except (ValueError, FloatingPointError, RuntimeError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1
    print(f"wrote {record.files[0]}")
    for name, fit in record.fits.items():
        print(f"  {name}: {json.dumps(fit)}")
    for name, value in record.analytic.items():
        print(f"  {name} = {json.dumps(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
