"""Batch experiment runner.

One invocation executes one scenario from the matrix (rotor OTOC variants,
RMT OTOC, rate scans, classical Lyapunov, Husimi grids, participation
ratio), with parameters resolved from defaults < config file < --set
overrides.  Every run writes a CSV with the column data and a JSON sidecar
echoing the fully resolved config, the fits and the analytic reference
rates, so any output file can be regenerated bit-for-bit from its sidecar.

Seeding: the master seed is split into per-task substreams with
``np.random.SeedSequence(seed, spawn_key=(task_index,))`` so parallel and
serial execution produce identical results.

Threads: each of the ``threads`` rate-scan worker processes caps its
OpenBLAS to ``cpus // threads`` threads, so the workers do not oversubscribe
the CPUs; the calling process keeps its own thread count.
"""

import argparse
import ctypes
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classical import classical_lyapunov
from .kicked_rotor import coupled_floquet
from .operators import SystemParams, cosine_observable, embed, gue_observable
from .otoc import (
    ehrenfest_time,
    fit_lyapunov_phase,
    fit_relaxation_phase,
    linear_fit,
    mu_standard_map,
    otoc_series_dense,
    otoc_series_stochastic,
    same_subspace_series,
)
from .phasespace import coherent_frame, partial_trace_over_first, pr_series, reduced_husimi
from .rmt import RmtEnsembleSpec, epsilon_from_b, mu_rmt, rmt_otoc_mc

SCENARIOS = (
    "rotor_otoc",
    "rmt_otoc",
    "rate_scan",
    "classical_lyapunov",
    "husimi",
    "pr_series",
    "same_subspace",
    "gue_otoc",
    "weak_chaos",
)


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
    lyap_window: tuple = ()     # empty = automatic
    relax_window: tuple = ()
    fit_t_min: int = 2          # classical fit window
    fit_t_max: int = 5
    out: str = "results"

    def system_params(self):
        return SystemParams(
            N=self.N, K1=self.K1, K2=self.K2, b=self.b,
            alpha=self.alpha, epsilon=self.epsilon,
        )


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
            ftype = {"int": int, "float": float, "str": str, "tuple": tuple}[
                fields[key] if isinstance(fields[key], str) else fields[key].__name__
            ]
            values[key] = _coerce(key, raw, ftype)

    if path is not None:
        ingest(Path(path).read_text(), str(path))
    ingest("\n".join(overrides), "--set")
    cfg = ExperimentConfig(**values)
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    return cfg


def _task_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


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


def _standard_fits(series, cfg, loglog=False):
    fits = {}
    try:
        fits["lyapunov"] = _fit_dict(
            fit_lyapunov_phase(series, _window_or_none(cfg.lyap_window))
        )
    except ValueError as exc:
        fits["lyapunov_error"] = str(exc)
    try:
        fits["relaxation"] = _fit_dict(
            fit_relaxation_phase(series, _window_or_none(cfg.relax_window))
        )
    except ValueError as exc:
        fits["relaxation_error"] = str(exc)
    if loglog:
        mask = (series.times >= 5) & (1 - series.c_norm > 0)
        slope, intercept, stderr = linear_fit(
            np.log(series.times[mask]), np.log(1 - series.c_norm[mask])
        )
        fits["loglog"] = {"slope": slope, "intercept": intercept, "slope_stderr": stderr}
    return fits


def _rotor_observables(cfg):
    if cfg.scenario in ("gue_otoc", "weak_chaos"):
        o1 = gue_observable(cfg.N, np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
        o2 = gue_observable(cfg.N, np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
    else:
        o1 = cosine_observable(cfg.N, cfg.alpha)
        o2 = cosine_observable(cfg.N, cfg.alpha)
    return o1, o2


def _analytic_refs(cfg):
    refs = {}
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
    return refs


def _run_rotor(cfg):
    params = cfg.system_params()
    F = coupled_floquet(params)
    o1, o2 = _rotor_observables(cfg)
    meta = {"scenario": cfg.scenario}
    if cfg.scenario == "same_subspace":
        series = same_subspace_series(F, o1, o2, cfg.T, meta=meta)
    else:
        a0 = embed(o1, "left", cfg.N)
        b0 = embed(o2, "right", cfg.N)
        if cfg.path == "stochastic":
            series = otoc_series_stochastic(
                F, a0, b0, cfg.T, cfg.probes, _task_rng(cfg.seed, 0), meta=meta
            )
        else:
            series = otoc_series_dense(F, a0, b0, cfg.T, meta=meta)
    fits = _standard_fits(series, cfg, loglog=(cfg.scenario == "weak_chaos"))
    return _series_columns(series), fits


def _run_rmt(cfg):
    spec = RmtEnsembleSpec(
        N=cfg.N, epsilon=cfg.epsilon, T=cfg.T, samples=cfg.samples, rng_seed=cfg.seed
    )
    o = cosine_observable(cfg.N, cfg.alpha)
    series = rmt_otoc_mc(spec, o, o)
    fits = {}
    try:
        fits["relaxation"] = _fit_dict(
            fit_relaxation_phase(
                series, _window_or_none(cfg.relax_window), t_ef=1.0
            )
        )
    except ValueError as exc:
        fits["relaxation_error"] = str(exc)
    return _series_columns(series), fits


def _rate_point(args):
    cfg_dict, b, index = args
    cfg = ExperimentConfig(**cfg_dict)
    cfg.b = b
    cfg.scenario = "rotor_otoc"
    params = cfg.system_params()
    F = coupled_floquet(params)
    o = cosine_observable(cfg.N, cfg.alpha)
    series = otoc_series_dense(
        F, embed(o, "left", cfg.N), embed(o, "right", cfg.N), cfg.T
    )
    fit = fit_relaxation_phase(series, _window_or_none(cfg.relax_window))
    eps = epsilon_from_b(cfg.N, b)
    return {
        "b": b,
        "mu_fit": -fit.slope,
        "mu_fit_err": fit.slope_stderr,
        "mu_analytic": mu_standard_map(cfg.N, b),
        "epsilon": eps,
        "mu_rmt": mu_rmt(eps) if 0 < eps < 1 else float("nan"),
    }


def _openblas_symbol(kind):
    """The ``openblas_{kind}_num_threads`` function of the OpenBLAS that
    numpy loaded, or None where it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{kind}_num_threads64_", f"openblas_{kind}_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def blas_threads():
    """Current OpenBLAS thread count of this process, or None."""
    getter = _openblas_symbol("get")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _cap_blas_threads(count):
    setter = _openblas_symbol("set")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(count)


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def scan_pool(threads):
    """Process pool of ``threads`` workers, each capped to its share of the
    CPUs in BLAS threads."""
    return ProcessPoolExecutor(
        max_workers=threads,
        initializer=_cap_blas_threads,
        initargs=(max(1, _cpu_count() // threads),),
    )


def _run_rate_scan(cfg):
    if not cfg.b_list:
        raise ConfigError("rate_scan needs b_list (field 'b_list', comma separated)")
    jobs = [
        (dataclasses.asdict(cfg), float(b), i) for i, b in enumerate(cfg.b_list)
    ]
    if cfg.threads > 1:
        with scan_pool(cfg.threads) as pool:
            points = list(pool.map(_rate_point, jobs))
    else:
        points = [_rate_point(j) for j in jobs]
    cols = {k: [p[k] for p in points] for k in points[0]}
    return cols, {}


def _run_classical(cfg):
    fit = classical_lyapunov(
        cfg.K1, cfg.K2, cfg.b,
        ensemble=cfg.ensemble,
        fit_window=(cfg.fit_t_min, cfg.fit_t_max),
        rng=_task_rng(cfg.seed, 0),
    )
    cols = {"two_lambda_cl": [fit.slope], "stderr": [fit.slope_stderr]}
    return cols, {"classical_lyapunov": _fit_dict(fit)}


def _run_pr_series(cfg):
    F = coupled_floquet(cfg.system_params())
    pr = pr_series(F, cfg.q0, cfg.p0, cfg.T)
    cols = {"t": list(range(cfg.T + 1)), "pr": pr.tolist()}
    fits = {}
    gap = 1.0 - pr
    t_ef = ehrenfest_time(cfg.N, max(cfg.K1, cfg.K2))
    t_min = int(np.ceil(t_ef)) + 1
    floor = 2.0 * max(gap.min(), 1e-12)
    ts = np.arange(cfg.T + 1)
    mask = (ts >= t_min) & (gap > floor)
    if mask.sum() >= 3:
        slope, intercept, stderr = linear_fit(ts[mask], np.log(gap[mask]))
        fits["pr_relaxation"] = {
            "slope": slope, "intercept": intercept, "slope_stderr": stderr,
            "window": [int(ts[mask][0]), int(ts[mask][-1])],
        }
    return cols, fits


def _run_husimi(cfg, out_dir, stem):
    from .phasespace import evolve_product_state

    F = coupled_floquet(cfg.system_params())
    frame = coherent_frame(cfg.N, cfg.alpha)
    times = [int(t) for t in cfg.husimi_times]
    states = evolve_product_state(F, cfg.q0, cfg.p0, max(times), frame=frame)
    files = []
    for t in times:
        rho_b = partial_trace_over_first(states[t], cfg.N)
        grid = reduced_husimi(rho_b, frame)
        # rows are p indices, columns q indices
        path = out_dir / f"{stem}_grid_t{t}.csv"
        np.savetxt(path, grid.values.T, delimiter=",", fmt="%.17g")
        files.append(str(path))
    cols = {"t": times, "grid_file": [Path(f).name for f in files]}
    meta = {"husimi": {"normalization": float(cfg.N), "layout": "rows p, columns q"}}
    return cols, meta, files


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

    extra_files = []
    if config.scenario in ("rotor_otoc", "same_subspace", "gue_otoc", "weak_chaos"):
        cols, fits = _run_rotor(config)
    elif config.scenario == "rmt_otoc":
        cols, fits = _run_rmt(config)
    elif config.scenario == "rate_scan":
        cols, fits = _run_rate_scan(config)
    elif config.scenario == "classical_lyapunov":
        cols, fits = _run_classical(config)
    elif config.scenario == "pr_series":
        cols, fits = _run_pr_series(config)
    elif config.scenario == "husimi":
        cols, fits, extra_files = _run_husimi(config, out, stem)
    else:
        raise ConfigError(f"unknown scenario {config.scenario!r}")

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
    with open(json_path, "w") as fh:
        json.dump(
            {
                "scenario": record.scenario,
                "config": record.config,
                "fits": record.fits,
                "analytic": record.analytic,
                "version": record.version,
                "wall_clock_s": record.wall_clock_s,
                "csv": csv_path.name,
                "extra_files": [Path(f).name for f in extra_files],
            },
            fh,
            indent=2,
        )
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


def compare(record_a, record_b, tolerances=None, default_tol=0.0):
    """Column-wise relative comparison of two result records.

    ``tolerances`` maps column names to allowed max relative deviation;
    unknown columns fall back to ``default_tol``.  Returns a report dict
    with per-column deviations and an overall pass flag.
    """
    cols_a, cols_b = record_a.columns, record_b.columns
    if set(cols_a) != set(cols_b):
        raise ValueError(
            f"schema mismatch: {sorted(cols_a)} vs {sorted(cols_b)}"
        )
    tolerances = tolerances or {}
    report = {"columns": {}, "passed": True}
    for name in cols_a:
        a = np.asarray(cols_a[name])
        b = np.asarray(cols_b[name])
        if a.dtype.kind not in "fiu" or b.dtype.kind not in "fiu":
            dev = 0.0 if list(a) == list(b) else float("inf")
        else:
            # equal entries, NaN against NaN included, deviate by zero
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            scale = np.maximum(np.abs(a), np.abs(b))
            scale[scale == 0] = 1.0
            with np.errstate(invalid="ignore"):
                rel = np.where(same, 0.0, np.abs(a - b) / scale)
            dev = float(np.nan_to_num(rel, nan=np.inf).max()) if a.size else 0.0
        tol = tolerances.get(name, default_tol)
        ok = dev <= tol
        report["columns"][name] = {"max_rel_dev": dev, "tol": tol, "passed": ok}
        report["passed"] &= ok
    return report


def compare_with_stderr(record_a, record_b, value_col, err_col, n_sigma=3.0):
    """Pass when |a - b| <= n_sigma * combined standard error, per row."""
    a = np.asarray(record_a.columns[value_col], dtype=float)
    b = np.asarray(record_b.columns[value_col], dtype=float)
    ea = np.asarray(record_a.columns.get(err_col, np.zeros_like(a)), dtype=float)
    eb = np.asarray(record_b.columns.get(err_col, np.zeros_like(b)), dtype=float)
    band = n_sigma * np.sqrt(ea**2 + eb**2)
    ok = np.abs(a - b) <= band
    return {"passed": bool(ok.all()), "violations": int((~ok).sum())}


def main(argv=None):
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
    try:
        config = load_config(args.config, overrides)
        record = run(config)
    except (ValueError, FloatingPointError, RuntimeError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1
    print(f"wrote {record.files[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
