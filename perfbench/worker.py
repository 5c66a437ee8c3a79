"""One round of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
       [--trace 0|1] [--setup-only]

Prints one JSON object: the monotonic clock reading at the end of set-up
(the caller subtracts its own reading taken just before starting this
process), solve wall time, CPU time of this process and its children over
the solve, peak RSS, each operation's outcome and a digest of its output.
Checks run after the solve and are not timed.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from otoclab import (  # noqa: E402
    classical,
    cli,
    kicked_rotor,
    operators,
    otoc,
    phasespace,
    rmt,
)
from otoclab.operators import SystemParams  # noqa: E402

N_BIG = 64
KICKS = (9.0, 10.0)
ALPHA = 0.35
# Rate-scan points at N = 32, as N*b; Nb = 4 is the known-fault point.
SCAN_N, SCAN_T = 32, 25
SCAN_NB = (0.5, 1.0, 2.0, 3.0)
FAULT_NB = 4.0
# Brute-force oracles stay at N <= 12, where full N^2 x N^2 products are cheap.
ORACLE_N, ORACLE_T = 12, 6
RMT_ORACLE_N, RMT_ORACLE_T, RMT_ORACLE_SAMPLES = 8, 6, 2


def seeded(seed, stream):
    """Independent generator per use, so streams never overlap."""
    return np.random.default_rng([seed, stream])


def series_columns(series):
    """Same columns as the CLI's rotor CSV."""
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


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def oracle_system(seed):
    """Random small rotor for the brute-force comparison, drawn from the seed
    in the ranges acceptance criterion 11 uses."""
    rng = seeded(seed, 4)
    return SystemParams(
        N=ORACLE_N,
        K1=float(rng.uniform(5, 15)),
        K2=float(rng.uniform(5, 15)),
        b=float(rng.uniform(0.0, 3 / ORACLE_N)),
        alpha=ALPHA,
    )


def oracle_reference(p, T=ORACLE_T):
    U = checks.rotor_propagator(p.N, p.K1, p.K2, p.b, p.alpha)
    o = checks.cosine(p.N, p.alpha)
    A0, B = checks.product_observables(o, o)
    return checks.brute_force_otoc([U] * T, A0, B), checks.saturation(o, o)


def embedded_cosines(N):
    """A0 = O x I and B0 = I x O for the cosine observable O."""
    o = operators.cosine_observable(N, ALPHA)
    return operators.embed(o, "left", N), operators.embed(o, "right", N)


def rotor_n64(b):
    return kicked_rotor.coupled_floquet(
        SystemParams(N=N_BIG, K1=KICKS[0], K2=KICKS[1], b=b, alpha=ALPHA)
    )


def oracle_inputs(p):
    return (kicked_rotor.coupled_floquet(p), *embedded_cosines(p.N))


def series_checks(series, lyapunov):
    c, c_inf = series.c, series.c_infinity
    return [
        checks.check_early_zero(c, c_inf),
        checks.check_bounds(c, c_inf),
        checks.check_lyapunov_slope(lyapunov.slope),
    ]


class Op:
    """One operation of a round.  ``error`` is the exception it raised;
    ``wrong`` the first check its output failed.  Either counts it failed."""

    def __init__(self, name):
        self.name = name
        self.error = None
        self.wrong = None
        self.digest = None
        self.value = None

    def fail(self, reason):
        if reason and self.wrong is None:
            self.wrong = reason


def attempt(op, fn):
    """Run one operation; an exception marks it failed, the round goes on."""
    try:
        op.value = fn()
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        op.error = f"{type(exc).__name__}: {exc}"


# --- workloads -------------------------------------------------------------


class DenseN64:
    """rotor_otoc on the dense path through the Lyapunov phase (kicks 0..4)."""

    T = 4

    def setup(self, seed):
        self.seed = seed
        self.F = rotor_n64(1 / N_BIG)
        self.a0, self.b0 = embedded_cosines(N_BIG)

    def solve(self, out):
        op = Op("rotor_dense")

        def run():
            series = otoc.otoc_series_dense(
                self.F, self.a0, self.b0, self.T, meta={"scenario": "rotor_otoc"}
            )
            fit = otoc.fit_lyapunov_phase(series)
            cli.write_csv(out / "rotor_dense.csv", series_columns(series))
            return series, fit

        attempt(op, run)
        return [op]

    def check(self, ops, out):
        (op,) = ops
        if op.error is None:
            series, fit = op.value
            for reason in series_checks(series, fit):
                op.fail(reason)
            p = oracle_system(self.seed)
            ref, c_inf = oracle_reference(p)
            small = otoc.otoc_series_dense(*oracle_inputs(p), ORACLE_T)
            op.fail(checks.check_close(small.c, ref, c_inf, "dense series"))
            op.digest = digest(out / "rotor_dense.csv")


class ProbesN64:
    """rotor_otoc on the stochastic path plus the participation-ratio series."""

    T = 4
    PROBES = 256
    PR_T = 25
    Q0, P0 = 0.7, 0.3

    def setup(self, seed):
        self.seed = seed
        self.F = rotor_n64(1 / N_BIG)
        # The CLI embeds both observables before it picks a path.
        self.a0, self.b0 = embedded_cosines(N_BIG)
        self.F_pr = rotor_n64(4 / N_BIG)
        self.frame = phasespace.coherent_frame(N_BIG, ALPHA)

    def solve(self, out):
        stoch, pr = Op("rotor_stochastic"), Op("pr_series")

        def run_stochastic():
            series = otoc.otoc_series_stochastic(
                self.F, self.a0, self.b0, self.T, self.PROBES, seeded(self.seed, 1),
                meta={"scenario": "rotor_otoc"},
            )
            # The default window starts at the first C(t) > 0, which on this
            # path is sometimes C(1) = +1e-16 roundoff; fit t = 2..4 instead.
            fit = otoc.fit_lyapunov_phase(series, window=(2, 4))
            cli.write_csv(out / "rotor_stochastic.csv", series_columns(series))
            return series, fit

        def run_pr():
            values = phasespace.pr_series(self.F_pr, self.Q0, self.P0, self.PR_T, frame=self.frame)
            cli.write_csv(
                out / "pr_series.csv",
                {"t": list(range(self.PR_T + 1)), "pr": values.tolist()},
            )
            return values

        attempt(stoch, run_stochastic)
        attempt(pr, run_pr)
        return [stoch, pr]

    def check(self, ops, out):
        stoch, pr = ops
        if stoch.error is None:
            series, fit = stoch.value
            for reason in series_checks(series, fit):
                stoch.fail(reason)
            p = oracle_system(self.seed)
            ref, c_inf = oracle_reference(p)
            small = otoc.otoc_series_stochastic(
                *oracle_inputs(p), ORACLE_T, self.PROBES, seeded(self.seed, 5)
            )
            stoch.fail(checks.check_within_errors(small.c, small.c_err, ref, c_inf))
            stoch.digest = digest(out / "rotor_stochastic.csv")
        if pr.error is None:
            pr.fail(checks.check_participation(pr.value, self.PR_T))
            pr.digest = digest(out / "pr_series.csv")


class Ensembles:
    """RMT Monte Carlo, the rate scan through the CLI's process pool, the
    known-fault scan point and two classical Lyapunov ensembles."""

    RMT_N, RMT_EPS, RMT_T, RMT_SAMPLES = 16, 0.1, 12, 100
    CLASSICAL_B = 1 / N_BIG
    CLASSICAL_KICKS = ((9.0, 10.0), (20.0, 21.0))
    ENSEMBLE = 100_000
    THREADS = 2

    def setup(self, seed):
        self.seed = seed
        self.serial_digest = None
        self.o = operators.cosine_observable(self.RMT_N, ALPHA)
        self.spec = rmt.RmtEnsembleSpec(
            N=self.RMT_N, epsilon=self.RMT_EPS, T=self.RMT_T,
            samples=self.RMT_SAMPLES, rng_seed=seed,
        )

    def scan_config(self, nbs, threads):
        b_list = ",".join(repr(nb / SCAN_N) for nb in nbs)
        return cli.load_config(None, [
            "scenario=rate_scan", f"N={SCAN_N}", f"T={SCAN_T}", f"alpha={ALPHA}",
            f"K1={KICKS[0]}", f"K2={KICKS[1]}", f"b_list={b_list}",
            f"threads={threads}", f"seed={self.seed}",
        ])

    def solve(self, out):
        mc = Op("rmt_mc")
        scan = [Op(f"rate_scan_nb{nb:g}") for nb in SCAN_NB]
        fault = Op(f"rate_scan_nb{FAULT_NB:g}")
        lyap = [Op(f"classical_k{k1:g}") for k1, _ in self.CLASSICAL_KICKS]

        def run_mc():
            series = rmt.rmt_otoc_mc(self.spec, self.o, self.o)
            fit = otoc.fit_relaxation_phase(series, t_ef=1.0)
            cli.write_csv(out / "rmt_mc.csv", series_columns(series))
            return series, fit

        def run_scan(nbs, threads, sub):
            return cli.run(self.scan_config(nbs, threads), out_dir=out / sub)

        attempt(mc, run_mc)
        # One CLI call computes every point; each point is its own operation.
        whole_scan = Op("rate_scan")
        attempt(whole_scan, lambda: run_scan(SCAN_NB, self.THREADS, "scan"))
        for op in scan:
            op.error, op.value = whole_scan.error, whole_scan.value
        attempt(fault, lambda: run_scan((FAULT_NB,), 1, "fault"))
        for op, (k1, k2), stream in zip(lyap, self.CLASSICAL_KICKS, (2, 3)):
            def run_classical(k1=k1, k2=k2, stream=stream, name=op.name):
                fit = classical.classical_lyapunov(
                    k1, k2, self.CLASSICAL_B, ensemble=self.ENSEMBLE,
                    rng=seeded(self.seed, stream),
                )
                cli.write_csv(
                    out / f"{name}.csv",
                    {"two_lambda_cl": [fit.slope], "stderr": [fit.slope_stderr]},
                )
                return fit

            attempt(op, run_classical)
        return [mc, *scan, fault, *lyap]

    def serial_scan(self, out):
        """The same scan with one process; returns its wall time.  Its CSV
        must equal the 2-worker scan's, which :meth:`check` verifies."""
        start = time.perf_counter()
        record = cli.run(self.scan_config(SCAN_NB, 1), out_dir=out / "scan_serial")
        wall = time.perf_counter() - start
        self.serial_digest = digest(record.files[0])
        return wall

    def check(self, ops, out):
        mc, *rest = ops
        scan, fault, lyap = rest[: len(SCAN_NB)], rest[len(SCAN_NB)], rest[len(SCAN_NB) + 1:]
        if mc.error is None:
            series, _ = mc.value
            mc.fail(checks.check_early_zero(series.c, series.c_infinity))
            mc.fail(checks.check_bounds(series.c, series.c_infinity))
            mc.fail(self.rmt_oracle())
            mc.digest = digest(out / "rmt_mc.csv")
        for i, op in enumerate(scan):
            if op.error is None:
                mu = op.value.columns["mu_fit"][i]
                op.fail(checks.check_rate(mu, SCAN_N, SCAN_NB[i] / SCAN_N))
                op.digest = digest(op.value.files[0])
                if self.serial_digest not in (None, op.digest):
                    op.fail("serial and 2-worker rate scans wrote different CSVs")
        if fault.error is None:
            mu = fault.value.columns["mu_fit"][0]
            fault.fail(checks.check_rate(mu, SCAN_N, FAULT_NB / SCAN_N))
            fault.digest = digest(fault.value.files[0])
        for op, kicks in zip(lyap, self.CLASSICAL_KICKS):
            if op.error is None:
                op.fail(checks.check_classical(op.value.slope, kicks))
                op.digest = digest(out / f"{op.name}.csv")

    def rmt_oracle(self):
        """Mean over the first samples against the same kicks re-drawn."""
        N, T, S = RMT_ORACLE_N, RMT_ORACLE_T, RMT_ORACLE_SAMPLES
        spec = rmt.RmtEnsembleSpec(N=N, epsilon=self.RMT_EPS, T=T, samples=S, rng_seed=self.seed)
        o_small = operators.cosine_observable(N, ALPHA)
        small = rmt.rmt_otoc_mc(spec, o_small, o_small)
        o = checks.cosine(N, ALPHA)
        A0, B = checks.product_observables(o, o)
        ref = np.mean([
            checks.brute_force_otoc(checks.rmt_propagators(N, self.RMT_EPS, T, self.seed, s), A0, B)
            for s in range(S)
        ], axis=0)
        return checks.check_close(small.c, ref, checks.saturation(o, o), "RMT sample mean")


WORKLOADS = {"dense_n64": DenseN64, "probes_n64": ProbesN64, "ensembles": Ensembles}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if args.setup_only:
        print(json.dumps(result))
        return

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    ops = workload.solve(args.out)
    result["solve_s"] = time.perf_counter() - start
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0

    if tracer is not None:
        tracer.enabled = False
        tracer.write(args.out / "spans.json")
        if isinstance(workload, Ensembles):
            _, start, end, _ = next(s for s in tracer.spans if s[0] == "cli.run")
            result["speedup"] = workload.serial_scan(args.out) / (end - start)

    workload.check(ops, args.out)
    result["ops"] = [[op.name, op.error, op.wrong] for op in ops]
    result["digests"] = {op.name: op.digest for op in ops}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
