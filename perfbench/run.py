"""Benchmark of otoclab's two-phase OTOC, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_n64 --seed 1 --seconds 20 --trace 0

Each round of a workload runs in a fresh interpreter (``perfbench/worker.py``);
rounds repeat until the next one would end past ``--seconds`` (at least
one).  With ``--trace 0`` the last line of standard output is the
end-to-end result; with ``--trace 1`` an untraced round runs first, then
traced rounds, and the last line carries the per-layer metrics.  The line
before it is the run record: every round's figures and the environment.
"""

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("dense_n64", "probes_n64", "ensembles")
# Set-up-only processes started before any round: more samples of set-up,
# and the CPUs are busy before the first timed solve.
SETUP_ONLY = 2
# Leave room under the 180 s limit for one run.
BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

ALL = ("calls", "self_s", "median_s")
LAYER_FIELDS = {
    "operators.embed": ALL,
    "operators.OperatorMatrix": ALL,
    "kicked_rotor.coupled_floquet": ALL,
    "kicked_rotor.apply_floquet": ("calls", "median_s"),
    "bipartite.apply_local": ("self_s",),
    "bipartite.kron_conjugate": ALL,
    "bipartite.diag_conjugate": ALL,
    "bipartite.right_multiply_embedded": ALL,
    "bipartite.trace_product": ALL,
    "otoc.otoc_series_dense": ("self_s",),
    "otoc.otoc_series_stochastic": ("self_s",),
    "otoc.fit_lyapunov_phase": ALL,
    "otoc.fit_relaxation_phase": ALL,
    "rmt.sample_cue": ALL,
    "rmt.sample_interaction": ALL,
    "rmt.rmt_otoc_mc": ("self_s",),
    "classical.classical_lyapunov": ALL,
    "phasespace.coherent_frame": ALL,
    "phasespace.evolve_product_state": ALL,
    "phasespace.partial_trace_over_first": ALL,
    "phasespace.reduced_husimi": ALL,
    "cli.run": ALL,
    "cli.write_csv": ALL,
}


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for target, fields in LAYER_FIELDS.items():
        for field in fields:
            units[f"{target}.{field}"] = "count" if field == "calls" else "s"
    units["cli.rate_scan.speedup"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class RoundError(RuntimeError):
    pass


def run_worker(workload, seed, out, traced, setup_only, deadline):
    """Start one worker and wait for it; returns its result and wall times."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # the worker may have started a process pool: stop its whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} round did not finish within the time budget")
    if proc.returncode != 0:
        raise RoundError(f"{workload} worker exited with {proc.returncode}:\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    result["wall_s"] = time.monotonic() - spawned
    return result


def run_rounds(args, out, traced, deadline):
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(run_worker(args.workload, args.seed, out / f"round{len(rounds)}",
                                 traced, False, deadline))
        typical = statistics.median(r["wall_s"] for r in rounds)
        if time.monotonic() - start + typical > args.seconds:
            return rounds


def verdict(rounds):
    """Operations attempted and failed over all rounds, and whether every
    check held and every round produced bit-identical outputs."""
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, raised, wrong in r["ops"] if raised or wrong)
    problems = [f"{name}: {wrong}" for r in rounds for name, _, wrong in r["ops"] if wrong]
    if any(r["digests"] != rounds[0]["digests"] for r in rounds):
        problems.append("rounds with the same seed wrote different outputs")
    return attempted, failed, problems


def end_to_end(rounds, setups):
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(rounds, out, baseline):
    """Median over traced rounds of each round's per-target summary."""
    summaries = [
        tracing.summarize(json.loads((out / f"round{i}" / "spans.json").read_text()))
        for i in range(len(rounds))
    ]
    values = {}
    for target, fields in LAYER_FIELDS.items():
        for field in fields:
            # median_low keeps call counts whole
            values[f"{target}.{field}"] = statistics.median_low(s[target][field] for s in summaries)
    speedups = [r["speedup"] for r in rounds if "speedup" in r]
    values["cli.rate_scan.speedup"] = statistics.median(speedups) if speedups else 0.0
    values["trace.overhead_s"] = (
        statistics.median(r["solve_s"] for r in rounds) - baseline["solve_s"]
    )
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def openblas_threads():
    import numpy  # noqa: F401 - loads the BLAS library

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        revision = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": openblas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_revision": revision,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "otoclab" / "__init__.py").is_file():
        print(f"error: no otoclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    baseline = None
    try:
        setups = [
            run_worker(args.workload, args.seed, out / "setup", False, True, deadline)["setup_s"]
            for _ in range(SETUP_ONLY)
        ]
        if args.trace:
            baseline = run_worker(args.workload, args.seed, out / "baseline",
                                  False, False, deadline)
            rounds = run_rounds(args, out, True, deadline)
            attempted, failed, problems = verdict([baseline] + rounds)
            metrics = per_layer(rounds, out, baseline)
        else:
            rounds = run_rounds(args, out, False, deadline)
            setups += [r["setup_s"] for r in rounds]
            attempted, failed, problems = verdict(rounds)
            metrics = end_to_end(rounds, setups)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_round": baseline,
        "rounds": rounds,
        "environment": environment(),
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
