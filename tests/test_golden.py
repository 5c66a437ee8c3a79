"""Golden outputs: ten small CLI runs against records committed in
``tests/golden``.

Each config in :data:`CONFIGS` runs through :func:`otoclab.cli.run` and its
CSV, and its sidecar's ``config``, ``fits`` and ``analytic``, are compared
with ``tests/golden/<name>.csv`` and ``tests/golden/<name>.json``.  For
``husimi`` the grid files are compared with ``tests/golden/husimi_grid_t<t>.csv``
instead of the timestamped ``grid_file`` names.

- A CSV number passes when it agrees to within 1e-12 of its column's largest
  |value|; fit and analytic numbers pass at 1e-12 relative; strings (fit
  errors) must match exactly.  ``worker_blas_threads`` is not compared: it
  records the host's BLAS threads, not a result.
- Regenerate the records with ``PYTHONPATH=src python tests/test_golden.py``.
  A record changes only in a change that says why in CHANGES.md.
- Early-t C is stored as C2 - C4, a round trip that loses its low digits
  where C << C2 (ROADMAP item 5), so these records pin the numpy and BLAS
  build they were made with as well as the code.
"""

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from otoclab import cli

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12
UNCOMPARED = {"worker_blas_threads"}

CONFIGS = {
    "rotor_otoc": ["scenario=rotor_otoc", "N=16", "T=14", "b=0.0625"],
    "rotor_stochastic": [
        "scenario=rotor_otoc", "N=16", "T=12", "b=0.0625",
        "path=stochastic", "probes=64",
    ],
    "gue_otoc": ["scenario=gue_otoc", "N=12", "T=10", "b=0.1"],
    "weak_chaos": ["scenario=weak_chaos", "N=8", "T=6", "b=0.3"],
    "same_subspace": ["scenario=same_subspace", "N=8", "T=6", "b=0.3"],
    "rmt_otoc": ["scenario=rmt_otoc", "N=8", "T=6", "samples=4", "epsilon=0.2"],
    "rate_scan": ["scenario=rate_scan", "N=16", "T=14", "b_list=0.03,0.06"],
    "classical_lyapunov": ["scenario=classical_lyapunov", "b=0.05", "ensemble=2000"],
    "husimi": ["scenario=husimi", "N=8", "husimi_times=0,2"],
    "pr_series": ["scenario=pr_series", "N=32", "b=0.125", "T=25"],
}


def _run(name, out):
    """Run config ``name`` into ``out``; return its CSV path, its sidecar
    and its grid files (husimi only), in time order."""
    record = cli.run(cli.load_config(overrides=CONFIGS[name]), out)
    csv_path = Path(record.files[0])
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    return csv_path, sidecar, [Path(f) for f in record.files[1:]]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _column_errors(got, want):
    """Largest difference of each column, relative to its largest |value|;
    None where the column is not numeric."""
    errors = {}
    for name, ref in want.items():
        try:
            a = np.array(got[name], dtype=float)
            b = np.array(ref, dtype=float)
        except ValueError:
            errors[name] = None
            continue
        # a NaN matches only a NaN
        diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        diff = np.nan_to_num(diff, nan=np.inf).max(initial=0.0)
        scale = np.nanmax(np.abs(b), initial=0.0)
        errors[name] = float(diff / scale) if scale > 0 else float(diff)
    return errors


def _value_mismatches(got, want, path=""):
    """Paths at which ``got`` differs from ``want``: numbers beyond TOL
    relative, anything else not equal."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path or '.'}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want if k not in UNCOMPARED
                for m in _value_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _value_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want):
            return [] if math.isnan(got) else [f"{path}: {got!r} != nan"]
        if abs(got - want) <= TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r} (rel {abs(got - want) / abs(want):.3g})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_golden_record(name, tmp_path):
    csv_path, sidecar, grids = _run(name, tmp_path)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got_cols, want_cols = _read_csv(csv_path), _read_csv(GOLDEN / f"{name}.csv")
    if name == "husimi":
        # the timestamped names differ; the grids they name are compared
        del got_cols["grid_file"], want_cols["grid_file"]
        for t, grid in zip(want_cols["t"], grids):
            got_grid = np.loadtxt(grid, delimiter=",")
            want_grid = np.loadtxt(GOLDEN / f"husimi_grid_t{t}.csv", delimiter=",")
            got_cols[f"grid_t{t}"] = got_grid.ravel().tolist()
            want_cols[f"grid_t{t}"] = want_grid.ravel().tolist()

    assert list(got_cols) == list(want_cols), "CSV columns differ"
    errors = _column_errors(got_cols, want_cols)
    report = "; ".join(
        f"{k}: {'text' if e is None else f'{e:.3g}'}" for k, e in errors.items()
    )
    print(f"{name} largest relative difference per column: {report}")
    bad = [k for k, e in errors.items()
           if (got_cols[k] != want_cols[k] if e is None else e > TOL)]
    assert not bad, f"columns beyond {TOL:g}: {bad}; {report}"

    mismatches = [
        m for key in ("config", "fits", "analytic")
        for m in _value_mismatches(sidecar[key], want[key], key)
    ]
    assert not mismatches, "\n".join(mismatches)


def regenerate():
    """Rewrite every record from the code as it stands."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            csv_path, sidecar, grids = _run(name, Path(tmp))
            shutil.copyfile(csv_path, GOLDEN / f"{name}.csv")
            kept = {k: sidecar[k] for k in ("config", "fits", "analytic")}
            (GOLDEN / f"{name}.json").write_text(json.dumps(kept, indent=2) + "\n")
            for t, grid in zip(_read_csv(csv_path).get("t", []), grids):
                shutil.copyfile(grid, GOLDEN / f"{name}_grid_t{t}.csv")


if __name__ == "__main__":
    regenerate()
