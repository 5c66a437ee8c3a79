import json
import os

import numpy as np
import pytest

from otoclab.cli import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    _cap_blas_threads,
    blas_threads,
    compare,
    compare_with_stderr,
    load_config,
    main,
    run,
    scan_pool,
    write_csv,
)
from otoclab.kicked_rotor import coupled_floquet
from otoclab.operators import SystemParams, cosine_observable, embed
from otoclab.otoc import otoc_series_dense


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.scenario == "rotor_otoc"
        assert cfg.N == 64 and cfg.alpha == 0.35

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "scenario = rmt_otoc\n"
            "N = 16\n"
            "epsilon = 0.2   # trailing comment\n"
            "b_list = 0.01,0.02\n"
        )
        cfg = load_config(path, overrides=["N=8", "T=5"])
        assert cfg.scenario == "rmt_otoc"
        assert cfg.N == 8  # override wins
        assert cfg.epsilon == 0.2
        assert cfg.b_list == (0.01, 0.02)
        assert cfg.T == 5

    def test_unknown_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = 16\nbogus = 3\n")
        with pytest.raises(ConfigError, match=r":2: unknown field 'bogus'"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(overrides=["N=sixteen"])

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_config(overrides=["scenario=quantum_darts"])


class TestWriteCsv:
    def test_roundtrip_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 0.1234567890123456789
        write_csv(path, {"t": [0, 1], "c": [value, 2.0]})
        lines = path.read_text().splitlines()
        assert lines[0] == "t,c"
        assert float(lines[1].split(",")[1]) == value

    def test_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", {"a": [1], "b": [1, 2]})


class TestScenarios:
    def test_rotor_otoc_end_to_end(self, tmp_path):
        cfg = load_config(overrides=["scenario=rotor_otoc", "N=8", "T=6", "b=0.3"])
        record = run(cfg, out_dir=tmp_path)
        csv_path = tmp_path / record.files[0].split("/")[-1]
        assert csv_path.exists()
        sidecar = json.loads((tmp_path / (csv_path.stem + ".json")).read_text())
        assert sidecar["scenario"] == "rotor_otoc"
        assert sidecar["config"]["N"] == 8
        assert "t_ehrenfest" in sidecar["analytic"]
        header = csv_path.read_text().splitlines()[0].split(",")
        assert {"t", "c2", "c4", "c", "c_norm"} <= set(header)

    def test_reruns_are_identical(self, tmp_path):
        cfg = load_config(overrides=["scenario=rotor_otoc", "N=8", "T=4", "b=0.2"])
        a = run(cfg, out_dir=tmp_path / "a")
        b = run(cfg, out_dir=tmp_path / "b")
        assert a.columns == b.columns

    def test_stochastic_path(self, tmp_path):
        cfg = load_config(
            overrides=[
                "scenario=rotor_otoc", "N=8", "T=3", "b=0.3",
                "path=stochastic", "probes=32", "seed=1",
            ]
        )
        record = run(cfg, out_dir=tmp_path)
        assert "c_err" in record.columns

    def test_rmt_scenario(self, tmp_path):
        cfg = load_config(
            overrides=["scenario=rmt_otoc", "N=6", "T=3", "samples=5", "epsilon=0.3"]
        )
        record = run(cfg, out_dir=tmp_path)
        assert len(record.columns["t"]) == 4
        assert record.analytic["mu_rmt"] == pytest.approx(0.6107697480952241)

    def test_classical_scenario(self, tmp_path):
        cfg = load_config(
            overrides=["scenario=classical_lyapunov", "K1=9", "K2=10", "b=0.05",
                       "ensemble=2000"]
        )
        record = run(cfg, out_dir=tmp_path)
        assert record.columns["two_lambda_cl"][0] == pytest.approx(3.92, abs=0.3)

    def test_rate_scan_requires_b_list(self, tmp_path):
        cfg = load_config(overrides=["scenario=rate_scan", "N=8"])
        with pytest.raises(ConfigError, match="b_list"):
            run(cfg, out_dir=tmp_path)

    def test_rate_scan_pool_matches_serial(self, tmp_path):
        # b = 0 gives eps = 0 and so a NaN mu_rmt row
        sets = ["scenario=rate_scan", "N=16", "T=12", "b_list=0.0,0.0625,0.125"]
        serial = run(load_config(None, sets + ["threads=1"]), out_dir=tmp_path / "serial")
        pooled = run(load_config(None, sets + ["threads=2"]), out_dir=tmp_path / "pooled")
        assert np.isnan(serial.columns["mu_rmt"][0])
        with open(serial.files[0], "rb") as a, open(pooled.files[0], "rb") as b:
            assert a.read() == b.read()
        assert compare(serial, pooled)["passed"]

    def test_rate_scan_workers_cap_blas_threads(self):
        if blas_threads() is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        cap = max(1, len(os.sched_getaffinity(0)) // 2)
        with scan_pool(2) as pool:
            assert pool.submit(blas_threads).result() == cap

    def test_dense_series_independent_of_blas_threads(self):
        # serial and pooled scans agree only if no kernel's value depends
        # on how many threads BLAS splits it over
        default = blas_threads()
        if default is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        N = 24
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=1 / N))
        o = cosine_observable(N, 0.35)
        a0, b0 = embed(o, "left", N), embed(o, "right", N)
        threaded = otoc_series_dense(F, a0, b0, 3)
        try:
            _cap_blas_threads(1)
            single = otoc_series_dense(F, a0, b0, 3)
        finally:
            _cap_blas_threads(default)
        assert np.array_equal(threaded.c2, single.c2)
        assert np.array_equal(threaded.c4, single.c4)
        assert threaded.c_infinity == single.c_infinity

    def test_husimi_scenario(self, tmp_path):
        cfg = load_config(
            overrides=["scenario=husimi", "N=8", "husimi_times=0,2"]
        )
        record = run(cfg, out_dir=tmp_path)
        grids = sorted(tmp_path.glob("*grid*.csv"))
        assert len(grids) == 2
        g = np.loadtxt(grids[0], delimiter=",")
        assert g.shape == (8, 8)
        assert g.sum() == pytest.approx(8.0)

    def test_pr_series_scenario(self, tmp_path):
        cfg = load_config(overrides=["scenario=pr_series", "N=8", "T=6", "b=0.3"])
        record = run(cfg, out_dir=tmp_path)
        pr = record.columns["pr"]
        assert len(pr) == 7 and all(0 < v <= 1 for v in pr)


def _record(cols):
    return ResultRecord(scenario="x", config={}, columns=cols)


class TestCompare:
    def test_identical(self):
        a = _record({"t": [0, 1], "c": [0.5, 1.0]})
        report = compare(a, a)
        assert report["passed"]

    def test_nan_in_the_same_place_is_equal(self):
        # rate_scan writes NaN mu_rmt where eps(b) lies outside (0, 1)
        a = _record({"b": [0.0, 0.0625], "mu_rmt": [float("nan"), 0.1]})
        report = compare(a, a)
        assert report["passed"]
        assert report["columns"]["mu_rmt"]["max_rel_dev"] == 0.0
        b = _record({"b": [0.0, 0.0625], "mu_rmt": [0.1, float("nan")]})
        assert not compare(a, b)["passed"]

    def test_tolerance(self):
        a = _record({"c": [1.0]})
        b = _record({"c": [1.01]})
        assert not compare(a, b)["passed"]
        assert compare(a, b, tolerances={"c": 0.02})["passed"]

    def test_schema_mismatch(self):
        with pytest.raises(ValueError, match="schema"):
            compare(_record({"a": [1]}), _record({"b": [1]}))

    def test_stderr_comparison(self):
        a = _record({"c": [1.0, 2.0], "c_err": [0.1, 0.1]})
        b = _record({"c": [1.2, 2.1], "c_err": [0.1, 0.1]})
        assert compare_with_stderr(a, b, "c", "c_err")["passed"]
        c = _record({"c": [2.0, 2.0], "c_err": [0.1, 0.1]})
        report = compare_with_stderr(a, c, "c", "c_err")
        assert not report["passed"] and report["violations"] == 1


class TestMain:
    def test_success(self, tmp_path, capsys):
        rc = main([
            "--scenario", "rotor_otoc", "--out", str(tmp_path),
            "--set", "N=8", "--set", "T=3", "--set", "b=0.2",
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

    def test_stochastic_path_runs_past_the_dense_budget(self, tmp_path):
        # N^2 = 9216 exceeds the dense budget; the stochastic path needs none
        rc = main([
            "--scenario", "rotor_otoc", "--out", str(tmp_path),
            "--set", "N=96", "--set", "path=stochastic",
            "--set", "T=1", "--set", "probes=16",
        ])
        assert rc == 0
        (csv,) = tmp_path.glob("*.csv")
        assert csv.read_text().splitlines()[0] == "t,c2,c4,c,c_norm,c_err"

    def test_config_error(self, capsys):
        rc = main(["--set", "N=not_a_number"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc", [FloatingPointError("norm drifted"), RuntimeError("fit failed"), MemoryError()]
    )
    def test_run_failures_are_one_line(self, monkeypatch, capsys, exc):
        def fail(config):
            raise exc

        monkeypatch.setattr("otoclab.cli.run", fail)
        assert main(["--set", "N=8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
