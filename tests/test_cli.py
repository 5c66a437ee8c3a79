import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from otoclab import cli, operators
from otoclab.cli import (
    SCENARIOS,
    ConfigError,
    _config_from_argv,
    load_config,
    main,
    run,
    write_csv,
)
from otoclab.kicked_rotor import coupled_floquet
from otoclab.operators import SystemParams, cosine_observable, embed
from otoclab.otoc import otoc_series_dense
from otoclab.parallel import _cap_blas_threads, blas_threads, map_tasks


def _task_blas_threads(_):
    return blas_threads()


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

    @pytest.mark.parametrize("key", ["fit_t_min", "fit_t_max"])
    def test_classical_window_fields_are_gone(self, key):
        # the classical fit reads lyap_window
        with pytest.raises(ConfigError, match=f"unknown field '{key}'"):
            load_config(overrides=[f"{key}=3"])

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

    @pytest.mark.parametrize("eps", ["1.5", "1.0", "-0.1"])
    def test_epsilon_out_of_range(self, eps, monkeypatch, capsys):
        # refused before the Monte Carlo runs, not after it by mu_rmt
        monkeypatch.setattr(cli, "rmt_otoc_mc", lambda *a: pytest.fail("ran"))
        with pytest.raises(ConfigError, match=r"epsilon must lie in \[0, 1\)"):
            load_config(overrides=["scenario=rmt_otoc", f"epsilon={eps}"])
        assert main(["--scenario", "rmt_otoc", "--set", f"epsilon={eps}"]) == 1
        assert capsys.readouterr().err.startswith("error: epsilon must lie")

    @pytest.mark.parametrize("field", ["lyap_window", "relax_window"])
    @pytest.mark.parametrize(
        "raw",
        # one value and three values used to fail as a tuple unpacking;
        # non-integer kicks used to be truncated to [2, 4]
        ["3", "2,3,4", "2.5,4.9", "4,2", "3,3"],
        ids=["one", "three", "non-integer", "reversed", "empty-range"],
    )
    def test_malformed_fit_window(self, field, raw):
        with pytest.raises(ConfigError, match=f"field '{field}': expected empty or two"):
            load_config(overrides=[f"{field}={raw}"])

    def test_malformed_window_is_one_error_line(self, tmp_path, capsys):
        argv = ["--scenario", "classical_lyapunov", "--out", str(tmp_path),
                "--set", "lyap_window=3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: field 'lyap_window': expected empty or two integer kicks "
            "first < last, got 3\n"
        )

    def test_malformed_relax_window_stops_before_the_run(self, tmp_path, capsys):
        # it used to run, then store the unpacking error as relaxation_error
        argv = ["--scenario", "rotor_otoc", "--out", str(tmp_path),
                "--set", "N=8", "--set", "T=6", "--set", "relax_window=5"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: field 'relax_window'")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "raw", ["-1", "0,2.5", ""], ids=["negative", "non-integer", "empty"]
    )
    def test_malformed_husimi_times(self, raw, tmp_path, capsys):
        # -1 used to end in an IndexError traceback; 2.5 ran kick 2
        with pytest.raises(ConfigError, match="field 'husimi_times': expected one or more"):
            load_config(overrides=["scenario=husimi", f"husimi_times={raw}"])
        argv = ["--scenario", "husimi", "--out", str(tmp_path),
                "--set", "N=8", "--set", f"husimi_times={raw}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'husimi_times'")
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "scenario, sets, field",
        [
            # T=-1 used to fail three ways: a column-length error on the dense
            # path, IndexError tracebacks on the stochastic path and in pr_series
            ("rotor_otoc", ["T=-1"], "T"),
            ("rotor_otoc", ["T=-1", "path=stochastic", "probes=16"], "T"),
            ("pr_series", ["T=-1"], "T"),
            # used to be accepted silently
            ("rotor_otoc", ["T=2", "threads=0"], "threads"),
            ("rotor_otoc", ["T=2", "threads=-2"], "threads"),
        ],
        ids=["dense", "stochastic", "pr_series", "threads-0", "threads-negative"],
    )
    def test_count_below_its_least_is_one_error_line(self, scenario, sets, field, tmp_path, capsys):
        assert main(_argv(scenario, tmp_path, ["N=8", *sets])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}': expected an integer >= ")
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("field", ["b", "K1", "q0"])
    def test_nonfinite_float_field(self, field, raw):
        with pytest.raises(ConfigError, match=f"field '{field}' must be finite"):
            load_config(overrides=[f"{field}={raw}"])

    def test_nonfinite_tuple_entry(self):
        with pytest.raises(ConfigError, match="field 'b_list' must be finite"):
            load_config(overrides=["b_list=0.01,1e400"])

    @pytest.mark.parametrize(
        "sets, error",
        [
            (["b=nan"], "field 'b' must be finite"),
            (["b=inf"], "field 'b' must be finite"),
            # finite, but N K / 2 pi overflows in the propagator
            (["K1=1e308"], "phase N K / 2 pi is not finite"),
            (["K1=1e308", "path=stochastic", "probes=16"], "phase N K / 2 pi is not finite"),
        ],
        ids=["b-nan", "b-inf", "K1-overflow", "K1-overflow-stochastic"],
    )
    def test_nonfinite_input_is_one_error_line(self, sets, error, tmp_path, capsys):
        # each used to exit 0 with NaN rows from t = 1 on and NaN in the sidecar
        assert main(_argv("rotor_otoc", tmp_path, ["N=8", "T=3", *sets])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_unknown_path(self):
        # a misspelt path used to run the dense series silently
        with pytest.raises(ConfigError, match="unknown path 'stochastc'.*dense, stochastic"):
            load_config(overrides=["path=stochastc"])


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

    @pytest.mark.parametrize(
        "window, fitted",
        [("", [2, 5]), ("2,4", [2, 4]), ("3,5", [3, 5])],
        ids=["default", "2-4", "3-5"],
    )
    def test_classical_scenario_reads_lyap_window(self, window, fitted, tmp_path):
        cfg = load_config(
            overrides=["scenario=classical_lyapunov", "b=0.05", "ensemble=2000",
                       f"lyap_window={window}"]
        )
        record = run(cfg, out_dir=tmp_path)
        assert record.fits["classical_lyapunov"]["window"] == fitted

    def test_rate_scan_requires_b_list(self, tmp_path):
        cfg = load_config(overrides=["scenario=rate_scan", "N=8"])
        with pytest.raises(ConfigError, match="b_list"):
            run(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("path", ["dense", "stochastic"])
    def test_rate_scan_pool_matches_serial(self, path, tmp_path):
        # b = 0 gives eps = 0 and so a NaN mu_rmt row
        sets = ["scenario=rate_scan", "N=16", "T=12", "b_list=0.0,0.0625,0.125",
                f"path={path}"]
        serial = run(load_config(None, sets + ["threads=1"]), out_dir=tmp_path / "serial")
        pooled = run(load_config(None, sets + ["threads=2"]), out_dir=tmp_path / "pooled")
        assert np.isnan(serial.columns["mu_rmt"][0])
        with open(serial.files[0], "rb") as a, open(pooled.files[0], "rb") as b:
            assert a.read() == b.read()

    def test_rate_scan_workers_cap_blas_threads(self):
        if blas_threads() is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        cap = max(1, len(os.sched_getaffinity(0)) // 2)
        assert map_tasks(_task_blas_threads, range(2), 2) == [cap, cap]

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


class TestMain:
    def test_success(self, tmp_path, capsys):
        rc = main([
            "--scenario", "rotor_otoc", "--out", str(tmp_path),
            "--set", "N=8", "--set", "T=3", "--set", "b=0.2",
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scenario, sets, header",
        [
            ("rotor_otoc", ["T=1"], "t,c2,c4,c,c_norm,c_err"),
            ("same_subspace", ["T=1"], "t,c2,c4,c,c_norm,c_err"),
            # the relaxation fit needs three kicks past t_EF = 2.8
            ("rate_scan", ["T=6", "b_list=0.010416666666666666"],
             "b,mu_fit,mu_fit_err,mu_analytic,epsilon,mu_rmt"),
        ],
        ids=["rotor_otoc", "same_subspace", "rate_scan"],
    )
    def test_stochastic_path_runs_past_the_dense_budget(
        self, scenario, sets, header, tmp_path
    ):
        # N^2 = 9216 exceeds the dense budget; the probe blocks fit it
        sets = ["N=96", "path=stochastic", "probes=16", *sets]
        assert main(_argv(scenario, tmp_path, sets)) == 0
        (csv,) = tmp_path.glob("*.csv")
        assert csv.read_text().splitlines()[0] == header

    def test_probe_blocks_over_the_budget_are_one_error_line(
        self, monkeypatch, tmp_path, capsys
    ):
        # one probe at N = 16 takes 80 N^2 = 20480 bytes in the five blocks
        monkeypatch.setattr(operators, "DENSE_BUDGET_BYTES", 20479)
        sets = ["N=16", "T=3", "path=stochastic", "probes=16"]
        assert main(_argv("rotor_otoc", tmp_path, sets)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stochastic dimension N = 16 needs 20480 bytes")
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_missing_config_file_is_one_error_line(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.cfg" in err
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_out_at_an_existing_file_is_one_error_line(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert main(_argv("rotor_otoc", target, ["N=8", "T=3"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert target.read_text() == ""

    def test_refused_run_removes_the_directory_it_made(self, tmp_path, capsys):
        # the Husimi frame at N = 400 is over the budget
        out = tmp_path / "new" / "runs"
        assert main(_argv("husimi", out, ["N=400"])) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_refused_run_keeps_an_existing_directory(self, tmp_path, capsys):
        out = tmp_path / "runs"
        out.mkdir()
        assert main(_argv("husimi", out, ["N=400"])) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.is_dir() and not any(out.iterdir())

    def test_config_error(self, capsys):
        rc = main(["--set", "N=not_a_number"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sets, kick", [(["K1=1e308"], "3")], ids=["K1-overflow"])
    def test_classical_overflow_is_one_error_line(self, sets, kick, tmp_path, capsys):
        # this used to print RuntimeWarnings, then blame a vanishing bracket
        argv = _argv("classical_lyapunov", tmp_path, ["b=0.05", "ensemble=1000", *sets])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.match(
            rf"error: the tangent map or C_cl overflows at kick {kick} for \(K1, K2, b\) = \(",
            err,
        )
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_classical_long_window_is_finite(self, tmp_path, capsys):
        # C_cl passes the largest double near kick 196; the tangent vectors
        # are rescaled, so ln C_cl stays finite to kick 400
        sets = ["b=0.05", "ensemble=1000", "lyap_window=2,400"]
        assert main(_argv("classical_lyapunov", tmp_path, sets)) == 0
        (json_path,) = tmp_path.glob("*.json")
        fit = json.loads(json_path.read_text())["fits"]["classical_lyapunov"]
        assert fit["window"] == [2, 400]
        assert all(math.isfinite(fit[k]) for k in ("slope", "intercept", "slope_stderr"))
        assert fit["slope"] > 0

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


README = Path(__file__).resolve().parents[1] / "README.md"

# per-scenario inputs on top of N=8, T=6, b=0.3, small enough for a unit test
SMALL = {
    "rate_scan": ["b_list=0.0625"],
    "rmt_otoc": ["samples=3", "epsilon=0.2"],
    "classical_lyapunov": ["ensemble=2000"],
    "husimi": ["husimi_times=0,2"],
}


def _argv(scenario, out, sets):
    argv = ["--scenario", scenario, "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    return argv


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"sidecar is not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestScenarioTable:
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_every_scenario_runs(self, scenario, tmp_path, capsys):
        sets = ["N=8", "T=6", "b=0.3", *SMALL.get(scenario, [])]
        assert main(_argv(scenario, tmp_path, sets)) == 0
        (sidecar_path,) = tmp_path.glob(f"{scenario}_*.json")
        sidecar = _strict_json(sidecar_path.read_text())
        assert (tmp_path / sidecar["csv"]).exists()
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("wrote ")
        printed = [line.split()[0].rstrip(":") for line in out[1:]]
        assert printed == [*sidecar["fits"], *sidecar["analytic"]]

    def test_rmt_sidecar_carries_the_closed_form(self, tmp_path):
        sets = ["N=6", "T=4", "samples=2", "epsilon=0.3"]
        assert main(_argv("rmt_otoc", tmp_path, sets)) == 0
        (sidecar_path,) = tmp_path.glob("*.json")
        analytic = _strict_json(sidecar_path.read_text())["analytic"]
        # no kick strength enters the RMT model
        assert "t_ehrenfest" not in analytic
        closed = analytic["c_norm_rmt"]
        assert closed[:2] == [0.0, 0.0]
        assert closed[2] == pytest.approx(0.4570672132923127, rel=1e-14)
        assert len(closed) == 5

    @pytest.mark.parametrize(
        "scenario, sets, error",
        [
            ("weak_chaos", ["N=8", "T=4"], ("loglog_error", "fewer than three points")),
            ("pr_series", ["N=8", "T=4", "K1=1", "K2=1.5"],
             ("pr_relaxation_error", "needs K > 2")),
            # t_EF = 1.29, so only t = 3 and 4 lie past it
            ("pr_series", ["N=8", "T=4"],
             ("pr_relaxation_error", "fewer than three unsaturated points")),
        ],
    )
    def test_failed_fit_keeps_the_series(self, scenario, sets, error, tmp_path):
        assert main(_argv(scenario, tmp_path, sets)) == 0
        (csv,) = tmp_path.glob("*.csv")
        assert len(csv.read_text().splitlines()) == 6
        fits = _strict_json(csv.with_suffix(".json").read_text())["fits"]
        name, reason = error
        assert reason in fits[name]

    @pytest.mark.parametrize("field, fit", [("lyap_window", "lyapunov"),
                                            ("relax_window", "relaxation")])
    def test_fit_window_past_the_series(self, field, fit, tmp_path):
        # the sidecar used to record the window [2, 40] for a fit over 2..6
        sets = ["N=8", "T=6", "b=0.3", f"{field}=2,40"]
        assert main(_argv("rotor_otoc", tmp_path, sets)) == 0
        (sidecar_path,) = tmp_path.glob("*.json")
        fits = _strict_json(sidecar_path.read_text())["fits"]
        assert fit not in fits
        assert fits[f"{fit}_error"] == "fit window (2, 40) ends past the last kick T = 6"

    def test_one_scenario_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        choices = re.search(r"--scenario \{([a-z_,]+)\}", usage).group(1).split(",")
        section = README.read_text().split("### Scenarios", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.M)
        assert sorted(choices) == sorted(SCENARIOS) == sorted(listed)


def _readme_commands():
    """Every ``otoclab ...`` command of the README's shell blocks, as argv."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip().startswith("otoclab ")]


class TestReadmeCommands:
    def test_commands_are_found(self):
        assert len(_readme_commands()) >= 8

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_parses(self, argv, tmp_path, monkeypatch):
        # resolves the config only; a config file the command names is empty here
        monkeypatch.chdir(tmp_path)
        if "--config" in argv:
            (tmp_path / argv[argv.index("--config") + 1]).touch()
        assert _config_from_argv(argv).scenario in SCENARIOS
