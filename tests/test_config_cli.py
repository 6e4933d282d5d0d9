import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl
import scatterlab.cli as cli
from scatterlab.cli import main
from scatterlab.config import _KEYS, ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD_CONFIG = """
# quick coupled run
grid.L = 480
grid.N = 4096
solver.dt = 0.02
solver.t_end = 40
data.shape = gaussian
data.epsilon = 0.1
data.width = 3.0
analysis.alpha = 0.01
analysis.delta = 0.24
analysis.beta = 0.2
analysis.n = 1
io.save_snapshots = false
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        cfg = sl.parse_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg.grid_N == 4096
        assert cfg.shape == "gaussian"
        assert cfg.save_snapshots is False
        assert cfg.schedule_ratio == 2.0**0.25  # default

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "\nsolver.theta = 1\n")
        with pytest.raises(ConfigError, match="solver.theta"):
            sl.parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "grid.L = 480\n")
        with pytest.raises(ConfigError, match="missing required"):
            sl.parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("grid.N = 4096", "grid.N = many"))
        with pytest.raises(ConfigError, match="grid.N"):
            sl.parse_config(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        text = GOOD_CONFIG + "solver.dt = 0.01\n"
        lines = text.splitlines()
        first = lines.index("solver.dt = 0.02") + 1
        with pytest.raises(ConfigError) as err:
            sl.parse_config(write_config(tmp_path, text))
        assert str(err.value) == (
            f"line {len(lines)}: duplicate config key 'solver.dt' (first set on line {first})"
        )

    def test_hash_inside_value_kept(self, tmp_path):
        cfg = sl.parse_config(write_config(tmp_path, GOOD_CONFIG + "io.outdir = runs/#3\n"))
        assert cfg.outdir == "runs/#3"

    def test_trailing_comment_stripped(self, tmp_path):
        text = GOOD_CONFIG.replace("grid.N = 4096", "grid.N = 4096  # note")
        cfg = sl.parse_config(write_config(tmp_path, text))
        assert cfg.grid_N == 4096

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [k for k, (_, kind, _) in _KEYS.items() if kind is float])
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        kept = [line for line in GOOD_CONFIG.splitlines() if not line.startswith(key + " ")]
        path = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            sl.parse_config(path)
        assert str(err.value) == f"key {key!r}: {raw!r} is not finite"

    def test_bad_shape(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("gaussian", "square"))
        with pytest.raises(ConfigError, match="data.shape"):
            sl.parse_config(path)


class TestExperimentValidation:
    def test_good_experiment_builds(self, tmp_path):
        cfg = sl.parse_config(write_config(tmp_path, GOOD_CONFIG))
        grid, params, u1, v1 = sl.build_experiment(cfg)
        assert grid.N == 4096
        assert params.nu == pytest.approx(0.05)

    def test_domain_rule_checked_at_load(self, tmp_path):
        bad = GOOD_CONFIG.replace("solver.t_end = 40", "solver.t_end = 400")
        cfg = sl.parse_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError, match="sizing rule"):
            sl.build_experiment(cfg)

    def test_dt_rule_checked_at_load(self, tmp_path):
        bad = GOOD_CONFIG.replace("data.epsilon = 0.1", "data.epsilon = 0.4").replace(
            "solver.dt = 0.02", "solver.dt = 0.02"
        )
        # 0.02 * 0.4^2 = 3.2e-3 > 1e-3
        bad = bad.replace("solver.t_end = 40", "solver.t_end = 8")
        cfg = sl.parse_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError, match="dt"):
            sl.build_experiment(cfg)

    def test_alpha_window_checked(self, tmp_path):
        bad = GOOD_CONFIG.replace("analysis.alpha = 0.01", "analysis.alpha = 0.07")
        cfg = sl.parse_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError, match="alpha"):
            sl.build_experiment(cfg)

    def test_negative_seed_rejected(self, tmp_path):
        cfg = sl.parse_config(write_config(tmp_path, GOOD_CONFIG + "io.seed = -1\n"))
        with pytest.raises(ConfigError, match="io.seed"):
            sl.build_experiment(cfg)


class TestCli:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG + "\nmystery.key = 1\n")
        rc = main(["decay", "--config", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "mystery.key" in capsys.readouterr().err

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG + "grid.N = 2048\n")
        rc = main(["decay", "--config", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "duplicate config key 'grid.N'" in capsys.readouterr().err

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("solver.dt = 0.02", "solver.dt = nan"))
        rc = main(["decay", "--config", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "key 'solver.dt': 'nan' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_negative_seed_exits_2_before_solve(self, tmp_path, capsys, monkeypatch, route):
        text = GOOD_CONFIG + ("io.seed = -1\n" if route == "config" else "")
        argv = ["remainder", "--config", str(write_config(tmp_path, text)), "--outdir", str(tmp_path / "out")]
        solves = []
        monkeypatch.setattr(cli, "evolve", lambda *args: solves.append(args))
        rc = main(argv + (["--seed", "-1"] if route == "flag" else []))
        assert rc == 2
        assert "io.seed" in capsys.readouterr().err
        assert solves == []

    def test_unresolved_grid_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("grid.N = 4096", "grid.N = 256"))
        rc = main(["simulate", "--config", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "grid N = 256" in capsys.readouterr().err

    @pytest.mark.parametrize("command, v_lines", [("decay", 1), ("scattering", 3), ("asymptotic", 1)])
    def test_zero_field_is_vacuous(self, tmp_path, command, v_lines):
        # v = 0 and u free (the smoke replay's data, which wrap around this
        # box by t = 32): each v line is vacuous; u's stay verdicts
        grid = sl.Grid1D(L=300.0, N=4096)
        u1 = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        times = [2.0**k for k in range(8)]
        snaps = tuple(sl.PairState(sl.free_evolve(u1, t - 1.0), zero, t) for t in times)
        traj = sl.Trajectory(grid=grid, params=sl.AnalysisParams.make(epsilon=1.0), snapshots=snaps, dt=float("nan"))
        cfg = replace(sl.parse_config(write_config(tmp_path, GOOD_CONFIG)), t_end=times[-1])
        lines = cli._COMMANDS[command](cfg, traj, tmp_path)
        labels = [line.split("] ")[1].split(":")[0] for line in lines]
        on_v = [line for line, label in zip(lines, labels) if "v" in label.split()]
        assert on_v == [f"[PASS] {label}: vacuous (zero field)" for label in labels if "v" in label.split()]
        assert len(on_v) == v_lines and len(lines) == 2 * v_lines
        assert not any("vacuous" in line for line in lines if line not in on_v)

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["decay", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_zero_data_is_vacuous(self, tmp_path, capsys, command):
        # epsilon = 0 is a valid config; the zero solve steps on 8 points
        path = write_config(tmp_path, GOOD_CONFIG.replace("data.epsilon = 0.1", "data.epsilon = 0.0"))
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--outdir", str(out)])
        assert rc == 0
        if command in ("decay", "scattering", "asymptotic"):
            assert capsys.readouterr().out == f"[PASS] {command}: vacuous (zero data)\n"
        if command == "remainder":
            assert capsys.readouterr().out == "[PASS] remainder decay: vacuous (zero interaction)\n"
        else:
            rows = (out / "snapshots.csv").read_text().splitlines()[1:]
            for row in rows:
                cols = row.split(",")
                assert float(cols[1]) == 0.0 and float(cols[2]) == 0.0

    def test_no_scipy_at_run_time(self, tmp_path):
        # a fresh interpreter, so that no test's import of scipy is counted
        path = write_config(tmp_path, GOOD_CONFIG.replace("grid.N = 4096", "grid.N = 1024"))
        script = (
            "import sys\n"
            "from scatterlab.cli import main\n"
            f"rc = main(['decay', '--config', {str(path)!r}, '--outdir', {str(tmp_path / 'out')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("place", ["existing file", "below a file"])
    def test_unusable_outdir_exits_2_before_solve(self, tmp_path, capsys, monkeypatch, place):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = blocker if place == "existing file" else blocker / "out"
        solves = []
        monkeypatch.setattr(cli, "evolve", lambda *args: solves.append(args))
        rc = main(["decay", "--config", str(write_config(tmp_path, GOOD_CONFIG)), "--outdir", str(outdir)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")
        assert solves == []

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"grid.L = 480\xff\n")
        rc = main(["decay", "--config", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "position 12" in err

    def test_experiment_built_once(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, GOOD_CONFIG.replace("grid.N = 4096", "grid.N = 1024"))
        built, solves, analyses = [], [], []

        def counted(calls, fn):
            def call(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, "build_experiment", counted(built, cli.build_experiment))
        monkeypatch.setattr(cli, "evolve", counted(solves, cli.evolve))
        monkeypatch.setattr(cli, "analyze_trajectory", counted(analyses, cli.analyze_trajectory))
        for command in cli._COMMANDS:
            for calls in (built, solves, analyses):
                calls.clear()
            rc = main([command, "--config", str(path), "--outdir", str(tmp_path / command)])
            assert rc == 0, command
            assert len(built) == 1
            assert len(solves) == 1, command
            assert len(analyses) == (0 if command == "remainder" else 1), command

    def test_verdicts_share_one_solve(self, tmp_path, monkeypatch):
        # every verdict run in turn on one solve writes what its own CLI run
        # writes, so no command changes the trajectory it is given
        quick = str(CONFIGS / "quick.cfg")
        solved = []
        real_evolve = cli.evolve

        def keeping(*args):
            solved.append(real_evolve(*args))
            return solved[-1]

        monkeypatch.setattr(cli, "evolve", keeping)
        expected = {}
        for name in cli._COMMANDS:
            out = tmp_path / "main" / name
            main([name, "--config", quick, "--outdir", str(out), "--seed", "5"])
            expected[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        traj = solved[0]
        cfg = replace(sl.parse_config(quick), seed=5)
        for name, verdict in cli._COMMANDS.items():
            out = tmp_path / "shared" / name
            out.mkdir(parents=True)
            report = ("\n".join(verdict(cfg, traj, out)) + "\n").encode()
            assert report == expected[name].pop(f"{name}_report.txt"), name
            assert {p.name: p.read_bytes() for p in out.iterdir()} == expected[name], name

    def test_decay_command_passes_and_writes_report(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        rc = main(["decay", "--config", str(path), "--outdir", str(out)])
        assert rc == 0
        report = (out / "decay_report.txt").read_text()
        assert report.count("[PASS]") == 2
        assert (out / "snapshots.csv").exists()

    def test_determinism_identical_csv_bytes(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        rc1 = main(["decay", "--config", str(path), "--outdir", str(out1), "--seed", "7"])
        rc2 = main(["decay", "--config", str(path), "--outdir", str(out2), "--seed", "7"])
        assert rc1 == rc2 == 0
        assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()

    def test_simulate_saves_trajectory_when_asked(self, tmp_path):
        cfg = GOOD_CONFIG.replace("io.save_snapshots = false", "io.save_snapshots = true")
        cfg = cfg.replace("solver.t_end = 40", "solver.t_end = 12").replace(
            "grid.L = 480", "grid.L = 200"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--outdir", str(out)])
        assert rc == 0
        back = sl.load_trajectory(out / "trajectory.bin")
        assert back.grid.N == 4096
        assert abs(back.times[-1] - 12.0) < 1e-12


class TestAnalysisCommands:
    @pytest.mark.parametrize("command", ["scattering", "remainder", "asymptotic"])
    def test_command_passes_on_reference_config(self, tmp_path, command):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--outdir", str(out)])
        report = (out / f"{command}_report.txt").read_text()
        assert rc == 0, report
        assert "[FAIL]" not in report


class TestShippedConfigs:
    # neither the grid rule nor the in-flight guards may fire on a shipped
    # config; the reference run solves on 3840 points in about 2 s
    @pytest.mark.parametrize("name", ["quick", "reference"])
    def test_simulate_passes(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(CONFIGS / f"{name}.cfg"), "--outdir", str(out)])
        assert rc == 0, capsys.readouterr()
        lines = (out / "simulate_report.txt").read_text().splitlines()
        assert lines and all(line.startswith("[PASS]") for line in lines)

    def test_remainder_reports_only_its_run(self, tmp_path, monkeypatch):
        # the verdict reads the run it is given: two lines, and no test
        # oracle (the O(N^3) quadrature) runs inside it
        def refuse(*args):
            raise AssertionError("remainder_oracle ran inside a verdict")

        monkeypatch.setattr(sl.remainder, "remainder_oracle", refuse)
        if hasattr(cli, "remainder_oracle"):
            monkeypatch.setattr(cli, "remainder_oracle", refuse)
        out = tmp_path / "out"
        rc = main(["remainder", "--config", str(CONFIGS / "quick.cfg"), "--outdir", str(out)])
        assert rc == 0
        lines = (out / "remainder_report.txt").read_text().splitlines()
        assert len(lines) == 2 and all(line.startswith("[PASS]") for line in lines), lines
        assert not any("oracle" in line for line in lines), lines
