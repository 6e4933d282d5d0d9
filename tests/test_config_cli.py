import pytest

import scatterlab as sl
import scatterlab.cli as cli
from scatterlab.cli import main, oracle_cross_check
from scatterlab.config import _SPEC, ConfigError

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
    @pytest.mark.parametrize("key", [k for k, kind in _SPEC.items() if kind is float])
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

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["decay", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_zero_data_simulate(self, tmp_path, capsys):
        cfg = GOOD_CONFIG.replace("data.epsilon = 0.1", "data.epsilon = 0.0").replace(
            "grid.N = 4096", "grid.N = 256"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--outdir", str(out)])
        assert rc == 0
        rows = (out / "snapshots.csv").read_text().splitlines()[1:]
        for row in rows:
            cols = row.split(",")
            assert float(cols[1]) == 0.0 and float(cols[2]) == 0.0

    def test_experiment_built_once(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, GOOD_CONFIG.replace("grid.N = 4096", "grid.N = 1024"))
        built = []

        def counting(cfg):
            built.append(cfg)
            return sl.build_experiment(cfg)

        monkeypatch.setattr(cli, "build_experiment", counting)
        for command in ("simulate", "decay", "asymptotic"):
            built.clear()
            rc = main([command, "--config", str(path), "--outdir", str(tmp_path / command)])
            assert rc == 0, command
            assert len(built) == 1

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


class TestOracleCrossCheck:
    def test_seeded_and_tight(self):
        worst = oracle_cross_check(seed=12345, cases=3)
        assert worst <= 1e-6
        assert oracle_cross_check(seed=12345, cases=3) == worst
