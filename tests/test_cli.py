"""CLI behavior: config parsing, exit codes, manifests, output schemas."""

import json
import os

import numpy as np
import pytest

from hnslab.cli import ConfigError, load_config, main


def run_cli(args, tmp_path, out="runs"):
    return main(args + ["--out", str(tmp_path / out)])


class TestConfig:
    def test_unknown_keys_listed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\nnot.a.key=2\nalso.bad=3\n")
        with pytest.raises(ConfigError, match="also.bad, not.a.key"):
            load_config(str(cfg), [])

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\ngrid.n=64\n")
        out = load_config(str(cfg), ["grid.n=128"])
        assert out["grid.n"] == 128

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nseed=9\n")
        assert load_config(str(cfg), [])["seed"] == 9

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(None, ["grid.n=many"])


class TestExitCodes:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        from hnslab import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_missing_seed_is_validation_error(self, tmp_path):
        assert run_cli(["simulate", "grid.n=32"], tmp_path) == 2

    def test_unknown_key_is_validation_error(self, tmp_path):
        assert run_cli(["simulate", "seed=1", "bogus=1"], tmp_path) == 2

    def test_simulate_t_end_zero(self, tmp_path):
        code = run_cli(
            [
                "simulate",
                "seed=1",
                "grid.n=32",
                "model.kind=hns_eps",
                "model.epsilon=0.1",
                "step.t_end=0",
            ],
            tmp_path,
        )
        assert code == 0
        rundirs = list((tmp_path / "runs").iterdir())
        assert len(rundirs) == 1
        probes = (rundirs[0] / "probes.csv").read_text().splitlines()
        assert probes[0] == "time,probe_name,value"
        times = {ln.split(",")[0] for ln in probes[1:]}
        assert times == {"0"}

    def test_refuse_overwrite_then_force(self, tmp_path):
        args = [
            "simulate",
            "seed=1",
            "grid.n=32",
            "model.kind=hns_eps",
            "model.epsilon=0.1",
            "step.t_end=0",
        ]
        assert run_cli(args, tmp_path) == 0
        assert run_cli(args, tmp_path) == 2
        assert main(args + ["--out", str(tmp_path / "runs"), "--force"]) == 0

    def test_worker_count_not_hashed(self, tmp_path):
        # the worker count does not change sweep.csv, so it does not change the run id
        args = [
            "sweep",
            "seed=5",
            "grid.n=16",
            "model.epsilon=0.05",
            "sweep.variable=alpha",
            "sweep.values=1e-1,1e-2,1e-3",
            "sweep.T_final=0.05",
            "init.kind=taylor_green",
        ]
        assert run_cli(args + ["--workers", "1"], tmp_path) == 0
        assert run_cli(args + ["--workers", "2"], tmp_path) == 2
        assert len(list((tmp_path / "runs").iterdir())) == 1


class TestUserMistakes:
    """A bad config or unreadable initial data exits 2 before any run directory exists."""

    def assert_rejected(self, overrides, tmp_path, command=("simulate", "step.t_end=0")):
        args = [command[0], "seed=1", "grid.n=16", *command[1:]] + overrides
        assert run_cli(args, tmp_path) == 2
        runs = tmp_path / "runs"
        assert not runs.exists() or not any(runs.iterdir())

    def test_hns_eps_without_epsilon(self, tmp_path):
        self.assert_rejected(["model.kind=hns_eps"], tmp_path)

    def test_penalized_model_without_alpha(self, tmp_path):
        self.assert_rejected(["model.kind=hns_eps_alpha", "model.epsilon=0.1"], tmp_path)

    def test_unknown_model_kind(self, tmp_path):
        self.assert_rejected(["model.kind=bogus"], tmp_path)

    def test_grid_not_power_of_two(self, tmp_path):
        self.assert_rejected(["grid.n=12", "model.kind=ns"], tmp_path)

    def test_truncated_snapshot_file(self, tmp_path):
        path = tmp_path / "short.hnsf"
        path.write_bytes(b"HNSF")
        self.assert_rejected(["model.kind=ns", "init.kind=file", f"init.path={path}"], tmp_path)

    def test_snapshot_on_other_grid(self, tmp_path):
        from hnslab.spectral import GridSpec, SpectralField, write_snapshot

        path = tmp_path / "ic.hnsf"
        write_snapshot(path, SpectralField.zeros(GridSpec(2, 32), 2))
        self.assert_rejected(["model.kind=ns", "init.kind=file", f"init.path={path}"], tmp_path)

    @pytest.mark.parametrize("variable", ["alpha", "epsilon"])
    def test_sweep_truncated_snapshot_file(self, tmp_path, variable):
        path = tmp_path / "short.hnsf"
        path.write_bytes(b"HNSF")
        sweep = ("sweep", f"sweep.variable={variable}", "sweep.values=0.1,0.01,0.001")
        overrides = ["model.epsilon=0.01", "init.kind=file", f"init.path={path}"]
        self.assert_rejected(overrides, tmp_path, command=sweep)

    def test_speed_test_unknown_bump(self, tmp_path):
        speed_test = ("speed-test", "model.kind=hns_eps_alpha")
        overrides = ["speed.bump=bogus", "model.epsilon=0.01", "model.alpha=0.01"]
        self.assert_rejected(overrides, tmp_path, command=speed_test)

    def test_epsilon_cutoff_without_epsilon(self, tmp_path):
        self.assert_rejected(["model.kind=ns", "init.epsilon_cutoff=1"], tmp_path)

    def test_numpy_error_building_inputs_exits_4(self, tmp_path, monkeypatch):
        import hnslab.experiments as experiments

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(experiments, "random_band_limited", broken)
        args = ["simulate", "seed=1", "grid.n=16", "model.kind=ns", "init.kind=random"]
        assert run_cli(args, tmp_path) == 4

    def test_internal_error_still_exits_4(self, tmp_path, monkeypatch):
        import hnslab.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr(cli, "run_simulation", broken)
        assert run_cli(["simulate", "seed=1", "grid.n=16", "model.kind=ns"], tmp_path) == 4


class TestManifest:
    def test_manifest_written_and_run_id_stable(self, tmp_path):
        args = [
            "simulate",
            "seed=3",
            "grid.n=32",
            "model.kind=ns",
            "step.t_end=0",
        ]
        assert run_cli(args, tmp_path, out="a") == 0
        assert run_cli(args, tmp_path, out="b") == 0
        dir_a = next((tmp_path / "a").iterdir())
        dir_b = next((tmp_path / "b").iterdir())
        assert dir_a.name == dir_b.name  # content-hash run id
        m = json.loads((dir_a / "manifest.json").read_text())
        assert m["status"] == "ok"
        assert m["run_id"] == dir_a.name
        assert "probes.csv" in m["outputs"]

    def test_blowup_leaves_partial_probes(self, tmp_path):
        args = [
            "simulate",
            "seed=1",
            "grid.n=16",
            "model.kind=ns",
            "init.kind=random",
            "init.amplitude=1000",
            "step.dt=0.05",
            "step.t_end=2.5",
        ]
        assert run_cli(args, tmp_path) == 3
        (run_dir,) = (tmp_path / "runs").iterdir()
        m = json.loads((run_dir / "manifest.json").read_text())
        assert m["status"] == "blowup"
        assert m["outputs"] == ["probes.csv"]
        assert m["blowup_time"] == pytest.approx(0.1)
        assert m["runtime_seconds"] > 0
        rows = (run_dir / "probes.csv").read_text().splitlines()
        assert rows[0] == "time,probe_name,value"
        times = sorted({float(row.split(",")[0]) for row in rows[1:]})
        assert times == [0.0, 0.05]  # every snapshot before the blow-up, all probes
        assert len(rows) == 1 + 2 * 3

    def test_resource_use_recorded_outside_the_csvs(self, tmp_path):
        args = ["simulate", "seed=5", "grid.n=16", "model.kind=hns_eps_alpha", "model.epsilon=0.1",
                "model.alpha=0.1", "step.dt=0.01", "step.t_end=0.05"]  # fmt: skip
        blowup = ["simulate", "seed=1", "grid.n=16", "model.kind=ns", "init.kind=random",
                  "init.amplitude=1000", "step.dt=0.05", "step.t_end=2.5"]  # fmt: skip
        probes = []
        for out, argv, code in (("a", args, 0), ("b", args, 0), ("c", blowup, 3)):
            assert run_cli(argv, tmp_path, out=out) == code
            (run_dir,) = (tmp_path / out).iterdir()
            m = json.loads((run_dir / "manifest.json").read_text())
            assert m["peak_rss_mb"] > 0
            assert isinstance(m["minor_page_faults"], int) and m["minor_page_faults"] >= 0
            csv = (run_dir / "probes.csv").read_bytes()
            assert b"rss" not in csv and b"fault" not in csv
            probes.append(csv)
        assert probes[0] == probes[1]

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HNS_OUT_DIR", str(tmp_path / "env_runs"))
        code = main(["simulate", "seed=4", "grid.n=32", "model.kind=ns", "step.t_end=0"])
        assert code == 0
        assert (tmp_path / "env_runs").exists()


class TestSweepCommand:
    def test_mini_alpha_sweep_outputs(self, tmp_path):
        args = [
            "sweep",
            "seed=5",
            "grid.n=32",
            "model.epsilon=0.01",
            "sweep.variable=alpha",
            "sweep.values=1e-1,1e-2,1e-3",
            "sweep.T_final=0.1",
            "init.kind=taylor_green",
        ]
        assert run_cli(args, tmp_path) == 0
        rundir = next((tmp_path / "runs").iterdir())
        sweep_lines = (rundir / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0].startswith("sweep_var,value,T_final")
        assert len(sweep_lines) == 1 + 3 + 1  # header + 3 points + rate_fit row
        assert sweep_lines[-1].startswith("rate_fit,")
        rates = (rundir / "rates.csv").read_text().splitlines()
        assert rates[0] == "metric,slope,intercept,r_squared"
        assert any(ln.startswith("modulated_energy,") for ln in rates[1:])
        assert (rundir / "plot_modulated_energy.dat").exists()

    def test_default_grid_row_count(self, tmp_path):
        # default alpha grid has 7 points -> 7 + summary row
        args = [
            "sweep",
            "seed=6",
            "grid.n=16",
            "model.epsilon=0.05",
            "sweep.variable=alpha",
            "sweep.T_final=0.05",
            "init.kind=taylor_green",
        ]
        assert run_cli(args, tmp_path) == 0
        rundir = next((tmp_path / "runs").iterdir())
        lines = (rundir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 7 + 1


class TestOtherCommands:
    def test_lp_check(self, tmp_path):
        args = ["lp-check", "seed=7", "grid.n=32", "lp.trials=8", "lp.names=ladyzhenskaya,bernstein"]
        assert run_cli(args, tmp_path) == 0
        rundir = next((tmp_path / "runs").iterdir())
        lines = (rundir / "inequalities.csv").read_text().splitlines()
        assert lines[0] == "name,trials,max_ratio,mean_ratio,seed,dim,n,L"
        assert len(lines) == 3

    def test_speed_test(self, tmp_path):
        args = [
            "speed-test",
            "seed=8",
            "grid.n=128",
            "model.epsilon=0.1",
            "model.alpha=0.1",
            "speed.bump=gradient",
            "speed.damping=0",
            "speed.samples=4",
        ]
        assert run_cli(args, tmp_path) == 0
        rundir = next((tmp_path / "runs").iterdir())
        assert (rundir / "front.csv").read_text().splitlines()[0] == (
            "time,support_radius,bound_radius"
        )
        summary = (rundir / "front_summary.txt").read_text()
        assert "bound_satisfied=1" in summary

    def test_gates(self, tmp_path):
        args = [
            "gates",
            "seed=9",
            "grid.n=32",
            "model.kind=hns_eps",
            "model.epsilon=0.01",
            "init.amplitude=0.05",
            "gates.constants_trials=100",
        ]
        assert run_cli(args, tmp_path) == 0
        rundir = next((tmp_path / "runs").iterdir())
        assert (rundir / "gates.csv").read_text().splitlines()[0] == (
            "gate,value,threshold,ratio,passed"
        )
        assert (rundir / "constants.csv").exists()
        assert (rundir / "gates.txt").exists()
