"""CLI behavior: config parsing, exit codes, manifests, output schemas."""

import json
import os

import numpy as np
import pytest

from hnslab.cli import ConfigError, load_config, main
from hnslab.spectral import InvalidFieldError


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

    def test_epsilon_sweep_csv_ignores_epsilon_cutoff(self, tmp_path):
        # an epsilon sweep cuts u0 at each point's own eps, so init.epsilon_cutoff
        # changes neither its numbers nor the point run_ids in sweep.csv
        args = [
            "sweep",
            "seed=5",
            "grid.n=16",
            "sweep.variable=epsilon",
            "sweep.values=1e-1,1e-2,1e-3",
            "sweep.T_final=0.05",
            "init.kind=random",
        ]
        csv = []
        for cutoff in (0, 1):
            out = f"runs{cutoff}"
            assert run_cli(args + [f"init.epsilon_cutoff={cutoff}", "--workers", "1"], tmp_path, out=out) == 0
            (run_dir,) = (tmp_path / out).iterdir()
            csv.append((run_dir / "sweep.csv").read_bytes())
        assert csv[0] == csv[1]


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

    @pytest.mark.parametrize("values", [",", ",,"])
    def test_sweep_values_naming_no_value(self, tmp_path, values):
        sweep = ("sweep", f"sweep.values={values}")
        self.assert_rejected(["model.epsilon=0.1"], tmp_path, command=sweep)

    def test_sweep_dt_not_dividing_snapshot_interval(self, tmp_path):
        sweep = ("sweep", "sweep.variable=alpha", "sweep.T_final=0.05")
        self.assert_rejected(["model.epsilon=0.1", "step.dt=0.007"], tmp_path, command=sweep)

    @pytest.mark.parametrize("dt", ["0", "-1", "nan"])
    def test_simulate_nonpositive_dt(self, tmp_path, dt):
        # checked before dt divides t_end or is rounded to a whole number of steps
        simulate = ("simulate", "step.t_end=0.5")
        self.assert_rejected(["model.kind=ns", f"step.dt={dt}"], tmp_path, command=simulate)

    @pytest.mark.parametrize("dt", ["0", "-1", "nan"])
    def test_sweep_nonpositive_dt(self, tmp_path, dt):
        # a given dt is checked, not read as "no dt" when it is 0
        sweep = ("sweep", "sweep.variable=alpha", "sweep.T_final=0.05", "workers=1")
        self.assert_rejected(["model.epsilon=0.1", f"step.dt={dt}"], tmp_path, command=sweep)

    def test_lp_check_no_trials(self, tmp_path):
        self.assert_rejected(["lp.trials=0"], tmp_path, command=("lp-check",))

    def test_gates_too_few_constants_trials(self, tmp_path):
        gates = ("gates", "model.kind=hns_eps", "model.epsilon=0.01")
        self.assert_rejected(["gates.constants_trials=50"], tmp_path, command=gates)

    def test_removed_scheme_key(self, tmp_path):
        # ETD2 is the only stepper; step.scheme is no longer a key
        simulate = ("simulate", "step.t_end=0.01")
        self.assert_rejected(["model.kind=ns", "step.scheme=rk4_full"], tmp_path, command=simulate)

    def test_speed_test_unknown_bump(self, tmp_path):
        speed_test = ("speed-test", "model.kind=hns_eps_alpha")
        overrides = ["speed.bump=bogus", "model.epsilon=0.01", "model.alpha=0.01"]
        self.assert_rejected(overrides, tmp_path, command=speed_test)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_speed_test_too_few_samples(self, tmp_path, capsys, samples):
        # the speed fit needs two late samples; a window that fits is not enough
        overrides = ["grid.n=256", "model.epsilon=0.01", "model.alpha=0.01", f"speed.samples={samples}"]
        self.assert_rejected(overrides, tmp_path, command=("speed-test",))
        assert "n_samples >= 2" in capsys.readouterr().err

    def test_speed_test_bump_reaches_antipode(self, tmp_path, capsys):
        # at the default grid.n=64 the L/40 bump's thresholded support covers
        # the torus: found when the bump is built, before the run directory
        overrides = ["grid.n=64", "model.epsilon=0.01", "model.alpha=0.01"]
        self.assert_rejected(overrides, tmp_path, command=("speed-test",))
        assert "InvalidWindowError: bump support already reaches the antipode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["model.alpha=nan"],
            ["model.epsilon=inf"],
            ["init.kind=random", "init.decay=nan"],
            ["init.kind=random", "init.amplitude=nan"],
            ["init.kind=random", "init.kmin=0"],
            ["init.kind=random", "init.kmin=-3"],
            ["init.u1_scale=nan"],
            ["init.kind=random", "init.kmin=20"],  # above the 16^2 dealias box: zero data
            ["init.kind=random", "init.kmin=5", "init.kmax=3"],  # an empty band: zero data
            ["step.dt=inf"],  # was one step of length t_end
            ["step.t_end=nan"],
            ["step.t_end=inf"],
        ],
        ids=[
            "alpha-nan", "epsilon-inf", "decay-nan", "amplitude-nan", "kmin-0", "kmin-negative",
            "u1_scale-nan", "kmin-above-box", "kmax-below-kmin", "step-dt-inf", "t_end-nan",
            "t_end-inf",
        ],  # fmt: skip
    )
    def test_non_finite_or_out_of_domain_value(self, tmp_path, overrides):
        # each was a blow-up, an internal error, a warning or a run on zero data or
        # with a silently replaced dt, with or without a run directory
        simulate = ("simulate", "model.epsilon=0.1", "model.alpha=0.1")
        self.assert_rejected(overrides, tmp_path, command=simulate)

    @pytest.mark.parametrize(
        "command, overrides",
        [
            (("lp-check", "lp.trials=5"), ["lp.names=,"]),
            (("speed-test", "model.epsilon=0.01", "model.alpha=0.01"), ["grid.n=256", "speed.t_end=nan"]),
        ],
        ids=["lp-names-empty", "speed-t_end-nan"],
    )
    def test_empty_or_non_finite_analysis_value(self, tmp_path, command, overrides):
        # each exited 0, with a header-only inequalities.csv or a front.csv at NaN times
        self.assert_rejected(overrides, tmp_path, command=command)

    @pytest.mark.parametrize(
        "overrides",
        [
            ["sweep.values=1e-1,nan,1e-3"],
            ["sweep.T_final=0"],
            ["sweep.snapshot_every_t=0"],
            ["sweep.resolve=0"],
            ["sweep.resolve=nan"],
            ["init.kind=random", "init.kmin=20"],
        ],
        ids=["values-nan", "T_final-0", "snapshot_every_t-0", "resolve-0", "resolve-nan", "kmin-above-box"],
    )
    def test_non_finite_or_out_of_domain_sweep_value(self, tmp_path, overrides):
        # each was an internal error or a fit to rounding noise, with a run directory;
        # an override given later wins, so sweep.T_final=0 replaces 0.05
        sweep = ("sweep", "model.epsilon=0.1", "sweep.T_final=0.05", "workers=1")
        self.assert_rejected(overrides, tmp_path, command=sweep)

    def test_epsilon_cutoff_without_epsilon(self, tmp_path):
        self.assert_rejected(["model.kind=ns", "init.epsilon_cutoff=1"], tmp_path)

    def test_numpy_error_building_inputs_exits_4(self, tmp_path, monkeypatch):
        import hnslab.experiments as experiments

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(experiments, "random_band_limited", broken)
        args = ["simulate", "seed=1", "grid.n=16", "model.kind=ns", "init.kind=random"]
        assert run_cli(args, tmp_path) == 4

    def test_invalid_field_not_read_from_a_file_exits_4(self, tmp_path, monkeypatch, capsys):
        # only data read from init.path is the user's; other data failing is an internal error
        import hnslab.experiments as experiments

        def broken(*args, **kwargs):
            raise InvalidFieldError("physical samples contain non-finite values")

        monkeypatch.setattr(experiments, "taylor_green", broken)
        assert run_cli(["simulate", "seed=1", "grid.n=16", "model.kind=ns"], tmp_path) == 4
        assert "init.path" not in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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
        assert m["steps"] == 0

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
        assert m["steps"] == 2  # the step that blew up counts
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
        for out, argv, code, steps in (("a", args, 0, 5), ("b", args, 0, 5), ("c", blowup, 3, 2)):
            assert run_cli(argv, tmp_path, out=out) == code
            (run_dir,) = (tmp_path / out).iterdir()
            m = json.loads((run_dir / "manifest.json").read_text())
            assert m["steps"] == steps
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

    @pytest.mark.parametrize("variable", ["alpha", "epsilon"])
    def test_initial_data_built_once(self, tmp_path, monkeypatch, variable):
        import hnslab.cli as cli
        import hnslab.experiments as experiments

        calls = []
        build = experiments.build_initial_data

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_initial_data", counting)
        monkeypatch.setattr(experiments, "build_initial_data", counting)
        args = [
            "sweep",
            "seed=1",
            "grid.n=16",
            "model.epsilon=0.01",
            f"sweep.variable={variable}",
            "sweep.values=0.1,0.01,0.001",
            "sweep.T_final=0.05",
            "workers=1",
        ]
        assert run_cli(args, tmp_path) == 0
        assert len(calls) == 1


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

    def test_speed_test_wrap_around_mid_run_exits_4(self, tmp_path, capsys):
        # a given window is not checked up front; wrap-around in a sample is a failed run
        args = ["speed-test", "seed=8", "grid.n=128", "model.epsilon=0.1", "model.alpha=0.1", "speed.t_end=10"]
        assert run_cli(args, tmp_path) == 4
        assert "InvalidWindowError: wrap-around detected" in capsys.readouterr().err
        # the failed run leaves a manifest that says so
        rundir = next((tmp_path / "runs").iterdir())
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("InvalidWindowError: wrap-around detected")
        assert manifest["outputs"] == []

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


class TestRunLifecycle:
    """One manifest for every outcome after the run directory exists; a run_id from the keys read."""

    SIMULATE = ["simulate", "seed=1", "grid.n=16", "model.kind=ns", "step.t_end=0.05"]

    def failed_manifest(self, tmp_path, argv, code):
        assert run_cli(argv, tmp_path) == code
        (run_dir,) = (tmp_path / "runs").iterdir()
        return json.loads((run_dir / "manifest.json").read_text())

    def test_interrupt_exits_130_with_manifest(self, tmp_path, monkeypatch):
        import hnslab.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_simulation", interrupted)
        m = self.failed_manifest(tmp_path, self.SIMULATE, 130)
        assert m["status"] == "interrupted"
        assert m["outputs"] == []

    def test_type_error_exits_4_with_manifest(self, tmp_path, monkeypatch):
        import hnslab.cli as cli

        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "run_simulation", broken)
        m = self.failed_manifest(tmp_path, self.SIMULATE, 4)
        assert m["status"] == "error"
        assert m["error"].startswith("TypeError: unsupported operand")

    def test_run_id_hashes_only_the_keys_read(self, tmp_path):
        lp = ["lp-check", "seed=1", "grid.n=16", "lp.trials=5"]
        assert run_cli(lp + ["step.dt=0.01"], tmp_path, out="lp") == 0
        assert run_cli(lp + ["step.dt=0.02"], tmp_path, out="lp") == 2  # the same run directory
        assert run_cli(self.SIMULATE + ["step.dt=0.01"], tmp_path, out="sim") == 0
        assert run_cli(self.SIMULATE + ["step.dt=0.025"], tmp_path, out="sim") == 0
        assert len(list((tmp_path / "sim").iterdir())) == 2

    def test_epsilon_sweep_run_id_ignores_epsilon_cutoff(self, tmp_path):
        # an epsilon sweep does not read init.epsilon_cutoff, so both values name one run directory
        args = [
            "sweep",
            "seed=5",
            "grid.n=16",
            "sweep.variable=epsilon",
            "sweep.values=1e-1,1e-2,1e-3",
            "sweep.T_final=0.05",
            "init.kind=random",
        ]
        assert run_cli(args + ["init.epsilon_cutoff=0", "--workers", "1"], tmp_path) == 0
        assert run_cli(args + ["init.epsilon_cutoff=1", "--workers", "1"], tmp_path) == 2

    def test_lp_check_on_substitute_grids_ignores_the_grid(self, tmp_path):
        # l3_embedding on a 2D configuration samples on its own 3D 32^3 grid,
        # so grid.n and grid.dealias are not read
        lp = ["lp-check", "seed=1", "lp.names=l3_embedding", "lp.trials=5"]
        assert run_cli(lp + ["grid.n=16"], tmp_path) == 0
        assert run_cli(lp + ["grid.n=32", "grid.dealias=0.5"], tmp_path) == 2
        (run_dir,) = (tmp_path / "runs").iterdir()
        keys = [ln.split("=")[0] for ln in (run_dir / "config.resolved").read_text().splitlines()]
        assert "grid.dim" in keys and "grid.n" not in keys and "grid.dealias" not in keys

    def test_lp_check_config_lists_the_keys_read(self, tmp_path):
        argv = ["lp-check", "seed=1", "grid.n=16", "lp.trials=5", "step.dt=0.01", "speed.samples=3"]
        assert run_cli(argv, tmp_path) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        keys = [ln.split("=")[0] for ln in (run_dir / "config.resolved").read_text().splitlines()]
        assert "lp.trials" in keys and "seed" in keys and "grid.n" in keys
        assert not [k for k in keys if k.startswith(("step.", "speed."))]

    def test_key_read_after_hashing_fails_the_run(self, tmp_path, monkeypatch):
        import hnslab.cli as cli

        def late_reader(cfg):
            cfg["grid.n"]
            return lambda out: cfg["lp.trials"]

        monkeypatch.setitem(cli._DISPATCH, "lp-check", late_reader)
        m = self.failed_manifest(tmp_path, ["lp-check", "seed=1"], 4)
        assert m["status"] == "error"
        assert m["error"].startswith("RuntimeError") and "lp.trials" in m["error"]

    def test_lp_check_on_an_empty_dealias_box_is_a_user_mistake(self, tmp_path):
        argv = ["lp-check", "seed=1", "grid.n=8", "grid.dealias=0.1", "lp.trials=10"]
        assert run_cli(argv, tmp_path) == 2
        assert not (tmp_path / "runs").exists()
