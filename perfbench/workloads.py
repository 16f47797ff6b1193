"""The four benchmark workloads: seeded inputs, the timed call, and the output summary.

Each workload has three steps, run by ``worker.py`` in a fresh process:

* ``setup(variant, tiny)`` builds every input from the seed variant with
  numpy alone and writes the HNSF input snapshots, so the inputs stay the
  same bytes when the program's own generators or writers change;
* ``run(inputs)`` is the timed region: calls into hnslab's public API only,
  through module attributes so that the tracer's wrappers see them;
* ``summarize(inputs, outputs)`` returns the checked summary and the output
  bytes whose hash must repeat exactly.

Input costs do not depend on the seed (grids, step counts and sweep lengths
are fixed), so runs on different seeds time the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

import hnslab.cli as cli
import hnslab.energies as energies
import hnslab.experiments as experiments
import hnslab.littlewood_paley as littlewood_paley
import hnslab.solvers as solvers
import hnslab.spectral as spectral

MODULES = (spectral, littlewood_paley, solvers, energies, experiments, cli)

_TWO_PI = 2.0 * math.pi
_HNSF_HEADER = struct.Struct("<4sIIIddB")


# ---------------------------------------------------------------------------
# seeded inputs (numpy only)
# ---------------------------------------------------------------------------


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([sum(map(ord, workload)), variant])


def band_limited(rng, dim: int, n: int, ncomp: int, kmax: float, decay: float, amplitude: float):
    """Real samples of a mean-zero random field on 1 <= |j| <= kmax, envelope |j|^-decay."""
    freqs = [np.fft.fftfreq(n, 1.0 / n)] * (dim - 1) + [np.fft.rfftfreq(n, 1.0 / n)]
    mag = np.sqrt(sum(f * f for f in np.meshgrid(*freqs, indexing="ij")))
    envelope = np.where((mag >= 1.0) & (mag <= kmax), np.maximum(mag, 1.0) ** -decay, 0.0)
    shape = (ncomp, *envelope.shape)
    half = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope
    values = np.fft.irfftn(half, s=(n,) * dim, axes=tuple(range(1, dim + 1)))
    return values * (amplitude / np.max(np.abs(values)))


def write_hnsf(path: str, values: np.ndarray, dim: int, n: int):
    """Physical-sample HNSF version-1 snapshot on [0, 2 pi)^dim at time 0."""
    with open(path, "wb") as fh:
        fh.write(_HNSF_HEADER.pack(b"HNSF", 1, dim, n, _TWO_PI, 0.0, 0))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _spectral_data(values: np.ndarray, dim: int, n: int):
    grid = spectral.GridSpec(dim, n)
    field = spectral.to_spectral(spectral.PhysicalField(grid, values)).remove_mean()
    return spectral.dealias(field)


def _dealias_kmax(n: int) -> float:
    return math.floor(2.0 / 3.0 * (n // 2))


# ---------------------------------------------------------------------------
# alpha-sweep: criterion 5 / 6 at 128^2
# ---------------------------------------------------------------------------


class AlphaSweep:
    name = "alpha-sweep"

    def setup(self, variant: int, tiny: bool):
        rng = _rng(self.name, variant)
        top = 10.0 ** rng.uniform(-1.3, -1.0)
        amplitude = rng.uniform(0.5, 1.5)
        n = 16 if tiny else 128
        eps = 1e-2
        cfg = experiments.SweepConfig(
            sweep_variable="alpha",
            values=(top, top / 10.0, top / 100.0),
            fixed=solvers.ModelParams(solvers.Model.HNS_EPS_ALPHA, epsilon=eps, alpha=top),
            initial_data=experiments.InitialDataSpec(kind="taylor_green", amplitude=amplitude),
            T_final=0.025 if tiny else 0.05,
            grid=spectral.GridSpec(2, n),
            seed=variant,
            snapshot_every_t=0.025,
            workers=1,
        )
        return {"cfg": cfg, "field_bytes": 2 * n * n * 16}

    def run(self, inputs):
        return experiments.sweep_alpha(inputs["cfg"])

    def summarize(self, inputs, result):
        return _sweep_summary(result, ("sup_modulated_energy", "div_l2t_l2", "sup_sobolev_diff_sq"))


# ---------------------------------------------------------------------------
# eps-sweep: criterion 7 at 64^2
# ---------------------------------------------------------------------------


class EpsSweep:
    name = "eps-sweep"

    def setup(self, variant: int, tiny: bool):
        rng = _rng(self.name, variant)
        n = 16 if tiny else 64
        values = band_limited(rng, 2, n, 2, _dealias_kmax(n), 3.0, rng.uniform(0.6, 1.0))
        write_hnsf("init.hnsf", values, 2, n)
        cfg = experiments.SweepConfig(
            sweep_variable="epsilon",
            values=(1e-1, 1e-2, 1e-3),
            fixed=solvers.ModelParams(solvers.Model.HNS_EPS, epsilon=1e-1),
            initial_data=experiments.InitialDataSpec(kind="file", path="init.hnsf"),
            T_final=0.05 if tiny else 0.2,
            grid=spectral.GridSpec(2, n),
            seed=variant,
            snapshot_every_t=0.025,
            workers=1,
        )
        return {"cfg": cfg, "field_bytes": 2 * n * n * 16}

    def run(self, inputs):
        return experiments.sweep_epsilon(inputs["cfg"])

    def summarize(self, inputs, result):
        return _sweep_summary(result, ("div_l2t_l2", "sup_sobolev_diff_sq"))


def _sweep_summary(result, fields):
    points = [[getattr(p, f) for f in ("value", *fields)] + [p.run_id] for p in result.points]
    fits = {name: [fit.slope, fit.r_squared] for name, fit in sorted(result.fits.items())}
    csv = result.to_csv().encode()
    return {"values": {"points": points, "fits": fits}, "facts": {"fits": fits}}, csv


# ---------------------------------------------------------------------------
# sim3d-io: hnslab simulate, 3D 32^3, file in, probes and snapshot out
# ---------------------------------------------------------------------------


class Sim3dIo:
    name = "sim3d-io"

    def setup(self, variant: int, tiny: bool):
        rng = _rng(self.name, variant)
        n = 8 if tiny else 32
        values = band_limited(rng, 3, n, 3, _dealias_kmax(n), 2.5, rng.uniform(0.5, 1.0))
        write_hnsf("init.hnsf", values, 3, n)
        t_end = 0.01 if tiny else 0.1
        argv = [
            "simulate",
            f"seed={variant}",
            "grid.dim=3",
            f"grid.n={n}",
            "model.kind=hns_eps_alpha",
            "model.epsilon=0.01",
            "model.alpha=0.01",
            f"step.t_end={t_end}",
            "init.kind=file",
            "init.path=init.hnsf",
            "snapshots.save=1",
            "--out",
            "out",
        ]
        return {"argv": argv, "t_end": t_end, "field_bytes": 3 * n**3 * 16}

    def run(self, inputs):
        code = cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"hnslab simulate exited with {code}")
        (run_dir,) = os.listdir("out")
        return os.path.join("out", run_dir)

    def summarize(self, inputs, run_dir):
        with open(os.path.join(run_dir, "probes.csv"), "rb") as fh:
            probes_csv = fh.read()
        with open(os.path.join(run_dir, "final.hnsf"), "rb") as fh:
            snapshot = fh.read()
        with open(os.path.join(run_dir, "config.resolved"), "rb") as fh:
            config = fh.read()
        series: dict[str, list[float]] = {}
        times: dict[str, list[float]] = {}
        lines = probes_csv.decode().splitlines()
        if lines[0] != "time,probe_name,value":
            raise ValueError(f"unexpected probes.csv header {lines[0]!r}")
        for line in lines[1:]:
            t, name, v = line.split(",")
            times.setdefault(name, []).append(float(t))
            series.setdefault(name, []).append(float(v))
        final, time = spectral.read_snapshot(os.path.join(run_dir, "final.hnsf"))
        samples = spectral.to_physical(final).values
        n = samples.shape[-1]
        picks = [samples[(slice(None), *((i * n) // 4 for _ in range(3)))].tolist() for i in range(4)]
        digest = {
            "time": time,
            "rms": np.sqrt(np.mean(samples**2, axis=(1, 2, 3))).tolist(),
            "max": np.max(np.abs(samples), axis=(1, 2, 3)).tolist(),
            "h1": spectral.sobolev_norm(final, 1.0),
            "samples": picks,
        }
        values = {"times": next(iter(times.values())), "probes": series, "final": digest}
        facts = {"probes": series, "final_time_matches": abs(time - inputs["t_end"]) <= 1e-12}
        return {"values": values, "facts": facts}, probes_csv + snapshot + config


# ---------------------------------------------------------------------------
# analysis: constants, gates, Picard, finite speed -- no ETD2 stepping
# ---------------------------------------------------------------------------


class Analysis:
    name = "analysis"

    def setup(self, variant: int, tiny: bool):
        rng = _rng(self.name, variant)
        n_lp, n_3d, n_pic, n_front, n_sol = (16, 8, 8, 128, 128) if tiny else (64, 32, 32, 512, 256)
        gates_u0 = _spectral_data(band_limited(rng, 2, n_lp, 2, _dealias_kmax(n_lp), 2.0, 0.3), 2, n_lp)
        picard_u0 = _spectral_data(band_limited(rng, 2, n_pic, 2, 4, 2.0, 0.02), 2, n_pic)
        centers = rng.uniform(0.0, _TWO_PI, size=(2, 2))
        return {
            "seed": variant,
            "grid2d": spectral.GridSpec(2, n_lp),
            "grid3d": spectral.GridSpec(3, n_3d),
            "gates_u0": gates_u0,
            "gates_u1": spectral.SpectralField.zeros(gates_u0.grid, 2),
            "gates_params": solvers.ModelParams(solvers.Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2),
            "picard_u0": picard_u0,
            "picard_u1": spectral.SpectralField.zeros(picard_u0.grid, 2),
            "picard_params": solvers.ModelParams(solvers.Model.HNS_EPS_ALPHA, epsilon=0.5, alpha=0.5),
            "picard_mesh": 4 if tiny else 24,
            "front_params": solvers.ModelParams(solvers.Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2),
            "front_grids": (spectral.GridSpec(2, n_front), spectral.GridSpec(2, n_sol)),
            "centers": [tuple(c) for c in centers.tolist()],
            "field_bytes": 2 * n_front * n_front * 16,
        }

    def run(self, x):
        constants = littlewood_paley.estimate_constants(x["seed"], 100, x["grid2d"], x["grid3d"])
        gates = energies.smallness_gates(x["gates_u0"], x["gates_u1"], x["gates_params"], constants)
        picard = solvers.picard_local_solve(
            x["picard_u0"], x["picard_u1"], x["picard_params"], T=0.1, tol=1e-11, n_mesh=x["picard_mesh"]
        )
        fronts = [
            experiments.finite_speed_experiment(
                x["front_params"], grid, experiments.BumpSpec(kind, center=center), damping=False
            )
            for kind, grid, center in zip(("gradient", "solenoidal"), x["front_grids"], x["centers"])
        ]
        return constants, gates, picard, fronts

    def summarize(self, x, outputs):
        constants, gates, picard, fronts = outputs
        state = picard.state
        sig = state.u.grid.dim / 2.0 + x["picard_params"].delta
        d = picard.distances
        params = x["front_params"]
        values = {
            "constants": dict(sorted(constants.items())),
            "gates": [[g.name, g.value, g.passed] for g in gates.gates],
            "picard": {
                "iterations": picard.iterations,
                "u_norms": [spectral.sobolev_norm(state.u, sig), spectral.sobolev_norm(state.u, sig - 1.0)],
                "ut_norm": spectral.sobolev_norm(state.u_t, sig - 1.0),
            },
            "fronts": [[f.measured_speed, f.initial_radius, f.support_radius] for f in fronts],
        }
        facts = {
            "constants": list(constants.values()),
            "picard_ratios": [d[i + 1] / d[i] for i in range(1, len(d) - 1) if d[i] > 0],
            "fronts": [
                ["gradient", fronts[0].measured_speed, params.c1],
                ["solenoidal", fronts[1].measured_speed, params.c2],
            ],
            "cone_bounds": [f.slope_bound_satisfied for f in fronts],
        }
        text = json.dumps({"values": values, "distances": d}, sort_keys=True).encode()
        text += b"".join(f.to_csv().encode() for f in fronts) + gates.to_table().encode()
        return {"values": values, "facts": facts}, text


WORKLOADS = {w.name: w for w in (AlphaSweep(), EpsSweep(), Sim3dIo(), Analysis())}
