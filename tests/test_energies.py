"""Energy functionals: term oracles, compound functional, modulated energy, gates."""

import numpy as np
import pytest

from hnslab.energies import (
    EnergyReport,
    MisalignmentError,
    MissingStateError,
    compute_N,
    energy,
    modulated_energy,
    script_E,
    smallness_gates,
)
from hnslab.solvers import Model, ModelParams, SolverState
from hnslab.spectral import (
    GridSpec,
    SpectralField,
    _full,
    _resize,
    dealias,
    divergence,
    helmholtz_project,
    random_band_limited,
    single_mode,
    sobolev_norm,
)

from test_spectral import PARITY_GRIDS, PARITY_IDS

CONSTS = {"K": 0.4, "K2": 0.6, "C2_interp": 0.6, "C3_nonlinear": 0.9, "C4_interp": 1.0}


def plancherel_term_oracle(field, grid, sigma):
    """Direct coefficient-sum norm over the full spectrum, independent of sobolev_norm."""
    j = np.fft.fftfreq(grid.n_per_axis, 1.0 / grid.n_per_axis)
    mesh = np.meshgrid(*[j] * grid.dim, indexing="ij")
    ka = grid.k_fundamental * np.sqrt(sum(m * m for m in mesh))
    w = np.zeros_like(ka)
    w[ka > 0] = ka[ka > 0] ** (2 * sigma)
    if sigma == 0:
        w[ka == 0] = 1.0
    full = _full(_resize(field.coeffs, grid, grid.n_per_axis // 2))  # lifted to the half spectrum
    return grid.domain_length**grid.dim * float(np.sum(w * np.sum(np.abs(full) ** 2, axis=0)))


@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
def test_energies_on_the_box_equal_half_spectrum(grid):
    rng = np.random.default_rng(51)
    fields = [dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(4)]
    half = [SpectralField(grid, _resize(F.coeffs, grid, grid.n_per_axis // 2)) for F in fields]
    params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
    on_box, on_half = ([SolverState(f[0], f[1], 0.0), SolverState(f[2], f[3], 0.0)] for f in (fields, half))
    got, want = (energy(states[0], params) for states in (on_box, on_half))
    for name in ("E0", "E_delta", "E_half", "E_half_delta", "div_l2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a is b is None or abs(a - b) <= 1e-13 * abs(b), name
    for name, b in want.components.items():
        assert abs(got.components[name] - b) <= 1e-13 * abs(b), name
    got, want = (modulated_energy(*states, params).value for states in (on_box, on_half))
    assert abs(got - want) <= 1e-13 * want


class TestEnergy:
    def test_zero_state(self, grid2d):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        st = SolverState(SpectralField.zeros(grid2d, 2), SpectralField.zeros(grid2d, 2), 0.0)
        rep = energy(st, params)
        assert rep.E0 == 0.0 and rep.E_delta == 0.0 and rep.div_l2 == 0.0

    def test_missing_ut(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS, epsilon=0.1)
        st = SolverState(random_band_limited(grid2d, rng, ncomp=2), None, 0.0)
        with pytest.raises(MissingStateError):
            energy(st, params)

    def test_penalty_removed_for_eps_model(self, grid2d, rng):
        # the eps-only energy is the penalized one with the penalty dropped
        u = random_band_limited(grid2d, rng, ncomp=2)
        v = random_band_limited(grid2d, rng, ncomp=2)
        st = SolverState(u, v, 0.0)
        pen = energy(st, ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.5))
        plain = energy(st, ModelParams(Model.HNS_EPS, epsilon=0.1))
        for term in ("shifted", "ut", "grad"):
            assert np.isclose(pen.components[f"high_{term}"], plain.components[f"high_{term}"])
        assert plain.components["high_penalty"] == 0.0
        assert np.isclose(pen.E_delta - pen.components["high_penalty"], plain.E_delta)

    def test_single_mode_term_by_term_oracle(self, grid2d):
        eps, alpha, delta = 0.2, 0.3, 0.5
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=eps, alpha=alpha, delta=delta)
        u = single_mode(grid2d, (2, 1), component=0, ncomp=2, amplitude=0.7)
        v = single_mode(grid2d, (1, 1), component=1, ncomp=2, amplitude=0.4)
        rep = energy(SolverState(u, v, 0.0), params)
        shifted = u + eps * v
        assert np.isclose(
            rep.components["high_shifted"],
            0.5 * plancherel_term_oracle(shifted, grid2d, delta),
            rtol=1e-12,
        )
        assert np.isclose(
            rep.components["high_ut"],
            0.5 * eps**2 * plancherel_term_oracle(v, grid2d, delta),
            rtol=1e-12,
        )
        assert np.isclose(
            rep.components["high_grad"],
            eps * plancherel_term_oracle(u, grid2d, 1 + delta),
            rtol=1e-12,
        )
        assert np.isclose(
            rep.components["high_penalty"],
            (eps / alpha) * plancherel_term_oracle(divergence(u), grid2d, delta),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("grid", [GridSpec(2, 16), GridSpec(3, 8)], ids=["2d16", "3d8"])
    @pytest.mark.parametrize("penalized", [True, False], ids=["eps_alpha", "eps"])
    def test_equals_per_order_formula(self, grid, penalized, rng):
        # div u and u + eps u_t are shared by the orders; the numbers are the
        # per-order formula's to the bit
        eps, alpha = 0.1, 0.2
        if penalized:
            params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=eps, alpha=alpha)
        else:
            params = ModelParams(Model.HNS_EPS, epsilon=eps)
        u = random_band_limited(grid, rng, ncomp=grid.dim)
        v = random_band_limited(grid, rng, ncomp=grid.dim)
        rep = energy(SolverState(u, v, 0.3), params)

        def formula(sigma):
            value = 0.5 * sobolev_norm(u + eps * v, sigma) ** 2
            value += 0.5 * eps**2 * sobolev_norm(v, sigma) ** 2
            value += eps * sobolev_norm(u, sigma + 1.0) ** 2
            if penalized:
                value += (eps / alpha) * sobolev_norm(divergence(u), sigma) ** 2
            return value

        base = 0.0 if grid.dim == 2 else 0.5
        assert rep.base == formula(base)
        assert rep.high == formula(base + params.delta)
        assert rep.div_l2 == sobolev_norm(divergence(u), 0.0)

    def test_sum_of_components(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        st = SolverState(
            random_band_limited(grid2d, rng, ncomp=2),
            random_band_limited(grid2d, rng, ncomp=2),
            0.0,
        )
        rep = energy(st, params)
        hi = sum(v for k, v in rep.components.items() if k.startswith("high_"))
        lo = sum(v for k, v in rep.components.items() if k.startswith("base_"))
        assert abs(rep.E_delta - hi) <= 1e-12 * rep.E_delta
        assert abs(rep.E0 - lo) <= 1e-12 * rep.E0

    def test_3d_orders(self, grid3d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1, delta=0.25)
        st = SolverState(
            random_band_limited(grid3d, rng, ncomp=3),
            random_band_limited(grid3d, rng, ncomp=3),
            0.0,
        )
        rep = energy(st, params)
        assert rep.E0 is None and rep.E_half is not None and rep.E_half_delta is not None
        assert rep.base == rep.E_half and rep.high == rep.E_half_delta


class TestScriptE:
    def test_zero(self):
        assert script_E(EnergyReport(0, E0=5.0, E_delta=0.0), 4) == 0.0

    def test_unit_sentinel(self):
        assert script_E(EnergyReport(0, E0=2.0, E_delta=1.5), 0) == 1.5

    def test_arithmetic(self):
        assert script_E(EnergyReport(0, E0=1.0, E_delta=1.0), 3) == 8.0


class TestComputeN:
    def test_zero_data(self):
        assert compute_N(0.0, 0.5, {"C_delta": 2.3}) == 1

    def test_bracket_arithmetic(self):
        # bracket 2.3 -> ceil(9.2) + 1 = 11; delta = 1 kills the power factor
        assert compute_N(0.0, 1.0, {"C_delta": 2.3}) == 11

    def test_delta_to_one_depends_only_on_norm(self):
        n1 = compute_N(2.0, 1.0, {"C_delta": 1.0})
        # bracket = 1 * (1 + 2*4) = 9 -> ceil(36)+1 = 37
        assert n1 == 37

    def test_reconstructed_constant_positive(self):
        n = compute_N(0.1, 0.5, CONSTS)
        assert isinstance(n, int) and n >= 1


class TestModulatedEnergy:
    def _params(self):
        return ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.2)

    def test_identical_divfree_states_zero(self, grid2d):
        # curl of a stream mode with power-of-two wavenumbers: the products
        # k1 k2 and k2 k1 are bit-identical, so div u is exactly zero
        from hnslab.spectral import gradient

        params = self._params()
        psi = single_mode(grid2d, (1, 2), amplitude=0.7371)
        g = gradient(psi)
        u = SpectralField(grid2d, np.stack([-g.coeffs[1], g.coeffs[0]]))
        st = SolverState(u, 0.5 * u, 0.0)
        assert sobolev_norm(divergence(u), 0.0) == 0.0
        assert modulated_energy(st, st, params).value == 0.0

    def test_projected_state_penalty_at_roundoff(self, grid2d, rng):
        params = self._params()
        u = helmholtz_project(random_band_limited(grid2d, rng, ncomp=2), "P")
        st = SolverState(u, u, 0.0)
        assert modulated_energy(st, st, params).value <= 1e-28

    def test_quadratic_scaling(self, grid2d, rng):
        params = self._params()
        u = helmholtz_project(random_band_limited(grid2d, rng, ncomp=2), "P")
        v = helmholtz_project(random_band_limited(grid2d, rng, ncomp=2), "P")
        zero = SolverState(SpectralField.zeros(grid2d, 2), SpectralField.zeros(grid2d, 2), 0.0)
        m1 = modulated_energy(SolverState(u, v, 0.0), zero, params)
        m2 = modulated_energy(SolverState(2.0 * u, 2.0 * v, 0.0), zero, params)
        for term in ("shifted_diff", "ut_diff", "grad_diff"):
            assert np.isclose(m2.components[term], 4.0 * m1.components[term], rtol=1e-12)

    def test_single_mode_term_oracle(self, grid2d):
        params = self._params()
        eps, alpha = params.epsilon, params.alpha
        u = single_mode(grid2d, (1, 2), component=0, ncomp=2, amplitude=0.3)
        v = single_mode(grid2d, (2, 0), component=1, ncomp=2, amplitude=0.2)
        zero = SolverState(SpectralField.zeros(grid2d, 2), SpectralField.zeros(grid2d, 2), 0.0)
        rep = modulated_energy(SolverState(u, v, 0.0), zero, params)
        assert np.isclose(
            rep.components["shifted_diff"],
            0.5 * plancherel_term_oracle(u + eps * v, grid2d, 0.0),
            rtol=1e-12,
        )
        assert np.isclose(
            rep.components["grad_diff"], eps * plancherel_term_oracle(u, grid2d, 1.0), rtol=1e-12
        )
        assert np.isclose(
            rep.components["penalty"],
            (eps / alpha) * plancherel_term_oracle(divergence(u), grid2d, 0.0),
            rtol=1e-12,
        )

    def test_time_misalignment(self, grid2d, rng):
        params = self._params()
        u = random_band_limited(grid2d, rng, ncomp=2)
        a = SolverState(u, u, 0.0)
        b = SolverState(u, u, 1.0)
        with pytest.raises(MisalignmentError):
            modulated_energy(a, b, params)

    def test_3d_uses_half_orders(self, grid3d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.2)
        u = helmholtz_project(random_band_limited(grid3d, rng, ncomp=3), "P")
        zero = SolverState(SpectralField.zeros(grid3d, 3), SpectralField.zeros(grid3d, 3), 0.0)
        rep = modulated_energy(SolverState(u, zero.u, 0.0), zero, params)
        assert np.isclose(
            rep.components["grad_diff"],
            params.epsilon * plancherel_term_oracle(u, grid3d, 1.5),
            rtol=1e-12,
        )


class TestGates:
    def test_zero_data_passes(self, grid2d):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        z = SpectralField.zeros(grid2d, 2)
        rep = smallness_gates(z, z, params, CONSTS)
        assert rep.all_passed

    def test_3d_threshold_computed_from_k2(self, grid3d, rng):
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        u = dealias(random_band_limited(grid3d, rng, ncomp=3, amplitude=0.01))
        rep = smallness_gates(u, SpectralField.zeros(grid3d, 3), params, CONSTS)
        gate = rep["u0_H_half_below_1_over_36K2cubed"]
        assert np.isclose(gate.threshold, 1.0 / (36.0 * CONSTS["K2"] ** 3))
        assert gate.passed == (sobolev_norm(u, 0.5) < gate.threshold)

    def test_cutoff_data_ratio_bounded_over_eps(self, grid2d_64, rng):
        # well-prepared cutoff data: the difference term is the spectral tail;
        # its ratio to eps^(s/2) stays bounded across the eps grid
        from hnslab.experiments import InitialDataSpec, build_initial_data

        ratios = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            params = ModelParams(Model.HNS_EPS, epsilon=eps, s=0.5)
            v0 = dealias(
                random_band_limited(grid2d_64, np.random.default_rng(1), ncomp=2, decay=2.0,
                                    divergence_free=True)
            )
            spec = InitialDataSpec(kind="random", seed=1, decay=2.0, epsilon_cutoff=True)
            u0, u1 = build_initial_data(spec, grid2d_64, params)
            rep = smallness_gates(u0, u1, params, CONSTS, v0=v0)
            ratios.append(rep["size_line1_vs_eps_s2"].ratio)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 20.0

    def test_alpha_gate_2d(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-3)
        u = dealias(random_band_limited(grid2d, rng, ncomp=2, amplitude=0.1))
        rep = smallness_gates(u, SpectralField.zeros(grid2d, 2), params, CONSTS)
        gate = rep["alpha_below_2_over_K2_u0sq"]
        expected = 2.0 / (CONSTS["K"] ** 2 * sobolev_norm(u, 0.0) ** 2)
        assert np.isclose(gate.threshold, expected)

    def test_table_and_csv(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        u = random_band_limited(grid2d, rng, ncomp=2)
        rep = smallness_gates(u, SpectralField.zeros(grid2d, 2), params, CONSTS)
        table = rep.to_table()
        assert "gate" in table and ("pass" in table or "FAIL" in table)
        rows = rep.to_csv_rows()
        assert len(rows) == len(rep.gates)
        assert rep.csv_header() == "gate,value,threshold,ratio,passed"
