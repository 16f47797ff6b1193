"""Scalar energy functionals: penalized energies, compound functional, modulated energies.

For the hyperbolic models the order-sigma energy of a state (u, u_t) is

    E^sigma = 1/2 |L^s (u + eps u_t)|_2^2 + eps^2/2 |L^s u_t|_2^2
              + eps |u|_{H^(sigma+1)}^2 + (eps/alpha) |div u|_{H^sigma}^2

with the penalty term present only for the penalized model.  In 2D the
relevant orders are sigma = 0 and delta; in 3D they shift to 1/2 and
1/2 + delta.  The modulated energy is the same quadratic form evaluated on the
difference against a reference solution, plus the penalty term of the
penalized state itself; its Gronwall control is what the alpha-sweeps measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .solvers import Model, ModelParams, SolverState
from .spectral import SpectralField, divergence, sobolev_norm

__all__ = [
    "EnergyReport",
    "ModulatedEnergyReport",
    "GateResult",
    "GateReport",
    "MissingStateError",
    "MisalignmentError",
    "energy",
    "script_E",
    "compute_N",
    "gronwall_constant",
    "modulated_energy",
    "smallness_gates",
]


class MissingStateError(ValueError):
    """Hyperbolic energy asked of a state without a time derivative."""


class MisalignmentError(ValueError):
    """Modulated energy asked of states at different times or grids."""


@dataclass
class EnergyReport:
    """Energies of one state; 2D fills (E0, E_delta), 3D (E_half, E_half_delta)."""

    time: float
    E0: float | None = None
    E_delta: float | None = None
    E_half: float | None = None
    E_half_delta: float | None = None
    div_l2: float = 0.0
    components: dict[str, float] = field(default_factory=dict)

    @property
    def base(self) -> float:
        """The low-order energy driving the compound functional."""
        return self.E0 if self.E0 is not None else self.E_half

    @property
    def high(self) -> float:
        """The delta-shifted energy the compound functional amplifies."""
        return self.E_delta if self.E_delta is not None else self.E_half_delta


def energy(state: SolverState, params: ModelParams) -> EnergyReport:
    """Evaluate the model energies of a state.

    The orders follow the dimension: (0, delta) in 2D and (1/2, 1/2 + delta)
    in 3D.  div u and u + eps u_t are formed once and shared by `div_l2` and
    both orders; each norm sums over the box its field holds.
    """
    if not params.is_hyperbolic:
        raise MissingStateError("NS has no hyperbolic energy; use sobolev_norm directly")
    if state.u_t is None:
        raise MissingStateError("hyperbolic energies need the time derivative")
    u, ut, eps = state.u, state.u_t, params.epsilon
    dim = u.grid.dim
    base_sigma = 0.0 if dim == 2 else 0.5
    high_sigma = base_sigma + params.delta
    div = divergence(u)
    shifted = ut * eps + u

    def terms(sigma: float) -> dict[str, float]:
        penalty = 0.0
        if params.model is Model.HNS_EPS_ALPHA:
            penalty = (eps / params.alpha) * sobolev_norm(div, sigma) ** 2
        return {
            "shifted": 0.5 * sobolev_norm(shifted, sigma) ** 2,
            "ut": 0.5 * eps**2 * sobolev_norm(ut, sigma) ** 2,
            "grad": eps * sobolev_norm(u, sigma + 1.0) ** 2,
            "penalty": penalty,
        }

    report = EnergyReport(time=state.time, div_l2=sobolev_norm(div, 0.0))
    base_terms = terms(base_sigma)
    high_terms = terms(high_sigma)
    base_val = sum(base_terms.values())
    high_val = sum(high_terms.values())
    if dim == 2:
        report.E0, report.E_delta = base_val, high_val
    else:
        report.E_half, report.E_half_delta = base_val, high_val
    for name, v in base_terms.items():
        report.components[f"base_{name}"] = v
    for name, v in high_terms.items():
        report.components[f"high_{name}"] = v
    return report


def script_E(report: EnergyReport, N: int) -> float:
    """Compound functional E_high * (1 + E_base)^N; N = 0 leaves E_high unchanged."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return report.high * (1.0 + report.base) ** N


def gronwall_constant(constants: dict[str, float], delta: float) -> float:
    """Reconstruct the Gronwall prefactor from measured inequality constants.

    The energy-derivative chain bounds d/dt E^d by
    C3 |u|_d |u|_inf |u|_{1+d} after the dissipation absorbs a quarter of
    |u|_{1+d}^2; substituting the interpolation bounds |u|_inf <= C2 |u|_d^d
    |u|_{1+d}^(1-d) and |u|_d <= C4 |u|_2^(1-d) |u|_1^d and applying Young with
    exponents (2/(2-d), 2/d) leaves C_d |u|_2^(2(1-d)/d) |u|_1^2 E^d with

        C_d = (d/2) (2(2-d))^((2-d)/d) (8)^(1/d) (C2 C3 C4)^(2/d)

    (the 8 covers |u|_d^2 <= 8 E^d).  The value only enters through the size
    of N, where overshooting is harmless.
    """
    c = constants["C2_interp"] * constants["C3_nonlinear"] * constants["C4_interp"]
    d = delta
    return (d / 2.0) * (2.0 * (2.0 - d)) ** ((2.0 - d) / d) * 8.0 ** (1.0 / d) * c ** (2.0 / d)


def compute_N(u0_norm: float, delta: float, constants: dict[str, float]) -> int:
    """Smallest exponent making the compound functional decay, plus margin.

    The decay condition is C_d * |u0|^(2(1-d)/d) * (1 + 2 |u0|^2) - N/4 < 0;
    the returned N is ceil(4B) + 1 where B is the bracket.  In 2D |u0| is the
    L2 norm, in 3D the H^(1/2) norm.  A pre-supplied "C_delta" in constants
    overrides the reconstructed prefactor.
    """
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    c_delta = constants.get("C_delta")
    if c_delta is None:
        c_delta = gronwall_constant(constants, delta)
    expo = 2.0 * (1.0 - delta) / delta
    bracket = c_delta * u0_norm**expo * (1.0 + 2.0 * u0_norm**2)
    return int(math.ceil(4.0 * bracket)) + 1


def modulated_energy(
    state: SolverState, ref_state: SolverState, params: ModelParams
) -> "ModulatedEnergyReport":
    """Dafermos-style modulated energy of a penalized state against a reference.

    Quadratic form of the difference d = u - u_ref in the dimension's base
    order (L2-based in 2D, H^(1/2)-based in 3D) plus the penalty norm of the
    penalized state's own divergence.  Zero exactly when the states coincide
    and div u = 0.
    """
    if state.u.grid != ref_state.u.grid:
        raise MisalignmentError("states live on different grids")
    if abs(state.time - ref_state.time) > 1e-12 * max(1.0, abs(state.time)):
        raise MisalignmentError(
            f"states at different times: {state.time} vs {ref_state.time}"
        )
    if state.u_t is None or ref_state.u_t is None:
        raise MissingStateError("modulated energy needs time derivatives of both states")
    if params.model is not Model.HNS_EPS_ALPHA:
        raise ValueError("modulated energy is defined for the penalized model")
    eps, alpha = params.epsilon, params.alpha
    dim = state.u.grid.dim
    base = 0.0 if dim == 2 else 0.5

    d = state.u - ref_state.u
    dt_ = state.u_t - ref_state.u_t
    comps = {
        "shifted_diff": 0.5 * sobolev_norm(d + eps * dt_, base) ** 2,
        "ut_diff": 0.5 * eps**2 * sobolev_norm(dt_, base) ** 2,
        "grad_diff": eps * sobolev_norm(d, base + 1.0) ** 2,
        "penalty": (eps / alpha) * sobolev_norm(divergence(state.u), base) ** 2,
    }
    return ModulatedEnergyReport(
        time=state.time, value=sum(comps.values()), components=comps
    )


@dataclass
class ModulatedEnergyReport:
    time: float
    value: float
    components: dict[str, float]


@dataclass
class GateResult:
    name: str
    value: float
    threshold: float | None
    ratio: float | None
    passed: bool

    def row(self) -> str:
        thr = "" if self.threshold is None else f"{self.threshold:.6g}"
        rat = "" if self.ratio is None else f"{self.ratio:.6g}"
        return f"{self.name},{self.value:.17g},{thr},{rat},{int(self.passed)}"


@dataclass
class GateReport:
    gates: list[GateResult]

    @property
    def all_passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def __getitem__(self, name: str) -> GateResult:
        for g in self.gates:
            if g.name == name:
                return g
        raise KeyError(name)

    def to_table(self) -> str:
        width = max(len(g.name) for g in self.gates) + 2
        lines = [f"{'gate':<{width}}{'value':>14}{'threshold':>14}{'ratio':>12}  status"]
        for g in self.gates:
            thr = "-" if g.threshold is None else f"{g.threshold:.4g}"
            rat = "-" if g.ratio is None else f"{g.ratio:.4g}"
            lines.append(
                f"{g.name:<{width}}{g.value:>14.6g}{thr:>14}{rat:>12}  "
                + ("pass" if g.passed else "FAIL")
            )
        return "\n".join(lines)

    @staticmethod
    def csv_header() -> str:
        return "gate,value,threshold,ratio,passed"

    def to_csv_rows(self) -> list[str]:
        return [g.row() for g in self.gates]


def smallness_gates(
    u0: SpectralField,
    u1: SpectralField,
    params: ModelParams,
    constants: dict[str, float],
    v0: SpectralField | None = None,
) -> GateReport:
    """Evaluate every data-size assumption behind the convergence claims as numbers.

    O(eps^(s/2)) hypotheses are reported as the measured ratio against that
    power; o(1) hypotheses report their plain value with a unit threshold.
    A single parameter point cannot certify an asymptotic statement, so gates
    report and never block; sweep the ratio over an eps grid for the real
    check.  The difference terms use v0 when given and vanish otherwise.
    """
    if not params.is_hyperbolic:
        raise ValueError("gates apply to the hyperbolic models")
    eps = params.epsilon
    s, delta = params.s, params.delta
    n = u0.grid.dim
    half_n = n / 2.0
    target = eps ** (s / 2.0)
    diff = (u0 - v0) if v0 is not None else None
    gates: list[GateResult] = []

    def add(name, value, threshold=None, ratio=None, passed=True):
        gates.append(GateResult(name, float(value), threshold, ratio, bool(passed)))

    # main data-size condition of the convergence guarantee, three grouped terms
    line1 = (
        (sobolev_norm(diff, half_n - 1.0) if diff is not None else 0.0)
        + eps * sobolev_norm(u1, half_n - 1.0)
        + math.sqrt(eps) * sobolev_norm(u0, half_n)
    )
    add("size_line1_vs_eps_s2", line1, None, line1 / target, line1 / target < 10.0)
    line2 = eps ** ((1.0 + delta) / 2.0) * sobolev_norm(u0, half_n + delta) + eps ** (
        delta / 2.0
    ) * sobolev_norm(u0, half_n - 1.0 + delta)
    add("size_line2_vs_eps_s2", line2, None, line2 / target, line2 / target < 10.0)
    line3 = eps ** (1.0 + delta / 2.0) * sobolev_norm(u1, half_n - 1.0 + delta)
    add("size_line3_o1", line3, 1.0, None, line3 < 1.0)

    if n == 2:
        h_i = eps ** ((1.0 + delta) / 2.0) * sobolev_norm(u0, 1.0 + delta) + eps ** (
            delta / 2.0
        ) * sobolev_norm(u0, delta)
        add("H_i_o1", h_i, 1.0, None, h_i < 1.0)
        h_ii = math.sqrt(eps) * sobolev_norm(u0, 1.0) + eps * sobolev_norm(u1, 0.0)
        add("H_ii_o1", h_ii, 1.0, None, h_ii < 1.0)
        h_extra = eps ** (1.0 + delta / 2.0) * sobolev_norm(u1, delta)
        add("H_u1_delta_o1", h_extra, 1.0, None, h_extra < 1.0)
        if params.model is Model.HNS_EPS_ALPHA:
            K = constants["K"]
            l2 = sobolev_norm(u0, 0.0)
            alpha_max = math.inf if l2 == 0 else 2.0 / (K**2 * l2**2)
            add("alpha_below_2_over_K2_u0sq", params.alpha, alpha_max, None, params.alpha <= alpha_max)
    else:
        hp_i = eps ** ((1.0 + delta) / 2.0) * sobolev_norm(u0, 1.5 + delta)
        add("Hp_i_o1", hp_i, 1.0, None, hp_i < 1.0)
        hp_ii = eps ** (delta / 2.0) * sobolev_norm(u0, 0.5 + delta)
        add("Hp_ii_o1", hp_ii, 1.0, None, hp_ii < 1.0)
        thr = 1.0 / (36.0 * constants["K2"] ** 3)
        h12 = sobolev_norm(u0, 0.5)
        add("u0_H_half_below_1_over_36K2cubed", h12, thr, h12 / thr, h12 < thr)
    return GateReport(gates)
