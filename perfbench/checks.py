"""Output checks shared by run.py, the reference recorder and the self-tests.

Nothing here imports hnslab: run.py applies these checks on the summaries its
worker processes return, so a broken program cannot break the checker.

A workload summary has two parts:

* ``values``: numbers and strings compared against the reference recorded
  from the parent code, at relative tolerance ``RTOL``;
* ``facts``: the numbers the paper's thresholds apply to (fit slopes,
  contraction ratios, front speeds).  Some appear only here, such as the
  Picard distances that end near the solver tolerance, whose exact values
  legitimate reordering of floating-point work would change.
"""

from __future__ import annotations

import math

# Inputs depend on seed % VARIANTS.  The reference holds the parent code's
# outputs for every variant, so every seed is checked against recorded values.
VARIANTS = 16

# A reimplementation that reorders floating-point work (another FFT backend,
# batched transforms, a real-to-complex core) moves these outputs by about
# 1e-13 relative; a wrong one moves them by far more.  1e-8 keeps both apart
# and rejects an output scaled by 1 + 1e-6.
RTOL = 1e-8
# Entries of a series that sit near zero (the divergence of projected initial
# data, say) are compared against the scale of the whole series.
SERIES_ATOL = 1e-11

WORKLOADS = ("alpha-sweep", "eps-sweep", "sim3d-io", "analysis")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def compare(ref, got, path: str = "values", atol: float = 0.0) -> list[str]:
    """Differences between a reference summary and a fresh one, as messages."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return [f"{path}: keys differ"]
        errors = []
        for key in sorted(ref):
            errors += compare(ref[key], got[key], f"{path}.{key}", atol)
        return errors
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        nums = [abs(x) for x in ref if isinstance(x, float) and math.isfinite(x)]
        series_atol = max(atol, SERIES_ATOL * max(nums, default=0.0))
        errors = []
        for i, (r, g) in enumerate(zip(ref, got)):
            errors += compare(r, g, f"{path}[{i}]", series_atol)
        return errors
    if isinstance(ref, float) and isinstance(got, (int, float)):
        if math.isnan(ref) and math.isnan(got) or abs(got - ref) <= RTOL * abs(ref) + atol:
            return []
        return [f"{path}: {got!r} differs from reference {ref!r}"]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def physics_errors(workload: str, facts: dict) -> list[str]:
    """The paper's thresholds, as the acceptance criteria state them."""
    errors = []

    def need(ok: bool, message: str):
        if not ok:
            errors.append(message)

    if workload == "alpha-sweep":
        slope, r2 = facts["fits"]["div_l2t_l2"]
        need(slope >= 0.90 and r2 >= 0.95, f"criterion 5: div fit slope {slope:.3f}, r2 {r2:.4f}")
        slope, r2 = facts["fits"]["modulated_energy"]
        need(slope >= 0.45 and r2 >= 0.90, f"criterion 6: energy fit slope {slope:.3f}, r2 {r2:.4f}")
    elif workload == "eps-sweep":
        slope, r2 = facts["fits"]["sobolev_diff_sq"]
        need(slope >= 0.15 and r2 >= 0.90, f"criterion 7: fit slope {slope:.3f}, r2 {r2:.4f}")
    elif workload == "sim3d-io":
        need(all(math.isfinite(v) for s in facts["probes"].values() for v in s), "probe not finite")
        need(facts["final_time_matches"], "final snapshot time differs from t_end")
    elif workload == "analysis":
        need(all(math.isfinite(v) and v > 0 for v in facts["constants"]), "constant not finite")
        ratios = facts["picard_ratios"]
        need(bool(ratios) and max(ratios) < 1.0, f"criterion 10: Picard ratios {ratios}")
        for name, speed, target in facts["fronts"]:
            need(abs(speed - target) <= 0.05 * target, f"criterion 8: {name} front {speed} vs {target}")
        need(all(facts["cone_bounds"]), "criterion 8: front left the cone bound")
    return errors
