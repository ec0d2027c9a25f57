"""Actuation-ring geometry and the reduced-order inflation model.

A ring packs N inflatable chambers of arc length s, separated by gaps l,
around the mid-circumference pi*(R + r).  A calibrated membrane-scaling
law maps chamber pressure to normalized inflation d_c/r, the scalar the
design sweep maximizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

# Relative slack on the packing constraint.  Nominal parameter sets satisfy
# it only to ~0.1%, so exact equality would reject valid designs; 1% still
# rejects gross mispacking.
ARC_TOLERANCE = 0.01

SWEEP_PARAMETERS = ("N", "l", "t")


class InfeasibleGeometryError(ValueError):
    """Requested chamber layout cannot satisfy the packing constraint."""


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of a dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class RingGeometry:
    """Geometric parameters of one actuation ring (all lengths in mm)."""

    outer_radius_R: float
    inner_radius_r: float
    step_height_m: float  # carried for completeness; not used by the model
    chamber_spacing_l: float
    wall_thickness_t: float
    chamber_length_s: float
    chamber_count_N: int


@dataclass(frozen=True)
class SurrogateMaterial:
    """Material constants for the inflation law.

    nu is carried for documentation; the law uses only E and kappa.
    """

    youngs_modulus_E: float  # kPa
    poisson_ratio_nu: float
    calibration_kappa: float

    def __post_init__(self):
        require_finite(self)
        if self.youngs_modulus_E <= 0:
            raise ValueError(f"youngs_modulus_E must be > 0, got {self.youngs_modulus_E}")


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    """One swept parameter and its (value, d_c/r) samples in input order.

    Infeasible values keep their slot with inflation None (an explicit gap,
    never silently dropped).
    """

    parameter_name: str
    samples: tuple[tuple[float, Optional[float]], ...]

    def argmax(self) -> Optional[tuple[float, float]]:
        """Return the (value, d_c/r) pair with the largest inflation, or None."""
        feasible = [(v, d) for v, d in self.samples if d is not None]
        if not feasible:
            return None
        return max(feasible, key=lambda pair: pair[1])


def uniformity_factor(chamber_count_N: int) -> float:
    """Inflation uniformity penalty U(N) = 1 - exp(-((N-1)/2)^2).

    A single chamber cannot inflate the ring uniformly (U(1) = 0); the
    penalty relaxes quickly and is effectively 1 beyond N = 6.
    """
    x = (chamber_count_N - 1) / 2.0
    return 1.0 - math.exp(-(x * x))


def validate_geometry(g: RingGeometry) -> ValidationReport:
    """Check every RingGeometry invariant and report violations by name.

    Args:
        g: geometry to check; all fields must be finite.

    Returns:
        ValidationReport with passed=True iff no rule is violated.

    Raises:
        ValueError: if any field is non-finite (precondition, not a rule).
    """
    try:
        finite = all(math.isfinite(getattr(g, f.name)) for f in fields(g))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError("geometry fields must all be finite")

    violations = []
    if not g.inner_radius_r > 0:
        violations.append("inner_radius_r > 0")
    if not g.outer_radius_R > g.inner_radius_r:
        violations.append("outer_radius_R > inner_radius_r")
    if not g.wall_thickness_t > 0:
        violations.append("wall_thickness_t > 0")
    if not g.chamber_length_s > 0:
        violations.append("chamber_length_s > 0")
    if not g.chamber_spacing_l >= 0:
        violations.append("chamber_spacing_l >= 0")
    if not g.chamber_count_N >= 1:
        violations.append("chamber_count_N >= 1")

    arc = math.pi * (g.outer_radius_R + g.inner_radius_r)
    if arc > 0:
        packed = (g.chamber_length_s + g.chamber_spacing_l) * g.chamber_count_N
        rel_err = abs(packed - arc) / arc
        if rel_err > ARC_TOLERANCE:
            violations.append(
                f"chamber packing |(s+l)*N - pi*(R+r)| within {ARC_TOLERANCE:.0%}"
                f" (got {rel_err:.4f} relative)"
            )
    return ValidationReport(not violations, tuple(violations))


def solve_chamber_length(
    outer_radius_R: float, inner_radius_r: float, chamber_spacing_l: float, chamber_count_N: int
) -> float:
    """Solve the packing constraint (s + l) * N = pi * (R + r) for s.

    Raises:
        InfeasibleGeometryError: if the solved s is not positive, i.e. the
            requested spacing exceeds each chamber's share of the arc.
        ValueError: if chamber_count_N < 1.
    """
    if chamber_count_N < 1:
        raise ValueError(f"chamber_count_N must be >= 1, got {chamber_count_N}")
    s = math.pi * (outer_radius_R + inner_radius_r) / chamber_count_N - chamber_spacing_l
    if s <= 0:
        raise InfeasibleGeometryError(
            f"chamber length infeasible: spacing l={chamber_spacing_l} with "
            f"N={chamber_count_N} leaves s={s:.4f} mm"
        )
    return s


def surrogate_inflation(g: RingGeometry, mat: SurrogateMaterial, pressure_P: float) -> float:
    """Normalized inflation d_c/r of one ring at the given pressure (kPa).

    The law is a membrane-deflection scaling, d_c/r = kappa * P*s / (E*t*r),
    damped by the uniformity factor U(N).  It is linear in P and reproduces
    the three design trends: thinner walls and longer chambers inflate more,
    and very small chamber counts inflate non-uniformly.

    Raises:
        ValueError: if the geometry fails validation or P < 0.
    """
    report = validate_geometry(g)
    if not report.passed:
        raise ValueError("invalid geometry: " + "; ".join(report.violations))
    if pressure_P < 0:
        raise ValueError(f"pressure must be >= 0, got {pressure_P}")
    scale = (pressure_P * g.chamber_length_s) / (
        mat.youngs_modulus_E * g.wall_thickness_t * g.inner_radius_r
    )
    return mat.calibration_kappa * scale * uniformity_factor(g.chamber_count_N)


def calibrate_kappa(
    g: RingGeometry, youngs_modulus_E: float, target_ratio: float, pressure_P: float
) -> float:
    """Closed-form kappa such that surrogate_inflation hits target_ratio at P.

    Raises:
        ValueError: a target_ratio that is not finite and > 0, an E that
            SurrogateMaterial rejects, invalid geometry, P <= 0, or an
            uncalibratable geometry (N = 1 has zero uniformity factor).
    """
    if not 0 < target_ratio < math.inf:
        raise ValueError(f"target_ratio must be finite and > 0, got {target_ratio}")
    if pressure_P <= 0:
        raise ValueError("uncalibratable at zero pressure")
    unit = surrogate_inflation(g, SurrogateMaterial(youngs_modulus_E, 0.0, 1.0), pressure_P)
    if unit == 0.0:
        raise ValueError("uncalibratable geometry: N=1 has zero uniformity factor")
    return target_ratio / unit


def _vary(base: RingGeometry, parameter: str, value: float) -> RingGeometry:
    # N and l sweeps re-solve s so the packing constraint stays exact; the
    # t sweep leaves packing untouched.
    if parameter == "N":
        n = int(value)
        if n != value:
            raise ValueError(f"chamber count must be an integer, got {value}")
        s = solve_chamber_length(base.outer_radius_R, base.inner_radius_r, base.chamber_spacing_l, n)
        return replace(base, chamber_length_s=s, chamber_count_N=n)
    if parameter == "l":
        s = solve_chamber_length(
            base.outer_radius_R, base.inner_radius_r, value, base.chamber_count_N
        )
        return replace(base, chamber_spacing_l=value, chamber_length_s=s)
    return replace(base, wall_thickness_t=value)  # "t": sweep() has checked the name


def sweep(
    base: RingGeometry,
    mat: SurrogateMaterial,
    pressure_P: float,
    parameter: str,
    values: Sequence[float],
) -> SweepResult:
    """Evaluate d_c/r over a strictly increasing list of parameter values.

    Infeasible values (packing cannot close, or the varied geometry fails
    validation) appear as explicit None gaps in the result.

    Raises:
        ValueError: empty value list, non-increasing values, or an unknown
            parameter name.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}, expected one of {SWEEP_PARAMETERS}")
    if pressure_P < 0:
        raise ValueError(f"pressure must be >= 0, got {pressure_P}")
    values = list(values)
    if not values:
        raise ValueError("empty sweep: no parameter values given")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")

    samples = []
    for v in values:
        try:
            g = _vary(base, parameter, v)
            samples.append((v, surrogate_inflation(g, mat, pressure_P)))
        except (InfeasibleGeometryError, ValueError):
            samples.append((v, None))
    return SweepResult(parameter, tuple(samples))
