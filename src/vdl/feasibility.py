"""From lab parameters to kernel parameters and go/no-go estimates.

The experimental knobs are a polarizable molecule, a standing-wave laser
grating that switches the induced dipole on while the molecule crosses
it, and a pair of conducting plates.  This module chains the published
estimate formulas:

    peak intensity      I(x,y,z) = (8P / pi sigma_z sigma_y)
                                   exp(-2y^2/sigma_y^2 - 2z^2/sigma_z^2)
                                   sin^2(pi x / l)
    field amplitude     |E| = sqrt(16 P / (pi sigma_z sigma_y eps0 c))
    induced dipole      |d| = alpha_p |E|
    coupling            alpha = |d_on - d_off| / (L sqrt(4 pi eps0 hbar c))
    grating phase       phi(x) = phi_0 sin^2(pi x / l),
                        phi_0 = 8 sqrt(2 pi) (alpha_p / hbar c) P / (sigma_y v_z)

plus the two competing-effect checks: the switching must be sudden on
the cavity timescale (a/L <= v_z/c) and the which-path record written
by image currents in the plates must stay negligible over the transit
(transit << tau_d, with the induced image charge Q ~ |d|/L and the
single-ion dissipation timescale tau_d = (1e4 x / m)^3 * 1e-5 s taken at
x = L).

Verdict conventions (the source estimates are order-of-magnitude, so
the pass/fail rules are documented rather than implied):

* suddenness passes when (a/L) / (v_z/c) <= 1 (boundary counts as pass);
* the dipole verdict compares against the alpha_crit = 0.1 threshold
  with a factor-3 slack, matching the "within a factor 3" resolution of
  the published estimates;
* the image-charge verdict requires transit / tau_d <= 1e-2.

All operations are pure; identical inputs give bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import C_LIGHT, EPS0, HBAR, dipole_coupling_scale
from .errors import check_real
from .kernel import DecoherenceResult, DimensionlessParams, decoherence_kernel

__all__ = [
    "MoleculeSpec",
    "LaserConfig",
    "CavityConfig",
    "FeasibilityReport",
    "laser_intensity",
    "efield_amplitude",
    "induced_dipole",
    "alpha_from_dipole",
    "dipole_threshold",
    "grating_phase",
    "suddenness_check",
    "image_charge_assessment",
    "full_report",
    "DEFAULT_ALPHA_CRIT",
    "TRANSIT_CONVENTIONS",
]

DEFAULT_ALPHA_CRIT = 0.1

# pass when induced dipole reaches threshold / DIPOLE_VERDICT_SLACK
DIPOLE_VERDICT_SLACK = 3.0

# pass when transit_time / tau_d <= this
IMAGE_CHARGE_MARGIN = 1e-2

# transit time T spent inside the grating: "sigma" uses sigma_z / v_z,
# "two_sigma" uses the full entry-to-exit picture 2 sigma_z / v_z
TRANSIT_CONVENTIONS = ("sigma", "two_sigma")


@dataclass(frozen=True)
class MoleculeSpec:
    """Polarizable particle: alpha_p in C m^2/V, size and mass SI."""

    name: str
    polarizability: float
    size: float
    mass: float
    velocity: float

    def __post_init__(self):
        for name in ("polarizability", "size", "mass", "velocity"):
            check_real(name, getattr(self, name), positive=True)


@dataclass(frozen=True)
class LaserConfig:
    """Standing-wave grating: power W, widths m, grating period m.

    power = 0 is allowed as the degenerate switched-off laser.
    """

    power: float
    sigma_y: float
    sigma_z: float
    grating_period: float

    def __post_init__(self):
        check_real("power", self.power)
        for name in ("sigma_y", "sigma_z", "grating_period"):
            check_real(name, getattr(self, name), positive=True)

    @property
    def above_diffraction_limit(self) -> bool:
        """True when sigma_z could still be reduced toward the diffraction
        limit sigma_z ~ grating_period to increase the induced dipole."""
        return self.sigma_z > self.grating_period


@dataclass(frozen=True)
class CavityConfig:
    """Conducting plates: separation L and UV cutoff k_max (1/m)."""

    plate_separation: float
    cutoff_wavenumber: float

    def __post_init__(self):
        dipole_coupling_scale(self.plate_separation)
        check_real("cutoff_wavenumber", self.cutoff_wavenumber, positive=True)

    @property
    def kappa(self) -> float:
        return self.cutoff_wavenumber * self.plate_separation


@dataclass(frozen=True)
class FeasibilityReport:
    """Derived quantities plus per-check verdicts for one configuration."""

    molecule: str
    efield: float
    dipole: float
    alpha: float
    tau: float
    suddenness_ratio: float  # (a/L) / (v_z/c); <= 1 passes
    phase_amplitude: float
    threshold_dipole: float
    image_charge: float
    image_decoherence_time: float
    grating_transit_time: float
    visibility_loss_proxy: float
    verdicts: dict[str, bool] = field(repr=False)
    kernel_result: DecoherenceResult = field(repr=False)


def laser_intensity(x: float, y: float, z: float, laser: LaserConfig) -> float:
    """Grating intensity profile I(x, y, z) in W/m^2."""
    peak = 8.0 * laser.power / (math.pi * laser.sigma_z * laser.sigma_y)
    envelope = math.exp(-2.0 * y * y / laser.sigma_y ** 2
                        - 2.0 * z * z / laser.sigma_z ** 2)
    return peak * envelope * math.sin(math.pi * x / laser.grating_period) ** 2


def efield_amplitude(laser: LaserConfig) -> float:
    """Peak field amplitude |E| = sqrt(16 P / (pi sigma_z sigma_y eps0 c))."""
    return math.sqrt(
        16.0 * laser.power / (math.pi * laser.sigma_z * laser.sigma_y * EPS0 * C_LIGHT)
    )


def induced_dipole(molecule: MoleculeSpec, efield: float) -> float:
    """|d| = alpha_p |E|."""
    check_real("efield", efield)
    return molecule.polarizability * efield


def alpha_from_dipole(d_on: float, d_off: float, cavity: CavityConfig) -> float:
    """Dimensionless coupling alpha = |d_on - d_off| / (L sqrt(4 pi eps0 hbar c))."""
    return abs(d_on - d_off) / dipole_coupling_scale(cavity.plate_separation)


def dipole_threshold(alpha_crit: float, cavity: CavityConfig) -> float:
    """Dipole moment needed to reach a given critical coupling."""
    check_real("alpha_crit", alpha_crit)
    return alpha_crit * dipole_coupling_scale(cavity.plate_separation)


def _phase_amplitude(molecule: MoleculeSpec, laser: LaserConfig) -> float:
    return (8.0 * math.sqrt(2.0 * math.pi) * molecule.polarizability
            / (HBAR * C_LIGHT) * laser.power / (laser.sigma_y * molecule.velocity))


def grating_phase(x: float, molecule: MoleculeSpec, laser: LaserConfig) -> float:
    """Kapitza-Dirac phase phi(x) = phi_0 sin^2(pi x / l).

    phi_0 = 8 sqrt(2 pi) (alpha_p / hbar c) P / (sigma_y v_z); note it is
    independent of sigma_z, so shrinking the grating to the diffraction
    limit costs no phase.
    """
    return _phase_amplitude(molecule, laser) * math.sin(
        math.pi * x / laser.grating_period) ** 2


def suddenness_check(molecule: MoleculeSpec, cavity: CavityConfig
                     ) -> tuple[bool, float, float]:
    """Is the switching sudden on the cavity timescale?

    Returns (passed, a/L, v_z/c); passes when a/L <= v_z/c, the boundary
    counting as a pass.
    """
    size_ratio = molecule.size / cavity.plate_separation
    velocity_ratio = molecule.velocity / C_LIGHT
    return size_ratio <= velocity_ratio, size_ratio, velocity_ratio


def image_charge_assessment(d: float, cavity: CavityConfig, transit_time: float
                            ) -> tuple[float, float, bool]:
    """Induced image charge, its dissipation timescale, and the verdict.

    Q ~ |d| / L; tau_d = (1e4 L / m)^3 * 1e-5 s, the published single-ion
    value applied at distance L (superposition near the center).  The
    verdict passes when transit_time / tau_d <= 1e-2.
    """
    check_real("transit_time", transit_time, positive=True)
    check_real("dipole", d)
    L = cavity.plate_separation
    q = d / L
    tau_d = (1e4 * L) ** 3 * 1e-5
    return q, tau_d, transit_time / tau_d <= IMAGE_CHARGE_MARGIN


def full_report(molecule: MoleculeSpec, laser: LaserConfig, cavity: CavityConfig,
                transit_convention: str = "sigma") -> FeasibilityReport:
    """Chain field -> dipole -> alpha -> tau -> kernel -> verdicts.

    The switched-off dipole is taken as exactly zero outside the grating
    (neutral molecules carry no appreciable permanent moment), so alpha
    uses the full induced dipole.
    """
    if transit_convention not in TRANSIT_CONVENTIONS:
        raise ValueError(f"transit_convention must be one of {TRANSIT_CONVENTIONS}")
    efield = efield_amplitude(laser)
    dipole = induced_dipole(molecule, efield)
    alpha = alpha_from_dipole(dipole, 0.0, cavity)
    transit = laser.sigma_z / molecule.velocity
    if transit_convention == "two_sigma":
        transit *= 2.0
    tau = C_LIGHT * transit / cavity.plate_separation
    result = decoherence_kernel(DimensionlessParams(alpha, cavity.kappa, tau))
    loss = 1.0 - result.kernel
    threshold = dipole_threshold(DEFAULT_ALPHA_CRIT, cavity)
    sudden_ok, size_ratio, velocity_ratio = suddenness_check(molecule, cavity)
    q, tau_d, image_ok = image_charge_assessment(dipole, cavity, transit)
    verdicts = {
        "suddenness": sudden_ok,
        "dipole_above_threshold": dipole >= threshold / DIPOLE_VERDICT_SLACK,
        "image_charge_subdominant": image_ok,
        "laser_at_diffraction_limit": not laser.above_diffraction_limit,
    }
    return FeasibilityReport(
        molecule=molecule.name,
        efield=efield,
        dipole=dipole,
        alpha=alpha,
        tau=tau,
        suddenness_ratio=size_ratio / velocity_ratio,
        phase_amplitude=_phase_amplitude(molecule, laser),
        threshold_dipole=threshold,
        image_charge=q,
        image_decoherence_time=tau_d,
        grating_transit_time=transit,
        visibility_loss_proxy=loss,
        verdicts=verdicts,
        kernel_result=result,
    )
