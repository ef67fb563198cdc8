"""Physical and mathematical constants used throughout the package.

CODATA 2018 values, fixed here so that every conversion between SI inputs
(dipole moments, plate separations, laser powers) and the dimensionless
kernel parameters is reproducible bit for bit.
"""

import math

from .errors import check_real

# speed of light in vacuum, m/s (exact)
C_LIGHT = 2.99792458e8

# reduced Planck constant, J*s
HBAR = 1.054571817e-34

# vacuum permittivity, F/m
EPS0 = 8.8541878128e-12

# elementary charge, C (exact)
E_CHARGE = 1.602176634e-19

# atomic mass unit, kg
AMU = 1.66053906660e-27

# Euler-Mascheroni constant, 17 digits (sufficient for double precision)
EULER_GAMMA = 0.57721566490153286


def dipole_coupling_scale(plate_separation: float) -> float:
    """Return L*sqrt(4*pi*eps0*hbar*c), the dipole moment that corresponds
    to unit dimensionless coupling alpha for plates a distance L apart."""
    check_real("plate separation L", plate_separation, positive=True)
    return plate_separation * math.sqrt(4.0 * math.pi * EPS0 * HBAR * C_LIGHT)
