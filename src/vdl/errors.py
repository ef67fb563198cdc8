"""Exception types, and the input rules every library entry point checks.

Each rule is written once and raises ValueError (exit code 2 on the
command line): ``<name> must be finite and >= 0, got <value>`` (or
``> 0``), ``<name> must be a positive integer, got <value>``, an even
switch count, and the antisymmetric plate profile d_left = -d_right.
"""

import math

import numpy as np


class CapabilityError(ValueError):
    """Request exceeds what a numerical routine can honestly deliver.

    Raised e.g. when an oscillatory quadrature is asked for a cutoff so
    large that resolving every oscillation is infeasible; the message
    points the caller at the closed-form path instead.
    """


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach its target accuracy.

    Carries the best partial result and the achieved error estimate so
    callers can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, partial: float = float("nan"),
                 error_estimate: float = float("nan")):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


def check_real(name: str, value, *, positive: bool = False) -> float:
    """A finite real >= 0 (> 0 when positive), as float."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return float(value)


def check_count(name: str, n, minimum: int = 1) -> int:
    """A count >= minimum given as any finite integer value (3 or 3.0), as int."""
    if not (math.isfinite(n) and n >= minimum and n == int(n)):
        rule = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {rule}, got {n!r}")
    return int(n)


def check_switch_count(n) -> None:
    """Even and >= 2: the dipole must be off after the last switch."""
    if not (isinstance(n, (int, np.integer)) and n >= 2 and n % 2 == 0):
        raise ValueError(f"n_switches must be an even integer >= 2, got {n!r}")


def check_antisymmetric(d_left: float, d_right: float) -> float:
    """d_left = -d_right to 1e-9 relative; returns d_right - d_left."""
    delta = d_right - d_left
    if abs(d_left + d_right) > 1e-9 * abs(delta):
        raise ValueError("the plates require the antisymmetric profile "
                         f"d_left = -d_right, got {d_left!r} and {d_right!r}")
    return delta
