"""Output-field noise and force sensitivity of the dissipative probe.

Everything here works in reduced units: frequencies are measured in
units of the bare cavity linewidth and enter as ``omega_tilde``, while
the drive strength, parametric gain, mechanical damping and thermal
scale ride along in a :class:`~pasense.params.ReducedParams`.
``omega_tilde`` must lie in [1e-12, 1e12]; outside it every function
here raises :class:`~pasense.errors.DomainError`.

The detected signal is a homodyne quadrature of the light leaving the
cavity, selected by the local-oscillator angle ``phi``.  ``phi = 0`` is
the amplitude quadrature; at ``phi = +-pi/2`` the detector looks at the
phase quadrature, which carries squeezed noise but no force signal, so
the sensitivity diverges there.

Sensitivities are reported relative to the free-mass standard quantum
limit, ``R_rel = S_FF / F_SQL^2`` with ``F_SQL^2 = 2 m hbar omega^2``.
The conventional limit of a shot-noise/backaction trade-off sits at
``R_rel = 1/2``; smaller values beat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DivergentSensitivityError, DomainError, InvalidParameterError
from .params import HBAR, ReducedParams

_HALF_PI = 0.5 * np.pi

# Supported reduced frequencies.  Every quantity here is finite at both
# ends, with margin (still at 1e-30 and 1e30).  Far outside, products
# of omega^2 overflow (at 1e60) or omega^2 underflows to zero (at
# 1e-200), and the closed forms return inf or NaN.
_OMEGA_RANGE = (1e-12, 1e12)


def _checked_omega(omega_tilde: Any) -> np.ndarray:
    w = np.asarray(omega_tilde, dtype=float)
    low, high = _OMEGA_RANGE
    # NaN propagates through min and max, so these two reductions reject
    # NaN and out-of-range values alike.
    if w.size and not (low <= w.min() and w.max() <= high):
        raise DomainError(
            f"omega_tilde must be finite and in [{low:g}, {high:g}], "
            f"got {omega_tilde!r}"
        )
    return w


def _checked_phase(phi: Any, bound: float = _HALF_PI) -> np.ndarray:
    # |phi| < bound; output_spectrum, finite at every finite angle, passes inf.
    p = np.asarray(phi, dtype=float)
    # One reduction: NaN propagates through max and fails both comparisons.
    top = np.abs(p).max() if p.size else 0.0
    if not top < bound:
        if not top < np.inf:
            raise DomainError(f"phi must not be NaN or infinite, got {phi!r}")
        raise DivergentSensitivityError(
            "phi = +-pi/2: phase quadrature carries no force signal"
        )
    return p


def _gain_coefficients(g: Any) -> tuple[float, float, float]:
    # (1 + 2g)^2, (1 - 2g)^2 and 16 g^2 as Python floats.  Python's pow()
    # and numpy's array square round differently for some g, so every
    # caller takes these from here, sweep's gain columns included.
    g = float(g)
    return (1.0 + 2.0 * g) ** 2, (1.0 - 2.0 * g) ** 2, 16.0 * g * g


def _gain_polynomials(coefficients, x: Any):
    # x is omega_tilde squared; coefficients come from _gain_coefficients,
    # as scalars or as columns that broadcast against x.  "up" belongs to
    # the amplified quadrature, "lo" to the deamplified one, "s16" to the
    # force transfer; all three are strictly positive for x > 0, g < 1/2.
    up0, lo0, c16 = coefficients
    return up0 + x, lo0 + x, x + c16


# The closed forms below build each term in place: one fresh product,
# then augmented assignments on it in the left-to-right order of the
# plain expression, so every result bit equals the plain expression's
# and no full-grid temporary is thrown away.  On floats and numpy
# scalars the augmented assignments simply rebind; callers' arrays are
# never written to.


def _k_formula(J: Any, up: Any, s16: Any, x: Any) -> Any:
    # Measurement strength K = J * s16 / (up * x); J = J0 / (1 - 2g)^2.
    k = J * s16
    k /= up * x
    return k


def _mu_formula(rp: ReducedParams, squeeze: Any, up: Any, s16: Any, x: Any) -> Any:
    # Phase-optimized sensitivity.  rp supplies J0, gam and theta only;
    # the gain enters through squeeze = (1 - 2g)^2 and the polynomials.
    # floor + residual + theta * gam / x, with
    #   floor    = up * xg * squeeze / (4 * J0 * s16)
    #   residual = J0 * s16 * gam * gam / (4 * squeeze * up * xg * x).
    J0, gam = rp.J0, rp.gam
    xg = x + gam * gam
    floor = up * xg
    floor *= squeeze
    with np.errstate(divide="ignore"):
        floor /= 4.0 * J0 * s16
    residual = J0 * s16
    residual *= gam
    residual *= gam
    den = 4.0 * squeeze * up
    den *= xg
    den *= x
    residual /= den
    floor += residual
    floor += rp.theta * gam / x
    return floor


@dataclass(frozen=True, eq=False)
class KernelSet:
    """Frequency-domain building blocks of the detected noise.

    A    noise gain of the amplified output quadrature (>= 1, and 1 at
         zero parametric gain)
    K    measurement strength of the lossless free particle; the
         backaction-to-shot-noise knob
    Kn   measurement response including mechanical damping; complex,
         and equal to K when the damping vanishes
    u    unit-modulus factor rotated into the output quadratures by the
         gain; |u| = 1 identically
    B    complex force-to-output transfer amplitude; |B|^2 fixes the
         shot-noise floor
    """

    A: Any
    K: Any
    Kn: Any
    u: Any
    B: Any


def _transfer(rp: ReducedParams, w: np.ndarray):
    # A, K, Kn and B of the KernelSet at checked frequencies w: all but u.
    x = w * w
    up, lo, s16 = _gain_polynomials(_gain_coefficients(rp.g), x)
    K = _k_formula(rp.J, up, s16, x)
    # Built from K so that Kn == K holds bitwise at zero damping.
    damp = 1.0 + 1j * (rp.gam / w)
    Kn = K / damp
    return up / lo, K, Kn, np.sqrt(2.0 * Kn / damp)


def kernels(rp: ReducedParams, omega_tilde: Any) -> KernelSet:
    """Evaluate the response kernels at one or many reduced frequencies.

    ``omega_tilde`` may be a scalar or an array; every field of the
    returned :class:`KernelSet` has the same shape.
    """
    w = _checked_omega(omega_tilde)
    g = rp.g
    A, K, Kn, B = _transfer(rp, w)
    up, _, s16 = _gain_polynomials(_gain_coefficients(g), w * w)
    u = 1j * np.sqrt(s16 / up) * ((1.0 + 2.0 * g) - 1j * w) / (w + 4j * g)
    return KernelSet(A=A, K=K, Kn=Kn, u=u, B=B)


def sql_force(mass: float, omega: Any) -> Any:
    """Standard-quantum-limit force scale sqrt(2 m hbar) * omega, in N/sqrt(Hz).

    ``mass`` in kg, ``omega`` in rad/s.  This is the free-mass
    benchmark every R_rel in this module is measured against.
    """
    if not mass > 0:
        raise InvalidParameterError(f"mass must be > 0, got {mass}")
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise InvalidParameterError("omega must be >= 0")
    return np.sqrt(2.0 * mass * HBAR) * w


def output_spectrum(
    rp: ReducedParams, omega_tilde: Any, phi: Any, s_ex_rel: float = 0.0
) -> Any:
    """Symmetrized noise spectrum of the detected output quadrature.

    ``phi`` is the homodyne angle in radians and may take any finite
    value, including +-pi/2 where the spectrum stays finite.
    ``s_ex_rel`` adds an external force background, quoted relative to
    the free-mass standard quantum limit at the same frequency.  Inputs
    broadcast against each other.
    """
    if s_ex_rel < 0:
        raise InvalidParameterError(f"s_ex_rel must be >= 0, got {s_ex_rel}")
    w = _checked_omega(omega_tilde)
    p = _checked_phase(phi, np.inf)
    # Kernels on the frequencies and cos/sin on the angles as given;
    # only the terms that mix the two are broadcast.
    A, _, Kn, B = _transfer(rp, w)
    c = np.cos(p)
    s = np.sin(p)
    b2 = np.real(B * np.conj(B))
    force_background = rp.theta * rp.gam / (w * w) + s_ex_rel
    return A * (
        0.5 * c * c
        + 0.5 * np.abs(Kn * c + s / A) ** 2
        + b2 * c * c * force_background
    )


@dataclass(frozen=True, eq=False)
class SensitivityPoint:
    """Force-noise budget at given frequency and homodyne angle.

    All fields are broadcast to a common shape; ``omega_tilde``,
    ``phi``, ``shot`` and ``thermal`` are read-only broadcast views of
    arrays that vary along the frequency or the angle only.  R_rel is
    the total noise-to-signal ratio relative to the free-mass standard
    quantum limit and equals shot + backaction + thermal.
    """

    omega_tilde: Any
    phi: Any
    R_rel: Any
    shot: Any
    backaction: Any
    thermal: Any


def sensitivity(rp: ReducedParams, omega_tilde: Any, phi: Any) -> SensitivityPoint:
    """Force sensitivity relative to the standard quantum limit.

    Valid for |phi| < pi/2; at +-pi/2 the signal transfer vanishes and
    a :class:`DivergentSensitivityError` is raised, and a NaN or
    infinite angle is a :class:`DomainError`.  With zero drive
    (J0 = 0) the shot term and the total are infinite while the
    backaction term is exactly zero.
    """
    w = _checked_omega(omega_tilde)
    p = _checked_phase(phi)
    # Kernels on the frequencies and tan on the angles as given; only
    # the terms that mix the two are broadcast.
    A, _, Kn, B = _transfer(rp, w)
    b2 = np.real(B * np.conj(B))
    t = np.tan(p)
    # shot * |Kn + t/A|^2 and shot + backaction + thermal, built in place
    # on the one broadcast grid each, as the closed forms above are.
    with np.errstate(divide="ignore", invalid="ignore"):
        shot = 1.0 / (2.0 * b2)
        backaction = np.abs(Kn + t / A)
        backaction **= 2
        backaction *= shot
    # No drive means no measurement backaction, not an indeterminate 0*inf.
    # Only a zero b2 needs the substitution, so the grid pass is skipped
    # without one.
    if not b2.all():
        backaction = np.where(b2 == 0.0, 0.0, backaction)
    thermal = rp.theta * rp.gam / (w * w)
    R_rel = shot + backaction
    R_rel += thermal
    shape = backaction.shape
    return SensitivityPoint(
        omega_tilde=np.broadcast_to(w, shape),
        phi=np.broadcast_to(p, shape),
        R_rel=R_rel,
        shot=np.broadcast_to(shot, shape),
        backaction=backaction,
        thermal=np.broadcast_to(thermal, shape),
    )


def optimal_phase(rp: ReducedParams, omega_tilde: Any) -> Any:
    """Homodyne angle minimizing R_rel at fixed frequency.

    Closed form: the backaction term is a parabola in tan(phi), so the
    minimizer is an arctangent.  Always lies in (-pi/2, 0], and is 0
    when the drive is off.
    """
    w = _checked_omega(omega_tilde)
    x = w * w
    _, lo, s16 = _gain_polynomials(_gain_coefficients(rp.g), x)
    return np.arctan(-rp.J * s16 / (lo * (x + rp.gam * rp.gam)))


def mu(rp: ReducedParams, omega_tilde: Any) -> Any:
    """Phase-optimized sensitivity min_phi R_rel, in closed form.

    Three contributions survive at the optimal angle: the shot-noise
    floor, a residual backaction term proportional to the damping
    squared, and the thermal force noise.  Written out directly from
    the model polynomials, independently of :func:`sensitivity`, so the
    two routes can be cross-checked against each other.
    """
    w = _checked_omega(omega_tilde)
    x = w * w
    coefficients = _gain_coefficients(rp.g)
    up, _, s16 = _gain_polynomials(coefficients, x)
    return _mu_formula(rp, coefficients[1], up, s16, x)
