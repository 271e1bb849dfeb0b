"""Force sensing on a harmonically trapped particle, lossless case.

Adding a trap at reduced frequency ``omega_m_tilde`` stiffens the
mechanical response: the measurement strength picks up a factor
``omega^2 / (omega^2 - omega_m^2)`` and the detected force signal loses
the inverse of that factor.  The model here keeps no mechanical bath,
so it only applies to a lossless, zero-temperature configuration.

To compare trapped and free operation on one scale, both are normalized
by the free-mass standard quantum limit ``2 m hbar omega^2`` at the
same frequency.  That keeps every number finite in the free limit
``omega_m -> 0``, where the results reduce exactly to the free-particle
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InvalidParameterError, ResonanceDomainError
from .params import ReducedParams
from .response import (
    _checked_omega,
    _checked_phase,
    _gain_coefficients,
    _gain_polynomials,
    _k_formula,
)


def _checked_trap(omega_m_tilde: Any) -> np.ndarray:
    wm = np.asarray(omega_m_tilde, dtype=float)
    # As in _checked_omega: NaN fails both comparisons.
    if wm.size and not (0.0 <= wm.min() and wm.max() < np.inf):
        raise InvalidParameterError(
            f"omega_m_tilde must be finite and >= 0, got {omega_m_tilde!r}"
        )
    return wm


@dataclass(frozen=True, eq=False)
class OscillatorPoint:
    """Trapped-particle noise figures, free-SQL normalized.

    R_mo_rel  noise-to-signal ratio at the requested homodyne angle
    mu_mo     minimum of R_mo_rel over the homodyne angle
    """

    omega_tilde: Any
    omega_m_tilde: Any
    R_mo_rel: Any
    mu_mo: Any


def sensitivity_ratio(omega_m_tilde: Any, omega_tilde: Any) -> Any:
    """Phase-optimized trapped-to-free sensitivity ratio.

    Equals (1 - (omega_m/omega)^2)^2.  The ratio is a plain algebraic
    identity, finite for every positive frequency: it vanishes at the
    trap resonance and approaches one far above it.
    """
    wm = _checked_trap(omega_m_tilde)
    w = _checked_omega(omega_tilde)
    r = 1.0 - (wm / w) ** 2
    return r * r


def oscillator_sensitivity(
    rp: ReducedParams, omega_m_tilde: Any, omega_tilde: Any, phi: Any
) -> OscillatorPoint:
    """Trapped-particle sensitivity above resonance.

    Only the lossless model is available: ``rp`` must carry zero
    damping and zero thermal scale.  Frequencies at or below the trap
    resonance are rejected, since there the lossless response kernel
    changes sign.  Inputs broadcast against each other.
    """
    if rp.gam != 0.0 or rp.theta != 0.0:
        raise InvalidParameterError(
            "trapped-particle model is lossless only: gam and theta must be 0"
        )
    wm = _checked_trap(omega_m_tilde)
    w = _checked_omega(omega_tilde)
    p = _checked_phase(phi)
    if np.any(w <= wm):
        raise ResonanceDomainError(
            "omega_tilde must lie above the trap resonance omega_m_tilde"
        )
    wm, w, p = np.broadcast_arrays(wm, w, p)
    x = w * w
    xm = wm * wm
    up, lo, s16 = _gain_polynomials(_gain_coefficients(rp.g), x)
    A = up / lo
    # Trap-stiffened measurement strength; reduces to the free K at xm = 0.
    K_mo = _k_formula(rp.J, up, s16, x - xm)
    detuning = (x - xm) / x
    with np.errstate(divide="ignore"):
        base = detuning / (4.0 * K_mo)
    t = np.tan(p)
    r_mo = base * (1.0 + (K_mo + t / A) ** 2)
    return OscillatorPoint(
        omega_tilde=w, omega_m_tilde=wm, R_mo_rel=r_mo, mu_mo=base
    )
