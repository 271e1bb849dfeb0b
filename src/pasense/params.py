"""Parameter containers and the reduction from lab units to cavity units.

Two levels of description are used throughout the package:

* :class:`PhysicalParams` holds quantities in SI units as they would be
  dialed in at the experiment: cavity linewidth, parametric-amplifier
  gain, dissipative coupling strength, particle mass, drive power and
  wavelength, mechanical damping, bath temperature.

* :class:`ReducedParams` holds the four dimensionless numbers the noise
  model actually depends on: a drive strength ``J0``, the gain ``g``
  relative to the linewidth, the damping ``gam`` relative to the
  linewidth, and the thermal occupation scale ``theta``.

``reduce`` maps the first onto the second.  Frequencies elsewhere in the
package are always quoted relative to the linewidth (``omega_tilde``).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from .errors import InstabilityError, InvalidParameterError

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K
C_LIGHT = 2.99792458e8  # m / s

# JSON wire names for PhysicalParams fields.  Units are baked into the
# key so that config files are self-describing.
_WIRE = {
    "kappa0": "kappa0_rad_s",
    "G": "G_rad_s",
    "eta": "eta_per_m",
    "mass": "mass_kg",
    "power": "power_W",
    "wavelength": "wavelength_m",
    "gamma_m": "gamma_m_rad_s",
    "temperature": "temperature_K",
    "omega_m": "omega_m_rad_s",
}


def _first_missing(given) -> str | None:
    # Wire name of the first PhysicalParams field that has no default and
    # is not in ``given`` (field names), or None.
    required = [f.name for f in fields(PhysicalParams) if f.default is MISSING]
    return next((_WIRE[name] for name in required if name not in given), None)


def drive_amplitude(power: float, wavelength: float) -> float:
    """Photon-flux amplitude of the laser drive, sqrt(photons/s).

    ``power`` is the optical power in W hitting the cavity and
    ``wavelength`` the laser wavelength in m.
    """
    if power < 0:
        raise InvalidParameterError(f"power must be >= 0, got {power}")
    if wavelength <= 0:
        raise InvalidParameterError(f"wavelength must be > 0, got {wavelength}")
    omega_l = 2.0 * math.pi * C_LIGHT / wavelength
    return math.sqrt(power / (HBAR * omega_l))


def check_stability(kappa0: float, G: float) -> bool:
    """True when the parametric gain leaves a stable steady state.

    The threshold sits at half the bare linewidth; at or above it the
    intracavity field grows without bound.  Negative gain is treated as
    unstable too since the model is set up for 0 <= G.
    """
    if kappa0 <= 0:
        raise InvalidParameterError(f"kappa0 must be > 0, got {kappa0}")
    return 0.0 <= G < 0.5 * kappa0


def steady_state_amplitude(eps_l: float, kappa0: float, G: float) -> float:
    """Mean intracavity field amplitude for a resonant drive.

    ``eps_l`` is the drive amplitude from :func:`drive_amplitude`.
    Raises :class:`InstabilityError` when the gain is at or past
    threshold, where no steady state exists.
    """
    if not check_stability(kappa0, G):
        raise InstabilityError(
            f"no steady state: need 0 <= G < kappa0/2, got G={G}, kappa0={kappa0}"
        )
    return math.sqrt(2.0 * kappa0) * eps_l / (kappa0 - 2.0 * G)


def _check_finite_nonnegative(name: str, val: float) -> None:
    # NaN fails every comparison, so this also rejects NaN and inf.
    if not 0.0 <= val < math.inf:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {val}")


@dataclass(frozen=True)
class PhysicalParams:
    """Experimental knobs in SI units.

    kappa0       bare cavity linewidth, rad/s
    G            parametric-amplifier gain, rad/s
    eta          dissipative coupling gradient, 1/m
    mass         particle mass, kg
    power        drive power, W
    wavelength   drive wavelength, m
    gamma_m      mechanical damping rate, rad/s
    temperature  bath temperature, K
    omega_m      trap frequency, rad/s (0 for a free particle)
    """

    kappa0: float
    G: float
    eta: float
    mass: float
    power: float
    wavelength: float
    gamma_m: float = 0.0
    temperature: float = 0.0
    omega_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kappa0", "eta", "mass", "wavelength"):
            val = getattr(self, name)
            if not 0.0 < val < math.inf:
                raise InvalidParameterError(
                    f"{name} must be finite and > 0, got {val}"
                )
        for name in ("power", "gamma_m", "temperature", "omega_m"):
            _check_finite_nonnegative(name, getattr(self, name))
        if not check_stability(self.kappa0, self.G):
            raise InstabilityError(
                f"no steady state: need 0 <= G < kappa0/2, "
                f"got G={self.G}, kappa0={self.kappa0}"
            )

    def to_json(self) -> str:
        """Serialize to a JSON object with unit-suffixed keys."""
        doc = {wire: getattr(self, field) for field, wire in _WIRE.items()}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PhysicalParams":
        """Parse a JSON object produced by :meth:`to_json`.

        Optional keys (damping, temperature, trap frequency) default to
        zero; any other missing key and any unknown key is an error so
        that typos in config files fail loudly.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise InvalidParameterError("expected a JSON object of parameters")
        known = {wire: field for field, wire in _WIRE.items()}
        kwargs = {}
        for key, value in doc.items():
            if key not in known:
                raise InvalidParameterError(f"unknown parameter field: {key!r}")
            kwargs[known[key]] = float(value)
        missing = _first_missing(kwargs)
        if missing:
            raise InvalidParameterError(f"missing parameter field: {missing!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless parameters of the noise model.

    J0     drive/measurement strength at zero gain
    g      parametric gain over the bare linewidth, in [0, 0.5)
    gam    mechanical damping over the bare linewidth
    theta  k_B T / (hbar kappa0), thermal quanta per unit reduced frequency
    """

    J0: float
    g: float = 0.0
    gam: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("J0", "g", "gam", "theta"):
            _check_finite_nonnegative(name, getattr(self, name))
        if not check_stability(1.0, self.g):
            raise InstabilityError(
                f"no steady state: need g < 0.5, got g={self.g}"
            )

    @property
    def J(self) -> float:
        """Gain-enhanced measurement strength J0/(1-2g)^2."""
        return self.J0 / (1.0 - 2.0 * self.g) ** 2


def reduce(params: PhysicalParams) -> ReducedParams:
    """Collapse SI parameters to the four reduced numbers.

    ``J0`` is built from the zero-gain intracavity amplitude: the gain
    enters the model only through the ratio g, via the J property.
    """
    # Every field is finite, but extreme ones can still overflow a power
    # or underflow a denominator to zero in float arithmetic.
    try:
        eps_l = drive_amplitude(params.power, params.wavelength)
        c_s0 = steady_state_amplitude(eps_l, params.kappa0, 0.0)
        J0 = HBAR * params.eta**2 * c_s0**2 / (params.mass * params.kappa0)
        return ReducedParams(
            J0=J0,
            g=params.G / params.kappa0,
            gam=params.gamma_m / params.kappa0,
            theta=K_B * params.temperature / (HBAR * params.kappa0),
        )
    except ArithmeticError as exc:
        raise InvalidParameterError(
            "SI parameters out of floating-point range "
            f"({type(exc).__name__} while reducing them)"
        ) from None
