"""Parameter containers, stability checks, and the SI-to-reduced map."""

import json
import math

import numpy as np
import pytest

from pasense import (
    C_LIGHT,
    HBAR,
    K_B,
    InstabilityError,
    InvalidParameterError,
    PhysicalParams,
    ReducedParams,
    check_stability,
    drive_amplitude,
    reduce,
    steady_state_amplitude,
)

KAPPA0 = 2.0 * math.pi * 1e6

# Benchmark calibration: 100 ng particle, MHz-linewidth cavity, 1064 nm
# drive, coupling gradient 4.182e8 1/m.
def bench(power, **kw):
    return PhysicalParams(
        kappa0=KAPPA0,
        G=0.0,
        eta=4.182e8,
        mass=1e-10,
        power=power,
        wavelength=1.064e-6,
        **kw,
    )


def test_constants():
    assert HBAR == 1.054571817e-34
    assert K_B == 1.380649e-23
    assert C_LIGHT == 2.99792458e8


def test_drive_amplitude_value():
    eps = drive_amplitude(10.0, 1.064e-6)
    assert eps == pytest.approx(7318674764.701156, rel=1e-12)
    # same thing written as sqrt(P lambda / (2 pi hbar c))
    direct = math.sqrt(10.0 * 1.064e-6 / (2.0 * math.pi * HBAR * C_LIGHT))
    assert eps == pytest.approx(direct, rel=1e-14)


def test_drive_amplitude_zero_power():
    assert drive_amplitude(0.0, 1.064e-6) == 0.0


def test_drive_amplitude_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        drive_amplitude(-1.0, 1.064e-6)
    with pytest.raises(InvalidParameterError):
        drive_amplitude(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        drive_amplitude(1.0, -1e-6)


def test_steady_state_amplitude_value():
    eps = drive_amplitude(10.0, 1.064e-6)
    cs0 = steady_state_amplitude(eps, KAPPA0, 0.0)
    assert cs0 == pytest.approx(4129120.0676182183, rel=1e-12)
    assert cs0 == pytest.approx(math.sqrt(2.0 * KAPPA0) * eps / KAPPA0, rel=1e-14)


def test_steady_state_gain_enhancement():
    """The intracavity field grows as 1/(1 - 2 G/kappa0)."""
    eps = drive_amplitude(2.0, 1.064e-6)
    base = steady_state_amplitude(eps, KAPPA0, 0.0)
    boosted = steady_state_amplitude(eps, KAPPA0, 0.2 * KAPPA0)
    assert boosted / base == pytest.approx(1.0 / 0.6, rel=1e-13)


def test_steady_state_requires_stability():
    eps = drive_amplitude(1.0, 1.064e-6)
    with pytest.raises(InstabilityError):
        steady_state_amplitude(eps, KAPPA0, 0.5 * KAPPA0)
    with pytest.raises(InstabilityError):
        steady_state_amplitude(eps, KAPPA0, 2.0 * KAPPA0)
    with pytest.raises(InstabilityError):
        steady_state_amplitude(eps, KAPPA0, -0.1 * KAPPA0)


def test_check_stability_boundaries():
    assert check_stability(KAPPA0, 0.0)
    assert check_stability(KAPPA0, 0.499 * KAPPA0)
    assert not check_stability(KAPPA0, 0.5 * KAPPA0)
    assert not check_stability(KAPPA0, KAPPA0)
    assert not check_stability(KAPPA0, -1.0)
    with pytest.raises(InvalidParameterError):
        check_stability(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        check_stability(-1.0, 0.0)


def test_drive_strength_calibration():
    """10 W / 2 W / 0.4 W land on J0 = 1/2, 1/10, 1/50 within a percent."""
    assert reduce(bench(10.0)).J0 == pytest.approx(0.5004715248086856, rel=1e-12)
    assert reduce(bench(2.0)).J0 == pytest.approx(0.10009430496173717, rel=1e-12)
    assert reduce(bench(0.4)).J0 == pytest.approx(0.02001886099234743, rel=1e-12)
    assert abs(reduce(bench(10.0)).J0 - 0.5) < 0.01
    # linear in power
    assert reduce(bench(5.0)).J0 == pytest.approx(reduce(bench(10.0)).J0 / 2, rel=1e-13)


def test_thermal_scale():
    rp = reduce(bench(10.0, temperature=1.0))
    assert rp.theta == pytest.approx(20836.619136094574, rel=1e-12)
    assert rp.theta == pytest.approx(K_B * 1.0 / (HBAR * KAPPA0), rel=1e-14)
    assert reduce(bench(10.0, temperature=0.01)).theta == pytest.approx(
        rp.theta / 100.0, rel=1e-13
    )


def test_reduce_maps_rates():
    rp = reduce(bench(10.0, gamma_m=1e-5 * KAPPA0, temperature=0.0))
    assert rp.gam == pytest.approx(1e-5, rel=1e-13)
    assert rp.theta == 0.0
    assert rp.g == 0.0
    rp2 = reduce(
        PhysicalParams(
            kappa0=KAPPA0,
            G=0.46 * KAPPA0,
            eta=4.182e8,
            mass=1e-10,
            power=10.0,
            wavelength=1.064e-6,
        )
    )
    assert rp2.g == pytest.approx(0.46, rel=1e-14)
    # J0 is quoted at zero gain; the gain only enters through g
    assert rp2.J0 == pytest.approx(reduce(bench(10.0)).J0, rel=1e-14)


def test_reduce_scale_invariance():
    """J0 is invariant under kappa0 -> s kappa0 with power -> s^2 power."""
    s = 3.7
    a = reduce(bench(10.0, gamma_m=12.3, temperature=0.5))
    b = reduce(
        PhysicalParams(
            kappa0=s * KAPPA0,
            G=0.0,
            eta=4.182e8,
            mass=1e-10,
            power=s * s * 10.0,
            wavelength=1.064e-6,
            gamma_m=s * 12.3,
            temperature=0.5,
        )
    )
    assert b.J0 == pytest.approx(a.J0, rel=1e-12)
    assert b.gam == pytest.approx(a.gam, rel=1e-12)
    assert b.theta == pytest.approx(a.theta / s, rel=1e-12)


def test_gain_enhanced_strength():
    rp = ReducedParams(J0=0.5, g=0.46)
    assert rp.J == pytest.approx(0.5 / 0.08**2, rel=1e-13)
    assert ReducedParams(J0=0.5).J == 0.5
    for g in (0.1, 0.25, 0.4, 0.49):
        assert ReducedParams(J0=0.3, g=g).J > 0.3


def test_reduced_validation():
    with pytest.raises(InvalidParameterError):
        ReducedParams(J0=-0.1)
    with pytest.raises(InvalidParameterError):
        ReducedParams(J0=0.5, g=-0.01)
    with pytest.raises(InstabilityError):
        ReducedParams(J0=0.5, g=0.5)
    with pytest.raises(InstabilityError):
        ReducedParams(J0=0.5, g=0.7)
    with pytest.raises(InvalidParameterError):
        ReducedParams(J0=0.5, gam=-1e-5)
    with pytest.raises(InvalidParameterError):
        ReducedParams(J0=0.5, theta=-1.0)
    for field, bad in (
        ("J0", math.nan), ("J0", math.inf), ("g", math.nan),
        ("gam", math.nan), ("gam", math.inf), ("theta", math.inf),
    ):
        kw = dict(J0=0.5, g=0.1, gam=1e-5, theta=1.0)
        kw[field] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            ReducedParams(**kw)
    # zero drive is allowed, it just measures nothing
    assert ReducedParams(J0=0.0).J == 0.0


def test_physical_validation():
    for field, bad in (
        ("kappa0", 0.0),
        ("eta", 0.0),
        ("mass", -1e-10),
        ("wavelength", 0.0),
        ("power", math.nan),
        ("power", math.inf),
        ("kappa0", math.inf),
        ("eta", math.inf),
        ("mass", math.inf),
        ("temperature", math.nan),
        ("gamma_m", math.inf),
        ("omega_m", math.nan),
    ):
        kw = dict(
            kappa0=KAPPA0,
            G=0.0,
            eta=4.182e8,
            mass=1e-10,
            power=1.0,
            wavelength=1.064e-6,
        )
        kw[field] = bad
        with pytest.raises(InvalidParameterError):
            PhysicalParams(**kw)
    for field in ("power", "gamma_m", "temperature", "omega_m"):
        kw = dict(
            kappa0=KAPPA0,
            G=0.0,
            eta=4.182e8,
            mass=1e-10,
            power=1.0,
            wavelength=1.064e-6,
        )
        kw[field] = -1.0
        with pytest.raises(InvalidParameterError):
            PhysicalParams(**kw)
    with pytest.raises(InstabilityError):
        PhysicalParams(
            kappa0=KAPPA0,
            G=0.5 * KAPPA0,
            eta=4.182e8,
            mass=1e-10,
            power=1.0,
            wavelength=1.064e-6,
        )


def test_json_round_trip():
    p = bench(10.0, gamma_m=62.8, temperature=1.0, omega_m=100.0)
    q = PhysicalParams.from_json(p.to_json())
    assert q == p


def test_json_optional_fields_default_to_zero():
    doc = {
        "kappa0_rad_s": KAPPA0,
        "G_rad_s": 0.0,
        "eta_per_m": 4.182e8,
        "mass_kg": 1e-10,
        "power_W": 10.0,
        "wavelength_m": 1.064e-6,
    }
    p = PhysicalParams.from_json(json.dumps(doc))
    assert p.gamma_m == 0.0
    assert p.temperature == 0.0
    assert p.omega_m == 0.0


def test_json_unknown_field_rejected():
    doc = bench(1.0).to_json()
    mangled = doc.replace("mass_kg", "masse_kg")
    with pytest.raises(InvalidParameterError, match="masse_kg"):
        PhysicalParams.from_json(mangled)


def test_json_missing_required_field():
    doc = json.loads(bench(1.0).to_json())
    del doc["mass_kg"]
    with pytest.raises(InvalidParameterError, match="mass_kg"):
        PhysicalParams.from_json(json.dumps(doc))


def test_json_requires_object():
    with pytest.raises(InvalidParameterError):
        PhysicalParams.from_json("[1, 2, 3]")
