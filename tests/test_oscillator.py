"""Trapped-particle variant and its ratio to the free-particle result."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pasense import (
    DivergentSensitivityError,
    DomainError,
    InvalidParameterError,
    ReducedParams,
    ResonanceDomainError,
    mu,
    oscillator_sensitivity,
    sensitivity,
    sensitivity_ratio,
)


def test_free_limit():
    """A vanishing trap frequency reproduces the free-particle model."""
    rp = ReducedParams(J0=0.5, g=0.3)
    for w in (0.1, 0.7, 1.9):
        for phi in (-0.8, 0.0, 0.4):
            pt = oscillator_sensitivity(rp, 0.0, w, phi)
            free = sensitivity(rp, w, phi)
            assert pt.R_mo_rel == pytest.approx(free.R_rel, rel=1e-12)
        assert oscillator_sensitivity(rp, 0.0, w, 0.0).mu_mo == pytest.approx(
            mu(rp, w), rel=1e-12
        )


def test_ratio_spots():
    assert sensitivity_ratio(1.0, 2.0) == 0.5625
    assert sensitivity_ratio(1.0, 1.0) == 0.0
    # below the trap resonance the ratio exceeds one
    assert sensitivity_ratio(2.0, 1.0) == 9.0
    assert sensitivity_ratio(0.0, 1.0) == 1.0


def test_ratio_array_and_validation():
    wm = 1.0
    w = np.array([0.5, 1.0, 2.0, 4.0])
    r = sensitivity_ratio(wm, w)
    assert r == pytest.approx([9.0, 0.0, 0.5625, 0.87890625], rel=1e-14)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            sensitivity_ratio(bad, 2.0)
    with pytest.raises(DomainError):
        sensitivity_ratio(1.0, math.nan)
    with pytest.raises(DomainError):
        sensitivity_ratio(1.0, 0.0)


def test_ratio_approaches_one_far_above_resonance():
    for wm in (1e-3, 1e-2, 1e-1):
        w = 100.0 * wm
        assert abs(sensitivity_ratio(wm, w) - 1.0) <= 2.0 * (wm / w) ** 2 + 1e-15


def test_cross_model_identity():
    """mu_mo / mu equals the closed-form frequency ratio."""
    rng = np.random.default_rng(61)
    for _ in range(50):
        rp = ReducedParams(
            J0=float(rng.uniform(0.02, 1.0)), g=float(rng.uniform(0.0, 0.45))
        )
        wm = float(rng.uniform(0.0, 0.5))
        w = float(rng.uniform(wm + 0.05, 2.5))
        pt = oscillator_sensitivity(rp, wm, w, 0.0)
        assert pt.mu_mo / mu(rp, w) == pytest.approx(
            sensitivity_ratio(wm, w), rel=1e-10
        )


def test_frozen_spot():
    pt = oscillator_sensitivity(ReducedParams(J0=0.5), 1.0, 2.0, 0.3)
    assert pt.R_mo_rel == pytest.approx(1.6818136307759406, rel=1e-12)
    assert pt.mu_mo == 1.40625


def test_phase_optimum_matches_scan():
    rp = ReducedParams(J0=0.5, g=0.2)
    for wm, w in ((0.3, 0.9), (1.0, 1.7)):
        pt = oscillator_sensitivity(rp, wm, w, 0.0)
        res = minimize_scalar(
            lambda phi: oscillator_sensitivity(rp, wm, w, phi).R_mo_rel,
            bounds=(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.fun == pytest.approx(pt.mu_mo, rel=1e-9)


def test_resonance_rejected():
    rp = ReducedParams(J0=0.5)
    with pytest.raises(ResonanceDomainError):
        oscillator_sensitivity(rp, 1.0, 1.0, 0.0)
    with pytest.raises(ResonanceDomainError):
        oscillator_sensitivity(rp, 1.0, 0.5, 0.0)
    with pytest.raises(ResonanceDomainError):
        oscillator_sensitivity(rp, 1.0, np.array([1.5, 0.9]), 0.0)


def test_lossless_only():
    with pytest.raises(InvalidParameterError):
        oscillator_sensitivity(ReducedParams(J0=0.5, gam=1e-5), 0.5, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        oscillator_sensitivity(ReducedParams(J0=0.5, theta=1.0), 0.5, 1.0, 0.0)


def test_input_validation():
    rp = ReducedParams(J0=0.5)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            oscillator_sensitivity(rp, bad, 1.0, 0.0)
    with pytest.raises(DivergentSensitivityError):
        oscillator_sensitivity(rp, 0.5, 1.0, math.pi / 2)
    with pytest.raises(DomainError):
        oscillator_sensitivity(rp, 0.5, 0.0, 0.0)


def test_array_broadcast():
    rp = ReducedParams(J0=0.5, g=0.1)
    w = np.array([1.2, 1.6, 2.0])
    pt = oscillator_sensitivity(rp, 1.0, w, -0.2)
    assert pt.R_mo_rel.shape == (3,)
    single = oscillator_sensitivity(rp, 1.0, 1.6, -0.2)
    assert pt.R_mo_rel[1] == single.R_mo_rel
    assert pt.mu_mo[1] == single.mu_mo
