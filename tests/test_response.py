"""Kernels, output spectrum, sensitivity decomposition, optimal phase."""

import itertools
import math

import numpy as np
import pytest

from pasense import (
    DivergentSensitivityError,
    DomainError,
    InvalidParameterError,
    ReducedParams,
    kernels,
    mu,
    optimal_phase,
    oscillator_sensitivity,
    output_spectrum,
    sensitivity,
    sql_force,
)
from pasense.response import (
    _OMEGA_RANGE,
    _gain_coefficients,
    _k_formula,
    _mu_formula,
)
from reference import k_formula, mu_formula, sensitivity_budget

THETA_1K = 20836.619136094574
KAPPA0 = 2.0 * math.pi * 1e6


def draws(n, seed, g_max=0.49, gam_max=1e-2, theta_max=3e4, w_min=1e-2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        rp = ReducedParams(
            J0=float(10.0 ** rng.uniform(-2, 0)),
            g=float(rng.uniform(0.0, g_max)),
            gam=float(rng.choice([0.0, 10.0 ** rng.uniform(-6, np.log10(gam_max))])),
            theta=float(rng.choice([0.0, rng.uniform(0.0, theta_max)])),
        )
        w = float(10.0 ** rng.uniform(np.log10(w_min), np.log10(2.0)))
        out.append((rp, w))
    return out


def test_kernels_no_gain_spot():
    ks = kernels(ReducedParams(J0=0.5), 1.0)
    assert ks.A == 1.0
    assert ks.K == 0.25
    assert ks.Kn == 0.25 + 0j
    assert ks.u == pytest.approx((1.0 + 1.0j) / math.sqrt(2.0), rel=1e-15)
    assert abs(ks.B) ** 2 == pytest.approx(0.5, rel=1e-14)


def test_kernels_gain_spot():
    # A = ((1.4)^2 + 0.16) / ((0.6)^2 + 0.16) = 53/13
    ks = kernels(ReducedParams(J0=0.1, g=0.2), 0.4)
    assert ks.A == pytest.approx(53.0 / 13.0, rel=1e-14)


def test_kernels_strong_gain_frozen():
    ks = kernels(ReducedParams(J0=0.5, g=0.46), 0.1)
    assert ks.K == pytest.approx(7176.746293691166, rel=1e-12)


def test_forward_kernel_unit_modulus():
    for rp, w in draws(60, seed=11):
        ks = kernels(rp, w)
        assert abs(abs(ks.u) - 1.0) <= 1e-14


def test_forward_kernel_phase():
    # u = i (1 + 2g - i w) / sqrt(up) * sqrt(s16) / (w + 4i g), so its angle
    # is pi/2 - atan2(w, 1 + 2g) - atan2(4g, w); |u| = 1 alone does not fix
    # the sign of either imaginary part.
    for rp, w in draws(60, seed=13):
        u = kernels(rp, w).u
        angle = (0.5 * math.pi - math.atan2(w, 1.0 + 2.0 * rp.g)
                 - math.atan2(4.0 * rp.g, w))
        assert abs(u - complex(math.cos(angle), math.sin(angle))) <= 1e-14


def test_undamped_kernel_is_real():
    for rp, w in draws(40, seed=12):
        rp0 = ReducedParams(J0=rp.J0, g=rp.g)
        ks = kernels(rp0, w)
        assert ks.Kn == ks.K  # complex == real, exact at zero damping


def test_measurement_kernel_magnitudes():
    for rp, w in draws(60, seed=13):
        ks = kernels(rp, w)
        x = w * w
        up = (1.0 + 2.0 * rp.g) ** 2 + x
        s16 = x + 16.0 * rp.g**2
        expect_b2 = 2.0 * rp.J * s16 / (up * (x + rp.gam**2))
        assert abs(ks.B) ** 2 == pytest.approx(expect_b2, rel=1e-12)
        assert abs(ks.Kn) == pytest.approx(
            ks.K / math.sqrt(1.0 + rp.gam**2 / x), rel=1e-12
        )


def test_kernels_array_input():
    w = np.geomspace(0.01, 2.0, 17)
    ks = kernels(ReducedParams(J0=0.3, g=0.2, gam=1e-4), w)
    for i in (0, 8, 16):
        pt = kernels(ReducedParams(J0=0.3, g=0.2, gam=1e-4), float(w[i]))
        assert ks.K[i] == pt.K
        assert ks.Kn[i] == pt.Kn


def test_sql_force_reference():
    f = sql_force(1e-10, KAPPA0)
    assert f == pytest.approx(9.125001543595705e-16, rel=1e-12)
    # sqrt(2 hbar m) omega, linear in omega
    assert sql_force(1e-10, 2.0 * KAPPA0) == pytest.approx(2.0 * f, rel=1e-14)
    arr = sql_force(1e-10, np.array([0.0, KAPPA0]))
    assert arr[0] == 0.0
    assert arr[1] == pytest.approx(f, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        sql_force(0.0, KAPPA0)
    with pytest.raises(InvalidParameterError):
        sql_force(1e-10, -1.0)


def test_spectrum_phase_quadrature_floor():
    """At phi = +-pi/2 the output is squeezed to 1/(2A), force-blind.

    Tame parameters only: cos(pi/2) is ~6e-17 rather than zero in
    floats, so an enormous measurement kernel leaks a visible trace of
    backaction into this quadrature.
    """
    for rp, w in draws(40, seed=17, g_max=0.3, w_min=0.2):
        ks = kernels(rp, w)
        for phi in (math.pi / 2, -math.pi / 2):
            s = output_spectrum(rp, w, phi)
            assert s == pytest.approx(1.0 / (2.0 * ks.A), rel=1e-12)
            # extra force noise rides on the signal quadrature only
            s_ex = output_spectrum(rp, w, phi, s_ex_rel=5.0)
            assert s_ex == pytest.approx(s, rel=1e-10)


def test_gain_always_squeezes_the_phase_quadrature():
    for rp, w in draws(60, seed=18):
        assert kernels(rp, w).A >= 1.0


def test_spectrum_amplitude_quadrature_spot():
    assert output_spectrum(ReducedParams(J0=0.5), 1.0, 0.0) == 0.53125


def test_spectrum_extra_force_additivity():
    for rp, w in draws(30, seed=19):
        phi = -0.3
        ks = kernels(rp, w)
        base = output_spectrum(rp, w, phi)
        bumped = output_spectrum(rp, w, phi, s_ex_rel=2.5)
        gain = ks.A * abs(ks.B) ** 2 * math.cos(phi) ** 2
        assert bumped - base == pytest.approx(2.5 * gain, rel=1e-10)
    with pytest.raises(InvalidParameterError):
        output_spectrum(ReducedParams(J0=0.5), 1.0, 0.0, s_ex_rel=-0.1)


def test_spectrum_thermal_contribution():
    rp_hot = ReducedParams(J0=0.5, g=0.3, gam=1e-4, theta=1e3)
    rp_cold = ReducedParams(J0=0.5, g=0.3, gam=1e-4, theta=0.0)
    w, phi = 0.7, 0.2
    ks = kernels(rp_hot, w)
    diff = output_spectrum(rp_hot, w, phi) - output_spectrum(rp_cold, w, phi)
    expect = ks.A * abs(ks.B) ** 2 * math.cos(phi) ** 2 * 1e3 * 1e-4 / w**2
    assert diff == pytest.approx(expect, rel=1e-10)


def test_sensitivity_decomposition_sums():
    for rp, w in draws(40, seed=23):
        pt = sensitivity(rp, w, 0.1)
        assert pt.R_rel == pt.shot + pt.backaction + pt.thermal


def test_sensitivity_matches_spectrum_route():
    """Referred force noise equals S_zout scaled by the signal gain."""
    for rp, w in draws(60, seed=29):
        if rp.J0 == 0.0:
            continue
        for phi in (-1.2, -0.4, 0.0, 0.3, 1.0):
            pt = sensitivity(rp, w, phi)
            s = output_spectrum(rp, w, phi)
            ks = kernels(rp, w)
            gain = ks.A * abs(ks.B) ** 2 * math.cos(phi) ** 2
            assert pt.R_rel == pytest.approx(s / gain, rel=1e-10)


def test_divergent_phase_rejected():
    rp = ReducedParams(J0=0.5)
    for phi in (math.pi / 2, -math.pi / 2, 1.6, -2.0):
        with pytest.raises(DivergentSensitivityError):
            sensitivity(rp, 1.0, phi)
    with pytest.raises(DivergentSensitivityError):
        sensitivity(rp, 1.0, np.array([0.0, math.pi / 2]))
    # the spectrum itself stays finite there
    assert np.isfinite(output_spectrum(rp, 1.0, math.pi / 2))


def test_nan_phase_is_a_domain_error():
    # Not a divergence: the angle itself is undefined.
    for phi in (math.nan, np.array([0.1, math.nan])):
        for fn in (
            lambda: sensitivity(ReducedParams(J0=0.5), 1.0, phi),
            lambda: oscillator_sensitivity(ReducedParams(J0=0.5), 0.1, 1.0, phi),
            lambda: output_spectrum(ReducedParams(J0=0.5), 1.0, phi),
        ):
            with pytest.raises(DomainError, match="phi must not be NaN") as info:
                fn()
            assert not isinstance(info.value, DivergentSensitivityError)


def test_infinite_phase_is_a_domain_error():
    # Not a divergence either; the spectrum takes every finite angle.
    rp = ReducedParams(J0=0.5)
    finite = np.array([-math.pi / 2, math.pi / 2, -7.0, 1e6])
    assert np.isfinite(output_spectrum(rp, 1.0, finite)).all()
    for phi in (math.inf, -math.inf, np.array([0.1, math.inf])):
        for fn in (
            lambda: sensitivity(rp, 1.0, phi),
            lambda: oscillator_sensitivity(rp, 0.1, 1.0, phi),
            lambda: output_spectrum(rp, 1.0, phi),
        ):
            with pytest.raises(DomainError, match="must not be NaN or infinite") as info:
                fn()
            assert not isinstance(info.value, DivergentSensitivityError)


def test_zero_drive_limits():
    rp = ReducedParams(J0=0.0)
    pt = sensitivity(rp, 1.0, 0.0)
    assert np.isinf(pt.shot)
    assert pt.backaction == 0.0
    assert np.isinf(pt.R_rel)
    assert optimal_phase(rp, 1.0) == 0.0


def test_lossless_amplitude_quadrature_budget():
    for rp, w in draws(30, seed=31):
        rp0 = ReducedParams(J0=max(rp.J0, 1e-3), g=rp.g)
        ks = kernels(rp0, w)
        pt = sensitivity(rp0, w, 0.0)
        assert pt.shot == pytest.approx(1.0 / (4.0 * ks.K), rel=1e-12)
        assert pt.backaction == pytest.approx(ks.K / 4.0, rel=1e-12)
        assert pt.thermal == 0.0


def test_thermal_term_is_phase_independent():
    rp = ReducedParams(J0=0.5, g=0.2, gam=1e-3, theta=100.0)
    vals = [sensitivity(rp, 0.8, phi).thermal for phi in (-1.0, 0.0, 0.7)]
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == pytest.approx(100.0 * 1e-3 / 0.64, rel=1e-13)


def test_optimal_phase_closed_form():
    # compare in angle space: tan() magnifies rounding without bound as
    # the optimum approaches -pi/2
    for rp, w in draws(60, seed=37):
        phi = optimal_phase(rp, w)
        assert -math.pi / 2 < phi <= 0.0
        x = w * w
        lo = (1.0 - 2.0 * rp.g) ** 2 + x
        s16 = x + 16.0 * rp.g**2
        expect = -rp.J * s16 / (lo * (x + rp.gam**2))
        assert phi == pytest.approx(math.atan(expect), rel=1e-13, abs=1e-15)


def test_optimal_phase_complex_route():
    """tan(phi_opt) equals -A Kn w / (w - i gam), which must be real."""
    for rp, w in draws(40, seed=41):
        ks = kernels(rp, w)
        z = -ks.A * ks.Kn * w / (w - 1j * rp.gam)
        assert abs(z.imag) <= 1e-14 * max(1.0, abs(z.real))
        assert optimal_phase(rp, w) == pytest.approx(
            math.atan(z.real), rel=1e-13, abs=1e-15
        )


def test_residual_backaction_at_optimum():
    rng = np.random.default_rng(43)
    for _ in range(40):
        rp = ReducedParams(
            J0=float(rng.uniform(0.05, 1.0)),
            g=float(rng.uniform(0.0, 0.45)),
            gam=float(10.0 ** rng.uniform(-3, -2)),
        )
        w = float(rng.uniform(0.2, 2.0))
        ks = kernels(rp, w)
        pt = sensitivity(rp, w, optimal_phase(rp, w))
        x = w * w
        expect = pt.shot * abs(ks.Kn) ** 2 * rp.gam**2 / (x + rp.gam**2)
        assert pt.backaction == pytest.approx(expect, rel=1e-10)


def test_mu_is_sensitivity_at_optimal_phase():
    rng = np.random.default_rng(47)
    for _ in range(60):
        rp = ReducedParams(
            J0=float(rng.uniform(0.01, 1.0)),
            g=float(rng.uniform(0.0, 0.45)),
            gam=float(rng.choice([0.0, 10.0 ** rng.uniform(-5, -2)])),
            theta=float(rng.choice([0.0, rng.uniform(0.0, 3e4)])),
        )
        w = float(rng.uniform(0.2, 2.0))
        assert mu(rp, w) == pytest.approx(
            sensitivity(rp, w, optimal_phase(rp, w)).R_rel, rel=1e-12
        )


def test_mu_spots():
    assert mu(ReducedParams(J0=0.5), 1.0) == 1.0
    rp1 = ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K)
    assert mu(rp1, 0.803461) == pytest.approx(1.1455481259393052, rel=1e-12)
    rp2 = ReducedParams(J0=0.5, g=0.46, gam=1e-5, theta=THETA_1K)
    assert mu(rp2, 1.9) == pytest.approx(0.06976788489170913, rel=1e-12)


def test_mu_decomposition_spot():
    rp1 = ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K)
    pt = sensitivity(rp1, 0.803461, optimal_phase(rp1, 0.803461))
    assert pt.shot == pytest.approx(0.8227747893879532, rel=1e-12)
    assert pt.backaction == pytest.approx(1.1767099869592532e-11, rel=1e-9)
    assert pt.thermal == pytest.approx(0.3227733365395847, rel=1e-12)


def test_mu_lossless_inverse_kernel():
    """Without damping the optimum collapses to 1/(4K)."""
    rng = np.random.default_rng(53)
    for _ in range(40):
        rp = ReducedParams(
            J0=float(rng.uniform(0.01, 1.0)), g=float(rng.uniform(0.0, 0.49))
        )
        w = float(10.0 ** rng.uniform(-2, 0.3))
        k = kernels(rp, w).K
        m = mu(rp, w)
        assert m == pytest.approx(1.0 / (4.0 * k), rel=1e-12)
        if abs(k - 0.5) > 1e-6:
            assert (m < 0.5) == (k > 0.5)


def test_gain_floor_collapse_at_low_frequency():
    w = 0.01
    with_gain = mu(ReducedParams(J0=0.5, g=0.4), w)
    without = mu(ReducedParams(J0=0.5), w)
    assert with_gain < 1e-3 * without


def test_mu_array_input():
    rp = ReducedParams(J0=0.5, g=0.2, gam=1e-4, theta=10.0)
    w = np.geomspace(0.01, 2.0, 9)
    m = mu(rp, w)
    assert m.shape == w.shape
    assert m[4] == mu(rp, float(w[4]))


def test_domain_errors_on_nonpositive_frequency():
    rp = ReducedParams(J0=0.5)
    for fn in (
        lambda: kernels(rp, 0.0),
        lambda: sensitivity(rp, -1.0, 0.0),
        lambda: mu(rp, 0.0),
        lambda: optimal_phase(rp, -0.5),
        lambda: output_spectrum(rp, 0.0, 0.0),
        lambda: mu(rp, np.array([0.5, 0.0])),
    ):
        with pytest.raises(DomainError):
            fn()


def test_frequency_outside_the_supported_range_is_a_domain_error():
    rp = ReducedParams(J0=0.5, g=0.2, gam=1e-4, theta=10.0)
    low, high = _OMEGA_RANGE
    for w in (1e-200, np.nextafter(low, 0.0), np.nextafter(high, np.inf), 1e200,
              np.array([1.0, 1e-200])):
        for fn in (
            lambda: kernels(rp, w),
            lambda: mu(rp, w),
            lambda: optimal_phase(rp, w),
            lambda: sensitivity(rp, w, 0.0),
            lambda: output_spectrum(rp, w, 0.0),
        ):
            with pytest.raises(DomainError, match=r"finite and in \[1e-12, 1e\+12\]"):
                fn()


@pytest.mark.parametrize("w", _OMEGA_RANGE, ids=["low", "high"])
def test_every_quantity_is_finite_at_the_frequency_range_edges(w):
    # Any numpy warning fails this test, so no intermediate overflows
    # either.
    for J0, g, gam, theta in itertools.product(
        (1e-6, 1e-2, 1.0, 1e6), (0.0, 0.25, 0.4999), (0.0, 1e-6, 1.0), (0.0, 1e8)
    ):
        rp = ReducedParams(J0=J0, g=g, gam=gam, theta=theta)
        ks = kernels(rp, w)
        values = [mu(rp, w), optimal_phase(rp, w), output_spectrum(rp, w, 0.3),
                  ks.A, ks.K, ks.Kn, ks.u, ks.B]
        for phi in (0.0, -1.2):
            pt = sensitivity(rp, w, phi)
            values += [pt.R_rel, pt.shot, pt.backaction, pt.thermal]
        assert all(np.isfinite(v) for v in values), rp


def test_closed_forms_match_plain_expressions_bitwise():
    # The library builds K, mu and the budget in place, and the trapped K
    # with the same helper as K; each must equal the single-expression
    # form in tests/reference.py to the last bit, on 1-D arrays and on
    # scalars.
    w_row = np.geomspace(1e-4, 2.0, 257)
    phi_row = np.linspace(-1.5, 1.5, 257)
    cases = draws(40, seed=41) + [
        (ReducedParams(J0=0.0, g=0.3, gam=1e-3, theta=5.0), 0.7)
    ]
    for rp, w0 in cases:
        up0, lo0, c16 = _gain_coefficients(rp.g)
        for w, phi in ((w_row, phi_row), (w0, -0.4), (w0, phi_row)):
            wa = np.asarray(w, dtype=float)
            x = wa * wa
            up, s16 = up0 + x, x + c16
            assert (np.asarray(mu(rp, w)).tobytes()
                    == np.asarray(mu_formula(rp, lo0, up, s16, x)).tobytes())
            assert (np.asarray(kernels(rp, w).K).tobytes()
                    == np.asarray(k_formula(rp.J, up, s16, x)).tobytes())
            pt = sensitivity(rp, w, phi)
            R_rel, backaction = sensitivity_budget(rp, w, phi)
            assert np.asarray(pt.R_rel).tobytes() == np.asarray(R_rel).tobytes()
            assert pt.backaction.tobytes() == backaction.tobytes()
            # The trapped particle's K is the same closed form at x - xm.
            wm = 0.5 * wa.min()
            xm = wm * wm
            with np.errstate(divide="ignore"):
                mu_mo = ((x - xm) / x) / (4.0 * k_formula(rp.J, up, s16, x - xm))
            osc = oscillator_sensitivity(ReducedParams(J0=rp.J0, g=rp.g), wm, w, phi)
            assert (osc.mu_mo.tobytes()
                    == np.broadcast_to(mu_mo, osc.mu_mo.shape).tobytes())


def test_closed_forms_leave_their_inputs_unchanged():
    # Full (gain, frequency) grids as sweep passes them, and the 1-D
    # arrays of mu and kernels.
    rp = ReducedParams(J0=0.3, g=0.2, gam=1e-3, theta=40.0)
    x = np.geomspace(1e-8, 4.0, 64)
    up0, lo0, c16 = np.array(
        [_gain_coefficients(g) for g in np.linspace(0.0, 0.49, 16)]
    ).T[:, :, None]
    grid_inputs = (rp.J0 / lo0, lo0, up0 + x, x + c16, x)
    up0_1, lo0_1, c16_1 = _gain_coefficients(rp.g)
    row_inputs = (rp.J, lo0_1, up0_1 + x, x + c16_1, x)
    for J, squeeze, up, s16, xs in (grid_inputs, row_inputs):
        arrays = [a for a in (J, squeeze, up, s16, xs) if isinstance(a, np.ndarray)]
        before = [a.copy() for a in arrays]
        k = _k_formula(J, up, s16, xs)
        m = _mu_formula(rp, squeeze, up, s16, xs)
        assert k.shape == m.shape == up.shape
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()


def test_mu_formula_on_floats_equals_mu_bitwise():
    # The same helper serves Python floats: no second formula is needed
    # for a scalar caller.
    for rp, w in draws(300, seed=43, g_max=0.499, w_min=1e-4):
        up0, lo0, c16 = _gain_coefficients(rp.g)
        x = w * w
        m = _mu_formula(rp, lo0, up0 + x, x + c16, x)
        assert type(m) is float
        assert np.float64(m).tobytes() == np.asarray(mu(rp, np.asarray(w))).tobytes()
