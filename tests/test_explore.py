"""Sweeps, the two 1-D minimizers, contour extraction, benchmark tables."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from pasense import (
    HBAR,
    K_B,
    AxisSpec,
    DomainError,
    InvalidParameterError,
    InvalidRangeError,
    ReducedParams,
    SweepGrid,
    extract_contour,
    kernels,
    minimize_mu_over_frequency,
    mu,
    optimal_phase,
    output_spectrum,
    reduce,
    reproduce_tables,
    sensitivity,
    sweep,
    PhysicalParams,
)
from pasense.explore import MAX_POINTS, TABLE_BAND
from pasense.response import _OMEGA_RANGE
from reference import (
    extract_contour_loop,
    minimize_phase,
    sensitivity_budget,
    sweep_gain_grid,
)

KAPPA0 = 2.0 * math.pi * 1e6
THETA_1K = 20836.619136094574


# ---------------------------------------------------------------- axes


def test_axis_spec_values():
    ax = AxisSpec("omega_over_kappa0", 0.5, 1.0, 3)
    assert np.array_equal(ax.values, [0.5, 0.75, 1.0])


def test_axis_spec_validation():
    with pytest.raises(InvalidRangeError, match="unknown axis"):
        AxisSpec("detuning", 0.0, 1.0, 5)
    with pytest.raises(InvalidRangeError, match="start < stop"):
        AxisSpec("omega_over_kappa0", 1.0, 0.5, 5)
    with pytest.raises(InvalidRangeError, match="start < stop"):
        AxisSpec("omega_over_kappa0", 0.5, 0.5, 5)
    with pytest.raises(InvalidRangeError, match="escapes"):
        AxisSpec("omega_over_kappa0", 0.0, 1.0, 5)
    with pytest.raises(InvalidRangeError, match="escapes"):
        AxisSpec("G_over_kappa0", 0.0, 0.5, 5)
    # the homodyne-angle box is open at both ends
    with pytest.raises(InvalidRangeError, match="escapes"):
        AxisSpec("phi_over_pi", -0.5, 0.4, 5)
    with pytest.raises(InvalidRangeError, match="escapes"):
        AxisSpec("phi_over_pi", -0.4, 0.5, 5)
    AxisSpec("phi_over_pi", -0.499, 0.499, 5)
    with pytest.raises(InvalidRangeError, match="at least 2"):
        AxisSpec("omega_over_kappa0", 0.5, 1.0, 1)


# --------------------------------------------------------------- sweeps


def test_sweep_mu_orientation():
    grid = sweep(
        ReducedParams(J0=0.5),
        "mu",
        AxisSpec("omega_over_kappa0", 0.5, 1.0, 3),
        AxisSpec("G_over_kappa0", 0.0, 0.2, 2),
    )
    assert grid.values.shape == (2, 3)
    assert grid.values[0, 2] == pytest.approx(1.0, rel=1e-14)  # g=0, w=1
    for iy, g in enumerate(grid.y_values):
        for ix, w in enumerate(grid.x_values):
            rp = ReducedParams(J0=0.5, g=float(g))
            assert grid.values[iy, ix] == pytest.approx(mu(rp, float(w)), rel=1e-12)


def test_sweep_axis_transpose():
    a = sweep(
        ReducedParams(J0=0.3, gam=1e-4, theta=50.0),
        "mu",
        AxisSpec("omega_over_kappa0", 0.2, 1.8, 7),
        AxisSpec("G_over_kappa0", 0.0, 0.45, 5),
    )
    b = sweep(
        ReducedParams(J0=0.3, gam=1e-4, theta=50.0),
        "mu",
        AxisSpec("G_over_kappa0", 0.0, 0.45, 5),
        AxisSpec("omega_over_kappa0", 0.2, 1.8, 7),
    )
    assert np.array_equal(a.values, b.values.T)
    assert a.x_name == b.y_name == "omega_over_kappa0"


def test_sweep_r_rel_pointwise():
    rp = ReducedParams(J0=0.4, g=0.25, gam=1e-4, theta=10.0)
    grid = sweep(
        rp,
        "R_rel",
        AxisSpec("omega_over_kappa0", 0.3, 1.5, 4),
        AxisSpec("phi_over_pi", -0.3, 0.1, 3),
    )
    for iy, p in enumerate(grid.y_values):
        for ix, w in enumerate(grid.x_values):
            expect = sensitivity(rp, float(w), float(p) * math.pi).R_rel
            assert grid.values[iy, ix] == pytest.approx(expect, rel=1e-12)


def test_sweep_spectrum_extra_force():
    rp = ReducedParams(J0=0.5, g=0.1)
    grid = sweep(
        rp,
        "S_zout",
        AxisSpec("omega_over_kappa0", 0.5, 1.0, 2),
        AxisSpec("phi_over_pi", -0.25, 0.25, 3),
        s_ex_rel=1.5,
    )
    expect = output_spectrum(rp, 1.0, 0.25 * math.pi, s_ex_rel=1.5)
    assert grid.values[2, 1] == pytest.approx(expect, rel=1e-12)
    assert grid.meta["s_ex_rel"] == 1.5


def test_sweep_k_ignores_damping():
    wax = AxisSpec("omega_over_kappa0", 0.1, 2.0, 9)
    gax = AxisSpec("G_over_kappa0", 0.0, 0.4, 5)
    a = sweep(ReducedParams(J0=0.5), "K", wax, gax)
    b = sweep(ReducedParams(J0=0.5, gam=1e-3, theta=100.0), "K", wax, gax)
    assert np.array_equal(a.values, b.values)
    assert a.values[2, 4] == pytest.approx(
        kernels(ReducedParams(J0=0.5, g=float(a.y_values[2])), float(a.x_values[4])).K,
        rel=1e-13,
    )


def test_sweep_rejects_bad_requests():
    wax = AxisSpec("omega_over_kappa0", 0.5, 1.0, 3)
    gax = AxisSpec("G_over_kappa0", 0.0, 0.2, 3)
    pax = AxisSpec("phi_over_pi", -0.3, 0.3, 3)
    rp = ReducedParams(J0=0.5)
    with pytest.raises(InvalidParameterError, match="must differ"):
        sweep(rp, "mu", wax, AxisSpec("omega_over_kappa0", 1.2, 1.5, 3))
    with pytest.raises(InvalidParameterError, match="needs an axis"):
        sweep(rp, "mu", wax, pax)
    with pytest.raises(InvalidParameterError, match="needs an axis"):
        sweep(rp, "R_rel", wax, gax)
    with pytest.raises(InvalidParameterError, match="unknown sweep quantity"):
        sweep(rp, "entropy", wax, gax)


def test_sweep_zero_drive_is_a_domain_error():
    # mu is infinite everywhere without a drive; the grid must refuse
    with pytest.raises(DomainError, match="non-finite"):
        sweep(
            ReducedParams(J0=0.0),
            "mu",
            AxisSpec("omega_over_kappa0", 0.5, 1.0, 3),
            AxisSpec("G_over_kappa0", 0.0, 0.2, 3),
        )


@pytest.mark.parametrize("omega, g_max", [
    ((1e-12, 1e-6), 0.499),
    ((1e6, 1e12), 0.499),
    ((1e-12, 1e12), 0.49999999),
], ids=["omega-low-end", "omega-high-end", "gain-edge"])
def test_sweep_is_finite_at_the_edges_of_the_domain(omega, g_max):
    # Any numpy warning fails this test.
    wax = AxisSpec("omega_over_kappa0", *omega, 41)
    gax = AxisSpec("G_over_kappa0", 0.0, g_max, 41)
    pax = AxisSpec("phi_over_pi", -0.4999, 0.4999, 41)
    for J0, gam, theta in itertools.product((1e-6, 1.0, 1e6), (0.0, 1.0), (0.0, 1e8)):
        rp = ReducedParams(J0=J0, g=0.25, gam=gam, theta=theta)
        for quantity, y_axis in (("K", gax), ("mu", gax), ("R_rel", pax)):
            assert np.isfinite(sweep(rp, quantity, wax, y_axis).values).all()


def test_sweep_deterministic():
    args = (
        ReducedParams(J0=0.5, g=0.2, gam=1e-5, theta=THETA_1K),
        "R_rel",
        AxisSpec("omega_over_kappa0", 1e-4, 2.0, 41),
        AxisSpec("phi_over_pi", -0.49, 0.49, 41),
    )
    assert np.array_equal(sweep(*args).values, sweep(*args).values)


def test_sweep_meta_records_parameters():
    rp = ReducedParams(J0=0.25, g=0.1, gam=1e-4, theta=5.0)
    grid = sweep(
        rp,
        "mu",
        AxisSpec("omega_over_kappa0", 0.5, 1.0, 2),
        AxisSpec("G_over_kappa0", 0.0, 0.2, 2),
    )
    assert grid.meta["J0"] == 0.25
    assert grid.meta["gam"] == 1e-4
    assert grid.meta["theta"] == 5.0


def test_sweep_over_max_points_is_refused_before_allocating():
    # Exactly one cell over the limit: a missing check costs about 80 MB
    # per grid array, not more.
    assert 11 * 909091 == MAX_POINTS + 1
    with pytest.raises(InvalidRangeError, match=f"{MAX_POINTS + 1} grid cells"):
        sweep(
            ReducedParams(J0=0.5),
            "mu",
            AxisSpec("omega_over_kappa0", 0.5, 1.0, 11),
            AxisSpec("G_over_kappa0", 0.0, 0.2, 909091),
        )


@pytest.mark.parametrize("quantity", ["K", "mu"])
def test_sweep_gain_rows_equal_pointwise_calls_bitwise(quantity):
    rp = ReducedParams(J0=0.37, g=0.2, gam=3e-4, theta=250.0)
    wax = AxisSpec("omega_over_kappa0", 1e-4, 2.0, 97)
    gax = AxisSpec("G_over_kappa0", 0.0, 0.499, 250)
    # This gain axis holds a g for which pow() and numpy's array square
    # round (1 + 2g)^2 differently, so a grid built from array powers of
    # the gain column would not match the pointwise rows.
    assert any(
        (1.0 + 2.0 * g) ** 2 != np.square(1.0 + 2.0 * g) for g in gax.values.tolist()
    )
    grid = sweep(rp, quantity, wax, gax)
    flipped = sweep(rp, quantity, gax, wax)
    for g, row, column in zip(gax.values, grid.values, flipped.values.T):
        rp_g = ReducedParams(J0=rp.J0, g=g, gam=rp.gam, theta=rp.theta)
        if quantity == "K":
            expect = kernels(rp_g, wax.values).K
        else:
            expect = mu(rp_g, wax.values)
        assert row.tobytes() == expect.tobytes()
        assert column.tobytes() == expect.tobytes()


@pytest.mark.parametrize("nw, nphi", [(2, 3), (37, 23), (160, 121)])
def test_sweep_angle_grid_equals_meshgrid_evaluation_bitwise(nw, nphi):
    rp = ReducedParams(J0=0.42, g=0.31, gam=2e-4, theta=80.0)
    wax = AxisSpec("omega_over_kappa0", 1e-4, 2.0, nw)
    pax = AxisSpec("phi_over_pi", -0.4975, 0.4975, nphi)
    W, P = np.meshgrid(wax.values, pax.values)
    expect = {
        "R_rel": sensitivity(rp, W, P * np.pi).R_rel,
        "S_zout": output_spectrum(rp, W, P * np.pi, 0.7),
    }
    for quantity, full in expect.items():
        grid = sweep(rp, quantity, wax, pax, s_ex_rel=0.7)
        flipped = sweep(rp, quantity, pax, wax, s_ex_rel=0.7)
        assert grid.values.tobytes() == full.tobytes()
        assert np.ascontiguousarray(flipped.values.T).tobytes() == full.tobytes()


@pytest.mark.parametrize("quantity", ["K", "mu", "R_rel"])
def test_sweep_matches_plain_expressions_bitwise(quantity):
    # sweep builds each grid in place; the single-expression forms in
    # tests/reference.py fix every bit, in both axis orientations.
    rp = ReducedParams(J0=0.37, g=0.2, gam=3e-4, theta=250.0)
    wax = AxisSpec("omega_over_kappa0", 1e-4, 2.0, 97)
    if quantity == "R_rel":
        yax = AxisSpec("phi_over_pi", -0.4975, 0.4975, 61)
        expect, _ = sensitivity_budget(
            rp, wax.values[None, :], yax.values[:, None] * np.pi
        )
    else:
        yax = AxisSpec("G_over_kappa0", 0.0, 0.499, 250)
        expect = sweep_gain_grid(rp, quantity, wax.values, yax.values)
    assert sweep(rp, quantity, wax, yax).values.tobytes() == expect.tobytes()
    flipped = sweep(rp, quantity, yax, wax).values
    assert np.ascontiguousarray(flipped.T).tobytes() == expect.tobytes()


@pytest.mark.parametrize("quantity, limit", [("mu", 5.5), ("K", 4.5)])
def test_sweep_allocates_few_full_grids(quantity, limit):
    # Peak traced memory in units of one float grid: the up and s16
    # grids, the result and the temporaries the closed form needs
    # (mu 5.05, K 4.05).  One more throwaway full-grid temporary breaks
    # the limit.
    n = 400
    args = (
        ReducedParams(J0=0.37, g=0.2, gam=3e-4, theta=250.0),
        quantity,
        AxisSpec("omega_over_kappa0", 1e-4, 2.0, n),
        AxisSpec("G_over_kappa0", 0.0, 0.499, n),
    )
    sweep(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sweep(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (n * n * 8) <= limit


# ----------------------------------------------- mu-map threshold claims


def test_mu_map_all_subsql_gain_threshold():
    """Lossless J0=1/2: every band frequency beats the SQL once g >= 0.28."""
    grid = sweep(
        ReducedParams(J0=0.5),
        "mu",
        AxisSpec("omega_over_kappa0", 1e-4, 2.0, 200),
        AxisSpec("G_over_kappa0", 0.0, 0.499, 200),
    )
    row_max = grid.values.max(axis=1)
    assert np.all(row_max[grid.y_values >= 0.28] < 0.5)
    assert np.all(row_max[grid.y_values <= 0.27] >= 0.5)


def test_mu_map_warm_deep_squeezing_region():
    """1 K bath: mu < 0.1 needs strong gain and the upper band edge."""
    grid = sweep(
        ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K),
        "mu",
        AxisSpec("omega_over_kappa0", 1e-4, 2.0, 200),
        AxisSpec("G_over_kappa0", 0.0, 0.499, 200),
    )
    deep = grid.values < 0.1
    assert deep.any()
    g_min = grid.y_values[deep.any(axis=1)].min()
    w_min = grid.x_values[deep.any(axis=0)].min()
    assert 0.42 <= g_min <= 0.43
    assert 1.40 <= w_min <= 1.50


# ------------------------------------------------------ phase minimizer


def test_minimize_phase_matches_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(30):
        rp = ReducedParams(
            J0=float(rng.uniform(0.02, 0.5)),
            g=float(rng.uniform(0.0, 0.3)),
            gam=float(rng.choice([0.0, 10.0 ** rng.uniform(-5, -2)])),
            theta=float(rng.choice([0.0, rng.uniform(0.0, 3e4)])),
        )
        w = float(rng.uniform(0.4, 2.0))
        phi_star, r_star = minimize_phase(rp, w)
        assert abs(phi_star - optimal_phase(rp, w)) <= 1e-6
        assert r_star == pytest.approx(mu(rp, w), rel=1e-9)


def test_minimize_phase_frozen_spot():
    rp = ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K)
    phi_star, r_star = minimize_phase(rp, 0.803461)
    assert phi_star == pytest.approx(-0.2949850106601679, abs=1e-8)
    assert r_star == pytest.approx(1.145548125939305, rel=1e-9)


def test_minimize_phase_near_sql_at_low_frequency():
    _, r_star = minimize_phase(ReducedParams(J0=0.5), 0.01)
    assert abs(r_star - 0.5) < 1e-3


def test_minimize_phase_zero_drive():
    phi_star, r_star = minimize_phase(ReducedParams(J0=0.0), 1.0)
    assert phi_star == 0.0
    assert np.isinf(r_star)


def test_minimize_phase_refines_below_coarse_scan():
    rp = ReducedParams(J0=0.3, g=0.35, gam=1e-4, theta=500.0)
    w = 0.9
    _, r_star = minimize_phase(rp, w)
    coarse = np.linspace(-math.pi / 2, math.pi / 2, 723)[1:-1]
    best = sensitivity(rp, w, coarse).R_rel.min()
    assert r_star <= best * (1.0 + 1e-15)


# -------------------------------------------------- frequency minimizer


def test_minimize_mu_band_edge_is_exact():
    rp = ReducedParams(J0=0.5, g=0.46, gam=1e-5, theta=THETA_1K)
    w_star, m_star = minimize_mu_over_frequency(rp, (1e-4, 1.9))
    assert w_star == 1.9
    assert m_star == pytest.approx(0.06976788489170913, rel=1e-12)
    w_star2, m_star2 = minimize_mu_over_frequency(rp, (1e-4, 2.0))
    assert w_star2 == 2.0
    assert m_star2 == pytest.approx(0.06541286511557497, rel=1e-12)


def test_minimize_mu_interior_minimum():
    rp = ReducedParams(J0=0.5, g=0.46, gam=1e-5)
    w_star, m_star = minimize_mu_over_frequency(rp, (1e-4, 1.9))
    assert w_star == pytest.approx(0.1004978143163789, rel=1e-5)
    assert m_star == pytest.approx(5.277137265627776e-05, rel=1e-9)
    assert m_star == pytest.approx(mu(rp, w_star), rel=1e-12)


def test_minimize_mu_beats_dense_scan():
    rp = ReducedParams(J0=0.5, g=0.46, gam=1e-5)
    _, m_star = minimize_mu_over_frequency(rp, (1e-4, 1.9))
    dense = np.geomspace(1e-4, 1.9, 200001)
    assert m_star <= mu(rp, dense).min() * (1.0 + 1e-12)


def test_minimize_mu_band_validation():
    rp = ReducedParams(J0=0.5)
    with pytest.raises(InvalidRangeError, match="omega_min < omega_max"):
        minimize_mu_over_frequency(rp, (1.9, 1e-4))
    for band in ((0.0, 1.0), (1.0, 1e13)):
        with pytest.raises(InvalidRangeError, match="escapes"):
            minimize_mu_over_frequency(rp, band)
    with pytest.raises(InvalidRangeError):
        minimize_mu_over_frequency(rp, (math.nan, 1.0))
    # Inside the frequency domain, so a valid band; both ends of the
    # domain belong to it.
    for lo, hi in ((5e-5, 1.0), (0.5, 2.5), (_OMEGA_RANGE[0], 1e-6),
                   (1e6, _OMEGA_RANGE[1])):
        w_star, m_star = minimize_mu_over_frequency(rp, (lo, hi))
        assert lo <= w_star <= hi
        assert math.isfinite(m_star)


def test_minimize_mu_zero_drive_is_a_domain_error():
    # mu is infinite at every frequency without a drive, as in sweep.
    with pytest.raises(DomainError, match="no finite minimum"):
        minimize_mu_over_frequency(ReducedParams(J0=0.0, g=0.3), TABLE_BAND)


def test_minimize_mu_anywhere_in_the_frequency_domain():
    # Seeded bands with log-uniform ends anywhere in [1e-12, 1e12], so the
    # 2000-point coarse scan spans up to 24 decades.  Parameters alternate
    # between the benchmark's ranges and extreme ones.
    rng = np.random.default_rng(2024)

    def log_uniform(a, b):
        return float(np.exp(rng.uniform(np.log(a), np.log(b))))

    for k in range(40):
        lo, hi = sorted(log_uniform(*_OMEGA_RANGE) for _ in range(2))
        if k % 2:
            rp = ReducedParams(
                J0=log_uniform(1e-6, 1e6),
                g=rng.uniform(0.0, 0.4999),
                gam=0.0 if rng.random() < 0.3 else log_uniform(1e-6, 1.0),
                theta=0.0 if rng.random() < 0.3 else log_uniform(1e-2, 1e8),
            )
        else:
            rp = ReducedParams(
                J0=log_uniform(0.01, 1.0),
                g=rng.uniform(0.0, 0.49),
                gam=log_uniform(1e-6, 1e-2),
                theta=0.0 if rng.random() < 0.5 else THETA_1K,
            )
        w_star, m_star = minimize_mu_over_frequency(rp, (lo, hi))
        assert lo <= w_star <= hi, (rp, lo, hi)
        dense = mu(rp, np.geomspace(lo, hi, 200001)).min()
        assert m_star <= dense * (1.0 + 1e-12), (rp, lo, hi)


def test_band_minimum_matches_leading_order_closed_form():
    """At T=0 and small omega~ and damping, mu ~ a*x + b/x**2, x = omega~**2.

    The coefficients are written out from the model's leading terms, not
    taken from ``mu``: the shot-noise floor gives a ~ 1/J0 and the
    residual backaction gives b ~ J0, so the minimum 1.5*a*x* at
    x* = (2b/a)**(1/3) scales as J0**(-1/3) and omega~* as J0**(1/3).
    This ties the T=0, G~=0.46 cells of table 1 to one another.
    """
    g, gam = 0.46, 1e-5
    amp, sq, s16 = (1 + 2 * g) ** 2, (1 - 2 * g) ** 2, 16 * g * g
    for J0 in (0.5, 0.1, 0.02):
        a = amp * sq / (4 * J0 * s16)
        b = J0 * s16 * gam**2 / (4 * sq * amp)
        x_star = (2 * b / a) ** (1 / 3)
        rp = ReducedParams(J0=J0, g=g, gam=gam, theta=0.0)
        w_star, m_star = minimize_mu_over_frequency(rp, TABLE_BAND)
        assert m_star == pytest.approx(1.5 * a * x_star, rel=1e-4)
        assert w_star == pytest.approx(math.sqrt(x_star), rel=1e-3)
    rows = [
        r
        for r in reproduce_tables()
        if r.table == 1 and r.T_K == 0.0 and r.G_tilde == 0.46
    ]
    assert [r.J0 for r in rows] == [0.5, 0.1, 0.02]
    scaled = [r.mu_min * r.J0 ** (1 / 3) for r in rows]
    assert scaled[1:] == pytest.approx([scaled[0]] * 2, rel=1e-4)


def test_mu_profile_has_few_stationary_points():
    """The coarse-scan density leans on mu having at most two basins."""
    w = np.geomspace(1e-4, 1.9, 4001)
    for J0 in (0.5, 0.1, 0.02):
        for theta in (0.0, THETA_1K, 0.01 * THETA_1K):
            for g in (0.0, 0.46):
                for gam in (1e-5, 1e-3):
                    m = mu(ReducedParams(J0=J0, g=g, gam=gam, theta=theta), w)
                    d = np.diff(m)
                    d = d[np.abs(d) > 1e-13 * np.abs(m).max()]
                    flips = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
                    assert flips <= 2


# -------------------------------------------------------------- contours


def synthetic_grid(values):
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    return SweepGrid(
        quantity="K",
        x_name="omega_over_kappa0",
        x_values=np.linspace(0.0, 1.0, nx),
        y_name="G_over_kappa0",
        y_values=np.linspace(0.0, 1.0, ny),
        values=values,
    )


def segments(cs):
    out = set()
    for poly in cs.polylines:
        key = frozenset((round(float(x), 12), round(float(y), 12)) for x, y in poly)
        out.add(key)
    return out


def test_contour_empty_cases():
    grid = synthetic_grid(np.ones((3, 3)))
    assert extract_contour(grid, 1.0).polylines == []
    assert extract_contour(grid, 0.5).polylines == []
    assert extract_contour(grid, 2.0).polylines == []


def test_contour_saddle_center_above():
    # opposite high corners, cell mean above the level: two segments
    # hugging the high corners
    cs = extract_contour(synthetic_grid([[3.0, 0.0], [0.0, 3.0]]), 0.5)
    expect = {
        frozenset({(round(5 / 6, 12), 0.0), (1.0, round(1 / 6, 12))}),
        frozenset({(round(1 / 6, 12), 1.0), (0.0, round(5 / 6, 12))}),
    }
    assert segments(cs) == expect


def test_contour_saddle_center_at_level():
    # cell mean exactly at the level counts as below: the other pairing
    cs = extract_contour(synthetic_grid([[1.0, 0.0], [0.0, 1.0]]), 0.5)
    expect = {
        frozenset({(0.0, 0.5), (0.5, 0.0)}),
        frozenset({(1.0, 0.5), (0.5, 1.0)}),
    }
    assert segments(cs) == expect


def test_contour_saddle_mirrored():
    cs = extract_contour(synthetic_grid([[0.0, 3.0], [3.0, 0.0]]), 0.5)
    expect = {
        frozenset({(0.0, round(1 / 6, 12)), (round(1 / 6, 12), 0.0)}),
        frozenset({(1.0, round(5 / 6, 12)), (round(5 / 6, 12), 1.0)}),
    }
    assert segments(cs) == expect


def test_contour_closed_loop():
    n = 7
    x = np.linspace(0.0, 1.0, n)
    r2 = (x[None, :] - 0.5) ** 2 + (x[:, None] - 0.5) ** 2
    grid = synthetic_grid(1.0 / (1.0 + 8.0 * r2))
    cs = extract_contour(grid, 0.5)
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert len(poly) >= 8
    assert tuple(poly[0]) == tuple(poly[-1])
    # every vertex sits on the r^2 = 1/8 circle up to interpolation error
    r = np.hypot(poly[:, 0] - 0.5, poly[:, 1] - 0.5)
    assert np.all(np.abs(r - math.sqrt(1.0 / 8.0)) < 0.02)


def test_contour_crossing_frozen():
    grid = sweep(
        ReducedParams(J0=0.5),
        "K",
        AxisSpec("omega_over_kappa0", 0.3, 1.2, 181),
        AxisSpec("G_over_kappa0", 0.05, 0.15, 21),
    )
    cs = extract_contour(grid, 0.5)
    assert len(cs.polylines) == 1
    verts = cs.polylines[0]
    on_line = verts[np.abs(verts[:, 1] - 0.1) < 1e-12]
    assert on_line.shape[0] == 1
    x_v = float(on_line[0, 0])
    assert x_v == pytest.approx(0.751663502965107, rel=1e-12)
    root = brentq(
        lambda w: kernels(ReducedParams(J0=0.5, g=0.1), w).K - 0.5, 0.6, 0.9
    )
    assert abs(x_v - root) < 1e-3


def test_contour_vertices_interpolate_to_level():
    grid = sweep(
        ReducedParams(J0=0.5),
        "K",
        AxisSpec("omega_over_kappa0", 0.1, 2.0, 60),
        AxisSpec("G_over_kappa0", 0.0, 0.45, 40),
    )
    level = 0.5
    cs = extract_contour(grid, level)
    assert cs.polylines
    xs, ys = grid.x_values, grid.y_values
    checked = 0
    for poly in cs.polylines:
        for vx, vy in poly:
            ix = np.argmin(np.abs(xs - vx))
            iy = np.argmin(np.abs(ys - vy))
            if abs(xs[ix] - vx) < 1e-12:
                # vertex on a vertical grid line, between two y rows
                j = np.searchsorted(ys, vy) - 1
                if abs(ys[iy] - vy) < 1e-12:
                    continue  # degenerate: exactly on a grid node
                v0, v1 = grid.values[j, ix], grid.values[j + 1, ix]
                t = (vy - ys[j]) / (ys[j + 1] - ys[j])
            else:
                i = np.searchsorted(xs, vx) - 1
                v0, v1 = grid.values[iy, i], grid.values[iy, i + 1]
                t = (vx - xs[i]) / (xs[i + 1] - xs[i])
            assert v0 + t * (v1 - v0) == pytest.approx(level, abs=1e-9)
            checked += 1
    assert checked > 50


def test_contour_frequency_monotone_in_gain():
    """The K=1/2 level curve moves to higher frequency as gain grows."""
    grid = sweep(
        ReducedParams(J0=0.5),
        "K",
        AxisSpec("omega_over_kappa0", 0.05, 2.0, 120),
        AxisSpec("G_over_kappa0", 0.005, 0.30, 60),
    )
    cs = extract_contour(grid, 0.5)
    poly = max(cs.polylines, key=len)
    assert len(poly) >= 30
    # compare the crossing frequency row by row: one crossing per gain
    # value, shifting strictly to the right
    rows = {}
    for vx, vy in poly:
        hits = np.nonzero(np.abs(grid.y_values - vy) < 1e-12)[0]
        if hits.size:
            rows.setdefault(int(hits[0]), []).append(float(vx))
    assert len(rows) >= 20
    xs = [min(v) for _, v in sorted(rows.items())]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_contour_determinism():
    grid = sweep(
        ReducedParams(J0=0.5),
        "K",
        AxisSpec("omega_over_kappa0", 0.1, 2.0, 50),
        AxisSpec("G_over_kappa0", 0.0, 0.45, 50),
    )
    a = extract_contour(grid, 0.5)
    b = extract_contour(grid, 0.5)
    assert len(a.polylines) == len(b.polylines)
    for pa, pb in zip(a.polylines, b.polylines):
        assert np.array_equal(pa, pb)


def assert_same_polylines(grid, level):
    got = extract_contour(grid, level)
    ref = extract_contour_loop(grid, level)
    assert got.level == ref.level
    assert len(got.polylines) == len(ref.polylines)
    for a, b in zip(got.polylines, ref.polylines):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return ref


def saddle_kinds(values, level):
    # (case, centre above level) of every saddle cell, as the loop
    # oracle classifies them.
    V = np.asarray(values)
    above = V > level
    case = (
        above[:-1, :-1] * 1 + above[:-1, 1:] * 2
        + above[1:, 1:] * 4 + above[1:, :-1] * 8
    )
    centre = 0.25 * (V[:-1, :-1] + V[:-1, 1:] + V[1:, :-1] + V[1:, 1:])
    return {
        (c, bool(m > level))
        for c, m in zip(case.ravel(), centre.ravel())
        if c in (5, 10)
    }


def test_contour_matches_loop_oracle_on_seeded_grids():
    kinds = set()
    closed = open_ = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ny, nx = rng.integers(2, 40, size=2)
        values = rng.standard_normal((ny, nx))
        if seed % 2:
            # smooth bumps: long paths and closed loops beside the noise
            x = np.linspace(0.0, 6.0, nx)
            y = np.linspace(0.0, 6.0, ny)
            values = np.sin(x)[None, :] * np.cos(y)[:, None] + 0.1 * values
        for level in (-0.5, 0.0, 0.3):
            ref = assert_same_polylines(synthetic_grid(values), level)
            # Transposed sweeps hand over column-major values.
            assert_same_polylines(synthetic_grid(np.asfortranarray(values)), level)
            kinds |= saddle_kinds(values, level)
            for poly in ref.polylines:
                if tuple(poly[0]) == tuple(poly[-1]):
                    closed += 1
                else:
                    open_ += 1
    assert kinds == {(5, True), (5, False), (10, True), (10, False)}
    assert closed > 0 and open_ > 0


@pytest.mark.parametrize("values, level", [
    ([[3.0, 0.0], [0.0, 3.0]], 0.5),
    ([[1.0, 0.0], [0.0, 1.0]], 0.5),
    ([[0.0, 3.0], [3.0, 0.0]], 0.5),
    ([[0.0, 1.0], [1.0, 0.0]], 0.5),
    (np.ones((3, 3)), 1.0),
    ([[0.0, 1.0, 0.0]], 0.5),
    # Grid values equal to the level count as below it.
    ([[0.0, 1.0, 2.0], [1.0, 2.0, 1.0], [0.5, 1.0, 3.0]], 1.0),
], ids=["saddle5-above", "saddle5-at-level", "saddle10-above",
        "saddle10-at-level", "flat", "one-row", "level-on-grid-values"])
def test_contour_matches_loop_oracle_on_small_cases(values, level):
    assert_same_polylines(synthetic_grid(values), level)


@pytest.mark.parametrize("quantity", ["K", "mu", "R_rel"])
def test_contour_matches_loop_oracle_on_workload_sized_grid(quantity):
    rp = ReducedParams(J0=0.21, g=0.33, gam=4e-4, theta=120.0)
    wax = AxisSpec("omega_over_kappa0", 1e-4, 2.0, 400)
    if quantity == "R_rel":
        yax = AxisSpec("phi_over_pi", -0.4975, 0.4975, 400)
    else:
        yax = AxisSpec("G_over_kappa0", 0.0, 0.499, 400)
    grid = sweep(rp, quantity, wax, yax)
    level = float(np.exp(np.quantile(np.log(grid.values), 0.4)))
    ref = assert_same_polylines(grid, level)
    assert sum(len(p) for p in ref.polylines) > 300


# ---------------------------------------------------------------- tables


def theta_of(T_K):
    return K_B * T_K / (HBAR * KAPPA0)


def test_tables_structure():
    rows = reproduce_tables()
    assert len(rows) == 16
    assert [r.table for r in rows] == [1] * 12 + [2] * 4
    assert [r.J0 for r in rows[:12:4]] == [0.5, 0.1, 0.02]
    assert [r.T_K for r in rows[:4]] == [0.0, 0.0, 1.0, 1.0]
    assert [r.G_tilde for r in rows[:4]] == [0.0, 0.46, 0.0, 0.46]
    assert all(r.gamma_tilde == 1e-5 for r in rows[:12])
    assert all(r.gamma_tilde == 1e-3 for r in rows[12:])
    assert all(r.T_K == 0.01 for r in rows[12:])


def test_tables_first_row_frozen():
    r = reproduce_tables()[0]
    assert r.omega_tilde_argmin == pytest.approx(0.0033436981216847664, rel=1e-6)
    assert r.mu_min == pytest.approx(0.5000111803673878, rel=1e-10)
    assert r.power_W == pytest.approx(9.990578388873054, rel=1e-12)


def test_tables_rows_are_band_minima():
    rows = reproduce_tables()
    w_dense = np.geomspace(1e-4, 1.9, 3001)
    for r in rows:
        rp = ReducedParams(
            J0=r.J0, g=r.G_tilde, gam=r.gamma_tilde, theta=theta_of(r.T_K)
        )
        assert r.mu_min == pytest.approx(float(mu(rp, r.omega_tilde_argmin)), rel=1e-12)
        assert r.mu_min <= mu(rp, w_dense).min() * (1.0 + 1e-10)
        assert 1e-4 <= r.omega_tilde_argmin <= 1.9


def test_tables_power_round_trip():
    rows = reproduce_tables()
    powers = sorted({r.power_W for r in rows}, reverse=True)
    assert powers == [
        pytest.approx(9.990578388873054, rel=1e-12),
        pytest.approx(1.998115677774611, rel=1e-12),
        pytest.approx(0.3996231355549222, rel=1e-12),
    ]
    for r in rows:
        p = PhysicalParams(
            kappa0=KAPPA0,
            G=r.G_tilde * KAPPA0,
            eta=4.182e8,
            mass=1e-10,
            power=r.power_W,
            wavelength=1.064e-6,
        )
        assert reduce(p).J0 == pytest.approx(r.J0, rel=1e-12)
