"""Parameter sweeps, optimizers, contour extraction, benchmark tables.

This module turns the pointwise closed forms of :mod:`response` into
the survey products people actually look at: 2-D maps of a quantity
over frequency and gain or frequency and homodyne angle, level sets of
those maps, the phase- and frequency-optimized sensitivity minima, and
the two benchmark tables for a 100 ng particle in a MHz-linewidth
cavity.

Frequencies and gains are always the reduced ones; homodyne angles on
grid axes are quoted in units of pi so the axis box is the symmetric
open interval (-1/2, 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameterError, InvalidRangeError
from .params import HBAR, K_B, PhysicalParams, ReducedParams
from .params import reduce as reduce_params
from .response import (  # noqa: F401  (kernels: perfbench/tracing.py wraps it here)
    _gain_coefficients,
    _gain_polynomials,
    _k_formula,
    _mu_formula,
    kernels,
    mu,
    output_spectrum,
    sensitivity,
)

# Largest number of grid cells one sweep may ask for; the CLI holds its
# row counts to the same limit.
MAX_POINTS = 10_000_000

# Axis boxes: name -> (low, high, endpoints_allowed).
_AXIS_BOXES = {
    "omega_over_kappa0": (1e-4, 10.0, True),
    "G_over_kappa0": (0.0, 0.499, True),
    "phi_over_pi": (-0.5, 0.5, False),
}

# Frequency window every 1-D minimum is searched in.
_OMEGA_SEARCH_BOX = (1e-4, 2.0)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AxisSpec:
    """One linearly spaced sweep axis.

    ``name`` must be one of ``omega_over_kappa0``, ``G_over_kappa0`` or
    ``phi_over_pi``; each carries a hard box the interval must stay in
    (open at the ends for the homodyne angle).  At least two points per
    axis.
    """

    name: str
    start: float
    stop: float
    num: int

    def __post_init__(self) -> None:
        if self.name not in _AXIS_BOXES:
            raise InvalidRangeError(
                f"unknown axis {self.name!r}; expected one of "
                f"{sorted(_AXIS_BOXES)}"
            )
        if not self.start < self.stop:
            raise InvalidRangeError(
                f"axis {self.name}: need start < stop, got "
                f"[{self.start}, {self.stop}]"
            )
        low, high, closed = _AXIS_BOXES[self.name]
        inside = (
            low <= self.start and self.stop <= high
            if closed
            else low < self.start and self.stop < high
        )
        if not inside:
            raise InvalidRangeError(
                f"axis {self.name}: [{self.start}, {self.stop}] escapes the "
                f"supported box [{low}, {high}]"
            )
        if self.num < 2:
            raise InvalidRangeError(
                f"axis {self.name}: need at least 2 points, got {self.num}"
            )

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A quantity tabulated on an x-y rectangle.

    ``values[iy, ix]`` belongs to ``(x_values[ix], y_values[iy])``.
    """

    quantity: str
    x_name: str
    x_values: np.ndarray
    y_name: str
    y_values: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


def _axis_by_name(x_axis: AxisSpec, y_axis: AxisSpec, name: str) -> AxisSpec:
    for axis in (x_axis, y_axis):
        if axis.name == name:
            return axis
    raise InvalidParameterError(f"sweep needs an axis named {name!r}")


def sweep(
    rp: ReducedParams,
    quantity: str,
    x_axis: AxisSpec,
    y_axis: AxisSpec,
    s_ex_rel: float = 0.0,
) -> SweepGrid:
    """Tabulate one of K, mu, R_rel, S_zout over a rectangle.

    K and mu live on (frequency, gain) axes; the gain axis replaces
    ``rp.g``, and each row equals the pointwise function at that gain
    bit for bit.  R_rel and S_zout live on (frequency, homodyne angle)
    axes at fixed ``rp``.  Either orientation of x and y is accepted.
    Every quantity is evaluated once, on a frequency row broadcast
    against a gain or angle column.  A grid of more than
    ``MAX_POINTS`` cells is rejected with :class:`InvalidRangeError`
    before anything is allocated; one containing non-finite entries
    (for example mu at zero drive) with :class:`DomainError`.
    """
    if x_axis.name == y_axis.name:
        raise InvalidParameterError("x and y axes must differ")
    if x_axis.num * y_axis.num > MAX_POINTS:
        raise InvalidRangeError(
            f"sweep asks for {x_axis.num * y_axis.num} grid cells; "
            f"the limit is {MAX_POINTS}"
        )
    if quantity in ("K", "mu"):
        om_axis = _axis_by_name(x_axis, y_axis, "omega_over_kappa0")
        g_axis = _axis_by_name(x_axis, y_axis, "G_over_kappa0")
        w = om_axis.values
        x = w * w
        # Columns of per-gain coefficients against a row of frequencies.
        up0, lo0, c16 = np.array(
            [_gain_coefficients(g) for g in g_axis.values]
        ).T[:, :, None]
        up, _, s16 = _gain_polynomials((up0, lo0, c16), x)
        if quantity == "K":
            canon = _k_formula(rp.J0 / lo0, up, s16, x)
        else:
            canon = _mu_formula(rp, lo0, up, s16, x)
        values = canon if x_axis is om_axis else canon.T
    elif quantity in ("R_rel", "S_zout"):
        om_axis = _axis_by_name(x_axis, y_axis, "omega_over_kappa0")
        phi_axis = _axis_by_name(x_axis, y_axis, "phi_over_pi")
        w = om_axis.values
        p = phi_axis.values * np.pi
        if x_axis is om_axis:
            w, p = w[None, :], p[:, None]
        else:
            w, p = w[:, None], p[None, :]
        if quantity == "R_rel":
            values = sensitivity(rp, w, p).R_rel
        else:
            values = output_spectrum(rp, w, p, s_ex_rel)
    else:
        raise InvalidParameterError(
            f"unknown sweep quantity {quantity!r}; "
            "expected K, mu, R_rel or S_zout"
        )
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"sweep of {quantity} produced non-finite values on this grid"
        )
    meta = {
        "J0": rp.J0,
        "g": rp.g,
        "gam": rp.gam,
        "theta": rp.theta,
        "s_ex_rel": s_ex_rel,
    }
    return SweepGrid(
        quantity=quantity,
        x_name=x_axis.name,
        x_values=x_axis.values,
        y_name=y_axis.name,
        y_values=y_axis.values,
        values=values,
        meta=meta,
    )


def _golden_min(
    f: Callable[[float], float], a: float, b: float, xtol: float
) -> tuple[float, float]:
    # Golden-section search on (a, b); never evaluates the endpoints,
    # so they may sit on a singularity.  Returns the best point seen.
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    while (b - a) > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def minimize_mu_over_frequency(
    rp: ReducedParams,
    omega_range: tuple[float, float],
    coarse_points: int = 2000,
) -> tuple[float, float]:
    """Minimize the phase-optimized sensitivity over a frequency band.

    ``omega_range`` must lie inside the supported search window
    [1e-4, 2.0].  A geometric coarse scan locates the global basin and
    golden section refines it in log frequency.  Returns
    ``(omega_star, mu_star)``; a band-edge minimum is reported at the
    edge itself.
    """
    lo, hi = (float(omega_range[0]), float(omega_range[1]))
    box_lo, box_hi = _OMEGA_SEARCH_BOX
    if not lo < hi:
        raise InvalidRangeError(f"need omega_min < omega_max, got [{lo}, {hi}]")
    if lo < box_lo or hi > box_hi:
        raise InvalidRangeError(
            f"frequency band [{lo}, {hi}] escapes the supported window "
            f"[{box_lo}, {box_hi}]"
        )
    if coarse_points < 2:
        raise InvalidRangeError("coarse_points must be at least 2")
    grid = np.geomspace(lo, hi, coarse_points)
    coarse = np.asarray(mu(rp, grid))
    i = int(np.argmin(coarse))
    t_lo = math.log(grid[max(i - 1, 0)])
    t_hi = math.log(grid[min(i + 1, grid.size - 1)])

    def objective(t: float) -> float:
        return float(mu(rp, math.exp(t)))

    if t_lo < t_hi:
        t_star, mu_star = _golden_min(objective, t_lo, t_hi, 1e-6)
    else:
        t_star, mu_star = math.log(grid[i]), float(coarse[i])
    if coarse[i] <= mu_star:
        return float(grid[i]), float(coarse[i])
    return math.exp(t_star), mu_star


@dataclass(frozen=True, eq=False)
class ContourSet:
    """Level set of a SweepGrid.

    ``polylines`` is a list of (n, 2) float arrays of (x, y) vertices;
    closed loops repeat their first vertex at the end.  Empty when the
    level is never crossed.
    """

    level: float
    polylines: list


# Contour segments per marching-squares case, as (edge, edge) pairs.
# Corner bit order: 1 = bottom-left, 2 = bottom-right, 4 = top-right,
# 8 = top-left.  Cases 0 and 15 carry nothing; 5 and 10 are saddles
# resolved by the cell-center mean, and become 21 and 26 when that mean
# lies above the level.
_CASE_SEGMENTS = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    5: [("left", "bottom"), ("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("left", "top")],
    9: [("bottom", "top")],
    10: [("bottom", "right"), ("top", "left")],
    11: [("right", "top")],
    12: [("left", "right")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
    21: [("bottom", "right"), ("top", "left")],
    26: [("left", "bottom"), ("right", "top")],
}
_EDGES = ("bottom", "top", "left", "right")


def _segment_arrays() -> tuple[np.ndarray, np.ndarray]:
    # _CASE_SEGMENTS as arrays: segment count and edge slots per case.
    count = np.zeros(32, dtype=np.intp)
    edges = np.zeros((32, 2, 2), dtype=np.intp)
    for case, pairs in _CASE_SEGMENTS.items():
        count[case] = len(pairs)
        for k, pair in enumerate(pairs):
            edges[case, k] = [_EDGES.index(e) for e in pair]
    return count, edges


_SEGMENT_COUNT, _SEGMENT_EDGES = _segment_arrays()


def extract_contour(grid: SweepGrid, level: float) -> ContourSet:
    """Marching-squares level set of ``grid.values`` at ``level``.

    Vertices are linearly interpolated along cell edges, so every
    vertex satisfies the level equation of the two bracketing grid
    points exactly.  Saddle cells are disambiguated with the mean of
    the four corners.  Segments sharing an edge vertex are chained into
    polylines; a level outside the data range yields an empty set.
    Polylines come in a fixed order: open paths first, each from the
    end whose edge the row-major cell scan meets first, then closed
    loops.
    """
    V = np.asarray(grid.values, dtype=float)
    xs = np.asarray(grid.x_values, dtype=float)
    ys = np.asarray(grid.y_values, dtype=float)
    level = float(level)
    nx = V.shape[1]
    above = (V > level).view(np.uint8)
    case = (
        above[:-1, :-1]
        | (above[:-1, 1:] << 1)
        | (above[1:, 1:] << 2)
        | (above[1:, :-1] << 3)
    )
    cells = np.flatnonzero((case != 0) & (case != 15))
    if cells.size == 0:
        return ContourSet(level=level, polylines=[])
    j, i = np.divmod(cells, nx - 1)
    c = case.ravel()[cells].astype(np.intp)
    saddle = np.flatnonzero((c == 5) | (c == 10))
    js, i_s = j[saddle], i[saddle]
    center = 0.25 * (
        V[js, i_s] + V[js, i_s + 1] + V[js + 1, i_s] + V[js + 1, i_s + 1]
    )
    c[saddle] += 16 * (center > level)

    # Segments in cell order, two per saddle; each end is an edge id
    # 2 * (j * nx + i) + orient (0 horizontal, 1 vertical), so bottom,
    # top, left and right sit at these offsets from the cell's bottom.
    count = _SEGMENT_COUNT[c]
    seg_cell = np.repeat(np.arange(cells.size), count)
    second = np.arange(seg_cell.size) - np.repeat(np.cumsum(count) - count, count)
    offsets = np.array([0, 2 * nx, 1, 3])
    ends = 2 * (j * nx + i)[seg_cell, None] + offsets[
        _SEGMENT_EDGES[c[seg_cell], second]
    ]

    # Number the edges 0, 1, ... in order of first appearance among the
    # segment ends, the order in which the chaining below visits them.
    edge_ids, first, inverse = np.unique(
        ends.ravel(), return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    node = rank[inverse]
    edge_ids = edge_ids[by_first]

    # Vertex of each edge, interpolated exactly as (level - v0) / (v1 - v0).
    orient = edge_ids & 1
    ej, ei = np.divmod(edge_ids >> 1, nx)
    v0 = V[ej, ei]
    frac = (level - v0) / (V[ej + orient, ei + 1 - orient] - v0)
    px = xs[ei]
    py = ys[ej]
    h = orient == 0
    px[h] = xs[ei[h]] + frac[h] * (xs[ei[h] + 1] - xs[ei[h]])
    v = ~h
    py[v] = ys[ej[v]] + frac[v] * (ys[ej[v] + 1] - ys[ej[v]])

    # Each edge lies on one or two segments: list them, and the edge at
    # their other end, in segment order.
    positions = np.argsort(node, kind="stable")
    degree = np.bincount(node)
    start = np.cumsum(degree) - degree
    p0 = positions[start]
    p1 = positions[np.minimum(start + 1, node.size - 1)]
    seg0, nbr0 = (p0 >> 1).tolist(), node[p0 ^ 1].tolist()
    seg1, nbr1 = np.where(degree == 2, p1 >> 1, -1).tolist(), node[p1 ^ 1].tolist()
    used = bytearray(seg_cell.size)
    path: list[int] = []
    lengths: list[int] = []

    def walk(cur: int) -> None:
        # Follow unused segments from cur, first-listed first.
        n = len(path)
        path.append(cur)
        while True:
            s = seg0[cur]
            if not used[s]:
                cur = nbr0[cur]
            else:
                s = seg1[cur]
                if s < 0 or used[s]:
                    break
                cur = nbr1[cur]
            used[s] = 1
            path.append(cur)
        lengths.append(len(path) - n)

    # Open paths first, from their endpoints; what remains are loops.
    for e in np.flatnonzero(degree == 1).tolist():
        if not used[seg0[e]]:
            walk(e)
    for e in range(len(seg0)):
        if not used[seg0[e]]:
            walk(e)
    xy = np.column_stack([px, py])[path]
    return ContourSet(
        level=level, polylines=np.split(xy, np.cumsum(lengths)[:-1])
    )


# Calibration shared by both benchmark tables: a 100 ng particle in a
# 2 pi x 1 MHz cavity driven at 1064 nm with the quoted coupling
# gradient.
TABLE_KAPPA0 = 2.0 * math.pi * 1e6
TABLE_ETA = 4.182e8
TABLE_MASS = 1e-10
TABLE_WAVELENGTH = 1.064e-6
# Frequency band the tabulated minima are searched in.  The upper edge
# is the largest tabulated frequency: at strong gain and 1 K the
# minimum sits there, not at an interior point.
TABLE_BAND = (1e-4, 1.9)

# (table, gamma_tilde, J0 values, bath temperatures in K); every cell is
# tabulated at each gain in _TABLE_GAINS.
_TABLES = (
    (1, 1e-5, (0.5, 0.1, 0.02), (0.0, 1.0)),
    (2, 1e-3, (0.1, 0.02), (0.01,)),
)
_TABLE_GAINS = (0.0, 0.46)


@dataclass(frozen=True)
class TableRow:
    """One benchmark-table entry: the band minimum of mu and its knobs."""

    table: int
    J0: float
    T_K: float
    G_tilde: float
    omega_tilde_argmin: float
    mu_min: float
    gamma_tilde: float
    power_W: float


def _j0_per_watt() -> float:
    probe = PhysicalParams(
        kappa0=TABLE_KAPPA0,
        G=0.0,
        eta=TABLE_ETA,
        mass=TABLE_MASS,
        power=1.0,
        wavelength=TABLE_WAVELENGTH,
    )
    return reduce_params(probe).J0


def reproduce_tables() -> list[TableRow]:
    """Recompute both benchmark tables from the calibration above.

    Table 1 varies the drive strength over three values and the bath
    between 0 and 1 K at weak mechanical damping; table 2 keeps a
    10 mK bath with hundredfold stronger damping.  Each row reports
    the frequency-band minimum of the phase-optimized sensitivity with
    and without parametric gain, plus the drive power that realizes its
    J0 in the table calibration.
    """
    per_watt = _j0_per_watt()
    rows = []
    for table, gam, j0s, temperatures in _TABLES:
        for j0 in j0s:
            for t_kelvin in temperatures:
                theta = K_B * t_kelvin / (HBAR * TABLE_KAPPA0)
                for g in _TABLE_GAINS:
                    rp = ReducedParams(J0=j0, g=g, gam=gam, theta=theta)
                    w_star, mu_star = minimize_mu_over_frequency(rp, TABLE_BAND)
                    rows.append(
                        TableRow(
                            table=table,
                            J0=j0,
                            T_K=t_kelvin,
                            G_tilde=g,
                            omega_tilde_argmin=w_star,
                            mu_min=mu_star,
                            gamma_tilde=gam,
                            power_W=j0 / per_watt,
                        )
                    )
    return rows
