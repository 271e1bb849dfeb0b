"""Loop, scan and plain-expression forms of library results, kept as
test oracles.

``minimize_phase`` finds the optimal homodyne angle by a 721-point scan
refined by golden section; tests hold the closed form
:func:`pasense.optimal_phase` to it.  ``extract_contour_loop`` is
marching squares written one cell at a time with numpy scalars; the
array form :func:`pasense.extract_contour` must return the same
polylines, in the same order, bit for bit.  ``k_formula``,
``mu_formula``, ``sweep_gain_grid`` and ``sensitivity_budget`` are the
closed forms written as single expressions, which the library builds
in place; its results must equal theirs bit for bit.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from pasense import ContourSet, ReducedParams, SweepGrid, sensitivity
from pasense.explore import _golden_min
from pasense.response import _gain_coefficients


def k_formula(J, up, s16, x):
    """Measurement strength K as one expression."""
    return J * s16 / (up * x)


def mu_formula(rp: ReducedParams, squeeze, up, s16, x):
    """Phase-optimized sensitivity as three plain terms."""
    xg = x + rp.gam * rp.gam
    with np.errstate(divide="ignore"):
        floor = up * xg * squeeze / (4.0 * rp.J0 * s16)
    residual = rp.J0 * s16 * rp.gam * rp.gam / (4.0 * squeeze * up * xg * x)
    return floor + residual + rp.theta * rp.gam / x


def sweep_gain_grid(rp: ReducedParams, quantity: str, w, gains):
    """K or mu on a (gain, frequency) grid: gain columns, frequency row."""
    x = w * w
    up0, lo0, c16 = np.array([_gain_coefficients(g) for g in gains]).T[:, :, None]
    up, s16 = up0 + x, x + c16
    if quantity == "K":
        return k_formula(rp.J0 / lo0, up, s16, x)
    return mu_formula(rp, lo0, up, s16, x)


def sensitivity_budget(rp: ReducedParams, omega_tilde, phi):
    """(R_rel, backaction) of the force-noise budget, from the kernels up."""
    w = np.asarray(omega_tilde, dtype=float)
    p = np.asarray(phi, dtype=float)
    x = w * w
    up0, lo0, c16 = _gain_coefficients(rp.g)
    up, lo, s16 = up0 + x, lo0 + x, x + c16
    K = k_formula(rp.J, up, s16, x)
    damp = 1.0 + 1j * (rp.gam / w)
    Kn = K / damp
    A = up / lo
    B = np.sqrt(2.0 * Kn / damp)
    b2 = np.real(B * np.conj(B))
    t = np.tan(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        shot = 1.0 / (2.0 * b2)
        backaction = shot * np.abs(Kn + t / A) ** 2
    backaction = np.where(b2 == 0.0, 0.0, backaction)
    thermal = rp.theta * rp.gam / (w * w)
    return shot + backaction + thermal, backaction


def minimize_phase(rp: ReducedParams, omega_tilde: float) -> tuple[float, float]:
    """Numerically minimize R_rel over the homodyne angle.

    Scans an interior grid of (-pi/2, pi/2) and refines the best
    bracket by golden section.  Returns ``(phi_star, R_star)``.  This
    is the scan route; the closed form lives in
    :func:`pasense.response.optimal_phase`, and the two are only ever
    compared, never merged.

    With the drive off the sensitivity is flat (infinite) in the angle,
    and (0.0, inf) is returned.
    """
    w = float(omega_tilde)
    if rp.J0 == 0.0:
        return 0.0, float(sensitivity(rp, w, 0.0).R_rel)
    grid = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 723)[1:-1]
    coarse = sensitivity(rp, w, grid).R_rel
    i = int(np.argmin(coarse))
    lo = grid[i - 1] if i > 0 else -0.5 * np.pi
    hi = grid[i + 1] if i < grid.size - 1 else 0.5 * np.pi

    def objective(p: float) -> float:
        return float(sensitivity(rp, w, p).R_rel)

    phi_star, r_star = _golden_min(objective, lo, hi, 1e-9)
    if coarse[i] <= r_star:
        return float(grid[i]), float(coarse[i])
    return phi_star, r_star


# Contour segments per marching-squares case, as (edge, edge) pairs.
# Corner bit order: 1 = bottom-left, 2 = bottom-right, 4 = top-right,
# 8 = top-left.  Cases 0 and 15 carry nothing; 5 and 10 are saddles
# resolved by the cell-center mean.
_CASE_SEGMENTS = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("left", "top")],
    9: [("bottom", "top")],
    11: [("right", "top")],
    12: [("left", "right")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}


def extract_contour_loop(grid: SweepGrid, level: float) -> ContourSet:
    """Per-cell marching squares: the loop form of ``extract_contour``.

    Vertices are linearly interpolated along cell edges, so every
    vertex satisfies the level equation of the two bracketing grid
    points exactly.  Saddle cells are disambiguated with the mean of
    the four corners.  Segments sharing an edge vertex are chained into
    polylines; a level outside the data range yields an empty set.
    """
    V = np.asarray(grid.values, dtype=float)
    xs = np.asarray(grid.x_values, dtype=float)
    ys = np.asarray(grid.y_values, dtype=float)
    level = float(level)
    above = V > level
    bl = above[:-1, :-1]
    br = above[:-1, 1:]
    tr = above[1:, 1:]
    tl = above[1:, :-1]
    case = (
        bl.astype(np.uint8)
        | (br.astype(np.uint8) << 1)
        | (tr.astype(np.uint8) << 2)
        | (tl.astype(np.uint8) << 3)
    )
    cells = np.argwhere((case != 0) & (case != 15))

    points: dict[tuple, tuple[float, float]] = {}

    def edge_point(edge_id: tuple) -> tuple:
        # edge_id = (j, i, orient), orient 0 horizontal / 1 vertical.
        if edge_id not in points:
            j, i, orient = edge_id
            v0 = V[j, i]
            if orient == 0:
                v1 = V[j, i + 1]
                s = (level - v0) / (v1 - v0)
                points[edge_id] = (xs[i] + s * (xs[i + 1] - xs[i]), ys[j])
            else:
                v1 = V[j + 1, i]
                s = (level - v0) / (v1 - v0)
                points[edge_id] = (xs[i], ys[j] + s * (ys[j + 1] - ys[j]))
        return edge_id

    segments: list[tuple[tuple, tuple]] = []
    for j, i in cells:
        names = {
            "bottom": (j, i, 0),
            "top": (j + 1, i, 0),
            "left": (j, i, 1),
            "right": (j, i + 1, 1),
        }
        c = int(case[j, i])
        if c == 5 or c == 10:
            center = 0.25 * (V[j, i] + V[j, i + 1] + V[j + 1, i] + V[j + 1, i + 1])
            if c == 5:
                pairs = (
                    [("bottom", "right"), ("top", "left")]
                    if center > level
                    else [("left", "bottom"), ("right", "top")]
                )
            else:
                pairs = (
                    [("left", "bottom"), ("right", "top")]
                    if center > level
                    else [("bottom", "right"), ("top", "left")]
                )
        else:
            pairs = _CASE_SEGMENTS[c]
        for a, b in pairs:
            segments.append((edge_point(names[a]), edge_point(names[b])))

    adjacency: dict[tuple, list] = defaultdict(list)
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)

    def walk(start: tuple) -> list:
        path = [start]
        while adjacency[path[-1]]:
            cur = path[-1]
            nxt = adjacency[cur][0]
            adjacency[cur].remove(nxt)
            adjacency[nxt].remove(cur)
            path.append(nxt)
        return path

    polylines = []
    # Open paths first, from their endpoints; what remains are loops.
    for node in [n for n, nbrs in adjacency.items() if len(nbrs) == 1]:
        if adjacency[node]:
            polylines.append(walk(node))
    for node in list(adjacency):
        if adjacency[node]:
            polylines.append(walk(node))
    arrays = [
        np.array([points[e] for e in path], dtype=float) for path in polylines
    ]
    return ContourSet(level=level, polylines=arrays)
