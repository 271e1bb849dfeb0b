"""Output oracles: read every result back and check it by another route.

Each ``check_*`` function returns a :class:`Verdict`: the problems found
(empty when the output is right) and whether every problem belongs to
the known defect class described below.

Tolerances:

* ``SAME_RTOL`` where the check repeats the program's own arithmetic
  (sums of printed columns, pointwise re-evaluation of a swept value);
* ``ROUTE_RTOL`` where two independent routes of the model meet, for
  example the noise budget at the optimal angle against the closed-form
  ``mu``.

Known defect: when the optimal homodyne angle lies within
``NEAR_HALF_PI`` of -pi/2 (high gain, low frequency), the budget route
``sensitivity`` cancels two large terms and drifts above ``mu`` (by 0.68%
in the reproducer of README.md).  Those rows fail the 1e-9 check, and
such a failure is marked known.  The timed workloads redraw inputs of
this class (``workloads.in_defect_class``); the reproducer is checked on
its own after every ``dump`` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pasense.params import ReducedParams
from pasense.response import kernels, mu, optimal_phase, sensitivity

SAME_RTOL = 1e-12
ROUTE_RTOL = 1e-9
# Every row that failed the 1e-9 check at an optimal angle this close to
# -pi/2 had it within 7.3e-8 (8000 draws of the workload's ranges).
NEAR_HALF_PI = 1e-7
DENSE_SCAN_POINTS = 20001
SAMPLES = 128  # mu-map cells and contour vertices checked per operation


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    known: bool = True

    def fail(self, message: str, known: bool = False) -> None:
        self.problems.append(message)
        self.known = self.known and known

    @property
    def ok(self) -> bool:
        return not self.problems


class _Malformed(ValueError):
    pass


def read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, column names, rows as a float matrix) of a CLI CSV."""
    lines = Path(path).read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise _Malformed("no header line")
    names = body[0].split(",")
    rows = body[1:]
    fields = ",".join(rows).split(",") if rows else []
    if len(fields) != len(rows) * len(names):
        raise _Malformed("ragged rows")
    try:
        data = np.array(fields, dtype=float).reshape(len(rows), len(names))
    except ValueError as exc:
        raise _Malformed(f"unparseable number: {exc}")
    return comments, names, data


def _rel(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale == 0.0, 0.0, np.abs(a - b) / scale)


def _bad_rows(a, b, rtol) -> np.ndarray:
    r = _rel(a, b)
    return np.flatnonzero(~(r <= rtol))


def _expect(v: Verdict, what: str, got, want, rtol=SAME_RTOL) -> np.ndarray:
    bad = _bad_rows(got, want, rtol)
    if bad.size:
        i = bad[0]
        v.fail(f"{what}: {bad.size} rows off, first row {i}: "
               f"{float(np.ravel(got)[i])!r} vs {float(np.ravel(want)[i])!r}")
    return bad


def _omegas(spec) -> np.ndarray:
    lo, hi, n = spec["omega"]
    return np.linspace(lo, hi, n)


def _read(v: Verdict, path: Path, header: str):
    try:
        comments, names, data = read_csv(path)
    except (OSError, _Malformed) as exc:
        v.fail(f"unreadable output: {exc}")
        return None, None
    if ",".join(names) != header:
        v.fail(f"header {','.join(names)!r}, expected {header!r}")
        return None, None
    return comments, data


def _angle_grid(op, data, v: Verdict):
    """Check the (omega, phi/pi) columns; return the angles in radians."""
    w = _omegas(op.spec)
    pops = op.spec.get("phi_over_pi")
    if pops is None:
        phi = optimal_phase(op.rp, w)
    else:
        w = np.repeat(w, len(pops))
        phi = np.tile(np.asarray(pops) * np.pi, op.spec["omega"][2])
    if data.shape[0] != w.size:
        v.fail(f"{data.shape[0]} rows, expected {w.size}")
        return None, None
    _expect(v, "omega column", data[:, 0], w)
    _expect(v, "phi_over_pi column", data[:, 1], phi / np.pi)
    return w, phi


def check_sensitivity(op, path: Path) -> Verdict:
    """Budget identity on every row; at the optimal angle R_rel == mu,
    at a given angle R_rel >= mu."""
    v = Verdict()
    _, data = _read(v, path, "omega_over_kappa0,phi_over_pi,R_rel,shot,backaction,thermal")
    if data is None:
        return v
    w, phi = _angle_grid(op, data, v)
    if w is None:
        return v
    R = data[:, 2]
    _expect(v, "R_rel != shot + backaction + thermal", R, data[:, 3] + data[:, 4] + data[:, 5])
    m = mu(op.rp, w)
    if "phi_over_pi" in op.spec:
        bad = np.flatnonzero(~(R >= m * (1.0 - ROUTE_RTOL)))
        if bad.size:
            v.fail(f"R_rel below mu on {bad.size} rows, first omega={float(w[bad[0]])!r}")
        return v
    bad = _bad_rows(R, m, ROUTE_RTOL)
    if bad.size:
        near = (math.pi / 2 + phi[bad]) < NEAR_HALF_PI
        i = bad[0]
        v.fail(
            f"R_rel != mu at the optimal angle on {bad.size} rows, first omega={float(w[i])!r} "
            f"R_rel={float(R[i])!r} mu={float(m[i])!r} (rel {_rel(R[i], m[i]):.3g}, "
            f"angle {math.pi / 2 + phi[i]:.3g} from -pi/2)",
            known=bool(np.all(near)),
        )
    return v


def check_spectrum(op, path: Path) -> Verdict:
    """S_zout == A |B|^2 cos^2(phi) R_rel(phi), from kernels and the budget."""
    v = Verdict()
    _, data = _read(v, path, "omega_over_kappa0,phi_over_pi,S_zout")
    if data is None:
        return v
    w, phi = _angle_grid(op, data, v)
    if w is None:
        return v
    k = kernels(op.rp, w)
    b2 = np.abs(k.B) ** 2
    want = k.A * b2 * np.cos(phi) ** 2 * sensitivity(op.rp, w, phi).R_rel
    _expect(v, "S_zout != A|B|^2 cos^2(phi) R_rel", data[:, 2], want, ROUTE_RTOL)
    return v


def check_oscillator(op, path: Path) -> Verdict:
    """mu_free == mu(omega), ratio == (1 - (wm/w)^2)^2, mu_mo == ratio * mu_free."""
    v = Verdict()
    _, data = _read(v, path, "omega_over_kappa0,mu_mo,mu_free,ratio")
    if data is None:
        return v
    w = _omegas(op.spec)
    if data.shape[0] != w.size:
        v.fail(f"{data.shape[0]} rows, expected {w.size}")
        return v
    _expect(v, "omega column", data[:, 0], w)
    _expect(v, "mu_free != mu", data[:, 2], mu(op.rp, w))
    r = 1.0 - (op.spec["wm"] / w) ** 2
    _expect(v, "ratio != (1 - (wm/w)^2)^2", data[:, 3], r * r, ROUTE_RTOL)
    _expect(v, "mu_mo != ratio * mu_free", data[:, 1], data[:, 3] * data[:, 2], ROUTE_RTOL)
    return v


def _header_fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.lstrip("# ").split() if "=" in tok)


def _check_header_params(v: Verdict, comments, rp: ReducedParams) -> dict:
    if len(comments) != 1:
        v.fail(f"expected one comment line, got {len(comments)}")
        return {}
    meta = _header_fields(comments[0])
    for key, want in (("J0", rp.J0), ("gamma_tilde", rp.gam), ("theta", rp.theta)):
        if key not in meta or float(meta[key]) != want:
            v.fail(f"header {key}={meta.get(key)!r}, expected {want!r}")
    return meta


def _sample(rng, n: int) -> np.ndarray:
    # Always include the first row, then a seeded sample of the rest.
    if n <= SAMPLES:
        return np.arange(n)
    return np.unique(np.concatenate(([0], rng.choice(n, SAMPLES - 1, replace=False))))


def check_mu_map(op, path: Path) -> Verdict:
    """Axes of every row, and sampled cells recomputed with mu on a per-row
    ReducedParams."""
    v = Verdict()
    comments, data = _read(v, path, "omega_over_kappa0,G_over_kappa0,mu")
    if data is None:
        return v
    _check_header_params(v, comments, op.rp)
    nx, ny = op.spec["res"]
    if data.shape[0] != nx * ny:
        v.fail(f"{data.shape[0]} rows, expected {nx * ny}")
        return v
    xs = np.linspace(*_box(op, "--omega"), nx)
    ys = np.linspace(*_box(op, "--g"), ny)
    _expect(v, "omega column", data[:, 0], np.tile(xs, ny))
    _expect(v, "G column", data[:, 1], np.repeat(ys, nx))
    rng = np.random.default_rng(op.index)
    for i in _sample(rng, data.shape[0]):
        x, g, value = (float(c) for c in data[i])
        rp_g = ReducedParams(J0=op.rp.J0, g=g, gam=op.rp.gam, theta=op.rp.theta)
        want = float(mu(rp_g, x))
        if _rel(value, want) > SAME_RTOL:
            v.fail(f"mu-map cell {i} at omega={x!r} G={g!r}: {value!r} vs {want!r}")
    return v


def _box(op, flag: str) -> tuple[float, float]:
    argv = op.argv
    return float(argv[argv.index(flag + "-min") + 1]), float(argv[argv.index(flag + "-max") + 1])


def _quantity_at(op, x: float, y: float) -> float:
    q = op.spec["quantity"]
    if q == "R_rel":
        return float(sensitivity(op.rp, x, y * np.pi).R_rel)
    rp_g = ReducedParams(J0=op.rp.J0, g=y, gam=op.rp.gam, theta=op.rp.theta)
    return float(kernels(rp_g, x).K if q == "K" else mu(rp_g, x))


def _brackets(op, level: float, p0, p1) -> bool:
    a = _quantity_at(op, *p0)
    b = _quantity_at(op, *p1)
    return min(a, b) * (1.0 - ROUTE_RTOL) <= level <= max(a, b) * (1.0 + ROUTE_RTOL)


def _on_bracketing_edge(op, xs, ys, level, x, y) -> bool:
    # A vertex on a vertical grid line x == xs[i] or a horizontal one
    # y == ys[j]; the edge it lies on must bracket the level.
    for along, across, fixed, free in ((xs, ys, x, y), (ys, xs, y, x)):
        i = np.searchsorted(along, fixed)
        if i >= along.size or along[i] != fixed:
            continue
        j = min(max(np.searchsorted(across, free, "right") - 1, 0), across.size - 2)
        if not across[j] <= free <= across[j + 1]:
            continue
        if along is xs:
            ends = ((fixed, across[j]), (fixed, across[j + 1]))
        else:
            ends = ((across[j], fixed), (across[j + 1], fixed))
        if _brackets(op, level, *ends):
            return True
    return False


def check_contour(op, path: Path) -> Verdict:
    """Non-empty level set; each sampled vertex lies on a grid edge whose
    end values, recomputed pointwise, bracket the level."""
    v = Verdict()
    comments, data = _read(v, path, "polyline_id,x,y")
    if data is None:
        return v
    meta = _check_header_params(v, comments, op.rp)
    level = op.spec["level"]
    if meta.get("quantity") != op.spec["quantity"] or float(meta.get("level", "nan")) != level:
        v.fail(f"header quantity/level {meta.get('quantity')!r}/{meta.get('level')!r}")
    if data.shape[0] == 0:
        v.fail("empty level set for a level inside the grid's range")
        return v
    ids = data[:, 0]
    if ids[0] != 0 or np.any(np.diff(ids) < 0) or np.any(np.diff(ids) > 1):
        v.fail("polyline ids are not 0, 1, 2, ... in order")
    y_flag = "--phi" if op.spec["quantity"] == "R_rel" else "--g"
    res = op.spec["res"]
    xs = np.linspace(*_box(op, "--omega"), res)
    ys = np.linspace(*_box(op, y_flag), res)
    rng = np.random.default_rng(op.index)
    for i in _sample(rng, data.shape[0]):
        _, x, y = (float(c) for c in data[i])
        if not _on_bracketing_edge(op, xs, ys, level, x, y):
            v.fail(f"vertex {i} ({x!r}, {y!r}) is not on a grid edge bracketing {level!r}")
            break
    return v


def check_search(op, result, dense: bool) -> Verdict:
    """mu_star == mu(rp, omega_star) inside the band; with ``dense``, also
    mu_star <= (1 + 1e-9) times the minimum of a 20001-point geometric scan."""
    v = Verdict()
    w_star, mu_star = result
    lo, hi = op.spec["band"]
    if not lo <= w_star <= hi:
        v.fail(f"omega_star={w_star!r} outside the band [{lo}, {hi}]")
        return v
    want = float(mu(op.rp, w_star))
    if _rel(mu_star, want) > SAME_RTOL:
        v.fail(f"mu_star={mu_star!r} but mu(rp, omega_star)={want!r}")
    if dense:
        floor = float(np.min(mu(op.rp, np.geomspace(lo, hi, DENSE_SCAN_POINTS))))
        if not mu_star <= floor * (1.0 + ROUTE_RTOL):
            v.fail(f"mu_star={mu_star!r} above the dense-scan minimum {floor!r}")
    return v


_CHECKS = {
    "sensitivity-opt": check_sensitivity,
    "sensitivity-phi": check_sensitivity,
    "spectrum": check_spectrum,
    "oscillator": check_oscillator,
    "mu-map": check_mu_map,
    "contour-K": check_contour,
    "contour-mu": check_contour,
    "contour-R_rel": check_contour,
}


def check_cli(op, path: Path) -> Verdict:
    """Dispatch a CLI operation's output file to its oracle."""
    return _CHECKS[op.kind](op, path)
