"""Seeded operation streams for the three benchmark workloads.

Every stream is an endless generator of :class:`Op` records drawn from
one ``numpy`` generator seeded by the workload name and the seed, so the
same seed always yields the same operations in the same order.  The
program under test sees only ``Op.argv`` (CLI operations) or the
parameters of a search; the remaining fields are what the oracles need
to check the output.

Kinds and sizes are balanced: each block of operations holds one
operation of every kind in a seeded order, and each kind takes its
sizes from a golden-ratio sequence with a seeded start, mapped
log-uniformly onto its size range.  Any prefix of the stream therefore
has nearly the same mix of kinds and sizes whatever the seed, which
keeps the run-to-run spread of throughput and latency percentiles small.

The timed workloads contain no operation that is known to fail: a
``sensitivity`` draw at the optimal angle whose frequency grid reaches
the known defect class (optimal angle within ``NEAR_HALF_PI`` of -pi/2,
see ``oracles.py``) is drawn again, and the number of such redraws is
carried on the operation and reported.  ``DEFECT_REPRODUCER`` is run on
its own after every ``dump`` run, so the defect stays in view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from oracles import NEAR_HALF_PI
from pasense.explore import (
    TABLE_BAND,
    TABLE_ETA,
    TABLE_KAPPA0,
    TABLE_MASS,
    TABLE_WAVELENGTH,
    AxisSpec,
    sweep,
)
from pasense.params import HBAR, K_B, PhysicalParams, ReducedParams, reduce
from pasense.response import optimal_phase

WORKLOADS = ("dump", "contour", "search")

DUMP_KINDS = ("sensitivity-opt", "sensitivity-phi", "spectrum", "oscillator", "mu-map")
CONTOUR_QUANTITIES = ("K", "mu", "R_rel")

ROWS_RANGE = (300, 3000)  # CSV data rows of a row command
MU_MAP_RES_RANGE = (60, 300)  # mu-map points per axis
CONTOUR_RES_RANGE = (400, 1000)  # contour points per axis
SI_SHARE = 0.3  # share of operations given SI instead of reduced flags

# Axis boxes passed explicitly, so the benchmark does not depend on the
# CLI's default ranges.
OMEGA_BOX = (1e-4, 2.0)
GAIN_BOX = (0.0, 0.499)
PHI_BOX = (-0.4975, 0.4975)

# Thermal scale of a 1 K bath in the table calibration (about 2.08e4).
THETA_1K = K_B * 1.0 / (HBAR * TABLE_KAPPA0)


def _j0_per_watt() -> float:
    probe = PhysicalParams(
        kappa0=TABLE_KAPPA0,
        G=0.0,
        eta=TABLE_ETA,
        mass=TABLE_MASS,
        power=1.0,
        wavelength=TABLE_WAVELENGTH,
    )
    return reduce(probe).J0


J0_PER_WATT = _j0_per_watt()


@dataclass(frozen=True)
class Op:
    """One benchmark operation and what its oracle needs to know.

    ``rp`` is the reduced parameter set the program should resolve from
    ``argv`` (or receive, for a search); ``physical`` is set when the
    operation goes through the SI route and ``reduce``.  ``work`` counts
    the CSV data rows, grid cells or band minima the operation produces.
    ``spec`` holds the kind-specific inputs: frequency range, angles,
    resolution, contour level.  ``redrawn`` counts the draws in the known
    defect class that this operation replaced.
    """

    index: int
    kind: str
    rp: ReducedParams
    work: int
    argv: tuple = ()
    physical: PhysicalParams | None = None
    spec: dict = field(default_factory=dict)
    redrawn: int = 0


# The known defect, as a user meets it: exits 0 with R_rel = 975.94,
# while mu = 969.35.
DEFECT_REPRODUCER = Op(
    -1, "sensitivity-opt", ReducedParams(J0=0.356, g=0.49, gam=3.9e-6), 1,
    ("sensitivity", "--J0", "0.356", "--G-tilde", "0.49", "--gamma-tilde", "3.9e-6",
     "--omega", "1.36e-3"),
    spec={"omega": (1.36e-3, 1.36e-3, 1)},
)


def _fmt(x: float) -> str:
    return repr(float(x))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return _log_scale(rng.random(), lo, hi)


def draw_params(rng, lossless: bool = False) -> tuple[float, float, float, float]:
    """(J0, g, gam, theta) from the benchmark's parameter ranges.

    J0 is log-uniform in [0.01, 1], g uniform in [0, 0.49], gam
    log-uniform in [1e-6, 1e-2], and theta is 0 or log-uniform between
    the 1 mK and 1 K table values.  The lossless model of the trapped
    particle takes gam = theta = 0.
    """
    J0 = _log_uniform(rng, 0.01, 1.0)
    g = rng.uniform(0.0, 0.49)
    if lossless:
        return J0, g, 0.0, 0.0
    gam = _log_uniform(rng, 1e-6, 1e-2)
    theta = 0.0 if rng.random() < 0.5 else _log_uniform(rng, 1e-3 * THETA_1K, THETA_1K)
    return J0, g, gam, theta


def physical_from_reduced(J0, g, gam, theta, omega_m=0.0) -> PhysicalParams:
    """SI parameters in the table calibration that reduce to (J0, g, gam, theta)."""
    return PhysicalParams(
        kappa0=TABLE_KAPPA0,
        G=g * TABLE_KAPPA0,
        eta=TABLE_ETA,
        mass=TABLE_MASS,
        power=J0 / J0_PER_WATT,
        wavelength=TABLE_WAVELENGTH,
        gamma_m=gam * TABLE_KAPPA0,
        temperature=theta * HBAR * TABLE_KAPPA0 / K_B,
        omega_m=omega_m,
    )


def _param_flags(rng, params, omega_m_tilde=None):
    """CLI flags for the drawn parameters, the resolved ReducedParams and
    the reduced trap frequency the CLI will compute (or None)."""
    J0, g, gam, theta = params
    if rng.random() < SI_SHARE:
        omega_m = 0.0 if omega_m_tilde is None else omega_m_tilde * TABLE_KAPPA0
        pp = physical_from_reduced(J0, g, gam, theta, omega_m)
        flags = [
            "--kappa0-rad-s", _fmt(pp.kappa0),
            "--G-rad-s", _fmt(pp.G),
            "--eta-per-m", _fmt(pp.eta),
            "--mass-kg", _fmt(pp.mass),
            "--power-W", _fmt(pp.power),
            "--wavelength-m", _fmt(pp.wavelength),
            "--gamma-m-rad-s", _fmt(pp.gamma_m),
            "--temperature-K", _fmt(pp.temperature),
        ]
        wm = None
        if omega_m_tilde is not None:
            flags += ["--omega-m-rad-s", _fmt(pp.omega_m)]
            wm = pp.omega_m / pp.kappa0
        return flags, reduce(pp), pp, wm
    flags = [
        "--J0", _fmt(J0),
        "--G-tilde", _fmt(g),
        "--gamma-tilde", _fmt(gam),
        "--theta", _fmt(theta),
    ]
    if omega_m_tilde is not None:
        flags += ["--omega-m-tilde", _fmt(omega_m_tilde)]
    return flags, ReducedParams(J0=J0, g=g, gam=gam, theta=theta), None, omega_m_tilde


def _omega_range(rng, n: int, lo_min: float = 1e-4) -> tuple[float, float, int]:
    lo = _log_uniform(rng, lo_min, max(0.05, 2 * lo_min))
    hi = rng.uniform(max(0.5, 1.5 * lo), 2.0)
    return lo, hi, n


def in_defect_class(rp: ReducedParams, omega: tuple[float, float, int]) -> bool:
    """Whether the optimal angle on the grid ``lo:hi:n`` comes within
    ``NEAR_HALF_PI`` of -pi/2."""
    lo, hi, n = omega
    phi = optimal_phase(rp, np.linspace(lo, hi, n))
    return bool(np.min(phi) + math.pi / 2 < NEAR_HALF_PI)


def _dump_op(rng, index: int, kind: str, u: float) -> Op:
    if kind == "mu-map":
        res = round(_log_scale(u, *MU_MAP_RES_RANGE))
        flags, rp, pp, _ = _param_flags(rng, draw_params(rng))
        argv = ["mu-map", *flags,
                "--omega-min", _fmt(OMEGA_BOX[0]), "--omega-max", _fmt(OMEGA_BOX[1]),
                "--g-min", _fmt(GAIN_BOX[0]), "--g-max", _fmt(GAIN_BOX[1]),
                "--resolution", str(res)]
        return Op(index, kind, rp, res * res, tuple(argv), pp, {"res": (res, res)})

    rows = round(_log_scale(u, *ROWS_RANGE))
    redrawn = 0
    if kind == "oscillator":
        wm = _log_uniform(rng, 1e-3, 0.5)
        flags, rp, pp, wm = _param_flags(rng, draw_params(rng, lossless=True), wm)
        # Keep every row above the trap resonance, so none is skipped.
        omega = _omega_range(rng, rows, lo_min=1.05 * wm)
        spec = {"omega": omega, "wm": wm}
        argv = ["oscillator", *flags]
    elif kind == "sensitivity-opt":
        for redrawn in itertools.count():
            flags, rp, pp, _ = _param_flags(rng, draw_params(rng))
            omega = _omega_range(rng, rows)
            if not in_defect_class(rp, omega):
                break
        argv = ["sensitivity", *flags]
        spec = {"omega": omega}
    else:
        flags, rp, pp, _ = _param_flags(rng, draw_params(rng))
        argv = [kind.split("-")[0], *flags]
        spec = {}
        if kind == "spectrum":
            omega = _omega_range(rng, rows)
        else:
            m = int(rng.integers(2, 5))
            pops = tuple(float(p) for p in rng.uniform(-0.45, 0.45, m))
            omega = _omega_range(rng, max(2, round(rows / m)))
            argv.append("--phi-over-pi=" + ",".join(_fmt(p) for p in pops))
            spec["phi_over_pi"] = pops
            rows = omega[2] * m
        spec["omega"] = omega
    lo, hi, n = omega
    argv += ["--omega", f"{_fmt(lo)}:{_fmt(hi)}:{n}"]
    return Op(index, kind, rp, rows, tuple(argv), pp, spec, redrawn)


def contour_axes(quantity: str, res: int) -> tuple[AxisSpec, AxisSpec]:
    """The (x, y) axes a contour operation at ``res`` points per axis sweeps."""
    x = AxisSpec("omega_over_kappa0", *OMEGA_BOX, res)
    if quantity == "R_rel":
        return x, AxisSpec("phi_over_pi", *PHI_BOX, res)
    return x, AxisSpec("G_over_kappa0", *GAIN_BOX, res)


def _contour_level(rng, rp: ReducedParams, quantity: str) -> float:
    # A level between the 10th and 90th percentile of the quantity on a
    # coarse grid of the same box, so the fine grid surely crosses it.
    coarse = sweep(rp, quantity, *contour_axes(quantity, 41)).values
    lo, hi = np.quantile(np.log(coarse), [0.1, 0.9])
    return math.exp(rng.uniform(lo, hi))


def _contour_op(rng, index: int, quantity: str, u: float) -> Op:
    res = round(_log_scale(u, *CONTOUR_RES_RANGE))
    flags, rp, pp, _ = _param_flags(rng, draw_params(rng))
    level = _contour_level(rng, rp, quantity)
    x, y = contour_axes(quantity, res)
    y_flag = "--phi" if quantity == "R_rel" else "--g"
    argv = ["contour", *flags, "--quantity", quantity, "--level", _fmt(level),
            "--omega-min", _fmt(x.start), "--omega-max", _fmt(x.stop),
            f"{y_flag}-min", _fmt(y.start), f"{y_flag}-max", _fmt(y.stop),
            "--resolution", str(res)]
    spec = {"quantity": quantity, "level": level, "res": res}
    return Op(index, f"contour-{quantity}", rp, res * res, tuple(argv), pp, spec)


def _search_op(rng, index: int) -> Op:
    J0, g, gam, theta = draw_params(rng)
    if rng.random() < SI_SHARE:
        pp = physical_from_reduced(J0, g, gam, theta)
        return Op(index, "search", reduce(pp), 1, physical=pp, spec={"band": TABLE_BAND})
    rp = ReducedParams(J0=J0, g=g, gam=gam, theta=theta)
    return Op(index, "search", rp, 1, spec={"band": TABLE_BAND})


def stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless, reproducible stream of operations for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "search":
        index = 0
        while True:
            yield _search_op(rng, index)
            index += 1
    kinds = DUMP_KINDS if workload == "dump" else CONTOUR_QUANTITIES
    make = _dump_op if workload == "dump" else _contour_op
    size_u = {kind: rng.random() for kind in kinds}
    index = 0
    while True:
        for i in rng.permutation(len(kinds)):
            kind = kinds[i]
            yield make(rng, index, kind, size_u[kind])
            size_u[kind] = (size_u[kind] + _GOLDEN) % 1.0
            index += 1
