"""Command-line front end.

Six subcommands map onto the library: ``sensitivity`` and ``spectrum``
evaluate pointwise noise figures, ``mu-map`` tabulates the
phase-optimized sensitivity over frequency and gain, ``contour``
extracts a level set of K, mu or R_rel, ``tables`` regenerates the two
benchmark tables, and ``oscillator`` compares trapped against free
operation.

Parameters come either in reduced form (--J0, --G-tilde,
--gamma-tilde, --theta) or in SI form (--kappa0-rad-s and friends);
when both appear the reduced set wins with a warning.  A flat JSON
config file may supply any flag by its destination name, with explicit
flags taking precedence; config values pass through the same argparse
types and choices as flags.

Every command evaluates each quantity once, on whole columns, and hands
the columns to one CSV writer.  A request is capped at ``MAX_POINTS``
rows or grid cells before anything is allocated.

Exit codes: 0 success, 1 output I/O failure, 2 usage, config or range
errors (including requests over ``MAX_POINTS``), 3 model domain errors
(instability, divergent phase, resonance, NaN results).  Output is
written only on success, to --out or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidParameterError, InvalidRangeError
from .explore import AxisSpec, extract_contour, reproduce_tables, sweep
from .oscillator import oscillator_sensitivity, sensitivity_ratio
from .params import PhysicalParams, ReducedParams
from .params import reduce as reduce_params
from .response import mu, optimal_phase, output_spectrum, sensitivity

# Largest number of CSV rows or grid cells one request may ask for.
MAX_POINTS = 10_000_000

# Rows formatted per template application; bounds the transient memory.
_CHUNK_ROWS = 4096


class ConfigError(ValueError):
    """Bad config file or inconsistent command-line usage."""


_REDUCED_KEYS = ("J0", "G_tilde", "gamma_tilde", "theta")
_PHYSICAL_REQUIRED = (
    "kappa0_rad_s",
    "G_rad_s",
    "eta_per_m",
    "mass_kg",
    "power_W",
    "wavelength_m",
)
_PHYSICAL_OPTIONAL = ("gamma_m_rad_s", "temperature_K", "omega_m_rad_s")

# Default sweep range per axis: (flag prefix, low, high).
_AXIS_DEFAULTS = {
    "omega_over_kappa0": ("omega", 1e-4, 2.0),
    "G_over_kappa0": ("g", 0.0, 0.499),
    "phi_over_pi": ("phi", -0.4975, 0.4975),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON file of flag values")
    common.add_argument("--out", help="output file (default: stdout)")
    red = common.add_argument_group("reduced parameters")
    red.add_argument("--J0", type=float, help="drive strength at zero gain")
    red.add_argument("--G-tilde", type=float, help="parametric gain / kappa0")
    red.add_argument("--gamma-tilde", type=float, help="mechanical damping / kappa0")
    red.add_argument("--theta", type=float, help="k_B T / (hbar kappa0)")
    phys = common.add_argument_group("physical parameters (SI)")
    phys.add_argument("--kappa0-rad-s", type=float, help="cavity linewidth")
    phys.add_argument("--G-rad-s", type=float, help="parametric gain")
    phys.add_argument("--eta-per-m", type=float, help="coupling gradient")
    phys.add_argument("--mass-kg", type=float, help="particle mass")
    phys.add_argument("--gamma-m-rad-s", type=float, help="mechanical damping")
    phys.add_argument("--temperature-K", type=float, help="bath temperature")
    phys.add_argument("--power-W", type=float, help="drive power")
    phys.add_argument("--wavelength-m", type=float, help="drive wavelength")
    phys.add_argument("--omega-m-rad-s", type=float, help="trap frequency")

    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--omega", help="frequencies: a,b,c or min:max:count")
    phases = argparse.ArgumentParser(add_help=False)
    phases.add_argument(
        "--phi-over-pi",
        help="homodyne angles in units of pi, or 'opt' (default)",
    )
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--omega-min", type=float, help="default 1e-4")
    grid.add_argument("--omega-max", type=float, help="default 2.0")
    grid.add_argument("--g-min", type=float, help="gain axis, default 0")
    grid.add_argument("--g-max", type=float, help="gain axis, default 0.499")
    grid.add_argument("--resolution", help="N or NxM grid points (default 200)")

    parser = argparse.ArgumentParser(
        prog="pasense",
        description="quantum-noise force sensing with a dissipative "
        "cavity and intracavity parametric gain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "sensitivity", parents=[common, rows, phases],
        help="force-noise budget R_rel",
    )
    p = sub.add_parser(
        "spectrum", parents=[common, rows, phases],
        help="output quadrature noise S_zout",
    )
    p.add_argument(
        "--s-ex-rel", type=float, help="external force background, SQL units"
    )
    sub.add_parser(
        "mu-map", parents=[common, grid], help="phase-optimized mu over (omega, G)"
    )
    p = sub.add_parser(
        "contour", parents=[common, grid], help="level set of K, mu or R_rel"
    )
    p.add_argument("--quantity", choices=("K", "mu", "R_rel"), required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--phi-min", type=float, help="R_rel y axis, default -0.4975")
    p.add_argument("--phi-max", type=float, help="R_rel y axis, default 0.4975")
    p = sub.add_parser(
        "tables", parents=[common], help="benchmark sensitivity tables"
    )
    p.add_argument("--table", choices=("1", "2", "both"), help="default both")
    p = sub.add_parser(
        "oscillator", parents=[common, rows], help="trapped vs free comparison"
    )
    p.add_argument(
        "--omega-m-tilde", type=float, help="trap frequency / kappa0"
    )
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    # The --config file as "--flag=value" tokens, so that argparse types
    # and choices apply to its values exactly as to typed flags.
    if not args.config:
        return []
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object of flag values")
    flags = []
    for key, value in doc.items():
        if key in ("config", "command") or not hasattr(args, key):
            raise ConfigError(f"unknown config field: {key!r}")
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = _config_flags(args)
    if not flags:
        return args
    # Config values go first, so that explicit flags (parsed later) win.
    # The typed flags parsed cleanly above, so a failure here is the
    # config file's.
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + flags + argv[at:])
    except SystemExit:
        print(f"(the value came from config file {args.config})", file=sys.stderr)
        raise


def _or_zero(value) -> float:
    return 0.0 if value is None else value


def _resolve_params(args: argparse.Namespace) -> ReducedParams:
    reduced_given = any(
        getattr(args, k) is not None for k in _REDUCED_KEYS
    )
    physical_given = any(
        getattr(args, k) is not None
        for k in _PHYSICAL_REQUIRED + _PHYSICAL_OPTIONAL
    )
    if reduced_given:
        if physical_given:
            print(
                "warning: both reduced and physical parameters given; "
                "reduced values take precedence",
                file=sys.stderr,
            )
        if args.J0 is None:
            raise ConfigError("reduced parameters need J0")
        return ReducedParams(
            J0=args.J0,
            g=_or_zero(args.G_tilde),
            gam=_or_zero(args.gamma_tilde),
            theta=_or_zero(args.theta),
        )
    if physical_given:
        missing = [k for k in _PHYSICAL_REQUIRED if getattr(args, k) is None]
        if missing:
            raise ConfigError(f"missing physical parameter: {missing[0]}")
        pp = PhysicalParams(
            kappa0=args.kappa0_rad_s,
            G=args.G_rad_s,
            eta=args.eta_per_m,
            mass=args.mass_kg,
            power=args.power_W,
            wavelength=args.wavelength_m,
            gamma_m=_or_zero(args.gamma_m_rad_s),
            temperature=_or_zero(args.temperature_K),
            omega_m=_or_zero(args.omega_m_rad_s),
        )
        return reduce_params(pp)
    raise ConfigError(
        "no parameters given; pass --J0 (reduced) or the physical set"
    )


def _check_points(count: int, what: str) -> None:
    if count > MAX_POINTS:
        raise InvalidRangeError(
            f"{what} asks for {count} rows or grid cells; "
            f"the limit is {MAX_POINTS}"
        )


def _parse_number_list(spec, name: str, angles: int = 1) -> np.ndarray:
    # Each value makes ``angles`` rows; the total is checked before
    # anything is allocated.
    if spec is None:
        raise ConfigError(f"{name} is required")
    label = name if angles == 1 else f"{name} x {angles} angles"
    s = spec.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad {name} range {s!r}; expected min:max:count")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad {name} range {s!r}; expected min:max:count")
        if n < 1:
            raise ConfigError(f"bad {name} range {s!r}; count must be >= 1")
        _check_points(n * angles, label)
        return np.linspace(lo, hi, n)
    try:
        vals = [float(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad {name} list {s!r}")
    if not vals:
        raise ConfigError(f"{name} list is empty")
    _check_points(len(vals) * angles, label)
    return np.array(vals)


def _parse_resolution(spec) -> tuple[int, int]:
    s = "200" if spec is None else spec.strip().lower()
    try:
        if "x" in s:
            a, b = s.split("x", 1)
            nx, ny = int(a), int(b)
        else:
            nx = ny = int(s)
    except ValueError:
        raise ConfigError(f"bad resolution {spec!r}; expected N or NxM")
    if nx < 2 or ny < 2:
        raise ConfigError("resolution must be at least 2 points per axis")
    _check_points(nx * ny, f"resolution {nx}x{ny}")
    return nx, ny


def _axis(args, name: str, num: int) -> AxisSpec:
    flag, low, high = _AXIS_DEFAULTS[name]
    start = getattr(args, f"{flag}_min")
    stop = getattr(args, f"{flag}_max")
    return AxisSpec(
        name,
        low if start is None else start,
        high if stop is None else stop,
        num,
    )


def _omega_phi_columns(args, rp) -> tuple[np.ndarray, np.ndarray]:
    # (omega, phi) evaluation columns, phi in radians and varying fastest.
    spec = args.phi_over_pi
    if spec is None or spec.strip().lower() == "opt":
        omegas = _parse_number_list(args.omega, "omega")
        return omegas, optimal_phase(rp, omegas)
    pops = _parse_number_list(spec, "phi-over-pi")
    omegas = _parse_number_list(args.omega, "omega", pops.size)
    return np.repeat(omegas, pops.size), np.tile(pops * np.pi, omegas.size)


def _write_csv(out, head_lines: list[str], *columns) -> None:
    """Write ``head_lines`` and then the columns as 17-digit CSV rows.

    One ``%.17g`` row template formats each chunk of rows, giving the
    same text as ``format(x, ".17g")`` for every float.  A NaN in any
    column raises :class:`DomainError` before anything is written.
    """
    table = np.column_stack(columns)
    bad = np.isnan(table).any(axis=0)
    if bad.any():
        name = head_lines[-1].split(",")[bad.argmax()]
        raise DomainError(f"result is not a number (NaN) in column {name}")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.write("\n".join(head_lines) + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start : start + _CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _run_sensitivity(args: argparse.Namespace):
    rp = _resolve_params(args)
    w, phi = _omega_phi_columns(args, rp)
    pt = sensitivity(rp, w, phi)
    return (
        ["omega_over_kappa0,phi_over_pi,R_rel,shot,backaction,thermal"],
        (w, phi / np.pi, pt.R_rel, pt.shot, pt.backaction, pt.thermal),
    )


def _run_spectrum(args: argparse.Namespace):
    rp = _resolve_params(args)
    w, phi = _omega_phi_columns(args, rp)
    s = output_spectrum(rp, w, phi, _or_zero(args.s_ex_rel))
    return ["omega_over_kappa0,phi_over_pi,S_zout"], (w, phi / np.pi, s)


def _sweep(args, rp, quantity: str, y_name: str):
    nx, ny = _parse_resolution(args.resolution)
    x_axis = _axis(args, "omega_over_kappa0", nx)
    return sweep(rp, quantity, x_axis, _axis(args, y_name, ny))


def _params_note(rp: ReducedParams) -> str:
    return f"J0={rp.J0:.17g} gamma_tilde={rp.gam:.17g} theta={rp.theta:.17g}"


def _run_mu_map(args: argparse.Namespace):
    rp = _resolve_params(args)
    grid = _sweep(args, rp, "mu", "G_over_kappa0")
    ny, nx = grid.values.shape
    head = [
        f"# quantity=mu {_params_note(rp)}",
        "omega_over_kappa0,G_over_kappa0,mu",
    ]
    # Rows run x-fastest, matching values[iy, ix].
    return head, (
        np.tile(grid.x_values, ny),
        np.repeat(grid.y_values, nx),
        grid.values.ravel(),
    )


def _run_contour(args: argparse.Namespace):
    rp = _resolve_params(args)
    y_name = "phi_over_pi" if args.quantity == "R_rel" else "G_over_kappa0"
    grid = _sweep(args, rp, args.quantity, y_name)
    polylines = extract_contour(grid, args.level).polylines
    head = [
        f"# quantity={args.quantity} level={args.level:.17g} "
        f"x={grid.x_name} y={grid.y_name} {_params_note(rp)}",
        "polyline_id,x,y",
    ]
    ids = np.repeat(np.arange(len(polylines)), [len(p) for p in polylines])
    xy = np.concatenate(polylines) if polylines else np.empty((0, 2))
    return head, (ids, xy[:, 0], xy[:, 1])


def _run_tables(args: argparse.Namespace):
    rows = [
        r for r in reproduce_tables()
        if args.table in (None, "both", str(r.table))
    ]
    fields = ("table", "J0", "T_K", "G_tilde", "omega_tilde_argmin",
              "mu_min", "power_W")
    return (
        ["table,J0,T_K,G_over_kappa0,omega_argmin,mu_min,power_W"],
        tuple(np.array([getattr(r, f) for r in rows], dtype=float)
              for f in fields),
    )


def _run_oscillator(args: argparse.Namespace):
    rp = _resolve_params(args)
    if args.omega_m_tilde is not None:
        wm = args.omega_m_tilde
    elif args.omega_m_rad_s is not None and args.kappa0_rad_s is not None:
        wm = args.omega_m_rad_s / args.kappa0_rad_s
    else:
        raise ConfigError("oscillator needs --omega-m-tilde (or --omega-m-rad-s)")
    omegas = _parse_number_list(args.omega, "omega")
    below = omegas <= wm
    if below.any():
        print(
            f"skipped {int(below.sum())} rows at or below the trap resonance",
            file=sys.stderr,
        )
    w = omegas[~below]
    # Called even with no rows left, so the model still checks rp.
    pt = oscillator_sensitivity(rp, wm, w, 0.0)
    return (
        ["omega_over_kappa0,mu_mo,mu_free,ratio"],
        (w, pt.mu_mo, mu(rp, w), sensitivity_ratio(wm, w)),
    )


_RUNNERS = {
    "sensitivity": _run_sensitivity,
    "spectrum": _run_spectrum,
    "mu-map": _run_mu_map,
    "contour": _run_contour,
    "tables": _run_tables,
    "oscillator": _run_oscillator,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        head, columns = _RUNNERS[args.command](args)
        _write_csv(args.out, head, *columns)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (ConfigError, InvalidRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
