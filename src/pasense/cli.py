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

Every command evaluates each quantity once, on its own axes, and one
CSV writer broadcasts the results into rows.  A request is capped at
``MAX_POINTS`` rows or grid cells before anything is allocated.

Exit codes: 0 success, 1 output I/O failure, 2 usage, config or range
errors (including requests over ``MAX_POINTS``), 3 model domain errors
(instability, divergent phase, resonance, NaN results).  Output is
written only on success, to --out or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidParameterError, InvalidRangeError
from .explore import MAX_POINTS, AxisSpec, extract_contour, reproduce_tables, sweep
from .oscillator import oscillator_sensitivity, sensitivity_ratio
from .params import _WIRE, PhysicalParams, ReducedParams, _first_missing
from .params import reduce as reduce_params
from .response import mu, optimal_phase, output_spectrum, sensitivity

# Rows formatted per template application; bounds the transient memory.
_CHUNK_ROWS = 4096


class ConfigError(ValueError):
    """Bad config file or inconsistent command-line usage."""


# ReducedParams field -> flag destination; the SI flags are params._WIRE.
_REDUCED_FLAGS = {"J0": "J0", "g": "G_tilde", "gam": "gamma_tilde", "theta": "theta"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, and then kept for the process.
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
        "--phi-over-pi", default="opt",
        help="homodyne angles in units of pi, or 'opt' (default)",
    )
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--omega-min", type=float, default=1e-4, help="default 1e-4")
    grid.add_argument("--omega-max", type=float, default=2.0, help="default 2.0")
    grid.add_argument("--g-min", type=float, default=0.0, help="gain axis, default 0")
    grid.add_argument(
        "--g-max", type=float, default=0.499, help="gain axis, default 0.499"
    )
    grid.add_argument(
        "--resolution", default="200", help="N or NxM grid points (default 200)"
    )
    background = argparse.ArgumentParser(add_help=False)
    background.add_argument(
        "--s-ex-rel", type=float, default=0.0,
        help="external force background, SQL units",
    )
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--quantity", choices=("K", "mu", "R_rel"), required=True)
    level.add_argument("--level", type=float, required=True)
    level.add_argument(
        "--phi-min", type=float, default=-0.4975,
        help="R_rel y axis, default -0.4975",
    )
    level.add_argument(
        "--phi-max", type=float, default=0.4975,
        help="R_rel y axis, default 0.4975",
    )
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument(
        "--table", choices=("1", "2", "both"), default="both", help="default both"
    )
    trap = argparse.ArgumentParser(add_help=False)
    trap.add_argument("--omega-m-tilde", type=float, help="trap frequency / kappa0")

    parser = argparse.ArgumentParser(
        prog="pasense",
        description="quantum-noise force sensing with a dissipative "
        "cavity and intracavity parametric gain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One row per command: name, help, flag sets and runner.
    for name, help_text, parents, run in (
        ("sensitivity", "force-noise budget R_rel",
         [common, rows, phases], _run_sensitivity),
        ("spectrum", "output quadrature noise S_zout",
         [common, rows, phases, background], _run_spectrum),
        ("mu-map", "phase-optimized mu over (omega, G)",
         [common, grid], _run_mu_map),
        ("contour", "level set of K, mu or R_rel",
         [common, grid, level], _run_contour),
        ("tables", "benchmark sensitivity tables", [common, table], _run_tables),
        ("oscillator", "trapped vs free comparison",
         [common, rows, trap], _run_oscillator),
    ):
        sub.add_parser(name, parents=parents, help=help_text).set_defaults(run=run)
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
        if key in ("config", "command", "run") or not hasattr(args, key):
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


def _given(args: argparse.Namespace, flags: dict) -> dict:
    # {field: value} for each flag in ``flags`` (field -> dest) that is set.
    return {
        field: getattr(args, dest) for field, dest in flags.items()
        if getattr(args, dest) is not None
    }


def _resolve_params(args: argparse.Namespace) -> ReducedParams:
    reduced = _given(args, _REDUCED_FLAGS)
    physical = _given(args, _WIRE)
    if reduced:
        if physical:
            print(
                "warning: both reduced and physical parameters given; "
                "reduced values take precedence",
                file=sys.stderr,
            )
        if "J0" not in reduced:
            raise ConfigError("reduced parameters need J0")
        return ReducedParams(**reduced)
    if physical:
        missing = _first_missing(physical)
        if missing:
            raise ConfigError(f"missing physical parameter: {missing}")
        return reduce_params(PhysicalParams(**physical))
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
    s = spec.strip().lower()
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


def _omega_phi_axes(args, rp) -> tuple[np.ndarray, np.ndarray]:
    # (omega, phi) axes, phi in radians: one angle per frequency at "opt",
    # else a frequency column against the row of angles.
    spec = args.phi_over_pi
    if spec.strip().lower() == "opt":
        omegas = _parse_number_list(args.omega, "omega")
        return omegas, optimal_phase(rp, omegas)
    pops = _parse_number_list(spec, "phi-over-pi")
    omegas = _parse_number_list(args.omega, "omega", pops.size)
    # An angle that overflows to inf is left to the library's phase check.
    with np.errstate(over="ignore"):
        return omegas[:, None], pops * np.pi


def _write_csv(out, head_lines: list[str], *columns) -> None:
    """Write ``head_lines`` and then the columns as 17-digit CSV rows.

    The only place columns meet: they are broadcast against each other
    and raveled in C order, so the last axis varies fastest.  One
    ``%.17g`` row template formats each chunk of rows, giving the same
    text as ``format(x, ".17g")`` for every float.  A NaN in any column
    raises :class:`DomainError` before anything is written.
    """
    table = np.column_stack([c.ravel() for c in np.broadcast_arrays(*columns)])
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
    w, phi = _omega_phi_axes(args, rp)
    pt = sensitivity(rp, w, phi)
    return (
        ["omega_over_kappa0,phi_over_pi,R_rel,shot,backaction,thermal"],
        (w, phi / np.pi, pt.R_rel, pt.shot, pt.backaction, pt.thermal),
    )


def _run_spectrum(args: argparse.Namespace):
    rp = _resolve_params(args)
    w, phi = _omega_phi_axes(args, rp)
    s = output_spectrum(rp, w, phi, args.s_ex_rel)
    return ["omega_over_kappa0,phi_over_pi,S_zout"], (w, phi / np.pi, s)


def _sweep(args, rp, quantity: str):
    # Frequency on x; the homodyne angle on y for R_rel, else the gain.
    nx, ny = _parse_resolution(args.resolution)
    x_axis = AxisSpec("omega_over_kappa0", args.omega_min, args.omega_max, nx)
    if quantity == "R_rel":
        y_axis = AxisSpec("phi_over_pi", args.phi_min, args.phi_max, ny)
    else:
        y_axis = AxisSpec("G_over_kappa0", args.g_min, args.g_max, ny)
    return sweep(rp, quantity, x_axis, y_axis)


def _params_note(rp: ReducedParams) -> str:
    return f"J0={rp.J0:.17g} gamma_tilde={rp.gam:.17g} theta={rp.theta:.17g}"


def _run_mu_map(args: argparse.Namespace):
    rp = _resolve_params(args)
    grid = _sweep(args, rp, "mu")
    head = [
        f"# quantity=mu {_params_note(rp)}",
        "omega_over_kappa0,G_over_kappa0,mu",
    ]
    # values[iy, ix] against an x row and a y column: rows run x-fastest.
    return head, (grid.x_values, grid.y_values[:, None], grid.values)


def _run_contour(args: argparse.Namespace):
    rp = _resolve_params(args)
    grid = _sweep(args, rp, args.quantity)
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
    rows = [r for r in reproduce_tables() if args.table in ("both", str(r.table))]
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        head, columns = args.run(args)
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
