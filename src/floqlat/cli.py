"""Command-line front end: spectra, phase scans, mappings, walls, and size sweeps.

Outputs are deterministic: a `#` metadata line echoes the tool version and all
parameters, numeric fields use scientific notation with 12 significant digits,
and files are written atomically (temp file then rename).  Exit codes: 0 on
success, 2 on validation errors and failed writes, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import GaplessPointError, NumericalError, ValidationError
from .doubling import (
    compare_spectra,
    double_poles,
    partition_quasienergies,
    sine_transform,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
)
from .floquet import (
    LINE_ATOL,
    QUARTER_PI,
    analytic_pbc_spectrum,
    build_floquet,
    classify_phase,
    quasienergies,
)
from .models import MAX_DENSE_BYTES, BoundaryCondition, DriveParams
from .scaling import (
    MapTarget,
    ScalingConfig,
    fit_power_law,
    mapped_static_spectrum,
    run_scaling,
)
from .walls import (
    DomainWallProfile,
    analytic_wd_zero_mode,
    build_floquet_wall,
    build_ssh_wall,
    build_wd_wall,
    floquet_bound_states,
    numeric_bound_state,
)

PHASE_GRID_MARGIN = 0.05
# Bytes a phase-diagram row holds until the output is written: the
# tracemalloc peak per row over a 300 x 300 grid, in CSV and JSON alike.
PHASE_ROW_BYTES = 340

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\*?pi(?:/(\d+(?:\.\d*)?))?$")


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a pi fraction like 'pi/8' or '3pi/8'."""
    s = text.strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(s)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coeff = float(match.group(2)) if match.group(2) else 1.0
        denom = float(match.group(3)) if match.group(3) else 1.0
        if denom == 0.0:
            raise ValidationError(f"zero denominator in angle literal {text!r}")
        return sign * coeff * math.pi / denom
    try:
        value = float(s)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r} (use radians or e.g. 'pi/8')")
    if math.isinf(value):  # nan is left to each command's range check
        raise ValidationError(f"angle {text!r} is infinite")
    return value


def parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"cannot parse size list {text!r} (use e.g. '100,200,300')")


_fmt = "{:.11e}".format  # one float in scientific notation, 12 significant digits


def _comment_line(fields: dict) -> str:
    return "# " + " ".join(f"{key}={_cell(value)}" for key, value in fields.items())


def _check_out(path: str) -> None:
    """Refuse an --out in a missing directory, or one that exists and is not a
    regular file: the rename would replace a FIFO or a device by a file."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValidationError(f"--out {path}: the directory does not exist")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValidationError(f"--out {path}: exists and is not a regular file")


def _atomic_write(path: str, text: str) -> None:
    """Write text to a temp file beside path and rename it over path.  A replaced
    file keeps its mode; a new one gets 0o666 less the umask, as from open().
    A write that fails removes the temp file and raises ValidationError."""
    _check_out(path)
    umask = os.umask(0)  # the umask is read by setting it; restored at once
    os.umask(umask)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".floqlat-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"--out {path}: {exc.strerror or exc}") from exc


def _cell(value) -> str:
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=1) as it reads `depth` levels down, for nested
    dicts whose lists hold only scalars (the JSON output's payload).

    The same bytes, but each list goes through json's C encoder in one call:
    with indent set, json.dumps falls back to its pure-Python encoder, which
    took most of the time of writing a long column.
    """
    pad = "\n" + " " * (depth + 1)
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {_json_text(item, depth + 1)}" for key, item in value.items())
        return "{" + pad + ("," + pad).join(items) + pad[:-1] + "}"
    if isinstance(value, list) and value:
        flat = json.JSONEncoder(separators=("," + pad, ": ")).encode(value)
        return "[" + pad + flat[1:-1] + pad[:-1] + "]"
    return json.dumps(value)


def write_output(
    path: str,
    fmt: str,
    meta: dict,
    header: list[str],
    rows: list[list],
    footer: dict | None = None,
) -> None:
    if fmt == "csv":
        lines = [_comment_line({"floqlat": __version__, **meta}), ",".join(header)]
        lines.extend(",".join(map(_cell, row)) for row in rows)
        if footer:
            lines.append(_comment_line(footer))
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        payload = {"meta": {"floqlat": __version__, **meta}, "columns": columns}
        if footer:
            payload["fit"] = footer
        _atomic_write(path, _json_text(payload) + "\n")


def dense_bytes(cells: int) -> int:
    """Estimated peak bytes of the arrays of one subcommand at N = cells.

    It is the tracemalloc peak of one run, measured at N = 8000 with one BLAS
    thread.  No subcommand holds an N x N array, only O(N) values, rows and
    text: at most 950 bytes per cell (map, CSV), charged 1000 N.  A scaling run
    solves its sizes one at a time (scaling.run_scaling), so it is charged its
    largest size.  A solve that would form N x N arrays checks its own size
    (models.Bidiagonal._dense_svd).
    """
    return 1000 * cells


def _check_dense_bytes(args) -> None:
    """Refuse a run whose arrays, with a phase diagram's grid^2 rows, would
    pass MAX_DENSE_BYTES."""
    cells = max(parse_sizes(args.sizes), default=0) if args.command == "scaling" else args.cells
    needed = dense_bytes(cells)
    if needed > MAX_DENSE_BYTES:
        raise ValidationError(
            f"{args.command} at N = {cells} needs about "
            f"{needed / 2**30:.1f} GiB of arrays, above the {MAX_DENSE_BYTES / 2**30:.0f} GiB limit"
        )
    if args.command == "phase-diagram":
        needed += PHASE_ROW_BYTES * max(args.grid, 0) ** 2
        if needed > MAX_DENSE_BYTES:
            raise ValidationError(
                f"phase-diagram with --grid {args.grid} needs about {needed / 2**30:.1f} GiB "
                f"of rows and arrays, above the {MAX_DENSE_BYTES / 2**30:.0f} GiB limit"
            )


def _indexed_rows(columns: list, n_rows: int) -> list[list]:
    """Row i holds i and entry i of each column as a float; None past a column's end."""
    lists = [[] if col is None else np.asarray(col, dtype=float).tolist() for col in columns]
    return [[i] + [col[i] if i < len(col) else None for col in lists] for i in range(n_rows)]


def _drive_params(args) -> DriveParams:
    bc = BoundaryCondition.PERIODIC if args.bc == "pbc" else BoundaryCondition.OPEN
    return DriveParams(theta0=args.theta0, theta1=args.theta1, n_cells=args.cells, bc=bc)


def cmd_spectrum(args) -> None:
    params = _drive_params(args)
    if args.map is not None:
        if args.cells % 4 != 0:
            raise ValidationError(
                f"--map {args.map} requires --cells to be a multiple of 4, got {args.cells}"
            )
        if abs(params.theta0 - QUARTER_PI) > LINE_ATOL:
            raise ValidationError(f"--map {args.map} requires theta0 = pi/4")
    spectrum = quasienergies(build_floquet(params))
    analytic = None
    if params.bc is BoundaryCondition.PERIODIC:
        analytic = analytic_pbc_spectrum(params.theta0, params.theta1, params.n_cells)
    header = ["index", "quasienergy", "analytic"]
    columns = [spectrum.values, analytic]
    if args.map is not None:
        eta = params.theta1 - QUARTER_PI
        if params.bc is BoundaryCondition.PERIODIC:
            static = static_spectrum(eta, args.cells)
        else:
            static = mapped_static_spectrum(ScalingConfig.OBC, eta, args.cells)
        poles = double_poles(static)
        header.append("mapped_pole")
        columns.append(poles.values)
    rows = _indexed_rows(columns, len(spectrum))
    meta = {
        "command": "spectrum",
        "theta0": params.theta0,
        "theta1": params.theta1,
        "cells": params.n_cells,
        "bc": args.bc,
        "map": args.map or "",
    }
    write_output(args.out, args.format, meta, header, rows)


def cmd_phase_diagram(args) -> None:
    if args.grid < 4:
        raise ValidationError(f"--grid must be at least 4, got {args.grid}")
    thetas = np.linspace(PHASE_GRID_MARGIN, math.pi / 2.0 - PHASE_GRID_MARGIN, args.grid)
    rows = []
    for theta0 in thetas:
        for theta1 in thetas:
            params = DriveParams(theta0=float(theta0), theta1=float(theta1), n_cells=args.cells)
            try:
                result = classify_phase(params)
                rows.append(
                    [float(theta0), float(theta1), result.label.value,
                     result.n_zero_modes, result.n_pi_modes]
                )
            except GaplessPointError:
                rows.append([float(theta0), float(theta1), "boundary", None, None])
    meta = {
        "command": "phase-diagram",
        "grid": args.grid,
        "cells": args.cells,
        "margin": PHASE_GRID_MARGIN,
    }
    write_output(args.out, args.format, meta, ["theta0", "theta1", "label", "n_zero", "n_pi"], rows)


def cmd_map(args) -> None:
    params = DriveParams(
        theta0=QUARTER_PI,
        theta1=QUARTER_PI + args.eta,
        n_cells=args.cells,
        bc=BoundaryCondition.PERIODIC,
    )
    if args.cells % 4 != 0:
        raise ValidationError(f"--cells must be a multiple of 4 for the mapping, got {args.cells}")
    kept = partition_quasienergies(params)
    energies = sine_transform(kept.values)
    poles = double_poles(energies)
    full = quasienergies(build_floquet(params))
    metric = compare_spectra(full.values, poles.values)
    meta = {
        "command": "map",
        "eta": args.eta,
        "cells": args.cells,
        "target": args.target,
        "bc": "pbc",
    }
    if args.target == "ssh":
        u, v = solve_ssh_params(args.eta)
        meta.update({"branch": "+", "u": u, "v": v})
    else:
        m, r = solve_wd_params(args.eta)
        meta.update({"branch": "-", "m": m, "r": r})
    meta["metric"] = metric
    columns = [kept.values, energies, poles.values, full.values]
    rows = _indexed_rows(columns, len(full))
    header = ["index", "kept_quasienergy", "energy", "pole", "quasienergy"]
    write_output(args.out, args.format, meta, header, rows)


def cmd_domainwall(args) -> None:
    eta = args.eta
    if eta == 0.0:
        raise ValidationError("eta = 0 has no domain wall: both sides are the same chain")
    meta = {"command": "domainwall", "eta": eta, "cells": args.cells, "model": args.model}
    header = ["state", "energy", "xi_left", "xi_right", "analytic_xi"]
    window = 0.5 * abs(math.sin(2.0 * eta))  # half of every model's gap: |u - v| = |m|
    if args.model == "floquet":
        profile = DomainWallProfile(eta_left=eta, eta_right=-eta)
        states = floquet_bound_states(
            build_floquet_wall(profile, args.cells), profile.wall_site(2 * args.cells), window
        )
        rows = [
            [kind, state.energy, state.xi_left, state.xi_right, None]
            for kind, state in zip(("zero", "pi"), states)
        ]
    elif args.model == "ssh":
        profile = DomainWallProfile(eta_left=-eta, eta_right=eta)
        op = build_ssh_wall(profile, args.cells)
        state = numeric_bound_state(op, profile.wall_site(2 * args.cells), window)
        rows = [["wall", state.energy, state.xi_left, state.xi_right, None]]
    else:
        profile = DomainWallProfile(eta_left=-eta, eta_right=eta)
        op = build_wd_wall(profile, args.cells)
        state = numeric_bound_state(
            op, profile.wall_site(args.cells), window, components_per_site=2
        )
        # the wall at -eta mirrors the one at eta, so its closed form is taken at |eta|
        analytic = analytic_wd_zero_mode(abs(eta), (-10, 10))
        rows = [["wall", state.energy, state.xi_left, state.xi_right, analytic.xi_right]]
    write_output(args.out, args.format, meta, header, rows)


def cmd_scaling(args) -> None:
    sizes = parse_sizes(args.sizes)
    if len(sizes) < 4:
        raise ValidationError(f"scaling needs at least 4 sizes for the fit, got {len(sizes)}")
    run = run_scaling(ScalingConfig(args.config), args.eta, MapTarget(args.target), sizes)
    fit = fit_power_law(run)
    meta = {
        "command": "scaling",
        "config": args.config,
        "eta": args.eta,
        "target": args.target,
        "sizes": ";".join(str(n) for n in sizes),
    }
    rows = [[n, float(m)] for n, m in zip(run.sizes, run.metric_values)]
    footer = {"exponent": fit.exponent, "prefactor": fit.prefactor, "r_squared": fit.r_squared}
    write_output(args.out, args.format, meta, ["cells", "metric"], rows, footer=footer)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parse_args leaves it unchanged, and building it took a millisecond or more
    of every short run.  main looks the subcommand's function up by name at
    each call, so the parser holds no reference to it."""
    parser = argparse.ArgumentParser(
        prog="floqlat",
        description="Quasienergy spectra of the two-step driven chain and their "
        "discrete-time SSH / Wilson-Dirac counterparts.",
    )
    parser.add_argument("--version", action="version", version=f"floqlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("spectrum", help="quasienergy spectrum at one drive point")
    p.add_argument("--theta0", type=parse_angle, required=True)
    p.add_argument("--theta1", type=parse_angle, required=True)
    p.add_argument("--cells", type=int, required=True, help="number of unit cells N (2N sites)")
    p.add_argument("--bc", choices=("pbc", "obc"), default="pbc")
    p.add_argument("--map", choices=("ssh", "wd"), default=None,
                   help="also emit doubled poles of the mapped static model")
    _common(p)

    p = sub.add_parser("phase-diagram", help="classification grid over both drive phases")
    p.add_argument("--grid", type=int, required=True, help="grid points per axis (>= 4)")
    p.add_argument("--cells", type=int, default=64)
    _common(p)

    p = sub.add_parser("map", help="spectrum partition, sine transform, and pole doubling")
    p.add_argument("--eta", type=parse_angle, required=True, help="detuning theta1 - pi/4")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--target", choices=("ssh", "wd"), required=True)
    _common(p)

    p = sub.add_parser("domainwall", help="bound states of an eta domain wall")
    p.add_argument("--eta", type=parse_angle, required=True)
    p.add_argument("--cells", type=int, required=True,
                   help="cells (floquet/ssh) or sites (wd); matrix dimension is 2N either way")
    p.add_argument("--model", choices=("floquet", "ssh", "wd"), required=True)
    _common(p)

    p = sub.add_parser("scaling", help="finite-size sweep of the spectral difference")
    p.add_argument("--config", choices=("obc", "wall"), required=True)
    p.add_argument("--eta", type=parse_angle, required=True)
    p.add_argument("--target", choices=("ssh", "wd"), required=True)
    p.add_argument("--sizes", required=True, help="comma-separated cell counts, e.g. 100,200,300")
    _common(p)
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_angles(argv: list[str]) -> list[str]:
    """Join an angle option to a following negative pi fraction or float ('--eta
    -2e-1' -> '--eta=-2e-1'): argparse would take the value for an option flag."""
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in ("--theta0", "--theta1", "--eta") and token.startswith("-")
                and (_ANGLE_RE.match(token.lower()) or _is_number(token))):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_angles(sys.argv[1:] if argv is None else argv))
        _check_out(args.out)
        _check_dense_bytes(args)
        command = {"spectrum": cmd_spectrum, "phase-diagram": cmd_phase_diagram, "map": cmd_map,
                   "domainwall": cmd_domainwall, "scaling": cmd_scaling}[args.command]
        command(args)
    except SystemExit as exc:  # argparse's own exits (--help, bad flags)
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GaplessPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
