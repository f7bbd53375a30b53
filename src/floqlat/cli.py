"""Command-line front end: spectra, phase scans, mappings, walls, and size sweeps.

Outputs are deterministic: a `#` metadata line echoes the tool version and all
parameters, numeric fields use scientific notation with 12 significant digits,
and files are written atomically (temp file then rename).  Exit codes: 0 on
success, 2 on validation errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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
from .floquet import analytic_pbc_spectrum, build_floquet, classify_phase, quasienergies
from .models import BoundaryCondition, DriveParams
from .scaling import (
    MapTarget,
    ScalingConfig,
    fit_power_law,
    mapped_static_spectrum,
    run_scaling,
)
from .walls import (
    DomainWallProfile,
    WallModel,
    analytic_wd_zero_mode,
    build_floquet_wall,
    build_ssh_wall,
    build_wd_wall,
    floquet_bound_states,
    numeric_bound_state,
)

QUARTER_PI = math.pi / 4.0
PHASE_GRID_MARGIN = 0.05

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
        return float(s)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r} (use radians or e.g. 'pi/8')")


def parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"cannot parse size list {text!r} (use e.g. '100,200,300')")


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _meta_line(meta: dict) -> str:
    parts = [f"floqlat={__version__}"]
    for key, value in meta.items():
        if isinstance(value, float):
            parts.append(f"{key}={_fmt(value)}")
        else:
            parts.append(f"{key}={value}")
    return "# " + " ".join(parts)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".floqlat-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def write_output(
    path: str,
    fmt: str,
    meta: dict,
    header: list[str],
    rows: list[list],
    footer: dict | None = None,
) -> None:
    if fmt == "csv":
        lines = [_meta_line(meta), ",".join(header)]
        lines.extend(",".join(_cell(value) for value in row) for row in rows)
        if footer:
            lines.append("# " + " ".join(f"{k}={_cell(v)}" for k, v in footer.items()))
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        payload = {"meta": {"floqlat": __version__, **meta}, "columns": columns}
        if footer:
            payload["fit"] = footer
        _atomic_write(path, json.dumps(payload, indent=1, sort_keys=False) + "\n")


def _drive_params(args) -> DriveParams:
    bc = BoundaryCondition.PERIODIC if args.bc == "pbc" else BoundaryCondition.OPEN
    return DriveParams(theta0=args.theta0, theta1=args.theta1, n_cells=args.cells, bc=bc)


def cmd_spectrum(args) -> None:
    params = _drive_params(args)
    spectrum = quasienergies(build_floquet(params))
    analytic = None
    if params.bc is BoundaryCondition.PERIODIC:
        analytic = analytic_pbc_spectrum(params.theta0, params.theta1, params.n_cells)
    header = ["index", "quasienergy", "analytic"]
    columns = [np.arange(len(spectrum)), spectrum.values, analytic]
    if args.map is not None:
        if args.cells % 4 != 0:
            raise ValidationError(
                f"--map {args.map} requires --cells to be a multiple of 4, got {args.cells}"
            )
        if abs(params.theta0 - QUARTER_PI) > 1e-12:
            raise ValidationError(f"--map {args.map} requires theta0 = pi/4")
        eta = params.theta1 - QUARTER_PI
        if params.bc is BoundaryCondition.PERIODIC:
            static = static_spectrum(eta, args.cells)
        else:
            static = mapped_static_spectrum(ScalingConfig.OBC, eta, MapTarget(args.map), args.cells)
        poles = double_poles(static)
        header.append("mapped_pole")
        columns.append(poles.values)
    rows = [
        [int(columns[0][i])]
        + [None if col is None else float(col[i]) for col in columns[1:]]
        for i in range(len(spectrum))
    ]
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
    energies = sine_transform(kept)
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
    n = len(kept)
    rows = []
    for i in range(2 * n):
        rows.append(
            [
                i,
                float(kept.values[i]) if i < n else None,
                float(energies.values[i]) if i < n else None,
                float(poles.values[i]),
                float(full.values[i]),
            ]
        )
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
        profile = DomainWallProfile(model=WallModel.FLOQUET, eta_left=eta, eta_right=-eta)
        states = floquet_bound_states(
            build_floquet_wall(profile, args.cells), profile.wall_site(2 * args.cells), window
        )
        rows = [
            [kind, state.energy, state.xi_left, state.xi_right, None]
            for kind, state in zip(("zero", "pi"), states)
        ]
    elif args.model == "ssh":
        profile = DomainWallProfile(model=WallModel.SSH, eta_left=-eta, eta_right=eta)
        op = build_ssh_wall(profile, args.cells)
        state = numeric_bound_state(op, profile.wall_site(2 * args.cells), window)
        rows = [["wall", state.energy, state.xi_left, state.xi_right, None]]
    else:
        profile = DomainWallProfile(model=WallModel.WD, eta_left=-eta, eta_right=eta)
        op = build_wd_wall(profile, args.cells)
        state = numeric_bound_state(
            op, profile.wall_site(args.cells), window, components_per_site=2
        )
        # the wall at -eta mirrors the one at eta, so its closed form is taken at |eta|
        analytic = analytic_wd_zero_mode(abs(eta), (-10, 10))
        rows = [["wall", state.energy, state.xi_left, state.xi_right, analytic.xi_right]]
    write_output(args.out, args.format, meta, header, rows)


def cmd_scaling(args) -> None:
    config = ScalingConfig.OBC if args.config == "obc" else ScalingConfig.DOMAIN_WALL
    target = MapTarget.SSH if args.target == "ssh" else MapTarget.WD
    sizes = parse_sizes(args.sizes)
    if len(sizes) < 4:
        raise ValidationError(f"scaling needs at least 4 sizes for the fit, got {len(sizes)}")
    run = run_scaling(config, args.eta, target, sizes)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase-diagram", help="classification grid over both drive phases")
    p.add_argument("--grid", type=int, required=True, help="grid points per axis (>= 4)")
    p.add_argument("--cells", type=int, default=64)
    _common(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("map", help="spectrum partition, sine transform, and pole doubling")
    p.add_argument("--eta", type=parse_angle, required=True, help="detuning theta1 - pi/4")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--target", choices=("ssh", "wd"), required=True)
    _common(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("domainwall", help="bound states of an eta domain wall")
    p.add_argument("--eta", type=parse_angle, required=True)
    p.add_argument("--cells", type=int, required=True,
                   help="cells (floquet/ssh) or sites (wd); matrix dimension is 2N either way")
    p.add_argument("--model", choices=("floquet", "ssh", "wd"), required=True)
    _common(p)
    p.set_defaults(func=cmd_domainwall)

    p = sub.add_parser("scaling", help="finite-size sweep of the spectral difference")
    p.add_argument("--config", choices=("obc", "wall"), required=True)
    p.add_argument("--eta", type=parse_angle, required=True)
    p.add_argument("--target", choices=("ssh", "wd"), required=True)
    p.add_argument("--sizes", required=True, help="comma-separated cell counts, e.g. 100,200,300")
    _common(p)
    p.set_defaults(func=cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
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
