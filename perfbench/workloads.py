"""The three benchmark workloads: seeded inputs, one pass of operations, and checks.

Each workload is a closed loop with one caller: an operation starts when the
previous one has returned.  The seed picks the inputs; the program sees only
the generated values.  Checks run after the timed passes and compare every
operation's output with an independent reference (see reference.py).
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import reference

QUARTER_PI = math.pi / 4.0
BAND = (0.85, 1.15)  # criterion-6 exponent band, with R^2 > 0.98
MIN_R_SQUARED = 0.98
SPECTRAL_TOL = 1e-10
XI_REL_TOL = 0.05
TOL_MODE = 0.05  # classify_phase refuses a point when a bulk gap is below 4 * TOL_MODE


@dataclass
class Op:
    label: str
    seconds: float
    result: object  # the operation's return value, or the exception it raised
    error: str | None = None


def run_ops(ops, tracer=None) -> list[Op]:
    """Run (label, thunk) pairs one after another, timing each call."""
    done = []
    for index, (label, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result, error = thunk(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = exc, traceback.format_exc()
        done.append(Op(label, time.perf_counter() - start, result, error))
    return done


def timed_passes(workload, seconds: float, done: list) -> list[float]:
    """Whole passes until the next one, as long as the longest so far, would overrun."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        done.extend(run_ops(workload.ops()))
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + max(durations) > deadline:
            return durations


def check_ops(workload, ops: list[Op]) -> list[str]:
    """One message per failed operation: an exception, or a check that does not hold."""
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(f"{op.label}: {op.error}")
            continue
        try:
            problem = workload.check(op)
        except Exception as exc:  # a malformed output fails its operation
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{op.label}: {problem}")
    return failures


# --- sweep: criterion-6 pipeline at N = 100..500 --------------------------------

SWEEP_SIZES = (100, 200, 300, 400, 500)


class Sweep:
    name = "sweep"

    def __init__(self, rng, workdir):
        self.eta = float(rng.uniform(0.25, 0.5))
        self.reference = None

    def describe(self):
        return {"eta": self.eta, "sizes": list(SWEEP_SIZES), "target": "ssh"}

    @staticmethod
    def _pipeline(config, eta, sizes):
        from floqlat import MapTarget, ScalingConfig, fit_power_law, run_scaling

        run = run_scaling(ScalingConfig(config), eta, MapTarget.SSH, sizes)
        return tuple(run.metric_values), fit_power_law(run)

    def warmup(self):
        for config in ("obc", "wall"):
            self._pipeline(config, self.eta, (8, 12, 16, 20))

    def ops(self):
        return [(config, lambda c=config: self._pipeline(c, self.eta, SWEEP_SIZES))
                for config in ("obc", "wall")]

    def check(self, op: Op) -> str | None:
        if self.reference is None:
            self.reference = {
                config: [reference.sweep_metric(config, self.eta, n) for n in SWEEP_SIZES]
                for config in ("obc", "wall")
            }
        metrics, fit = op.result
        for n, got, want in zip(SWEEP_SIZES, metrics, self.reference[op.label]):
            if not abs(got - want) <= SPECTRAL_TOL:
                return f"metric at N={n} is {got!r}, dense oracle gives {want!r}"
        if not (BAND[0] <= fit.exponent <= BAND[1] and fit.r_squared > MIN_R_SQUARED):
            return f"fit out of band: exponent {fit.exponent}, R^2 {fit.r_squared}"
        return None


# --- phase_grid: classify_phase at 400 seeded drive points ----------------------

GRID_POINTS = 400
GRID_CELLS = 64
GRID_MARGIN = 0.05


class PhaseGrid:
    name = "phase_grid"

    def __init__(self, rng, workdir):
        grid = rng.uniform(GRID_MARGIN, math.pi / 2 - GRID_MARGIN, size=(GRID_POINTS, 2))
        self.points = [(float(t0), float(t1)) for t0, t1 in grid]

    def describe(self):
        return {"points": GRID_POINTS, "cells": GRID_CELLS, "tol_mode": TOL_MODE}

    @staticmethod
    def _classify(theta0, theta1):
        from floqlat import DriveParams, GaplessPointError, classify_phase

        try:
            return classify_phase(DriveParams(theta0, theta1, GRID_CELLS), tol_mode=TOL_MODE)
        except GaplessPointError:
            return "refused"

    def warmup(self):
        self._classify(0.3, 1.2)

    def ops(self):
        return [(f"{t0!r},{t1!r}", lambda a=t0, b=t1: self._classify(a, b))
                for t0, t1 in self.points]

    def check(self, op: Op) -> str | None:
        theta0, theta1 = (float(x) for x in op.label.split(","))
        gapless = min(reference.bulk_gaps(theta0, theta1)) < 4.0 * TOL_MODE
        if op.result == "refused" or gapless:
            if op.result == "refused" and gapless:
                return None
            return f"refusal mismatch: got {op.result!r}, gapless={gapless}"
        want = reference.region_label(theta0, theta1)
        got = op.result.label.value
        return None if got == want else f"label {got!r}, region rule gives {want!r}"


# --- cli_mix: one user session through floqlat.cli.main --------------------------

def _parse_output(path: str, fmt: str):
    """(meta, columns, fit) from a CSV or JSON output file; raises on malformed output."""
    with open(path) as handle:
        text = handle.read()
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["columns"], payload.get("fit")
    lines = text.splitlines()
    if not lines[0].startswith("# floqlat="):
        raise ValueError("missing metadata line")
    meta = dict(token.split("=", 1) for token in lines[0][2:].split(" "))
    header = lines[1].split(",")
    rows, fit = [], None
    for line in lines[2:]:
        if line.startswith("# "):
            fit = {k: float(v) for k, v in (t.split("=", 1) for t in line[2:].split(" "))}
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row with {len(cells)} fields under {len(header)} headers")
        rows.append([None if c == "" else c for c in cells])
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return meta, columns, fit


def _floats(values) -> np.ndarray:
    """A numeric column as floats; CSV cells arrive as text, JSON cells as numbers."""
    return np.array([float(v) for v in values])


def _wrap_max(a, b) -> float:
    d = np.abs(_floats(a) - _floats(b))
    return float(np.minimum(d, 2.0 * np.pi - d).max())


class CliMix:
    name = "cli_mix"
    FORMATS = ("csv", "json")

    def __init__(self, rng, workdir):
        self.eta = float(rng.uniform(0.25, 0.5))
        self.theta1 = float(rng.uniform(GRID_MARGIN, math.pi / 2 - GRID_MARGIN))
        self.workdir = workdir
        self._calls = 0

    def describe(self):
        return {"eta": self.eta, "theta1": self.theta1, "formats": list(self.FORMATS)}

    def commands(self):
        eta, line = repr(self.eta), repr(QUARTER_PI + self.eta)
        spectrum = ["spectrum", "--theta0", "pi/4", "--cells", "64"]
        commands = [
            ("spectrum-pbc", spectrum + ["--theta1", repr(self.theta1), "--bc", "pbc"]),
            ("spectrum-pbc-ssh", spectrum + ["--theta1", line, "--bc", "pbc", "--map", "ssh"]),
            ("spectrum-obc-wd", spectrum + ["--theta1", line, "--bc", "obc", "--map", "wd"]),
        ]
        for target in ("ssh", "wd"):
            for cells in ("64", "256"):
                commands.append((f"map-{target}-{cells}", [
                    "map", "--eta", eta, "--cells", cells, "--target", target]))
        for model in ("wd", "ssh", "floquet"):
            commands.append((f"domainwall-{model}", [
                "domainwall", "--eta", eta, "--cells", "200", "--model", model]))
        for config in ("obc", "wall"):
            commands.append((f"scaling-{config}", [
                "scaling", "--config", config, "--eta", eta, "--target", "ssh",
                "--sizes", "40,80,120,160,200"]))
        commands.append(("phase-diagram", ["phase-diagram", "--grid", "4"]))
        return commands

    def _invoke(self, argv, fmt):
        from floqlat import cli

        self._calls += 1
        path = os.path.join(self.workdir, f"{self._calls:05d}-{argv[0]}.{fmt}")
        return cli.main(argv + ["--format", fmt, "--out", path]), path, fmt

    def warmup(self):
        self._invoke(["spectrum", "--theta0", "0.3", "--theta1", "0.7", "--cells", "8"], "csv")

    def ops(self):
        return [(label, lambda a=argv, f=fmt: self._invoke(a, f))
                for fmt in self.FORMATS for label, argv in self.commands()]

    def check(self, op: Op) -> str | None:
        code, path, fmt = op.result
        if code != 0:
            return f"exit code {code}"
        meta, cols, fit = _parse_output(path, fmt)
        label = op.label
        if label.startswith("spectrum"):
            eps = cols["quasienergy"]
            if len(eps) != 128:
                return f"{len(eps)} quasienergies for 64 cells"
            if label == "spectrum-obc-wd":
                want = reference.open_drive_quasienergies(QUARTER_PI, QUARTER_PI + self.eta, 64)
                if len(cols["mapped_pole"]) != 128 or _wrap_max(eps, want) > SPECTRAL_TOL:
                    return "open spectrum differs from the dense oracle"
                return None
            if _wrap_max(eps, cols["analytic"]) > SPECTRAL_TOL:
                return "quasienergies differ from the analytic column"
            if "mapped_pole" in cols and _wrap_max(eps, cols["mapped_pole"]) > SPECTRAL_TOL:
                return "periodic mapped poles differ from the quasienergies"
            return None
        if label.startswith("map"):
            cells = int(label.rsplit("-", 1)[1])
            if len(cols["pole"]) != 2 * cells:
                return f"{len(cols['pole'])} poles for {cells} cells"
            metric = float(meta["metric"])
            return None if metric < SPECTRAL_TOL else f"map metric {metric}"
        if label == "domainwall-wd":
            xi = reference.wd_wall_xi(self.eta)
            (xi_left,), (xi_right,), (analytic,) = (
                _floats(cols[name]) for name in ("xi_left", "xi_right", "analytic_xi"))
            if abs(analytic - xi) > 1e-9 * xi:
                return f"analytic_xi {analytic}, closed form {xi}"
            if max(abs(xi_left - xi), abs(xi_right - xi)) > XI_REL_TOL * xi:
                return f"wall xi ({xi_left}, {xi_right}) vs closed form {xi}"
            return None
        if label.startswith("domainwall"):
            return None if cols["energy"] else "no bound state rows"
        if label.startswith("scaling"):
            if len(cols["metric"]) != 5:
                return f"{len(cols['metric'])} sizes in the sweep"
            exponent, r2 = float(fit["exponent"]), float(fit["r_squared"])
            ok = BAND[0] <= exponent <= BAND[1] and r2 > MIN_R_SQUARED
            return None if ok else f"fit out of band: exponent {exponent}, R^2 {r2}"
        for theta0, theta1, got in zip(_floats(cols["theta0"]), _floats(cols["theta1"]),
                                       cols["label"]):
            gapless = min(reference.bulk_gaps(theta0, theta1)) < 4.0 * TOL_MODE
            want = "boundary" if gapless else reference.region_label(theta0, theta1)
            if got != want:
                return f"phase-diagram label {got!r} at ({theta0}, {theta1}), expected {want!r}"
        return None if len(cols["label"]) == 16 else "phase-diagram grid is not 4 x 4"


WORKLOADS = {w.name: w for w in (Sweep, PhaseGrid, CliMix)}
