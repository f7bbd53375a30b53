"""CLI outputs compared against stored goldens.

The CSV files under tests/data/golden/ were written by the commit before the
static chains were solved from their hopping blocks, so they pin the outputs
of the dense-eigh solver; phase-diagram.csv and map-wd.json were written by
the commit before the operators lost their dense form.  The metadata, the
header and every text or integer cell must match exactly; spectra, energies,
metrics and fit values to 1e-12 absolute; localization lengths (xi columns)
to 1e-6 relative.  A JSON golden is held to the same rules, column by column.

Regenerate only for a deliberate, documented output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from floqlat.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
ETA = "0.3"
LINE = "1.0853981633974483"  # pi/4 + 0.3
SPECTRUM = ["spectrum", "--theta0", "pi/4", "--cells", "16"]

CASES = {
    "spectrum-pbc": ["spectrum", "--theta0", "0.3", "--theta1", "0.7", "--cells", "16"],
    "spectrum-pbc-map-ssh": SPECTRUM + ["--theta1", LINE, "--bc", "pbc", "--map", "ssh"],
    "spectrum-obc-map-wd": SPECTRUM + ["--theta1", LINE, "--bc", "obc", "--map", "wd"],
    "map-ssh": ["map", "--eta", ETA, "--cells", "32", "--target", "ssh"],
    "map-wd": ["map", "--eta", ETA, "--cells", "32", "--target", "wd"],
    "domainwall-floquet": ["domainwall", "--eta", ETA, "--cells", "64", "--model", "floquet"],
    "domainwall-ssh": ["domainwall", "--eta", ETA, "--cells", "64", "--model", "ssh"],
    "domainwall-wd": ["domainwall", "--eta", ETA, "--cells", "64", "--model", "wd"],
    "scaling-obc": ["scaling", "--config", "obc", "--eta", ETA, "--target", "ssh",
                    "--sizes", "16,24,32,48,64"],
    "scaling-wall": ["scaling", "--config", "wall", "--eta", ETA, "--target", "ssh",
                     "--sizes", "16,24,32,48,64"],
    "phase-diagram": ["phase-diagram", "--grid", "6", "--cells", "32"],
}
# cases whose golden is the JSON output; the rest are CSV
JSON_CASES = {"map-wd-json": CASES["map-wd"]}

EXACT_COLUMNS = {"index", "cells", "state", "label", "n_zero", "n_pi"}
FLOAT_META = {"metric"}  # computed values in the metadata line; the rest echo the input


def _golden(name: str) -> Path:
    return GOLDEN / (f"{name}.json" if name in JSON_CASES else f"{name}.csv")


def _run(name: str, path: Path) -> str:
    if name in JSON_CASES:
        argv = JSON_CASES[name] + ["--format", "json"]
    else:
        argv = CASES[name] + ["--format", "csv"]
    assert main(argv + ["--out", str(path)]) == 0
    return path.read_text()


def _tokens(line: str) -> dict[str, str]:
    assert line.startswith("# ")
    return dict(token.split("=", 1) for token in line[2:].split(" "))


def _close(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS or want == "" or got == "":
        return got == want
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if column.startswith("xi_") or column == "analytic_xi":
        return abs(g - w) <= 1e-6 * abs(w)
    return abs(g - w) <= 1e-12


def _compare(got_text: str, want_text: str) -> list[str]:
    got, want = got_text.splitlines(), want_text.splitlines()
    problems = []
    got_meta, want_meta = _tokens(got[0]), _tokens(want[0])
    if got_meta.keys() != want_meta.keys():
        problems.append(f"metadata keys {list(got_meta)} != {list(want_meta)}")
    for key in want_meta.keys() & got_meta.keys():
        column = "metric" if key in FLOAT_META else "index"
        if not _close(column, got_meta[key], want_meta[key]):
            problems.append(f"metadata {key}: {got_meta[key]} != {want_meta[key]}")
    if got[1] != want[1]:
        return problems + [f"header {got[1]!r} != {want[1]!r}"]
    header = want[1].split(",")
    if len(got) != len(want):
        return problems + [f"{len(got)} lines, golden has {len(want)}"]
    for number, (g_line, w_line) in enumerate(zip(got[2:], want[2:]), start=3):
        if w_line.startswith("# "):
            g_fit, w_fit = _tokens(g_line), _tokens(w_line)
            if g_fit.keys() != w_fit.keys() or not all(
                _close("fit", g_fit[k], w_fit[k]) for k in w_fit
            ):
                problems.append(f"line {number}: fit {g_line!r} != {w_line!r}")
            continue
        for column, g, w in zip(header, g_line.split(","), w_line.split(",")):
            if not _close(column, g, w):
                problems.append(f"line {number} {column}: {g} != {w}")
    return problems


def _json_text(value) -> str:
    return "" if value is None else str(value)


def _compare_json(got_text: str, want_text: str) -> list[str]:
    got, want = json.loads(got_text), json.loads(want_text)
    problems = []
    if got.keys() != want.keys():
        return [f"sections {list(got)} != {list(want)}"]
    for section in ("meta", "fit"):
        g_sec, w_sec = got.get(section, {}), want.get(section, {})
        if g_sec.keys() != w_sec.keys():
            problems.append(f"{section} keys {list(g_sec)} != {list(w_sec)}")
        for key in w_sec.keys() & g_sec.keys():
            column = "index" if section == "meta" and key not in FLOAT_META else "metric"
            if not _close(column, _json_text(g_sec[key]), _json_text(w_sec[key])):
                problems.append(f"{section} {key}: {g_sec[key]} != {w_sec[key]}")
    if list(got["columns"]) != list(want["columns"]):
        return problems + [f"columns {list(got['columns'])} != {list(want['columns'])}"]
    for column, w_values in want["columns"].items():
        g_values = got["columns"][column]
        if len(g_values) != len(w_values):
            problems.append(f"{column}: {len(g_values)} values, golden has {len(w_values)}")
            continue
        for i, (g, w) in enumerate(zip(g_values, w_values)):
            if not _close(column, _json_text(g), _json_text(w)):
                problems.append(f"{column}[{i}]: {g} != {w}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES) + sorted(JSON_CASES))
def test_cli_output_matches_golden(tmp_path, name):
    golden = _golden(name)
    compare = _compare_json if name in JSON_CASES else _compare
    assert compare(_run(name, tmp_path / golden.name), golden.read_text()) == []


def test_comparison_catches_a_changed_value():
    want = (GOLDEN / "scaling-obc.csv").read_text()
    lines = want.splitlines()
    index, metric = lines[2].split(",")
    lines[2] = f"{index},{float(metric) + 1e-11:.11e}"
    assert _compare("\n".join(lines), want) != []


def test_json_comparison_catches_a_changed_value():
    want = json.loads(_golden("map-wd-json").read_text())
    got = json.loads(json.dumps(want))
    got["columns"]["pole"][3] += 1e-11
    assert _compare_json(json.dumps(got), json.dumps(want)) != []
    got["columns"]["pole"][3] = want["columns"]["pole"][3]
    got["meta"]["metric"] += 1e-11
    assert _compare_json(json.dumps(got), json.dumps(want)) != []
    assert _compare_json(json.dumps(want), json.dumps(want)) == []


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in [*CASES, *JSON_CASES]:
        _run(case, _golden(case))
