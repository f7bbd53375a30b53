import json

import numpy as np
import pytest

from floqlat import ValidationError, analytic_wd_zero_mode
from floqlat.cli import main, parse_angle, parse_sizes

PI = np.pi


def read_lines(path):
    return path.read_text().splitlines()


def parse_meta(line):
    assert line.startswith("# ")
    return dict(item.split("=", 1) for item in line[2:].split(" "))


# ---------------------------------------------------------------- angle parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", PI),
        ("pi/8", PI / 8),
        ("3pi/8", 3 * PI / 8),
        ("3*pi/8", 3 * PI / 8),
        ("-pi/4", -PI / 4),
        ("0.3", 0.3),
        ("1e-2", 0.01),
        ("0.5pi", 0.5 * PI),
    ],
)
def test_parse_angle(text, expected):
    np.testing.assert_allclose(parse_angle(text), expected, rtol=1e-15)


def test_parse_angle_rejects_junk():
    with pytest.raises(ValidationError):
        parse_angle("two pies")


def test_parse_sizes():
    assert parse_sizes("100,200,300") == (100, 200, 300)
    with pytest.raises(ValidationError):
        parse_sizes("100,abc")


def test_bad_angle_exits_2(tmp_path, capsys):
    code = main(["spectrum", "--theta0", "nonsense", "--theta1", "0", "--cells", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "angle" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--bogus", "1", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_out_of_window_phase_exits_2(tmp_path, capsys):
    code = main(["spectrum", "--theta0", "2.0", "--theta1", "0", "--cells", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "pi/2" in capsys.readouterr().err


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = main(
        ["spectrum", "--theta0", "pi/4", "--theta1", "3pi/8", "--cells", "8",
         "--bc", "pbc", "--out", str(out)]
    )
    assert code == 0
    lines = read_lines(out)
    assert lines[1] == "index,quasienergy,analytic"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 16
    quasi = np.array([float(r[1]) for r in rows])
    analytic = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(quasi) >= 0)
    np.testing.assert_allclose(quasi, analytic, atol=1e-10)


def test_spectrum_zero_drive_is_flat(tmp_path):
    out = tmp_path / "flat.csv"
    assert main(["spectrum", "--theta0", "0", "--theta1", "0", "--cells", "4",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_spectrum_open_chain_has_blank_analytic_column(tmp_path):
    out = tmp_path / "obc.csv"
    assert main(["spectrum", "--theta0", "pi/4", "--theta1", "3pi/8", "--cells", "8",
                 "--bc", "obc", "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 16
    assert all(r[2] == "" for r in rows)


def test_spectrum_map_validates_cell_count(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = main(["spectrum", "--theta0", "pi/4", "--theta1", "3pi/8", "--cells", "6",
                 "--map", "ssh", "--out", str(out)])
    assert code == 2
    assert "multiple of 4" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_map_column_round_trips(tmp_path):
    out = tmp_path / "mapped.csv"
    assert main(["spectrum", "--theta0", "pi/4", "--theta1", "3pi/8", "--cells", "8",
                 "--map", "wd", "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    quasi = np.array([float(r[1]) for r in rows])
    poles = np.array([float(r[3]) for r in rows])
    np.testing.assert_allclose(quasi, poles, atol=1e-10)


# ---------------------------------------------------------------- map


def test_map_emits_couplings_and_metric(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--eta", "pi/8", "--cells", "8", "--target", "ssh",
                 "--out", str(out)]) == 0
    meta = parse_meta(read_lines(out)[0])
    np.testing.assert_allclose(float(meta["u"]), 0.85355, atol=5e-6)
    np.testing.assert_allclose(float(meta["v"]), 0.14645, atol=5e-6)
    assert float(meta["metric"]) < 1e-10
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 16
    assert rows[7][1] != "" and rows[8][1] == ""  # kept half has 8 entries


def test_map_wd_couplings(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--eta", "pi/8", "--cells", "8", "--target", "wd",
                 "--out", str(out)]) == 0
    meta = parse_meta(read_lines(out)[0])
    np.testing.assert_allclose(float(meta["m"]), -0.70711, atol=5e-6)
    np.testing.assert_allclose(float(meta["r"]), 0.85355, atol=5e-6)


def test_map_zero_detuning(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--eta", "0", "--cells", "8", "--target", "ssh",
                 "--out", str(out)]) == 0
    meta = parse_meta(read_lines(out)[0])
    assert float(meta["u"]) == 0.5 and float(meta["v"]) == 0.5


def test_map_rejects_bad_cell_count(tmp_path, capsys):
    code = main(["map", "--eta", "pi/8", "--cells", "6", "--target", "ssh",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "multiple of 4" in capsys.readouterr().err


def test_map_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["map", "--eta", "0.11", "--cells", "16", "--target", "ssh"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_map_json_mirrors_fields(tmp_path):
    out = tmp_path / "map.json"
    assert main(["map", "--eta", "pi/8", "--cells", "8", "--target", "ssh",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "map"
    assert len(payload["columns"]["quasienergy"]) == 16
    assert payload["columns"]["kept_quasienergy"][8] is None


# ---------------------------------------------------------------- phase diagram


def test_phase_diagram_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["phase-diagram", "--grid", "4", "--cells", "32", "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 16
    labels = {r[2] for r in rows}
    assert labels <= {"trivial", "0", "pi", "0pi", "boundary"}
    # the row nearest theta1 = 0 is trivial and the column nearest theta0 = 0
    # carries zero modes, wherever the cells are classifiable
    first_row = [r for r in rows if float(r[1]) < 0.06]
    assert all(r[2] in ("trivial", "boundary") for r in first_row)
    assert any(r[2] == "trivial" for r in first_row)
    first_col = [r for r in rows if float(r[0]) < 0.06]
    assert all(r[2] in ("0", "boundary") for r in first_col)
    assert any(r[2] == "0" for r in first_col)


def test_phase_diagram_rejects_small_grid(tmp_path):
    assert main(["phase-diagram", "--grid", "3", "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------- domain wall


def test_domainwall_wd_table(tmp_path):
    out = tmp_path / "wall.csv"
    assert main(["domainwall", "--eta", "pi/8", "--cells", "200", "--model", "wd",
                 "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[1] == "state,energy,xi_left,xi_right,analytic_xi"
    row = lines[2].split(",")
    assert row[0] == "wall"
    assert abs(float(row[1])) < 1e-6
    analytic_xi = float(row[4])
    np.testing.assert_allclose(analytic_xi, 0.56729, atol=1e-5)
    np.testing.assert_allclose(float(row[2]), analytic_xi, rtol=0.05)
    np.testing.assert_allclose(float(row[3]), analytic_xi, rtol=0.05)


def test_domainwall_nan_detuning_exits_2(tmp_path, capsys):
    code = main(["domainwall", "--eta", "nan", "--cells", "20", "--model", "ssh",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "outside [-pi/4, pi/4]" in capsys.readouterr().err


def test_domainwall_floquet_reports_both_mode_kinds(tmp_path):
    out = tmp_path / "wall.csv"
    assert main(["domainwall", "--eta", "pi/8", "--cells", "100", "--model", "floquet",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert [r[0] for r in rows] == ["zero", "pi"]


def test_domainwall_floquet_fits_the_wall_mode_alone(tmp_path):
    # the wall mode is degenerate with the left-end mode; a mix of the two let
    # the end mode's tail into the left fit window (xi_left 3.5-3.9 against 2.27)
    out = tmp_path / "wall.csv"
    assert main(["domainwall", "--eta", "pi/8", "--cells", "100", "--model", "floquet",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 2
    for row in rows:
        xi_left, xi_right = float(row[2]), float(row[3])
        assert abs(xi_left - xi_right) <= 1e-3 * xi_right


def wall_rows(tmp_path, eta, cells, model):
    out = tmp_path / "wall.csv"
    assert main(["domainwall", "--eta", eta, "--cells", cells, "--model", model,
                 "--out", str(out)]) == 0
    return [line.split(",") for line in read_lines(out)[2:]]


@pytest.mark.parametrize(
    "model, eta",
    # the wall mode and a chain-end mode split into a +-E pair by tunnelling,
    # each eigenvector half at the wall and half at the end: fitted as it came,
    # xi_left / xi_right read 17.0 / 4.87, 13.1 / 3.83, 8.96 / 686 and
    # 2.48 / 8.70 (closed form 2.483)
    [("floquet", "0.2"), ("floquet", "0.25"), ("ssh", "0.1"), ("wd", "0.1")],
)
def test_domainwall_separates_wall_from_split_end_mode(tmp_path, model, eta):
    rows = wall_rows(tmp_path, eta, "100", model)
    assert len(rows) == (2 if model == "floquet" else 1)
    for row in rows:
        xi_left, xi_right = float(row[2]), float(row[3])
        reference = float(row[4]) if model == "wd" else xi_right
        assert abs(xi_left - reference) <= 1e-3 * reference
        assert abs(xi_right - reference) <= 1e-3 * reference


def test_domainwall_ssh_weak_wall_decays_on_both_sides(tmp_path):
    # the mixed state's end-mode bump once gave xi_right = -2402
    ((_, _, xi_left, xi_right, _),) = wall_rows(tmp_path, "0.02", "200", "ssh")
    assert float(xi_right) > 0
    np.testing.assert_allclose(float(xi_left), float(xi_right), rtol=0.01)


@pytest.mark.parametrize("eta", ["-0.1", "-0.3", "-0.5"])
def test_domainwall_wd_negative_detuning_mirrors_the_wall(tmp_path, eta):
    ((_, _, xi_left, xi_right, analytic_xi),) = wall_rows(tmp_path, eta, "100", "wd")
    expected = analytic_wd_zero_mode(abs(float(eta)), (-10, 10)).xi_right
    assert float(analytic_xi) == pytest.approx(expected, rel=1e-11)
    for xi in (xi_left, xi_right):
        assert abs(float(xi) - expected) <= 1e-5 * expected


@pytest.mark.parametrize("cells", ["2", "3"])
def test_domainwall_floquet_without_midgap_state_exits_2(tmp_path, capsys, cells):
    out = tmp_path / "x.csv"
    code = main(["domainwall", "--eta", "0.3", "--cells", cells, "--model", "floquet",
                 "--out", str(out)])
    assert code == 2
    assert "no eigenstate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["floquet", "ssh", "wd"])
def test_domainwall_zero_detuning_exits_2(tmp_path, capsys, model):
    out = tmp_path / "x.csv"
    code = main(["domainwall", "--eta", "0", "--cells", "40", "--model", model,
                 "--out", str(out)])
    assert code == 2
    assert "no domain wall" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- scaling


def test_scaling_rejects_single_size(tmp_path, capsys):
    code = main(["scaling", "--config", "obc", "--eta", "pi/8", "--target", "ssh",
                 "--sizes", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "4" in capsys.readouterr().err


def test_scaling_small_sweep(tmp_path):
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--config", "obc", "--eta", "pi/8", "--target", "ssh",
                 "--sizes", "16,32,48,64", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[1] == "cells,metric"
    fit = parse_meta(lines[-1])
    assert "exponent" in fit and "r_squared" in fit
    metrics = [float(line.split(",")[1]) for line in lines[2:-1]]
    assert metrics[-1] < metrics[0]


def test_scaling_wall_config(tmp_path):
    out = tmp_path / "wall_scaling.csv"
    assert main(["scaling", "--config", "wall", "--eta", "pi/8", "--target", "ssh",
                 "--sizes", "16,32,48,64", "--out", str(out)]) == 0
    metrics = [float(line.split(",")[1]) for line in read_lines(out)[2:-1]]
    assert all(m > 0 for m in metrics)


def test_scaling_fit_across_the_pi_fold(tmp_path):
    # the smallest size has its pi pair just outside the fold tolerance; the
    # fit must still land in the criterion-6 band
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--config", "obc", "--eta", "0.32", "--target", "ssh",
                 "--sizes", "40,80,120,160,200", "--out", str(out)]) == 0
    fit = parse_meta(read_lines(out)[-1])
    assert 0.85 <= float(fit["exponent"]) <= 1.15
    assert float(fit["r_squared"]) > 0.98


def test_scaling_json_carries_fit(tmp_path):
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--config", "obc", "--eta", "pi/8", "--target", "ssh",
                 "--sizes", "16,32,48,64", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["fit"]) == {"exponent", "prefactor", "r_squared"}
    assert len(payload["columns"]["metric"]) == 4


def test_version_flag():
    assert main(["--version"]) == 0
