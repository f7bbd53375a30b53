import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    GaplessPointError, NumericalError, ValidationError, analytic_wd_zero_mode, cli, models,
)
from floqlat.cli import MAX_DENSE_BYTES, dense_bytes, main, parse_angle, parse_sizes

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
    with pytest.raises(ValidationError, match="zero denominator in angle literal 'pi/0'"):
        parse_angle("pi/0")
    for text in ("inf", "-inf", "1e999"):
        with pytest.raises(ValidationError, match=f"angle '{text}' is infinite"):
            parse_angle(text)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--cells", "16", "--target", "ssh"],
        ["domainwall", "--cells", "40", "--model", "ssh"],
        ["scaling", "--config", "obc", "--target", "ssh", "--sizes", "16,24,32,48"],
    ],
)
def test_negative_pi_fraction_may_follow_its_option(tmp_path, argv):
    joined, separate = tmp_path / "joined.csv", tmp_path / "separate.csv"
    assert main(argv + ["--eta=-pi/8", "--out", str(joined)]) == 0
    assert main(argv + ["--eta", "-pi/8", "--out", str(separate)]) == 0
    assert separate.read_bytes() == joined.read_bytes()


def test_negative_exponent_angle_may_follow_its_option(tmp_path):
    # argparse reads -0.2 as a number but -2e-1 as an option flag
    argv = ["domainwall", "--cells", "200", "--model", "ssh", "--eta"]
    exponent, decimal = tmp_path / "exponent.csv", tmp_path / "decimal.csv"
    assert main(argv + ["-2e-1", "--out", str(exponent)]) == 0
    assert main(argv + ["-0.2", "--out", str(decimal)]) == 0
    assert exponent.read_bytes() == decimal.read_bytes()


def test_separate_negative_infinity_exits_2(tmp_path, capsys):
    code = main(["domainwall", "--eta", "-inf", "--cells", "40", "--model", "ssh",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "angle '-inf' is infinite" in capsys.readouterr().err


def test_console_script_reads_a_separate_negative_angle(tmp_path, monkeypatch):
    out = tmp_path / "map.csv"
    monkeypatch.setattr(sys, "argv", ["floqlat", "map", "--eta", "-pi/8", "--cells", "16",
                                      "--target", "ssh", "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert exit_info.value.code == 0
    assert parse_meta(read_lines(out)[0])["eta"] == f"{-PI / 8:.11e}"


def test_angle_option_missing_its_value_exits_2(tmp_path, capsys):
    code = main(["map", "--eta", "--cells", "16", "--target", "ssh",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "argument --eta: expected one argument" in capsys.readouterr().err


def test_separate_negative_phase_is_range_checked(tmp_path, capsys):
    code = main(["spectrum", "--theta0", "0.3", "--theta1", "-pi/8", "--cells", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "outside [0, pi/2]" in capsys.readouterr().err


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


def _refuse_to_solve(monkeypatch):
    monkeypatch.setattr(cli, "quasienergies", lambda op: pytest.fail("solved before the check"))


def test_spectrum_map_validates_cell_count(tmp_path, capsys, monkeypatch):
    _refuse_to_solve(monkeypatch)
    out = tmp_path / "bad.csv"
    code = main(["spectrum", "--theta0", "pi/4", "--theta1", "3pi/8", "--cells", "6",
                 "--map", "ssh", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --map ssh requires --cells to be a multiple of 4, got 6\n"
    )
    assert not out.exists()


def test_spectrum_map_requires_the_symmetric_line(tmp_path, capsys, monkeypatch):
    _refuse_to_solve(monkeypatch)
    out = tmp_path / "bad.csv"
    code = main(["spectrum", "--theta0", "0.3", "--theta1", "1.0", "--cells", "8",
                 "--map", "ssh", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --map ssh requires theta0 = pi/4\n"
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


@pytest.mark.parametrize("cells", ["100", "200"])
@pytest.mark.parametrize("eta", ["0.6", "0.7"])
def test_domainwall_strong_static_walls_fit(tmp_path, eta, cells):
    # a mode with xi ~ 0.2 falls below an absolute 1e-10 amplitude floor three
    # sites from the wall, which left too few sites to fit
    ((_, _, xi_left, xi_right, analytic_xi),) = wall_rows(tmp_path, eta, cells, "wd")
    for xi in (xi_left, xi_right):
        assert abs(float(xi) - float(analytic_xi)) <= 0.01 * float(analytic_xi)
    ((_, _, xi_left, xi_right, _),) = wall_rows(tmp_path, eta, cells, "ssh")
    # the dimerized chain decays per cell of two sites
    for xi in (xi_left, xi_right):
        assert abs(float(xi) - 2.0 * float(analytic_xi)) <= 0.01 * 2.0 * float(analytic_xi)


@pytest.mark.parametrize("cells", ["2", "3"])
def test_domainwall_floquet_without_midgap_state_exits_2(tmp_path, capsys, cells):
    out = tmp_path / "x.csv"
    code = main(["domainwall", "--eta", "0.3", "--cells", cells, "--model", "floquet",
                 "--out", str(out)])
    assert code == 2
    assert "no eigenstate" in capsys.readouterr().err
    assert not out.exists()


def test_a_wall_mode_longer_than_the_chain_is_refused_by_name(tmp_path, capsys):
    # at eta = -1e-3 the mode decays over ~1/|eta| cells, past 400 of them
    out = tmp_path / "x.csv"
    code = main(["domainwall", "--model", "ssh", "--eta=-1e-3", "--cells", "400", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: no eigenstate within 0.0009999993333334666 of the mode energy on the chain "
        "of 800 sites: the wall mode may be longer than the chain\n")
    assert not out.exists()


@pytest.mark.parametrize("model", ["floquet", "ssh", "wd"])
def test_domainwall_zero_detuning_exits_2(tmp_path, capsys, model):
    out = tmp_path / "x.csv"
    code = main(["domainwall", "--eta", "0", "--cells", "40", "--model", model,
                 "--out", str(out)])
    assert code == 2
    assert "no domain wall" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- oversized inputs


def test_estimate_is_one_linear_rule_for_every_subcommand():
    # no N x N array on any subcommand's path: 1000 bytes a cell (scaling is
    # charged its largest size in test_scaling_is_charged_its_largest_size)
    assert dense_bytes(10**4) == 1000 * 10**4 < MAX_DENSE_BYTES
    assert dense_bytes(2 * 10**4) == 2 * dense_bytes(10**4)
    assert dense_bytes(2147483) <= MAX_DENSE_BYTES < dense_bytes(2147484)
    for argv in (["spectrum", "--theta0", "0.3", "--theta1", "0.7"],
                 ["map", "--eta", "0.3", "--target", "ssh"],
                 ["phase-diagram", "--grid", "4"],
                 ["domainwall", "--eta", "0.3", "--model", "wd"]):
        args = cli.build_parser().parse_args(argv + ["--cells", "2000000", "--out", "x.csv"])
        cli._check_dense_bytes(args)
        args.cells = 2200000
        with pytest.raises(ValidationError, match=f"{argv[0]} at N = 2200000 needs about 2.0 GiB"):
            cli._check_dense_bytes(args)


def test_scaling_is_charged_its_largest_size():
    # the sizes are solved one at a time, so only the largest is held
    args = cli.build_parser().parse_args(
        ["scaling", "--config", "obc", "--eta", "0.3", "--target", "ssh",
         "--sizes", "100,200,1000000,2000000", "--out", "x.csv"])
    cli._check_dense_bytes(args)
    args.sizes = "100,200,1000000,2200000"
    with pytest.raises(ValidationError, match="scaling at N = 2200000 needs about 2.0 GiB"):
        cli._check_dense_bytes(args)


def test_open_and_periodic_spectra_past_the_old_quadratic_cap_are_admitted():
    for bc in ("obc", "pbc"):
        args = cli.build_parser().parse_args(
            ["spectrum", "--theta0", "0.3", "--theta1", "0.7", "--cells", "9000", "--bc", bc,
             "--out", "x.csv"])
        cli._check_dense_bytes(args)


@pytest.mark.parametrize("model", ["floquet", "ssh", "wd"])
def test_walls_of_8000_cells_are_solved_without_dense_arrays(tmp_path, model):
    # one value in the window of 8000 cells: bisection, no N x N array
    out = tmp_path / "wall.csv"
    assert main(["domainwall", "--eta", "0.3", "--cells", "8000", "--model", model,
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == (4 if model == "floquet" else 3)


def test_phase_diagram_rows_count_in_the_estimate():
    # at 64 cells the arrays are 64 kB; 340-byte rows reach 2 GiB past a grid of 2513
    args = cli.build_parser().parse_args(["phase-diagram", "--grid", "2500", "--out", "x.csv"])
    cli._check_dense_bytes(args)
    args.grid = 2520
    with pytest.raises(ValidationError, match="phase-diagram with --grid 2520 needs about 2.0 GiB"):
        cli._check_dense_bytes(args)


def test_shared_parser_calls_the_current_command_function(tmp_path, monkeypatch):
    argv = ["map", "--eta", "0.3", "--cells", "16", "--target", "ssh", "--out", str(tmp_path / "x")]
    assert main(argv) == 0  # the parser is built and cached
    calls = []
    monkeypatch.setattr(cli, "cmd_map", calls.append)
    assert main(argv) == 0
    assert [args.command for args in calls] == ["map"]


def _refuse_every_run(monkeypatch):
    for name in ("cmd_spectrum", "cmd_map", "cmd_phase_diagram", "cmd_domainwall", "cmd_scaling",
                 "classify_phase"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("the run was not refused"))


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--theta0", "0.3", "--theta1", "0.7", "--cells", "10000000"],
        ["map", "--eta", "0.3", "--cells", "10000000", "--target", "ssh"],
        ["phase-diagram", "--grid", "4", "--cells", "10000000"],
        ["phase-diagram", "--grid", "100000", "--cells", "8"],  # 10^10 rows of 340 bytes
        ["domainwall", "--eta", "0.3", "--cells", "10000000", "--model", "wd"],
        ["scaling", "--config", "obc", "--eta", "0.3", "--target", "ssh",
         "--sizes", "100,200,300,10000000"],
        # the largest size is charged: 2.2 GB
        ["scaling", "--config", "obc", "--eta", "0.3", "--target", "ssh",
         "--sizes", "100,200,1100000,2200000"],
    ],
)
def test_oversized_runs_exit_2_before_allocating(tmp_path, capsys, monkeypatch, argv):
    # every subcommand is replaced, so a missed refusal fails without allocating
    _refuse_every_run(monkeypatch)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "GiB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["domainwall", "--eta", "0.3", "--cells", "200", "--model", "floquet"],
        ["domainwall", "--eta", "-0.2", "--cells", "200", "--model", "ssh"],
        ["domainwall", "--eta", "0.45", "--cells", "200", "--model", "wd"],
        ["map", "--eta", "0.3", "--cells", "256", "--target", "ssh"],
        ["map", "--eta", "-0.2", "--cells", "64", "--target", "wd"],
        ["spectrum", "--theta0", "0.6", "--theta1", "1.0", "--cells", "63", "--bc", "pbc"],
        ["spectrum", "--theta0", "pi/4", "--theta1", "1.0", "--cells", "64", "--bc", "pbc",
         "--map", "ssh"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
)
def test_cli_paths_form_no_dense_block(tmp_path, monkeypatch, argv):
    # uniform rings take the circulant rule, walls bisection and the partner
    # products the entries: no N x N block on these paths
    monkeypatch.setattr(models.Bidiagonal, "dense", lambda block: pytest.fail("dense() ran"))
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0


# ---------------------------------------------------------------- output path

SPECTRUM_ARGV = ["spectrum", "--theta0", "0.3", "--theta1", "0.7", "--cells", "4"]


def test_out_fifo_is_refused_and_left_alone(tmp_path, capsys, monkeypatch):
    _refuse_every_run(monkeypatch)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert main(SPECTRUM_ARGV + ["--out", str(fifo)]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo"]


def test_failed_out_write_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / ("x" * 300 + ".csv")  # the rename fails: the name is too long
    assert main(["map", "--eta", "0.3", "--cells", "16", "--target", "ssh", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: File name too long\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("error", [NumericalError, GaplessPointError])
def test_numerical_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, error):
    message = "matrix is not unitary: max |U^dag U - 1| = 1.000e-03"

    def fail(op):
        raise error(message)

    monkeypatch.setattr(cli, "quasienergies", fail)
    out = tmp_path / "x.csv"
    assert main(SPECTRUM_ARGV + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_out_directory_is_refused(tmp_path, capsys, monkeypatch):
    _refuse_every_run(monkeypatch)
    (tmp_path / "sub").mkdir()
    assert main(SPECTRUM_ARGV + ["--out", str(tmp_path / "sub")]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert (tmp_path / "sub").is_dir() and not any((tmp_path / "sub").iterdir())


def test_out_in_missing_directory_is_refused(tmp_path, capsys, monkeypatch):
    _refuse_every_run(monkeypatch)
    assert main(SPECTRUM_ARGV + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert "directory does not exist" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_write_output_refuses_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValidationError):
        cli.write_output(str(fifo), "csv", {}, ["a"], [[1.0]])
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_payloads = st.fixed_dictionaries(
    {"meta": st.dictionaries(st.text(), _scalars),
     "columns": st.dictionaries(st.text(), st.lists(_scalars))},
    optional={"fit": st.dictionaries(st.text(), st.floats())},
)


@settings(max_examples=200, deadline=None)
@given(payload=_payloads)
def test_json_text_matches_indented_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=1)


def test_json_output_matches_indented_dumps(tmp_path):
    out = tmp_path / "x.json"
    header, rows = ["t", "label", "n"], [[0.5, "zero", 2], [float("nan"), "boundary", None]]
    cli.write_output(str(out), "json", {"command": "x", "eta": -0.25}, header, rows, {"r": 1.0})
    payload = {"meta": {"floqlat": cli.__version__, "command": "x", "eta": -0.25},
               "columns": {"t": [0.5, float("nan")], "label": ["zero", "boundary"], "n": [2, None]},
               "fit": {"r": 1.0}}
    assert out.read_text() == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_out_file_mode_follows_the_umask(tmp_path, umask):
    out = tmp_path / "x.csv"
    old = os.umask(umask)
    try:
        assert main(SPECTRUM_ARGV + ["--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["x.csv"]


def test_replaced_out_file_keeps_its_mode(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    os.chmod(out, 0o604)
    assert main(SPECTRUM_ARGV + ["--out", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o604
    assert read_lines(out)[1] == "index,quasienergy,analytic"


def test_runtime_needs_only_numpy(tmp_path):
    # every block here is below BAND_MIN_CELLS, so floqlat.band and the
    # numpy.polynomial it builds with stay unimported: the import of a fresh
    # process, and a ring's solve, pay for neither
    script = (
        "import sys\n"
        "import floqlat\n"
        "floqlat.quasienergies(floqlat.build_floquet(floqlat.DriveParams(0.3, 0.7, 4)))\n"
        "from floqlat import ScalingConfig, scaling_metric\n"
        "from floqlat.cli import main\n"
        "scaling_metric(ScalingConfig.OBC, 0.3, 40)\n"
        "assert main(['domainwall', '--eta', '0.3', '--cells', '40', '--model', 'ssh',\n"
        "             '--out', sys.argv[1]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "for name in ('floqlat.band', 'numpy.polynomial'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-B", "-c", script, str(tmp_path / "wall.csv")], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
