"""End-to-end CLI checks through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pasense
from pasense import (
    AxisSpec,
    InvalidParameterError,
    PhysicalParams,
    ReducedParams,
    mu,
    optimal_phase,
    oscillator_sensitivity,
    output_spectrum,
    reduce,
    sensitivity,
    sensitivity_ratio,
    sweep,
)
from pasense.cli import MAX_POINTS, main

THETA_1K = 20836.619136094574
KAPPA0 = 2.0 * math.pi * 1e6

PHYS_FLAGS = [
    "--kappa0-rad-s", repr(KAPPA0),
    "--G-rad-s", "0",
    "--eta-per-m", "4.182e8",
    "--mass-kg", "1e-10",
    "--power-W", "10",
    "--wavelength-m", "1.064e-6",
]


OMEGA_RANGE_ERROR = "omega_tilde must be finite and in [1e-12, 1e+12]"


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def rows_of(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def columns_of(text):
    _, rows = rows_of(text)
    return np.array([[float(v) for v in r] for r in rows]).T


def assert_bitwise(cols, *expected):
    # Every CSV column equals the library's array, bit for bit.
    assert len(cols) == len(expected)
    for got, want in zip(cols, expected):
        np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))


# Columnar contract: one library call on whole omega/phi arrays.
RP_LOSSY = ReducedParams(J0=0.3, g=0.35, gam=1e-4, theta=THETA_1K)
LOSSY_FLAGS = [
    "--J0", "0.3", "--G-tilde", "0.35", "--gamma-tilde", "1e-4",
    "--theta", repr(THETA_1K),
]
OMEGAS = np.linspace(0.01, 1.9, 257)


def test_sensitivity_optimal_phase_row(capsys):
    rc, out, err = run(capsys, [
        "sensitivity", "--J0", "0.5", "--gamma-tilde", "1e-5",
        "--theta", repr(THETA_1K), "--omega", "0.803461",
    ])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == [
        "omega_over_kappa0", "phi_over_pi", "R_rel", "shot", "backaction",
        "thermal",
    ]
    assert len(rows) == 1
    r = [float(v) for v in rows[0]]
    assert r[2] == pytest.approx(1.1455481259393052, rel=1e-12)
    assert r[2] == pytest.approx(r[3] + r[4] + r[5], rel=1e-12)
    rp = ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K)
    assert r[1] == pytest.approx(optimal_phase(rp, 0.803461) / math.pi, rel=1e-12)


def test_sensitivity_seventeen_digit_round_trip(capsys):
    rc, out, _ = run(capsys, [
        "sensitivity", "--J0", "0.5", "--gamma-tilde", "1e-5",
        "--theta", repr(THETA_1K), "--omega", "0.803461",
    ])
    assert rc == 0
    _, rows = rows_of(out)
    rp = ReducedParams(J0=0.5, gam=1e-5, theta=THETA_1K)
    expect = sensitivity(rp, 0.803461, optimal_phase(rp, 0.803461))
    # .17g fully round-trips a double: parsed text equals the float bit
    # for bit
    assert float(rows[0][2]) == float(expect.R_rel)
    assert float(rows[0][3]) == float(expect.shot)

    # Whole columns, at the optimal angle and on an angle list, equal
    # one library call on the same arrays.
    pops = np.array([-0.3, 0.0, 0.2])
    for extra, w, phi in (
        ([], OMEGAS, optimal_phase(RP_LOSSY, OMEGAS)),
        (["--phi-over-pi=-0.3,0,0.2"], np.repeat(OMEGAS, 3),
         np.tile(pops * np.pi, OMEGAS.size)),
    ):
        rc, out, _ = run(capsys, [
            "sensitivity", *LOSSY_FLAGS, "--omega", "0.01:1.9:257", *extra,
        ])
        assert rc == 0
        pt = sensitivity(RP_LOSSY, w, phi)
        assert_bitwise(
            columns_of(out), w, phi / np.pi, pt.R_rel, pt.shot,
            pt.backaction, pt.thermal,
        )


def test_sensitivity_phase_grid_and_range(capsys):
    # negative lists need the = form or argparse reads them as flags
    rc, out, _ = run(capsys, [
        "sensitivity", "--J0", "0.5", "--omega", "0.5:1.0:3",
        "--phi-over-pi=-0.1,0",
    ])
    assert rc == 0
    _, rows = rows_of(out)
    assert len(rows) == 6
    assert [float(r[0]) for r in rows] == [0.5, 0.5, 0.75, 0.75, 1.0, 1.0]
    assert [float(r[1]) for r in rows] == pytest.approx([-0.1, 0.0] * 3, abs=1e-15)
    rp = ReducedParams(J0=0.5)
    for r in rows:
        pt = sensitivity(rp, float(r[0]), float(r[1]) * math.pi)
        assert float(r[2]) == pytest.approx(pt.R_rel, rel=1e-12)


def test_sensitivity_divergent_phase_exits_3(capsys, tmp_path):
    target = tmp_path / "out.csv"
    rc, out, err = run(capsys, [
        "sensitivity", "--J0", "0.5", "--omega", "1.0",
        "--phi-over-pi", "0.2,0.5", "--out", str(target),
    ])
    assert rc == 3
    assert "phase quadrature" in err
    assert out == ""
    assert not target.exists()


def test_sensitivity_zero_drive_has_no_backaction(capsys):
    rc, out, _ = run(capsys, [
        "sensitivity", "--J0", "0", "--omega", "1.0",
        "--phi-over-pi=-0.25,0.1",
    ])
    assert rc == 0
    _, rows = rows_of(out)
    assert all(float(r[4]) == 0.0 for r in rows)
    assert all(math.isinf(float(r[2])) for r in rows)


def test_sensitivity_missing_omega_exits_2(capsys):
    rc, _, err = run(capsys, ["sensitivity", "--J0", "0.5"])
    assert rc == 2
    assert "omega is required" in err


def test_spectrum_rows(capsys):
    rc, out, _ = run(capsys, [
        "spectrum", "--J0", "0.5", "--omega", "1.0",
        "--phi-over-pi", "0,0.5",
    ])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["omega_over_kappa0", "phi_over_pi", "S_zout"]
    # the phase quadrature is fine for the spectrum, no divergence there
    assert float(rows[0][2]) == 0.53125
    assert float(rows[1][2]) == pytest.approx(0.5, rel=1e-12)

    # At the optimal angle and on an angle list (rows omega-major, phi
    # fastest), every column equals one library call on the row arrays.
    pops = np.array([-0.5, 0.0, 0.2])
    for extra, w, phi in (
        ([], OMEGAS, optimal_phase(RP_LOSSY, OMEGAS)),
        (["--phi-over-pi=-0.5,0,0.2"], np.repeat(OMEGAS, 3),
         np.tile(pops * np.pi, OMEGAS.size)),
    ):
        rc, out, _ = run(capsys, [
            "spectrum", *LOSSY_FLAGS, "--omega", "0.01:1.9:257",
            "--s-ex-rel", "0.3", *extra,
        ])
        assert rc == 0
        assert_bitwise(
            columns_of(out), w, phi / np.pi,
            output_spectrum(RP_LOSSY, w, phi, 0.3),
        )


@pytest.mark.parametrize("command", ["sensitivity", "spectrum"])
def test_angle_list_evaluates_each_frequency_once(capsys, monkeypatch, command):
    # An angle list is a row of angles against the frequency column, so
    # the per-frequency transfer runs on 50 frequencies, not 50 x 3 rows.
    seen = []
    transfer = pasense.response._transfer

    def spy(rp, w):
        seen.append(np.size(w))
        return transfer(rp, w)

    monkeypatch.setattr(pasense.response, "_transfer", spy)
    rc, out, _ = run(capsys, [
        command, "--J0", "0.5", "--omega", "0.1:1:50", "--phi-over-pi=-0.2,0,0.2",
    ])
    assert rc == 0
    assert len(rows_of(out)[1]) == 150
    assert sum(seen) == 50


def test_spectrum_negative_background_exits_3(capsys):
    rc, _, err = run(capsys, [
        "spectrum", "--J0", "0.5", "--omega", "1.0",
        "--phi-over-pi", "0", "--s-ex-rel", "-1",
    ])
    assert rc == 3
    assert "s_ex_rel" in err


def test_mu_map_small_grid(capsys):
    rc, out, _ = run(capsys, [
        "mu-map", "--J0", "0.5", "--omega-min", "0.5", "--omega-max", "1.0",
        "--g-min", "0", "--g-max", "0.2", "--resolution", "2x2",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# quantity=mu J0=0.5 gamma_tilde=0 theta=0"
    assert lines[1] == "omega_over_kappa0,G_over_kappa0,mu"
    data = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    assert len(data) == 4
    # inner loop over omega, outer over gain
    assert [(d[0], d[1]) for d in data] == [
        (0.5, 0.0), (1.0, 0.0), (0.5, 0.2), (1.0, 0.2),
    ]
    assert data[1][2] == 1.0
    assert data[3][2] == pytest.approx(
        mu(ReducedParams(J0=0.5, g=0.2), 1.0), rel=1e-12
    )

    # A non-square grid: rows run x-fastest and equal the sweep bitwise.
    rc, out, _ = run(capsys, [
        "mu-map", *LOSSY_FLAGS, "--omega-min", "0.01", "--omega-max", "1.9",
        "--g-min", "0.1", "--g-max", "0.45", "--resolution", "7x5",
    ])
    assert rc == 0
    grid = sweep(
        RP_LOSSY, "mu", AxisSpec("omega_over_kappa0", 0.01, 1.9, 7),
        AxisSpec("G_over_kappa0", 0.1, 0.45, 5),
    )
    assert_bitwise(
        columns_of(out), np.tile(grid.x_values, 5),
        np.repeat(grid.y_values, 7), grid.values.ravel(),
    )


def test_mu_map_range_error_exits_2(capsys):
    rc, _, err = run(capsys, [
        "mu-map", "--J0", "0.5", "--omega-min", "0",
    ])
    assert rc == 2
    assert "escapes" in err


def test_mu_map_resolution_validation(capsys):
    rc, _, err = run(capsys, ["mu-map", "--J0", "0.5", "--resolution", "1"])
    assert rc == 2
    assert "at least 2" in err
    rc, _, err = run(capsys, ["mu-map", "--J0", "0.5", "--resolution", "3x"])
    assert rc == 2
    assert "bad resolution" in err


def test_contour_crossing(capsys):
    rc, out, _ = run(capsys, [
        "contour", "--J0", "0.5", "--quantity", "K", "--level", "0.5",
        "--omega-min", "0.3", "--omega-max", "1.2",
        "--g-min", "0.05", "--g-max", "0.15", "--resolution", "181x21",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "# quantity=K level=0.5 x=omega_over_kappa0 y=G_over_kappa0 "
        "J0=0.5 gamma_tilde=0 theta=0"
    )
    assert lines[1] == "polyline_id,x,y"
    data = [ln.split(",") for ln in lines[2:]]
    assert {d[0] for d in data} == {"0"}
    hits = [float(d[1]) for d in data if abs(float(d[2]) - 0.1) < 1e-12]
    assert len(hits) == 1
    assert hits[0] == pytest.approx(0.751663502965107, rel=1e-10)


def test_contour_empty_is_header_only(capsys):
    rc, out, _ = run(capsys, [
        "contour", "--J0", "0.5", "--quantity", "K", "--level", "1e15",
        "--resolution", "40",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("# quantity=K level=")
    assert lines[1] == "polyline_id,x,y"


def test_contour_r_rel_uses_phase_axis(capsys):
    rc, out, _ = run(capsys, [
        "contour", "--J0", "0.5", "--quantity", "R_rel", "--level", "1.0",
        "--omega-min", "0.2", "--omega-max", "1.5", "--resolution", "50",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert "y=phi_over_pi" in lines[0]
    assert len(lines) > 2


def test_tables_output(capsys):
    rc, out, _ = run(capsys, ["tables"])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == [
        "table", "J0", "T_K", "G_over_kappa0", "omega_argmin", "mu_min",
        "power_W",
    ]
    assert len(rows) == 16
    warm = [
        r for r in rows
        if r[0] == "1" and float(r[1]) == 0.5 and float(r[2]) == 1.0
        and float(r[3]) == 0.46
    ]
    assert len(warm) == 1
    assert float(warm[0][4]) == 1.9
    assert float(warm[0][5]) == pytest.approx(0.06976788489170913, rel=1e-10)


def test_tables_filter(capsys):
    rc, out, _ = run(capsys, ["tables", "--table", "2"])
    assert rc == 0
    _, rows = rows_of(out)
    assert len(rows) == 4
    assert all(r[0] == "2" for r in rows)


def test_oscillator_rows_and_skip_warning(capsys):
    rc, out, err = run(capsys, [
        "oscillator", "--J0", "0.5", "--omega", "0.5,1.0,2.0,4.0",
        "--omega-m-tilde", "1.0",
    ])
    assert rc == 0
    assert "skipped 2 rows at or below the trap resonance" in err
    header, rows = rows_of(out)
    assert header == ["omega_over_kappa0", "mu_mo", "mu_free", "ratio"]
    assert len(rows) == 2
    r2 = [float(v) for v in rows[0]]
    assert r2[0] == 2.0
    assert r2[1] == 1.40625
    assert r2[2] == 2.5
    assert r2[3] == 0.5625
    r4 = [float(v) for v in rows[1]]
    assert r4[2] == pytest.approx(8.5, rel=1e-14)
    assert r4[3] == pytest.approx(0.87890625, rel=1e-14)
    assert r4[1] == pytest.approx(7.470703125, rel=1e-12)

    rp = ReducedParams(J0=0.3, g=0.35)
    rc, out, _ = run(capsys, [
        "oscillator", "--J0", "0.3", "--G-tilde", "0.35",
        "--omega-m-tilde", "0.005", "--omega", "0.01:1.9:257",
    ])
    assert rc == 0
    assert_bitwise(
        columns_of(out), OMEGAS,
        oscillator_sensitivity(rp, 0.005, OMEGAS, 0.0).mu_mo,
        mu(rp, OMEGAS), sensitivity_ratio(0.005, OMEGAS),
    )


def test_oscillator_checks_model_with_every_row_skipped(capsys, tmp_path):
    target = tmp_path / "out.csv"
    rc, out, err = run(capsys, [
        "oscillator", "--J0", "0.5", "--gamma-tilde", "0.1",
        "--omega-m-tilde", "1.0", "--omega", "0.5,1.0", "--out", str(target),
    ])
    assert rc == 3
    assert "lossless" in err
    assert not target.exists()


def test_oscillator_requires_trap_frequency(capsys):
    rc, _, err = run(capsys, [
        "oscillator", "--J0", "0.5", "--omega", "1.0",
    ])
    assert rc == 2
    assert "omega-m-tilde" in err


def test_oscillator_trap_frequency_from_si(capsys):
    rc, out, _ = run(capsys, [
        "oscillator", *PHYS_FLAGS,
        "--omega-m-rad-s", repr(0.5 * KAPPA0), "--omega", "2.0",
    ])
    assert rc == 0
    _, rows = rows_of(out)
    assert len(rows) == 1
    assert float(rows[0][3]) == pytest.approx((1 - 0.0625) ** 2, rel=1e-12)


def bench_reduced():
    return reduce(
        PhysicalParams(
            kappa0=KAPPA0,
            G=0.0,
            eta=4.182e8,
            mass=1e-10,
            power=10.0,
            wavelength=1.064e-6,
        )
    )


def test_physical_and_reduced_routes_agree(capsys):
    rc_p, out_p, _ = run(capsys, [
        "sensitivity", *PHYS_FLAGS, "--omega", "0.7", "--phi-over-pi", "0",
    ])
    assert rc_p == 0
    rp = bench_reduced()
    rc_r, out_r, _ = run(capsys, [
        "sensitivity", "--J0", repr(rp.J0), "--omega", "0.7",
        "--phi-over-pi", "0",
    ])
    assert rc_r == 0
    assert out_p == out_r

    # With damping and temperature set too, the SI route builds the same
    # PhysicalParams as the library, field for field.
    rc_p, out_p, _ = run(capsys, [
        "sensitivity", *PHYS_FLAGS, "--gamma-m-rad-s", "62.8",
        "--temperature-K", "0.5", "--omega", "0.01:1.9:57",
    ])
    assert rc_p == 0
    rp = reduce(PhysicalParams(
        kappa0=KAPPA0, G=0.0, eta=4.182e8, mass=1e-10, power=10.0,
        wavelength=1.064e-6, gamma_m=62.8, temperature=0.5,
    ))
    assert rp.gam > 0 and rp.theta > 0
    rc_r, out_r, _ = run(capsys, [
        "sensitivity", "--J0", repr(rp.J0), "--G-tilde", repr(rp.g),
        "--gamma-tilde", repr(rp.gam), "--theta", repr(rp.theta),
        "--omega", "0.01:1.9:57",
    ])
    assert rc_r == 0
    assert out_p == out_r


def test_reduced_wins_over_physical_with_warning(capsys):
    rc, out, err = run(capsys, [
        "sensitivity", "--J0", "0.5", "--mass-kg", "1e-10",
        "--omega", "1.0", "--phi-over-pi", "0",
    ])
    assert rc == 0
    assert "reduced values take precedence" in err
    _, rows = rows_of(out)
    # 1/(4K) + K/4 at K = 1/4
    assert float(rows[0][2]) == pytest.approx(1.0625, rel=1e-14)


def test_missing_physical_field_exits_2(capsys):
    rc, _, err = run(capsys, [
        "sensitivity", "--kappa0-rad-s", "6e6", "--omega", "1.0",
    ])
    assert rc == 2
    assert "missing physical parameter: G_rad_s" in err

    # One rule says which SI fields are required, for the flags and for
    # PhysicalParams.from_json; each keeps its own error and message.
    for i in range(0, len(PHYS_FLAGS), 2):
        flags = PHYS_FLAGS[:i] + PHYS_FLAGS[i + 2:]
        wire = PHYS_FLAGS[i][2:].replace("-", "_")
        rc, out, err = run(capsys, ["sensitivity", *flags, "--omega", "1.0"])
        assert (rc, out, err) == (2, "", f"error: missing physical parameter: {wire}\n")
        doc = {f[2:].replace("-", "_"): float(v) for f, v in zip(flags[::2], flags[1::2])}
        with pytest.raises(InvalidParameterError) as info:
            PhysicalParams.from_json(json.dumps(doc))
        assert str(info.value) == f"missing parameter field: {wire!r}"


def test_no_parameters_exits_2(capsys):
    rc, _, err = run(capsys, ["sensitivity", "--omega", "1.0"])
    assert rc == 2
    assert "no parameters given" in err


def test_instability_exits_3(capsys):
    rc, _, err = run(capsys, [
        "sensitivity", "--J0", "0.5", "--G-tilde", "0.5", "--omega", "1.0",
    ])
    assert rc == 3
    assert "no steady state" in err


def test_config_file_supplies_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J0": 0.5, "omega": "1.0", "phi_over_pi": "0"}))
    rc, out, _ = run(capsys, ["sensitivity", "--config", str(cfg)])
    assert rc == 0
    _, rows = rows_of(out)
    assert float(rows[0][2]) == pytest.approx(1.0625, rel=1e-14)


def test_config_flags_take_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J0": 0.5, "omega": "1.0", "phi_over_pi": "0"}))
    rc, out, _ = run(capsys, [
        "sensitivity", "--config", str(cfg), "--J0", "0.1",
    ])
    assert rc == 0
    _, rows = rows_of(out)
    # K = 0.05 now: shot 5, backaction 0.0125
    assert float(rows[0][2]) == pytest.approx(5.0125, rel=1e-13)


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"JO": 0.5}))
    rc, _, err = run(capsys, ["sensitivity", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config field" in err and "JO" in err


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc, _, err = run(capsys, ["sensitivity", "--config", str(cfg)])
    assert rc == 2
    assert "JSON object" in err


def test_config_invalid_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    rc, _, err = run(capsys, ["sensitivity", "--config", str(cfg)])
    assert rc == 2
    assert "not valid JSON" in err


def test_config_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, [
        "sensitivity", "--config", str(tmp_path / "absent.json"),
    ])
    assert rc == 2
    assert "cannot read config file" in err


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # The parser is built once per process; a config run must leave
    # nothing behind for the runs after it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J0": 0.3, "omega": "0.2:1.5:9"}))
    rc, from_config, _ = run(capsys, ["sensitivity", "--config", str(cfg)])
    assert rc == 0
    rc, out, err = run(capsys, ["sensitivity"])
    assert rc == 2
    assert out == ""
    assert "no parameters given" in err
    rc, typed, _ = run(capsys, [
        "sensitivity", "--J0", "0.3", "--omega", "0.2:1.5:9",
    ])
    assert rc == 0
    assert typed == from_config


@pytest.mark.parametrize("command, doc", [
    ("sensitivity", {"J0": "abc", "omega": "1.0"}),
    ("tables", {"table": 3}),
], ids=["float-type", "choices"])
def test_config_values_pass_argparse_checks(capsys, tmp_path, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc, out, err = run(capsys, [command, "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "error:" in err
    assert f"from config file {cfg}" in err


def test_nan_result_exits_3_without_output(capsys, tmp_path, monkeypatch):
    # The library's input checks now stop the inputs that used to give
    # NaN, so the writer's guard is reached through a stand-in result.
    monkeypatch.setattr(
        "pasense.cli.output_spectrum",
        lambda rp, w, phi, s_ex_rel: np.where(w > 0.5, np.nan, 1.0),
    )
    target = tmp_path / "out.csv"
    rc, out, err = run(capsys, [
        "spectrum", "--J0", "0.5", "--omega", "0.2,1.0", "--out", str(target),
    ])
    assert rc == 3
    assert "NaN) in column S_zout" in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["sensitivity", "--J0", "nan", "--omega", "1.0"],
     "J0 must be finite and >= 0, got nan"),
    (["sensitivity", *PHYS_FLAGS[:8], "--power-W", "inf", *PHYS_FLAGS[10:],
      "--omega", "1.0"], "power must be finite and >= 0, got inf"),
    (["oscillator", "--J0", "0.5", "--omega-m-tilde", "nan", "--omega", "1.0"],
     "omega_m_tilde must be finite and >= 0"),
], ids=["sensitivity-J0-nan", "sensitivity-power-inf", "oscillator-trap-nan"])
def test_non_finite_parameter_exits_3_without_output(
    capsys, tmp_path, argv, message
):
    # Refused by the parameter checks, before any arithmetic.
    target = tmp_path / "out.csv"
    rc, out, err = run(capsys, [*argv, "--out", str(target)])
    assert rc == 3
    assert message in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["sensitivity", "--J0", "0.5", "--omega", "inf", "--phi-over-pi", "0"],
     OMEGA_RANGE_ERROR),
    (["spectrum", "--J0", "0.5", "--omega", "inf", "--phi-over-pi", "0"],
     OMEGA_RANGE_ERROR),
    (["oscillator", "--J0", "0.5", "--omega-m-tilde", "0.1",
      "--omega", "1.0,inf"], OMEGA_RANGE_ERROR),
    # Finite, but omega^2 would underflow or overflow.
    (["sensitivity", "--J0", "0.5", "--omega", "1e-200"],
     OMEGA_RANGE_ERROR),
    (["spectrum", "--J0", "0.5", "--omega", "1e200", "--phi-over-pi", "0"],
     OMEGA_RANGE_ERROR),
    (["sensitivity", "--J0", "0.5", "--omega", "1.0", "--phi-over-pi", "nan"],
     "phi must not be NaN"),
    (["spectrum", "--J0", "0.5", "--omega", "1.0", "--phi-over-pi", "nan"],
     "phi must not be NaN"),
    (["spectrum", "--J0", "0.5", "--omega", "0.5", "--phi-over-pi=inf"],
     "phi must not be NaN or infinite"),
    # Finite phi/pi whose angle overflows to inf.
    (["sensitivity", "--J0", "0.5", "--omega", "0.5",
      "--phi-over-pi=1e308,0.1"], "phi must not be NaN or infinite"),
    (["spectrum", "--J0", "0.5", "--omega", "0.5", "--phi-over-pi=1e308"],
     "phi must not be NaN or infinite"),
], ids=["sensitivity", "spectrum", "oscillator", "sensitivity-omega-1e-200",
        "spectrum-omega-1e200", "sensitivity-phi-nan", "spectrum-phi-nan",
        "spectrum-phi-inf", "sensitivity-phi-overflow", "spectrum-phi-overflow"])
def test_infinite_omega_exits_3_without_warnings(capsys, tmp_path, argv, message):
    # Infinite, out-of-range or NaN inputs outside the model's domain.
    # The domain checks run before any arithmetic, so numpy has nothing
    # to warn about; no np.errstate here on purpose.
    target = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, [*argv, "--out", str(target)])
    assert rc == 3
    assert message in err
    assert err.count("error:") == 1
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("si_flags", [
    # eta**2 overflows.
    ["--kappa0-rad-s", "1", "--eta-per-m", "1e200", "--mass-kg", "1",
     "--power-W", "1"],
    # mass * kappa0 underflows to zero.
    ["--kappa0-rad-s", "1e-300", "--eta-per-m", "1", "--mass-kg", "1e-300",
     "--power-W", "1e300"],
], ids=["eta-overflow", "mass-kappa0-underflow"])
def test_si_parameters_out_of_float_range_exit_3(capsys, si_flags):
    rc, out, err = run(capsys, [
        "sensitivity", *si_flags, "--G-rad-s", "0", "--wavelength-m", "1",
        "--omega", "1",
    ])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: SI parameters out of floating-point range")
    assert "Traceback" not in err


# Each request is one point over the limit, so a missing check costs
# about 80 MB and no more.
@pytest.mark.parametrize("argv", [
    ["sensitivity", "--J0", "0.5", "--omega", f"0.1:1:{MAX_POINTS + 1}"],
    ["sensitivity", "--J0", "0.5", "--omega", "0.1:1:909091",
     "--phi-over-pi=" + ",".join(["0"] * 11)],
    ["mu-map", "--J0", "0.5", "--resolution", "11x909091"],
], ids=["omega-count", "omega-times-phi", "resolution"])
def test_request_over_max_points_exits_2(capsys, argv):
    assert 909091 * 11 == MAX_POINTS + 1
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert f"{MAX_POINTS + 1} rows or grid cells" in err
    assert f"limit is {MAX_POINTS}" in err


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    rc, out, _ = run(capsys, [
        "spectrum", "--J0", "0.5", "--omega", "1.0", "--phi-over-pi", "0",
        "--out", str(target),
    ])
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("omega_over_kappa0,phi_over_pi,S_zout\n")
    assert float(text.strip().split("\n")[1].split(",")[2]) == 0.53125


def test_unwritable_out_exits_1(capsys, tmp_path):
    rc, _, err = run(capsys, [
        "spectrum", "--J0", "0.5", "--omega", "1.0", "--phi-over-pi", "0",
        "--out", str(tmp_path / "missing" / "rows.csv"),
    ])
    assert rc == 1
    assert "error" in err


def test_bad_flag_exits_2(capsys):
    rc, _, _ = run(capsys, ["sensitivity", "--J0", "0.5", "--bogus"])
    assert rc == 2


@pytest.mark.parametrize("argv, flag", [
    ([], "{sensitivity,spectrum,mu-map,contour,tables,oscillator}"),
    (["sensitivity"], "--phi-over-pi"),
    (["spectrum"], "--s-ex-rel"),
    (["mu-map"], "--resolution"),
    (["contour"], "--quantity"),
    (["tables"], "--table"),
    (["oscillator"], "--omega-m-tilde"),
], ids=["pasense", "sensitivity", "spectrum", "mu-map", "contour", "tables",
        "oscillator"])
def test_help_exits_0(capsys, argv, flag):
    rc, out, _ = run(capsys, [*argv, "--help"])
    assert rc == 0
    assert out.startswith(f"usage: pasense {' '.join(argv)}".rstrip())
    assert flag in out


def test_python_m_pasense_runs_main(capsys):
    # The package directory's parent goes on the path, so this runs the
    # same code whether or not pasense is installed.
    src = str(Path(pasense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pasense", "tables", "--table", "1"],
        capture_output=True, env=env, timeout=120,
    )
    rc, out, _ = run(capsys, ["tables", "--table", "1"])
    assert proc.returncode == rc == 0
    assert proc.stdout == out.encode()
