"""Command-line interface: subcommands, exit codes, determinism."""

import datetime
import json
import re
import time
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cavityheat.cli as cli
import cavityheat.tables as tables
from cavityheat.asymptotics import CONDITION_REPORT
from cavityheat.casimir import (
    FINITE_Z,
    RegulatorKind,
    divergence_prediction,
    min_usable_gamma,
    remainder_scan,
)
from cavityheat.cli import main
from cavityheat.errors import (
    BracketError,
    EvaluationError,
    IllPosedFitError,
    SingularChartError,
)
from cavityheat.geometry import ellipsoid, sphere, torus
from cavityheat.spectrum import ModeList
from test_identities import plant_tr_Pab_Pab

BAD_TOPOLOGY_SURFACE = """\
schema 1
name fake-genus
components 1
genera 1
chart
  domain u 0 pi
  domain v 0 2*pi
  periodic v
  x sin(u)*cos(v)
  y sin(u)*sin(v)
  z cos(u)
  normal outward
end
"""


FLIPPED_SPHERE_SURFACE = BAD_TOPOLOGY_SURFACE.replace(
    "genera 1", "genera 0").replace("normal outward", "normal inward")


def run(tmp_path, *argv):
    return main([str(a) for a in argv] + ["--out", str(tmp_path)])


class TestCoeffs:
    def test_sphere_report(self, tmp_path):
        assert run(tmp_path, "coeffs", "--surface", "sphere") == 0
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        assert doc["em"]["values"][3] == pytest.approx(0.625, rel=1e-10)
        assert doc["em"]["values"][1] == 0.0
        assert all(doc["consistency"].values())
        assert doc["gauss_bonnet"]["ok"]
        assert doc["mode_count"]["count"] == pytest.approx(0.25)
        assert "flag" in doc["a3_local_kappa_variant"]
        assert doc["manifest"]["tool"]["name"] == "cavityheat"

    @pytest.mark.parametrize("surface, model", [
        ("sphere", sphere(1.0)), ("ellipsoid", ellipsoid(1.0, 1.3, 1.7)),
        ("torus", torus(2.0, 0.5))], ids=["sphere", "ellipsoid", "torus"])
    def test_stock_surface(self, tmp_path, surface, model):
        # each stock name builds one fixed model, and the manifest
        # records only the options that shaped the run
        assert run(tmp_path, "coeffs", "--surface", surface,
                   "--quad-order", 16) == 0
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        assert doc["gauss_bonnet"]["ok"]
        assert doc["surface"]["name"] == model.name
        assert set(doc["manifest"]["config"]) == {
            "out", "quad_order", "subcommand", "surface"}

    def test_torus_report(self, tmp_path):
        assert run(tmp_path, "coeffs", "--surface", "torus",
                   "--quad-order", 16) == 0
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        assert doc["surface"]["genera"] == [1]
        assert doc["gauss_bonnet"]["ok"]

    def test_manifest_names_the_command_once(self, tmp_path):
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0
        manifest = json.loads((tmp_path / "coeffs.json").read_text())[
            "manifest"]
        assert manifest["command"][:2] == ["cavityheat", "coeffs"]
        assert "_command" not in manifest["config"]
        assert manifest["config"]["quad_order"] == 16

    def test_every_value_carries_error(self, tmp_path):
        run(tmp_path, "coeffs", "--surface", "sphere")
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        assert set(doc["em"]) >= {"values", "errors"}
        for slot in doc["moments"].values():
            assert set(slot) == {"value", "error"}

    def test_topology_mismatch_exits_2(self, tmp_path):
        surf = tmp_path / "bad.surf"
        surf.write_text(BAD_TOPOLOGY_SURFACE)
        code = run(tmp_path, "coeffs", "--surface", f"file:{surf}",
                   "--quad-order", 16)
        assert code == 2

    def test_determinism_modulo_timestamp(self, tmp_path):
        argv = ["coeffs", "--surface", "ellipsoid", "--quad-order", "16",
                "--out", str(tmp_path)]
        docs = []
        for _ in range(2):
            assert main(argv) == 0
            doc = json.loads((tmp_path / "coeffs.json").read_text())
            doc["manifest"].pop("timestamp_utc")
            doc["manifest"].pop("wall_time_s")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestUsageErrors:
    def test_unknown_subcommand(self, tmp_path, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["trace"]) == 1

    def test_unknown_surface(self, tmp_path, capsys):
        assert run(tmp_path, "coeffs", "--surface", "cube") == 1

    @pytest.mark.parametrize("argv", [
        ("modes", "--omega-max", 250),            # outside the Bessel domain
        ("trace", "--modes", "missing.csv"),      # no sidecar
    ], ids=["domain", "missing-sidecar"])
    def test_library_input_error_exits_1(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "{", "{}", None,
        '{"em": {"values": [0.1, 0, -0.7, NaN, 0, 0]}}',
        '{"em": {"values": [0.1, 0, -0.7, Infinity, 0, 0]}}',
        '{"em": {"values": [0.1, 0, -0.7, -Infinity, 0, 0]}}',
        '{"em": {"values": [true, 0, -0.75, 0.625, 0, 0]}}',
        '{"em": {"values": [0.1, "0", -0.75, 0.625, 0, 0]}}',
        '{"em": {"values": "100000"}}',
        "[" * 200_000,
    ], ids=["malformed-json", "no-em-values", "missing", "nan-value",
            "inf-value", "minus-inf-value", "bool-value", "string-value",
            "string-list", "deep-nesting"])
    def test_bad_coeffs_file_exits_1(self, tmp_path, capsys, text):
        assert run(tmp_path, "modes", "--omega-max", 10) == 0
        coeffs = tmp_path / "coeffs.json"
        if text is not None:
            coeffs.write_text(text)
        capsys.readouterr()
        assert run(tmp_path, "casimir", "--modes", tmp_path / "modes_em.csv",
                   "--coeffs", coeffs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(coeffs) in err
        assert not (tmp_path / "casimir.json").exists()

    @pytest.mark.parametrize("edit", [
        ("csv", lambda text: text.replace(text.splitlines()[1].split(",")[-1],
                                          "nan", 1)),
        ("csv", lambda text: text.replace(text.splitlines()[1].split(",")[-1],
                                          "inf", 1)),
        ("csv", lambda text: text.replace("\nTM,", "\nXX,", 1)),
        ("csv", lambda text: text.replace("\nTM,", "\nDIRICHLETS,", 1)),
        ("csv", lambda text: text.replace(",lambda", ",lam", 1)),
        ("csv", lambda text: text.replace(text.splitlines()[1], "TM,1,1", 1)),
        ("csv", lambda text: text.replace("\nTM,1,1,", "\nTM,-4,1,", 1)),
        ("csv", lambda text: text.replace("\nTM,1,1,", "\nTM,1,0,", 1)),
        ("csv", lambda text: text.replace("\nTM,1,1,", "\nTM,0,1,", 1)),
        ("csv", lambda text: text.replace("\nTM,1,1,", "\nTM,1.5,1,", 1)),
        ("meta", lambda meta: {**meta, "radius": -1}),
        ("meta", lambda meta: {k: v for k, v in meta.items()
                               if k != "omega_max"}),
        ("meta", lambda meta: {**meta, "radius": None}),
        ("meta", lambda meta: [meta]),
        ("meta-text", lambda text: text.replace('"', "", 1)),
        ("meta", lambda meta: {**meta, "radius": "abc"}),
        ("meta", lambda meta: {**meta, "radius": True}),
        ("meta-text", lambda text: "[" * 200_000),
    ], ids=["nan-lambda", "inf-lambda", "unknown-family", "long-family",
            "missing-column", "short-row", "negative-l", "zero-m", "em-l-0",
            "fractional-l",
            "negative-radius", "missing-key", "null-radius",
            "not-an-object", "malformed-json", "string-radius", "bool-radius",
            "deep-nesting"])
    def test_bad_mode_file_exits_1(self, tmp_path, capsys, edit):
        assert run(tmp_path, "modes", "--omega-max", 10) == 0
        kind, change = edit
        path = tmp_path / ("modes_em.csv" if kind == "csv"
                           else "modes_em.csv.meta.json")
        text = path.read_text()
        edited = (json.dumps(change(json.loads(text))) if kind == "meta"
                  else change(text))
        assert edited != text
        path.write_text(edited)
        capsys.readouterr()
        assert run(tmp_path, "trace", "--modes", tmp_path / "modes_em.csv",
                   "--t-lo", 0.05) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("modes_em.csv" if kind == "csv"
                else "modes_em.csv.meta.json") in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("text", [None, "schema 1\nfrobnicate 3\n"],
                             ids=["missing", "malformed"])
    def test_bad_surface_file_exits_1(self, tmp_path, capsys, text):
        surf = tmp_path / "shape.surf"
        if text is not None:
            surf.write_text(text)
        assert run(tmp_path, "coeffs", "--surface", f"file:{surf}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", [
        ("name fake-genus", "param a 1/0"),
        ("name fake-genus", "param a sqrt(-1)"),
        ("name fake-genus", "param a 2^2^2^2^2"),
        ("name fake-genus", "param a 1e308*10"),
        ("name fake-genus", "param a True"),
        ("domain u 0 pi", "domain u -1/0 pi"),
    ], ids=["div-zero", "domain-error", "overflow", "non-finite", "bool",
            "domain-bound"])
    def test_surface_value_error_exits_1(self, tmp_path, capsys, edit):
        surf = tmp_path / "s.surf"
        surf.write_text(BAD_TOPOLOGY_SURFACE.replace("genera 1", "genera 0")
                        .replace(*edit))
        assert run(tmp_path, "coeffs", "--surface", f"file:{surf}",
                   "--quad-order", 16) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and err.count("\n") == 1
        assert not (tmp_path / "coeffs.json").exists()

    def test_numerical_library_error_exits_2(self, tmp_path, capsys):
        surf = tmp_path / "flipped.surf"
        surf.write_text(FLIPPED_SPHERE_SURFACE)
        assert run(tmp_path, "coeffs", "--surface", f"file:{surf}",
                   "--quad-order", 16) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["diagnostics"] == {"type": "OrientationError"}
        assert "signed volume" in doc["error"]

    @pytest.mark.parametrize("target, error, argv", [
        ("cavityheat.spectrum.em_modes",
         BracketError("bracket lost its sign change"), ("modes",)),
        ("cavityheat.coefficients.compute_moments",
         SingularChartError("c", 0.0, 0.0, 0.0), ("coeffs",)),
        ("cavityheat.asymptotics.fit_coefficients",
         IllPosedFitError("condition number 1e12"),
         ("fit", "--trace", "trace.csv")),
        ("cavityheat.coefficients.compute_moments",
         EvaluationError("non-finite integrand"), ("coeffs",)),
    ], ids=["BracketError", "SingularChartError", "IllPosedFitError",
            "EvaluationError"])
    def test_numerical_class_exits_2(self, tmp_path, capsys, monkeypatch,
                                     target, error, argv):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, fail)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trace.csv").write_text("t,K,bound\n" + "".join(
            f"{t:.6g},1.0,0.0\n" for t in np.geomspace(0.01, 0.1, 12)))
        assert run(tmp_path, *argv) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["diagnostics"] == {"type": type(error).__name__}

    @pytest.mark.parametrize("column, value", [
        ("K", "nan"), ("K", "inf"), ("K", "-inf"), ("K", "abc"),
        ("t", "0"), ("t", "-0.1"), ("t", "nan"), ("t", "inf"),
        ("bound", "-1e-9"), ("bound", "nan"), ("bound", "inf"),
    ])
    def test_bad_trace_row_exits_1(self, small_run, tmp_path, capsys,
                                   column, value):
        lines = (small_run / "trace.csv").read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(row)
        trace = tmp_path / "bad_trace.csv"
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(tmp_path, "fit", "--trace", trace) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "data row 3 " in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("scale, message", [
        ((1e300, 1.0, 1.0), "non-finite weighted design"),
        ((1.0, 1e300, 1e300), r"non-finite t\^-1.5 fit .* \+- inf"),
    ], ids=["t-times-1e300", "K-and-bound-times-1e300"])
    def test_trace_beyond_the_floats_exits_2(self, small_run, tmp_path,
                                             capsys, scale, message):
        # every value is finite, but the weighted design or a standard
        # error of the fit is not: a numerical failure, and no fit.json
        lines = (small_run / "trace.csv").read_text().splitlines()
        rows = [",".join(repr(float(v) * k) for v, k in
                         zip(line.split(","), scale)) for line in lines[1:]]
        trace = tmp_path / "huge_trace.csv"
        trace.write_text("\n".join([lines[0], *rows]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "fit", "--trace", trace) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["diagnostics"] == {"type": "NumericalError"}
        assert doc["error"].startswith(f"{trace}: ")
        assert re.search(message, doc["error"])
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("lo, hi", [(0.02, 0.01)], ids=["above-hi"])
    def test_casimir_gamma_lo_outside_domain_writes_nothing(
            self, tmp_path, capsys, lo, hi):
        out = tmp_path / "out"
        assert run(tmp_path, "modes", "--omega-max", 20) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0
        capsys.readouterr()
        assert main(["casimir", "--modes", str(tmp_path / "modes_em.csv"),
                     "--coeffs", str(tmp_path / "coeffs.json"),
                     "--gamma-lo", str(lo), "--gamma-hi", str(hi),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --gamma-lo") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "casimir"])
    def test_uncalibrated_tail_exits_1(self, tmp_path, capsys, command):
        # too few modes to calibrate a truncation tail, which would
        # otherwise read as zero and pass every bound
        assert run(tmp_path, "modes", "--omega-max", 3) == 0
        assert run(tmp_path, "coeffs", "--quad-order", 16) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--modes", str(tmp_path / "modes_em.csv"),
                "--out", str(out)]
        if command == "casimir":
            argv += ["--coeffs", str(tmp_path / "coeffs.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mode list to omega_max 3: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("omega_max, detail", [
        (38.0, "lies below 38 of the 374 rows, which reach 39.9961"),
        (44.0, "lies beyond the end of the mode list: its calibrated "
               "density has c2 = -0.0887 <= 0"),
        (40.4, "lies 0.404 above the last row, more than the widest row "
               "gap 0.34 in the calibration window (20.2, 40.4]"),
    ], ids=["below-the-rows", "beyond-the-end", "beyond-the-last-gap"])
    @pytest.mark.parametrize("command", ["trace", "casimir"])
    def test_cutoff_that_disagrees_with_the_rows_exits_1(
            self, tmp_path, capsys, command, omega_max, detail):
        assert run(tmp_path, "modes", "--omega-max", 40) == 0
        assert run(tmp_path, "coeffs", "--quad-order", 16) == 0
        meta = tmp_path / "modes_em.csv.meta.json"
        meta.write_text(meta.read_text().replace(
            '"omega_max": 40.0', f'"omega_max": {omega_max}'))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--modes", str(tmp_path / "modes_em.csv"),
                "--out", str(out)]
        if command == "casimir":
            argv += ["--coeffs", str(tmp_path / "coeffs.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: modes_em.csv.meta.json: omega_max {omega_max:g} "
            f"{detail}\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """modes_em.csv, trace.csv and coeffs.json of a small pipeline."""
    out = tmp_path_factory.mktemp("small")
    for argv in (("modes", "--omega-max", 20),
                 ("trace", "--modes", out / "modes_em.csv",
                  "--t-lo", 0.06, "--t-hi", 0.2),
                 ("coeffs", "--surface", "sphere", "--quad-order", 16)):
        assert run(out, *argv) == 0
    return out


@pytest.mark.parametrize("argv, names", [
    (("trace", "--modes", "{modes}", "--t-lo", "nan"), "--t-lo"),
    (("trace", "--modes", "{modes}", "--t-points", "40"), "--t-points"),
    (("trace", "--modes", "{modes}", "--t-lo", "0.02", "--t-hi", "0.02"),
     "--t-lo 0.02 must be below --t-hi 0.02"),
    (("trace", "--modes", "{modes}", "--t-lo", "0.09", "--t-hi", "0.015"),
     "--t-lo 0.09 must be below --t-hi 0.015"),
    (("verify", "--points", "-1"), "--points"),
    (("verify", "--seed", "-1"), "--seed"),
    (("casimir", "--modes", "{modes}", "--coeffs", "{coeffs}",
      "--z-threshold", "2"), "--z-threshold"),
    (("casimir", "--modes", "{modes}", "--coeffs", "{coeffs}",
      "--gamma-points", "40"), "--gamma-points"),
    (("casimir", "--modes", "{modes}", "--coeffs", "{coeffs}",
      "--gamma-hi", "nan"), "--gamma-hi"),
    (("casimir", "--modes", "{modes}", "--coeffs", "{coeffs}",
      "--gamma-lo", "0"), "--gamma-lo"),
    (("modes", "--radius", "-1", "--omega-max", "20"), "--radius"),
    (("modes", "--omega-max", "nan"), "--omega-max"),
    (("coeffs", "--surface", "file:{surf}", "--radius", "7"), "--radius"),
    (("trace", "--modes", "{modes}", "--rtol", "1e-9"), "--rtol"),
    (("fit", "--trace", "{trace}", "--pin-a1-zero"), "--pin-a1-zero"),
    (("fit", "--trace", "{trace1}"), "trace1.csv has 1 data row:"),
    (("fit", "--trace", "{trace5}"), "trace5.csv has 5 data rows:"),
    (("fit", "--trace", "{trace0}"), "trace0.csv has 0 data rows:"),
    (("fit", "--trace", "{empty}"), "empty.csv is empty: no header, 0 data"),
    (("fit", "--trace", "{xy}"), "xy.csv: columns x,y; expected t,K,bound"),
    (("fit", "--trace", "{short}"), "short.csv: data row 2 has 2 fields, the "
     "header 3"),
    (("fit", "--trace", "{long}"), "long.csv: data row 2 has 4 fields, the "
     "header 3"),
], ids=["trace-t-lo-nan", "trace-removed-t-points", "trace-t-lo-equals-hi",
        "trace-t-lo-above-hi",
        "verify-points-negative", "verify-seed-negative",
        "casimir-removed-z-threshold", "casimir-removed-gamma-points",
        "casimir-gamma-hi-nan",
        "casimir-gamma-lo-zero",
        "modes-radius-negative",
        "modes-omega-max-nan", "coeffs-removed-radius",
        "trace-removed-rtol", "fit-removed-pin-a1-zero",
        "fit-one-row", "fit-five-rows", "fit-header-only", "fit-empty-file",
        "fit-other-columns", "fit-short-row", "fit-long-row"])
def test_bad_numeric_option_exits_1(small_run, tmp_path, capsys, argv,
                                    names):
    files = {k: small_run / f for k, f in (
        ("modes", "modes_em.csv"), ("trace", "trace.csv"),
        ("coeffs", "coeffs.json"))}
    files["surf"] = Path(__file__).parents[1] / "demos/squashed_torus.surf"
    # the trace cut to its header and first rows, and an empty file
    lines = files["trace"].read_text().splitlines(keepends=True)
    for rows in (0, 1, 5):
        files[f"trace{rows}"] = tmp_path / f"trace{rows}.csv"
        files[f"trace{rows}"].write_text("".join(lines[:rows + 1]))
    files["empty"] = tmp_path / "empty.csv"
    files["empty"].write_text("")
    # two of the trace's columns under other names
    files["xy"] = tmp_path / "xy.csv"
    files["xy"].write_text("x,y\n" + "".join(
        ",".join(line.split(",")[:2]) + "\n" for line in lines[1:]))
    # a trace whose second data row lost or gained a field, after a
    # comment line that numpy skips
    for name, row in (("short", "0.1,2.0\n"), ("long", "0.1,2.0,0.0,1.0\n")):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("".join(lines[:2]) + "# note\n" + row
                               + "".join(lines[2:]))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv]
                + ["--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and names in errors[0], errors
    assert not out.exists() or not any(out.iterdir())


class TestPipeline:
    def test_modes_trace_fit_roundtrip(self, tmp_path):
        assert run(tmp_path, "modes", "--p", "em", "--omega-max", 40) == 0
        modes_csv = tmp_path / "modes_em.csv"
        assert modes_csv.exists()
        assert (tmp_path / "modes_em.csv.meta.json").exists()

        assert run(tmp_path, "trace", "--modes", modes_csv,
                   "--t-lo", 0.015, "--t-hi", 0.09) == 0
        assert run(tmp_path, "fit", "--trace", tmp_path / "trace.csv") == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["a_n"]["a3"] == pytest.approx(0.625, abs=0.02)
        assert fit["a_n"]["a0"] == pytest.approx(0.18806, rel=2e-3)

    def test_ill_conditioned_fit_notes_its_condition(self, tmp_path, capsys):
        # a narrow t window leaves the fit near-degenerate: it still
        # succeeds, and one stderr line says how ill-conditioned it is
        assert run(tmp_path, "modes", "--omega-max", 40) == 0
        assert run(tmp_path, "trace", "--modes", tmp_path / "modes_em.csv",
                   "--t-lo", 0.05, "--t-hi", 0.09) == 0
        capsys.readouterr()
        assert run(tmp_path, "fit", "--trace", tmp_path / "trace.csv") == 0
        cond = json.loads((tmp_path / "fit.json").read_text())[
            "fit"]["condition_number"]
        assert cond > CONDITION_REPORT
        assert capsys.readouterr().err.splitlines() == [
            f"note: condition number {cond:.3g}"]

    def test_trace_below_minimum_usable_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "modes", "--p", "em", "--omega-max", 40) == 0
        modes_csv = tmp_path / "modes_em.csv"
        capsys.readouterr()
        assert run(tmp_path, "trace", "--modes", modes_csv,
                   "--t-lo", 1e-4) == 2
        doc = json.loads(capsys.readouterr().err)
        t_min = doc["diagnostics"]["minimum_usable"]
        assert doc["error"] and t_min > 1e-4
        assert run(tmp_path, "trace", "--modes", modes_csv,
                   "--t-lo", t_min) == 0

    def test_casimir_below_minimum_usable_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "modes", "--p", "em", "--omega-max", 30) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0
        capsys.readouterr()
        modes_csv = tmp_path / "modes_em.csv"
        assert run(tmp_path, "casimir", "--modes", modes_csv,
                   "--coeffs", tmp_path / "coeffs.json",
                   "--gamma-lo", 1e-6, "--gamma-hi", 1e-5) == 2
        doc = json.loads(capsys.readouterr().err)
        assert "usable gamma points" in doc["error"]
        assert doc["diagnostics"]["minimum_usable"] == min_usable_gamma(
            ModeList.from_csv(modes_csv), RegulatorKind.HEAT)

    @pytest.mark.parametrize("argv", [
        ("trace", "--t-lo", "1e-300"),
        ("casimir", "--gamma-lo", "1e-300"),
        ("casimir", "--gamma-lo", "1e-300", "--regulator", "sqrt"),
        ("casimir", "--gamma-lo", "1e300", "--gamma-hi", "1e305"),
    ], ids=["trace", "casimir-heat", "casimir-sqrt", "casimir-huge"])
    def test_tail_beyond_the_floats_exits_2(self, small_run, tmp_path,
                                            capsys, argv):
        # the truncation tail overflows the floats there (gamma ** 2
        # raises at both ends): an unusable point, not a traceback
        argv = [argv[0], "--modes", small_run / "modes_em.csv", *argv[1:]]
        if argv[0] == "casimir":
            argv += ["--coeffs", small_run / "coeffs.json"]
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        doc = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert doc["diagnostics"]["minimum_usable"] > 1e-3

    def test_casimir_coefficient_near_the_float_range_exits_2(
            self, small_run, tmp_path, capsys):
        # 1e308 is finite, so the file is valid; its prediction is not
        doc = json.loads((small_run / "coeffs.json").read_text())
        doc["em"]["values"][0] = 1e308
        coeffs = tmp_path / "huge.json"
        coeffs.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(out, "casimir", "--modes", small_run / "modes_em.csv",
                   "--coeffs", coeffs) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"].startswith("non-finite prediction inf")
        assert not (out / "casimir.json").exists()

    def test_scalar_modes(self, tmp_path):
        assert run(tmp_path, "modes", "--p", "0", "--omega-max", 12) == 0
        doc = json.loads((tmp_path / "modes_0.manifest.json").read_text())
        assert doc["modes"]["families"] == ["DIRICHLET"]

    def test_casimir_scan(self, tmp_path):
        assert run(tmp_path, "modes", "--p", "em", "--omega-max", 60) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere") == 0
        code = run(tmp_path, "casimir", "--modes", tmp_path / "modes_em.csv",
                   "--coeffs", tmp_path / "coeffs.json",
                   "--regulator", "heat")
        assert code == 0
        doc = json.loads((tmp_path / "casimir.json").read_text())
        assert doc["scan"]["finite"] is True
        assert doc["scan"]["z_threshold"] == FINITE_Z == 2.0
        assert doc["scan"]["detectable_half_power"] == \
            5.0 * doc["scan"]["components"]["gamma^-1/2"][1]
        assert doc["prediction"]["gamma^-1/2"] == 0.0
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("omega_max, regulator",
                             [(65, "heat"), (65, "sqrt"), (85, "sqrt")])
    def test_casimir_finite_matches_the_library(self, tmp_path, omega_max,
                                                regulator):
        # enumerated lists whose half-power z lies between 1 and 2 on the
        # CLI's grid: the CLI and remainder_scan give them one verdict
        assert run(tmp_path, "modes", "--omega-max", omega_max) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere") == 0
        modes_csv, coeffs = tmp_path / "modes_em.csv", tmp_path / "coeffs.json"
        assert run(tmp_path, "casimir", "--modes", modes_csv,
                   "--coeffs", coeffs, "--regulator", regulator) == 0
        doc = json.loads((tmp_path / "casimir.json").read_text())["scan"]
        pred = divergence_prediction(
            json.loads(coeffs.read_text())["em"]["values"],
            RegulatorKind(regulator))
        scan = remainder_scan(ModeList.from_csv(modes_csv), pred,
                              np.geomspace(1e-3, 5e-2, 40))
        assert (doc["finite"], doc["z_half_power"]) == (scan.finite,
                                                        scan.z_half)
        assert doc["finite"] is True

    def test_pipeline_determinism_modulo_timestamp(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        casimir = ["casimir", "--modes", "modes_em.csv",
                   "--coeffs", "coeffs.json"]
        steps = (["modes", "--omega-max", "40"],
                 ["trace", "--modes", "modes_em.csv", "--t-lo", "0.015",
                  "--t-hi", "0.09"],
                 ["fit", "--trace", "trace.csv"],
                 ["coeffs", "--surface", "sphere", "--quad-order", "16"],
                 casimir + ["--out", "heat"],
                 casimir + ["--regulator", "sqrt", "--out", "sqrt"])
        runs = []
        for chain in range(2):
            if chain:
                # the second chain runs an hour later, so a manifest clock
                # field that leaks into an input digest changes its bytes
                later = datetime.timedelta(hours=1)
                now, clock = datetime.datetime.now, time.time
                monkeypatch.setattr(cli, "time", SimpleNamespace(
                    time=lambda: clock() + later.total_seconds()))
                monkeypatch.setattr(cli, "datetime", SimpleNamespace(
                    datetime=SimpleNamespace(now=lambda tz: now(tz) + later),
                    timezone=datetime.timezone))
            for argv in steps:
                assert main(argv) == 0, argv
            # every file byte for byte, the manifest clock fields aside
            runs.append({
                str(path): re.sub(rb'"(timestamp_utc|wall_time_s)": [^,\n]*',
                                  rb'"\1": null', path.read_bytes())
                for path in sorted(Path().rglob("*")) if path.is_file()})
        assert runs[0] == runs[1]
        assert {"heat/casimir.json", "sqrt/casimir.json", "fit.json",
                "trace.csv", "modes_em.csv", "coeffs.json"} <= set(runs[0])

    def test_input_digest_ignores_the_input_manifest_clock(self, tmp_path):
        # a rerun coeffs.json differs only in its manifest's clock fields,
        # which must not reach the digest a casimir manifest records
        assert run(tmp_path, "modes", "--omega-max", 40) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0
        coeffs = tmp_path / "coeffs.json"

        def casimir_inputs():
            assert run(tmp_path, "casimir", "--modes",
                       tmp_path / "modes_em.csv", "--coeffs", coeffs) == 0
            doc = json.loads((tmp_path / "casimir.json").read_text())
            return doc["manifest"]["inputs"]

        before = casimir_inputs()
        doc = json.loads(coeffs.read_text())
        doc["manifest"].update(timestamp_utc="2001-01-01T00:00:00+00:00",
                               wall_time_s=123.456)
        coeffs.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert casimir_inputs() == before and str(coeffs) in before

    def test_input_digests_cover_the_sidecar(self, tmp_path):
        # the sidecar's omega_max sets every truncation tail, so an edit
        # to it alone must show in the manifests that read the list
        assert run(tmp_path, "modes", "--omega-max", 40) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0

        def inputs(casimir_exit):
            modes = tmp_path / "modes_em.csv"
            assert run(tmp_path, "trace", "--modes", modes,
                       "--t-lo", 0.015, "--t-hi", 0.09) == 0
            assert run(tmp_path, "casimir", "--modes", modes,
                       "--coeffs", tmp_path / "coeffs.json") == casimir_exit
            trace = json.loads((tmp_path / "trace.manifest.json").read_text())
            casimir = json.loads((tmp_path / "casimir.json").read_text())
            return trace["inputs"], casimir["manifest"]["inputs"]

        before = inputs(0)
        meta = tmp_path / "modes_em.csv.meta.json"
        meta.write_text(meta.read_text().replace('"omega_max": 40.0',
                                                 '"omega_max": 40.2'))
        # 40.2 lies within the widest row gap (0.34) above the last row,
        # 39.9961, so the list still loads and only the sidecar changed
        after = inputs(0)
        for old, new in zip(before, after):
            changed = {k for k in old.keys() | new.keys()
                       if old.get(k) != new.get(k)}
            assert changed == {str(meta)}

    def test_verify_passes(self, tmp_path):
        assert run(tmp_path, "verify", "--seed", 7, "--points", 2,
                   "--quad-order", 24) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["failures"] == []
        assert all(doc["report"]["exact_relations"].values())

    def test_verify_gauss_bonnet_rule_matches_coeffs(self, tmp_path):
        # at quadrature order 6 the ellipsoid's total-curvature residual
        # is above 1e-8 but within ten quadrature errors: both commands
        # pass it by the same rule
        assert run(tmp_path, "verify", "--quad-order", 6, "--points", 2) == 0
        assert run(tmp_path, "coeffs", "--surface", "ellipsoid",
                   "--quad-order", 6) == 0
        gb = json.loads((tmp_path / "coeffs.json").read_text())["gauss_bonnet"]
        report = json.loads((tmp_path / "verify.json").read_text())["report"]
        residuals = report["gauss_bonnet"]
        assert residuals["ellipsoid(1.0,1.3,1.7)"] == gb["residual"]
        assert 1e-8 < abs(gb["residual"]) <= gb["tolerance"]

    def test_verify_catches_a_planted_relative_error(self, tmp_path, capsys,
                                                      monkeypatch):
        # 1e-8 of one right-side term is below any fixed residual bound
        # of 1e-6 but far above the rounding model of the residuals; it
        # is planted at every point of a batch of 2 or of 5
        plant_tr_Pab_Pab(monkeypatch, 1e-8)
        for points in (2, 5):
            assert run(tmp_path / str(points), "verify", "--seed", 7,
                       "--points", points, "--quad-order", 24) == 2
            doc = json.loads(capsys.readouterr().err)
            assert doc["diagnostics"]["failures"] == ["identity:ellipsoid",
                                                      "identity:torus"]


class TestVerdictExits:
    """A failed verdict exits 2 with one JSON line on standard error,
    after its artifact is written."""

    def test_casimir_not_finite(self, tmp_path, capsys):
        # a_2 dropped from the report leaves a gamma^-1/2 power in the
        # sqrt-regulated sum that the prediction does not carry
        assert run(tmp_path, "modes", "--omega-max", 90) == 0
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 0
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        doc["em"]["values"][2] = 0
        coeffs = tmp_path / "planted.json"
        coeffs.write_text(json.dumps(doc))
        modes_csv, out = tmp_path / "modes_em.csv", tmp_path / "out"
        capsys.readouterr()
        assert run(out, "casimir", "--modes", modes_csv, "--coeffs", coeffs,
                   "--regulator", "sqrt") == 2
        scan = remainder_scan(
            ModeList.from_csv(modes_csv),
            divergence_prediction(doc["em"]["values"], RegulatorKind.SQRT),
            np.geomspace(1e-3, 5e-2, 40))
        assert scan.z_half == pytest.approx(42.87, abs=0.01)
        assert capsys.readouterr().err == json.dumps(
            {"error": "half-power component incompatible with a finite "
                      "limit",
             "diagnostics": {"half_power": list(scan.half_power),
                             "z": scan.z_half}}, sort_keys=True) + "\n"
        report = json.loads((out / "casimir.json").read_text())
        assert report["scan"]["finite"] is False

    def test_coeffs_exact_consistency_failure(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setitem(tables.EM_EXACT, 0, {"volume": Fraction(3)})
        assert run(tmp_path, "coeffs", "--surface", "sphere",
                   "--quad-order", 16) == 2
        assert capsys.readouterr().err == (
            '{"diagnostics": {"failed_relations": ["a0[volume]:p1-p0", '
            '"a0[volume]:p2-p3"]}, "error": "exact consistency failure"}\n')
        doc = json.loads((tmp_path / "coeffs.json").read_text())
        assert doc["consistency"]["a0[volume]:p1-p0"] is False

    def test_verify_failures(self, tmp_path, capsys, monkeypatch):
        # a wrong table entry fails two exact relations per topology, and
        # a zero tolerance fails every total-curvature residual
        monkeypatch.setitem(tables.EM_EXACT, 0, {"volume": Fraction(3)})
        monkeypatch.setattr("cavityheat.coefficients.gauss_bonnet_tolerance",
                            lambda residual: 0.0)
        assert run(tmp_path, "verify", "--points", 2, "--quad-order", 8) == 2
        failures = [f"{topo}:a0[volume]:{route}"
                    for topo in ("sphere", "torus")
                    for route in ("p1-p0", "p2-p3")] + [
            f"gauss_bonnet:{m.name}"
            for m in (sphere(1.0), ellipsoid(1.0, 1.3, 1.7), torus(2.0, 0.5))]
        captured = capsys.readouterr()
        assert captured.err == json.dumps(
            {"diagnostics": {"failures": failures},
             "error": "verification failures"}) + "\n"
        assert "FAIL sphere:a0[volume]:p1-p0\n" in captured.out
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["failures"] == failures
