"""Import footprint: the lazy package and what each subcommand loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavityheat
import cavityheat.errors as errors
from cavityheat.cli import main

SRC = str(Path(cavityheat.__file__).resolve().parents[1])
HEAVY = ("numpy", "scipy", "scipy.integrate", "sympy")


def loaded_after(code, cwd, modules=HEAVY):
    """Those of ``modules`` a fresh interpreter holds after running code."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_package_import_loads_no_numerics(tmp_path):
    code = "import cavityheat, cavityheat.errors"
    assert loaded_after(code, tmp_path) == set()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    for argv in (("modes", "--omega-max", "40"),
                 ("trace", "--modes", out / "modes_em.csv",
                  "--t-lo", "0.015", "--t-hi", "0.09"),
                 ("coeffs", "--surface", "sphere", "--quad-order", "16")):
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 0
    return out


# only modes evaluates a Bessel function, so only modes loads scipy
@pytest.mark.parametrize("argv, absent", [
    (["fit", "--trace", "trace.csv"], {"scipy", "sympy"}),
    (["modes", "--omega-max", "20", "--out", "small"],
     {"sympy", "scipy.integrate"}),
    (["trace", "--modes", "modes_em.csv", "--t-lo", "0.015",
      "--t-hi", "0.09"], {"scipy", "sympy"}),
    (["casimir", "--modes", "modes_em.csv", "--coeffs", "coeffs.json",
      "--regulator", "sqrt"], {"scipy", "sympy"}),
    (["coeffs", "--surface", "torus", "--quad-order", "16", "--out", "c"],
     {"scipy", "sympy"}),
    (["verify", "--points", "2", "--quad-order", "16", "--out", "v"],
     {"scipy", "sympy"}),
], ids=["fit", "modes", "trace", "casimir", "coeffs", "verify"])
def test_subcommand_footprint(pipeline_dir, argv, absent):
    code = f"from cavityheat.cli import main\nassert main({argv!r}) == 0"
    assert not loaded_after(code, pipeline_dir) & absent


def test_coeffs_loads_no_spectral_layer(pipeline_dir):
    # the a_3 reports of a coefficient report live in coefficients
    code = ("from cavityheat.cli import main\nassert main(['coeffs', "
            "'--surface', 'torus', '--quad-order', '16', '--out', 'c']) == 0")
    layers = ("cavityheat.coefficients", "cavityheat.casimir",
              "cavityheat.spectrum", "cavityheat.asymptotics")
    assert loaded_after(code, pipeline_dir, layers) == {
        "cavityheat.coefficients"}


PACKAGE_LAYERS = tuple(f"cavityheat.{m}" for m in (
    "cli", "errors", "spectrum", "asymptotics", "casimir", "coefficients",
    "tables", "surfacefile", "geometry"))


# spectrum reads asymptotics only inside resolvent2_expansion, so trace and
# modes load no fit layer
@pytest.mark.parametrize("argv, layers", [
    (["modes", "--omega-max", "20", "--out", "small"],
     {"cli", "errors", "spectrum"}),
    (["trace", "--modes", "modes_em.csv", "--t-lo", "0.015",
      "--t-hi", "0.09", "--out", "t"], {"cli", "errors", "spectrum"}),
    (["fit", "--trace", "trace.csv", "--out", "f"],
     {"cli", "errors", "asymptotics"}),
    (["casimir", "--modes", "modes_em.csv", "--coeffs", "coeffs.json",
      "--out", "c"], {"cli", "errors", "spectrum", "asymptotics", "casimir"}),
], ids=["modes", "trace", "fit", "casimir"])
def test_subcommand_package_layers(pipeline_dir, argv, layers):
    code = f"from cavityheat.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, pipeline_dir, PACKAGE_LAYERS) == {
        f"cavityheat.{m}" for m in layers}


def test_scipy_loads_at_the_first_bessel_evaluation(tmp_path):
    code = "from cavityheat.spectrum import ModeList, heat_trace"
    assert "scipy" not in loaded_after(code, tmp_path)
    code += "\nfrom cavityheat import em_modes\nem_modes(5.0)"
    assert "scipy" in loaded_after(code, tmp_path)


def test_surface_file_loads_no_sympy(tmp_path):
    code = ("from cavityheat import loads_surface\n"
            "loads_surface('schema 1\\ncomponents 1\\ngenera 0\\n"
            "param a 2\\nchart\\n domain u 0 pi\\n domain v 0 2*pi\\n"
            " x a*sin(u)*cos(v)\\n y sin(u)*sin(v)\\n z cos(u)\\nend')")
    assert "sympy" not in loaded_after(code, tmp_path)


def test_every_public_name_resolves():
    for name in cavityheat.__all__:
        getattr(cavityheat, name)
    assert set(dir(cavityheat)) >= set(cavityheat.__all__)
    namespace = {}
    exec("from cavityheat import *", namespace)
    assert set(namespace) >= set(cavityheat.__all__)
    with pytest.raises(AttributeError):
        cavityheat.no_such_name


@pytest.mark.parametrize("name, module", [
    ("ChartError", "cavityheat.geometry.charts"),
    ("SingularChartError", "cavityheat.geometry"),
    ("EvaluationError", "cavityheat.geometry.quadrature"),
    ("OrientationError", "cavityheat.geometry"),
    ("IllPosedFitError", "cavityheat.asymptotics"),
    ("CutoffTooLowError", "cavityheat.spectrum"),
    ("BracketError", "cavityheat.spectrum"),
    ("SurfaceFileError", "cavityheat.surfacefile"),
])
def test_error_classes_are_shared(name, module):
    assert getattr(importlib.import_module(module), name) \
        is getattr(errors, name)


@pytest.mark.parametrize("name, base", [
    ("CutoffTooLowError", ValueError),
    ("BracketError", RuntimeError),
    ("OrientationError", ValueError),
    ("EvaluationError", ValueError),
    ("IllPosedFitError", ValueError),
    ("SingularChartError", errors.ChartError),
])
def test_numerical_classes_share_one_base(name, base):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.NumericalError) and issubclass(cls, base)


def test_usage_classes_are_not_numerical():
    for cls in (errors.ChartError, errors.ExpressionError,
                errors.SurfaceFileError):
        assert not issubclass(cls, errors.NumericalError)
    assert errors.CutoffTooLowError("m", 0.5).diagnostics == {
        "minimum_usable": 0.5}
    assert errors.BracketError("m").diagnostics == {"type": "BracketError"}
    err = errors.NumericalError("m", {"failures": ["x"]})
    assert (str(err), err.diagnostics) == ("m", {"failures": ["x"]})
