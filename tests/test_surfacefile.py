"""Declarative surface files: parsing, validation, error positions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityheat import (
    QuadratureSpec,
    SurfaceFileError,
    enclosed_volume,
    loads_surface,
    surface_integral,
)
from cavityheat.geometry.curvature import curvature_grid

ELLIPSOID = """\
schema 1
name stretched
components 1
genera 0

param a 1.0
param b 1.3

chart
  domain u 0 pi
  domain v 0 2*pi
  periodic v
  x a*sin(u)*cos(v)      # comment after an expression
  y b*sin(u)*sin(v)
  z 1.7*cos(u)
  normal outward
end
"""

TORUS = """\
schema 1
name ring
components 1
genera 1
param R 2.0
param r 0.5
chart
  domain u 0 2*pi
  domain v 0 2*pi
  periodic u
  periodic v
  x (R + r*cos(u))*cos(v)
  y (R + r*cos(u))*sin(v)
  z r*sin(u)
  normal inward
end
"""


class TestParsing:
    def test_ellipsoid_volume_and_curvature(self):
        model = loads_surface(ELLIPSOID)
        q = QuadratureSpec(order=24)
        assert enclosed_volume(model, q).value == pytest.approx(
            4 * math.pi * 1.0 * 1.3 * 1.7 / 3, rel=1e-10)
        total = surface_integral(
            model, lambda ch, U, V: curvature_grid(ch, U, V)["detL"], q)
        assert total.value == pytest.approx(4 * math.pi, abs=1e-9)

    def test_torus_genus_declared(self):
        model = loads_surface(TORUS)
        assert model.topology.genera == (1,)
        q = QuadratureSpec(order=16)
        assert enclosed_volume(model, q).value == pytest.approx(
            2 * math.pi**2 * 2.0 * 0.25, rel=1e-10)

    def test_power_operator_both_spellings(self):
        both = """\
schema 1
components 1
genera 0
chart
  domain u 0 pi
  domain v 0 2*pi
  periodic v
  x sin(u)^2*cos(v) + sin(u)*cos(v)*(1 - sin(u))
  y sin(u)**2*sin(v) + sin(u)*sin(v)*(1 - sin(u))
  z cos(u)
  normal outward
end
"""
        model = loads_surface(both)
        # both spellings reduce to the round sphere
        q = QuadratureSpec(order=16)
        assert enclosed_volume(model, q).value == pytest.approx(
            4 * math.pi / 3, rel=1e-10)


class TestErrors:
    def err(self, text):
        with pytest.raises(SurfaceFileError) as e:
            loads_surface(text)
        return e.value

    def test_unknown_name_position(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 pi\n  domain v 0 2*pi\n"
                "  x sin(q)\n  y u\n  z v\nend")
        err = self.err(text)
        assert err.line == 7
        assert "unknown name 'q'" in str(err)

    def test_unknown_function(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 pi\n  domain v 0 2*pi\n"
                "  x tan(u)\n  y u\n  z v\nend")
        assert "unknown function 'tan'" in str(self.err(text))

    def test_syntax_error_reports_column(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 pi\n  domain v 0 2*pi\n"
                "  x u*\n  y u\n  z v\nend")
        err = self.err(text)
        assert err.line == 7
        assert err.column >= 5

    def test_missing_schema(self):
        assert "schema" in str(self.err("components 1\ngenera 0\n"))

    def test_unclosed_chart(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 1\n  domain v 0 1\n  x u\n  y v\n  z u")
        assert "not closed" in str(self.err(text))

    def test_missing_component_fields(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 1\n  domain v 0 1\n  x u\n  y v\nend")
        assert "missing 'z'" in str(self.err(text))

    def test_genus_count_mismatch(self):
        text = ("schema 1\ncomponents 2\ngenera 0\nchart\n"
                "  domain u 0 1\n  domain v 0 1\n  x u\n  y v\n  z u+v\nend")
        with pytest.raises(ValueError, match="genera"):
            loads_surface(text)

    def test_reversed_domain(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 1 0\n  domain v 0 1\n  x u\n  y v\n  z u\nend")
        assert "lower bound" in str(self.err(text))

    def test_calls_with_attributes_rejected(self):
        text = ("schema 1\ncomponents 1\ngenera 0\nchart\n"
                "  domain u 0 1\n  domain v 0 1\n"
                "  x os.getcwd()\n  y v\n  z u\nend")
        assert "plain function calls" in str(self.err(text))


def with_line(line, chart_line="  x u"):
    """A valid sphere-like file with one extra top-level line and one
    replaced chart line."""
    return ("schema 1\ncomponents 1\ngenera 0\n" + line + "\nchart\n"
            "  domain u 0 pi\n  domain v 0 2*pi\n" + chart_line + "\n"
            "  y v\n  z u*v\nend\n")


# values evaluated at parse time: (line, message, line number, column)
VALUE_ERRORS = {
    "div-zero": (with_line("param a 1/0"), "division by zero", 4, 9),
    "domain-error": (with_line("param a sqrt(-1)"), "math domain", 4, 9),
    "overflow": (with_line("param a 2^2^2^2^2"), "overflows", 4, 9),
    "non-finite": (with_line("param a 1e308*10"), "non-finite", 4, 9),
    "bool": (with_line("param a True"), "unsupported literal True", 4, 9),
    # the name 'a' also occurs inside the keyword 'param'
    "unknown-name": (with_line("param b a"), "unknown name 'a'", 4, 9),
    "domain-bound": (with_line("", "  domain u -1/0 pi"), "division by zero",
                     8, 12),
    "variable-by-zero": (with_line("", "  x u/0"), "division by zero", 8, 5),
}


class TestParseTimeValues:
    @pytest.mark.parametrize("case", VALUE_ERRORS)
    def test_reported_at_position(self, case):
        text, message, line, column = VALUE_ERRORS[case]
        with pytest.raises(SurfaceFileError, match=message) as err:
            loads_surface(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_parameters_are_floats(self):
        model = loads_surface(with_line("param a 1/4", "  x a*u"))
        chart = model.charts[0]
        assert chart.deriv(1, 0)(1.0, 1.0)[0] == 0.25

    @pytest.mark.parametrize("levels", [300, 301, 5000])
    def test_long_sums(self, levels):
        # a sum 300 operators deep compiles and evaluates; deeper ones
        # are parse errors, never a RecursionError
        terms = levels + 1
        text = with_line("", "  x " + "+".join(["u"] * terms))
        if levels > 300:
            with pytest.raises(SurfaceFileError, match="nested more than"):
                loads_surface(text)
            return
        chart = loads_surface(text).charts[0]
        assert chart.deriv(1, 0)(0.5, 0.5)[0] == terms
        assert curvature_grid(chart, 0.5, 0.5)["w"] > 0

    def test_topology_errors_are_file_errors(self):
        text = with_line("").replace("genera 0", "genera 0 1")
        with pytest.raises(SurfaceFileError, match="genera") as err:
            loads_surface(text)
        assert err.value.line == 3
        with pytest.raises(SurfaceFileError, match="component"):
            loads_surface(with_line("").replace("chart\n", "chart 2\n"))


@pytest.mark.parametrize("line, problem, lineno, column", [
    ("param pi 3", "'pi' is reserved", 4, 7),
    ("param u 5", "'u' is reserved", 4, 7),
    ("param v 5", "'v' is reserved", 4, 7),
    ("param sin 2", "'sin' is reserved", 4, 7),
    ("param   sqrt 2", "'sqrt' is reserved", 4, 9),
    ("param if 1", "'if' is reserved", 4, 7),
    ("param True 1", "'True' is reserved", 4, 7),
    ("param 2x 1", "'2x' is not an identifier", 4, 7),
    ("param a-b 1", "'a-b' is not an identifier", 4, 7),
    ("param a 1\nparam a 2", "'a' is already declared", 5, 7),
], ids=["pi", "u", "v", "function", "function-spaced", "keyword",
        "bool-literal", "leading-digit", "operator", "repeated"])
def test_parameter_names_are_free_identifiers(line, problem, lineno,
                                              column):
    with pytest.raises(SurfaceFileError,
                       match=f"parameter name {problem}") as err:
        loads_surface(with_line(line))
    assert (err.value.line, err.value.column) == (lineno, column)


# a word that also occurs inside the keyword before it is reported at
# its own column: (file, message, line number, column)
WORD_COLUMNS = {
    "domain-lo": (with_line("", "  domain u a pi"), "unknown name 'a'", 8, 12),
    "domain-hi": (with_line("", "  domain u 0 a"), "unknown name 'a'", 8, 14),
    "genera": (with_line("").replace("genera 0", "genera e"),
               "genera must be integers", 3, 8),
    "genera-second": (with_line("").replace("genera 0", "genera 0 e"),
                      "genera must be integers", 3, 10),
    "chart": (with_line("").replace("chart\n", "chart a\n"),
              "chart component must be an integer", 5, 7),
    "schema": (with_line("").replace("schema 1", "schema s"),
               "schema must be an integer", 1, 8),
    "components-count": (with_line("").replace("components 1",
                                                "  components 1 2"),
                         "expected: components <integer>", 2, 3),
    "expression": (with_line("", "  x x"), "unknown name 'x'", 8, 5),
}


@pytest.mark.parametrize("case", WORD_COLUMNS)
def test_errors_point_at_the_word(case):
    text, message, line, column = WORD_COLUMNS[case]
    with pytest.raises(SurfaceFileError, match=message) as err:
        loads_surface(text)
    assert (err.value.line, err.value.column) == (line, column)


EXPRESSION_TOKENS = ("u", "v", "pi", "a", "0", "1", "2.5", "1e308", "True",
                     "+", "-", "*", "/", "^", "**", "(", ")", "sin(",
                     "sqrt(", "exp(", "cosh(", "tan(", ",", " ", ".", "x")
DIRECTIVES = ("schema 1", "components 1", "components 2", "genera 0",
              "genera -1", "name n", "param", "chart", "chart 0", "domain",
              "domain u", "periodic u", "periodic w", "x", "normal inward",
              "normal up", "end", "frobnicate")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DIRECTIVES),
                          st.lists(st.sampled_from(EXPRESSION_TOKENS),
                                   max_size=8).map("".join)),
                max_size=12),
       st.integers(0, 12))
def test_fuzzed_files_raise_only_surface_file_errors(lines, at):
    """Fuzzed directives and expressions, alone and spliced into a valid
    file, parse or raise SurfaceFileError, never anything else."""
    fuzz = [f"{key} {expr}" for key, expr in lines]
    valid = with_line("param a 2").splitlines()
    for text in ("\n".join(fuzz), "\n".join(valid[:at] + fuzz + valid[at:])):
        try:
            loads_surface(text)
        except SurfaceFileError:
            pass


def test_load_from_path(tmp_path):
    p = tmp_path / "shape.surf"
    p.write_text(ELLIPSOID)
    from cavityheat import load_surface

    model = load_surface(p)
    # the in-file 'name' directive wins over the filename-derived default
    assert model.name == "stretched"
