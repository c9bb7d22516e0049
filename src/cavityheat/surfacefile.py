"""Declarative surface-definition files.

A plain-text format for user-defined closed surfaces: parameter
domains, periodicity, the embedding as expression strings, and the
declared topology.  Grammar of the embedding expressions:

    expression := term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := base ('^' exponent)?          # '**' also accepted
    base       := number | name | function '(' expression ')'
                  | '(' expression ')' | ('+'|'-') base
    function   := sin | cos | sinh | cosh | exp | sqrt
    name       := u | v | pi | <declared parameter>

File layout (keyword lines; '#' starts a comment; one chart block per
boundary patch):

    schema 1
    name my-surface
    components 1
    genera 0                  # one integer per component

    param a 1.0               # optional named constants

    chart                     # optionally: chart <component-index>
      domain u 0 pi
      domain v 0 2*pi
      periodic v
      x a*sin(u)*cos(v)
      y a*sin(u)*sin(v)
      z a*cos(u)
      normal outward          # r_u x r_v points out of the solid
    end

``normal`` declares which way the raw cross product r_u x r_v points
("outward" flips it so the stored normal is inward).  Parse errors
report 1-based line and column.  A parameter name that is not an
identifier, is a Python keyword, is u, v, pi or a function of the
grammar, or was declared before is a parse error at the name.
Parameters, domain bounds and every constant sub-expression are
evaluated to floats as they are read, so a division by zero, an
overflow, a math-domain error, a non-finite value or a bool literal in
them is a parse error at its position.
"""

from __future__ import annotations

import keyword
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ExpressionError, SurfaceFileError
from .geometry import SurfaceChart, SurfaceModel, TopologyInfo
from .geometry.charts import _FUNCTIONS, compile_expression

__all__ = ["SurfaceFileError", "load_surface", "loads_surface"]

SCHEMA_VERSION = 1
# names an expression already gives a meaning: no parameter may take one
_RESERVED = {"u", "v", "pi", *_FUNCTIONS}


def _parse_expression(text, names, line, col0, variables=()):
    """Compile one expression string found at (line, col0).

    Without ``variables`` the result is a float: every parameter and
    domain bound is evaluated here, and a division by zero, overflow,
    math-domain error or non-finite value is reported at its position.
    """
    try:
        return compile_expression(text, names, variables)
    except ExpressionError as err:
        raise SurfaceFileError(err.args[0], line, col0 + err.offset) from None


@dataclass
class _ChartBlock:
    line: int
    component: int = 1
    domain: dict = None
    periodic: set = None
    xyz: dict = None
    normal: str = "inward"

    def __post_init__(self):
        self.domain = {}
        self.periodic = set()
        self.xyz = {}


def _columns(line, parts):
    """1-based column of each of ``parts``, the words of ``line``.

    Each word is searched for after the one before it, so a word that
    also occurs inside an earlier one (the ``a`` of ``domain``) gets
    its own column.
    """
    cols, at = [], 0
    for part in parts:
        at = line.index(part, at)
        cols.append(at + 1)
        at += len(part)
    return cols


def _tokenise(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield i, line


def loads_surface(text, name="surface") -> SurfaceModel:
    """Parse a surface definition from a string."""
    meta = {"schema": None, "name": name, "components": None, "genera": None}
    params = {}
    charts = []
    block = None

    for lineno, line in _tokenise(text):
        parts = line.split()
        cols = _columns(line, parts)
        key = parts[0]
        col0 = cols[0]

        if block is not None:
            if key == "end":
                charts.append(block)
                block = None
                continue
            _chart_line(block, line, parts, cols, lineno, params)
            continue

        if key == "schema":
            meta["schema"] = _int_field(parts, cols, lineno, "schema")
        elif key == "name":
            if len(parts) < 2:
                raise SurfaceFileError("name needs a value", lineno, col0)
            meta["name"] = " ".join(parts[1:])
        elif key == "components":
            meta["components"] = _int_field(parts, cols, lineno,
                                            "components")
        elif key == "genera":
            genera_line = lineno
            genera = []
            for part, col in zip(parts[1:], cols[1:]):
                try:
                    genera.append(int(part))
                except ValueError:
                    raise SurfaceFileError("genera must be integers",
                                           lineno, col) from None
            meta["genera"] = tuple(genera)
            if not meta["genera"]:
                raise SurfaceFileError("genera needs at least one integer",
                                       lineno, col0)
        elif key == "param":
            if len(parts) != 3:
                raise SurfaceFileError("expected: param <name> <expression>",
                                       lineno, col0)
            pname = parts[1]
            _check_param_name(pname, params, lineno, cols[1])
            names = {"pi": math.pi, **params}
            params[pname] = _parse_expression(parts[2], names, lineno,
                                              cols[2])
        elif key == "chart":
            block = _ChartBlock(line=lineno)
            if len(parts) == 2:
                try:
                    block.component = int(parts[1])
                except ValueError:
                    raise SurfaceFileError(
                        "chart component must be an integer", lineno,
                        cols[1]) from None
        else:
            raise SurfaceFileError(f"unknown directive {key!r}", lineno, col0)

    if block is not None:
        raise SurfaceFileError("chart block not closed with 'end'",
                               block.line, 1)
    if meta["schema"] != SCHEMA_VERSION:
        raise SurfaceFileError(
            f"missing or unsupported 'schema' (expected {SCHEMA_VERSION})", 1)
    if meta["components"] is None or meta["genera"] is None:
        raise SurfaceFileError("both 'components' and 'genera' are required", 1)
    if not charts:
        raise SurfaceFileError("no chart blocks found", 1)

    try:
        topology = TopologyInfo(meta["components"], meta["genera"])
    except ValueError as err:
        raise SurfaceFileError(str(err), genera_line) from None
    built = []
    for k, blk in enumerate(charts):
        if not 1 <= blk.component <= topology.components:
            raise SurfaceFileError(
                f"chart component must be in 1..{topology.components}",
                blk.line)
        built.append(_build_chart(blk, f"{meta['name']}[{k}]"))
    return SurfaceModel(
        name=meta["name"],
        charts=tuple(built),
        topology=topology,
    )


def _check_param_name(name, params, lineno, col):
    if not name.isidentifier():
        problem = "is not an identifier"
    elif keyword.iskeyword(name) or name in _RESERVED:
        problem = "is reserved"
    elif name in params:
        problem = "is already declared"
    else:
        return
    raise SurfaceFileError(f"parameter name {name!r} {problem}", lineno, col)


def _int_field(parts, cols, lineno, what):
    if len(parts) != 2:
        raise SurfaceFileError(f"expected: {what} <integer>", lineno,
                               cols[0])
    try:
        return int(parts[1])
    except ValueError:
        raise SurfaceFileError(f"{what} must be an integer", lineno,
                               cols[1]) from None


def _chart_line(block, line, parts, cols, lineno, params):
    key, col0 = parts[0], cols[0]
    names = {"pi": math.pi, **params}
    if key == "domain":
        if len(parts) != 4 or parts[1] not in ("u", "v"):
            raise SurfaceFileError(
                "expected: domain u|v <lo> <hi>", lineno, col0)
        lo = _parse_expression(parts[2], names, lineno, cols[2])
        hi = _parse_expression(parts[3], names, lineno, cols[3])
        if lo >= hi:
            raise SurfaceFileError("domain lower bound must be < upper",
                                   lineno, col0)
        block.domain[parts[1]] = (lo, hi)
    elif key == "periodic":
        if len(parts) != 2 or parts[1] not in ("u", "v"):
            raise SurfaceFileError("expected: periodic u|v", lineno, col0)
        block.periodic.add(parts[1])
    elif key in ("x", "y", "z"):
        if len(parts) < 2:
            raise SurfaceFileError(f"{key} needs an expression", lineno, col0)
        block.xyz[key] = _parse_expression(
            line[cols[1] - 1:], names, lineno, cols[1], ("u", "v"))
    elif key == "normal":
        if len(parts) != 2 or parts[1] not in ("inward", "outward"):
            raise SurfaceFileError("expected: normal inward|outward",
                                   lineno, col0)
        block.normal = parts[1]
    else:
        raise SurfaceFileError(f"unknown chart directive {key!r}",
                               lineno, col0)


def _build_chart(block, name):
    for axis in ("u", "v"):
        if axis not in block.domain:
            raise SurfaceFileError(f"chart is missing 'domain {axis}'",
                                   block.line)
    for comp in ("x", "y", "z"):
        if comp not in block.xyz:
            raise SurfaceFileError(f"chart is missing '{comp}'", block.line)
    return SurfaceChart(
        name=name,
        u_range=block.domain["u"], v_range=block.domain["v"],
        periodic_u="u" in block.periodic,
        periodic_v="v" in block.periodic,
        normal_sign=1 if block.normal == "inward" else -1,
        xyz=(block.xyz["x"], block.xyz["y"], block.xyz["z"]),
    )


def load_surface(path) -> SurfaceModel:
    """Parse a surface definition file."""
    path = Path(path)
    return loads_surface(path.read_text(), name=path.stem)
