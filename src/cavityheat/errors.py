"""Exception classes of the package.

This module imports nothing, so the command-line front end can catch
every library error without loading the layers that raise it.  Each
layer re-exports the classes it raises under its own name.
"""


class NumericalError(Exception):
    """A numerical failure, as opposed to a usage error; the command line
    exits 2 with ``diagnostics`` on standard error: the dict it was given,
    else ``{"type": <class name>}``."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = ({"type": type(self).__name__}
                            if diagnostics is None else diagnostics)


class ChartError(ValueError):
    """Invalid chart definition or evaluation request."""


class ExpressionError(ChartError):
    """An embedding expression that does not compile; ``offset`` is the
    0-based position of the offending part in the expression."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(message)


class SingularChartError(NumericalError, ChartError):
    """The immersion degenerates (|r_u x r_v| ~ 0) at a parameter point."""

    def __init__(self, name, u, v, sine):
        self.point = (float(u), float(v))
        super().__init__(
            f"chart {name!r} is singular near (u, v) = ({u:.6g}, {v:.6g}): "
            f"|r_u x r_v| / (|r_u||r_v|) = {sine:.3g}"
        )


class EvaluationError(NumericalError, ValueError):
    """An integrand produced a non-finite value at a quadrature node."""


class OrientationError(NumericalError, ValueError):
    """Signed volume came out negative: chart normals are not inward."""


class IllPosedFitError(NumericalError, ValueError):
    """Design matrix condition number beyond the usable limit."""


class CutoffTooLowError(NumericalError, ValueError):
    """The requested trace needs modes beyond the enumeration cutoff."""

    def __init__(self, message, minimum_usable):
        super().__init__(message, {"minimum_usable": minimum_usable})
        self.minimum_usable = minimum_usable


class BracketError(NumericalError, RuntimeError):
    """A root bracket lost its sign change: internal contract violation."""


class SurfaceFileError(ValueError):
    """Parse or validation error, carrying 1-based line/column."""

    def __init__(self, message, line, column=1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
