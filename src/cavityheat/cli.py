"""Batch command-line front end.

Subcommands compose through files so that every artifact carries its
run manifest: ``coeffs`` (surface -> coefficient report JSON),
``modes`` (ball spectra -> CSV + sidecar), ``trace`` (modes + t-grid ->
CSV), ``fit`` (trace CSV -> fit JSON), ``casimir`` (modes + coefficient
JSON -> remainder-scan report) and ``verify`` (exact table relations
plus curvature-identity residuals).  ``coeffs --surface`` names one of
three stock surfaces (sphere(1), ellipsoid(1, 1.3, 1.7), torus(2, 0.5))
or a surface file; ``fit`` fits every row of its trace.  A manifest's
``config`` holds every option of the subcommand and its ``inputs`` the
digest of every file read, a mode list's sidecar included.

Exit codes: 0 success; 1 usage error; 2 numerical-tolerance failure,
with machine-readable diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, errors

SCHEMA_VERSION = 1
# points of the geometric t grid of 'trace' and gamma grid of 'casimir'
GRID_POINTS = 40


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 through main's ValueError branch (argparse
    # defaults to 2, which this tool reserves for numerical-tolerance
    # failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def positive_float(text):
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


def positive_int(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def non_negative_int(text):
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


class ToleranceFailure(errors.NumericalError):
    """Numerical check failed; carries machine-readable diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self._diagnostics = diagnostics

    @property
    def diagnostics(self):
        return self._diagnostics


def _sha256(path):
    """SHA-256 of an input, less the clock fields of an artifact manifest.

    Rerunning the step that wrote a JSON artifact keeps its digest.
    """
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data)
    except ValueError:          # a CSV or surface file: its bytes
        doc = None
    if isinstance(doc, dict) and isinstance(doc.get("manifest"), dict):
        for key in ("timestamp_utc", "wall_time_s"):
            doc["manifest"].pop(key, None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _manifest(args, inputs=(), t0=None):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "_command") and v is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "cavityheat", "version": __version__},
        "command": args._command,
        "config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "wall_time_s": None if t0 is None else round(time.time() - t0, 3),
    }


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _write_csv(path, header, *columns):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {path}")


def _out_dir(args):
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _surface_from_args(args, parser):
    """(model, path of its surface file or None) named by --surface."""
    from .geometry import ellipsoid, sphere, torus
    from .surfacefile import load_surface

    spec = args.surface
    if spec == "sphere":
        return sphere(1.0), None
    if spec == "ellipsoid":
        return ellipsoid(1.0, 1.3, 1.7), None
    if spec == "torus":
        return torus(2.0, 0.5), None
    if spec.startswith("file:"):
        return load_surface(spec[5:]), Path(spec[5:])
    parser.error(f"unknown surface {spec!r}")


# ---------------------------------------------------------------------------
# subcommands: each imports only the layers it calls, so a process pays
# for those alone
# ---------------------------------------------------------------------------

def _cmd_coeffs(args, parser):
    from .coefficients import (
        a3_local,
        a3_local_kappa_variant,
        compute_moments,
        delta_a3,
        em_coefficients,
        form_coefficients,
        gauss_bonnet_residual,
        gauss_bonnet_tolerance,
        phi_expansion,
    )
    from .geometry import QuadratureSpec
    from .tables import consistency_report

    t0 = time.time()
    model, inputs = _surface_from_args(args, parser)
    quad = QuadratureSpec(order=args.quad_order)
    moments = compute_moments(model, quad)
    topo = model.topology

    em = em_coefficients(moments, topo)
    forms = {f"p{p}": form_coefficients(p, moments).as_dict() for p in range(4)}
    checks = consistency_report(topo)
    gb = gauss_bonnet_residual(moments, topo)
    gb_tol = gauss_bonnet_tolerance(gb)
    a3l = a3_local(moments)
    kappa = a3_local_kappa_variant(moments)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "surface": {"name": model.name,
                    "components": topo.components,
                    "genera": list(topo.genera)},
        "quadrature": {"order": quad.order, "periodic_factor": 2},
        "moments": moments.as_dict(),
        "em": em.as_dict(),
        "forms": forms,
        "consistency": {c.name: c.ok for c in checks},
        "gauss_bonnet": {"residual": gb.value, "quadrature_error": gb.error,
                         "tolerance": gb_tol, "ok": abs(gb.value) <= gb_tol},
        "a3_local": {"value": a3l.value, "error": a3l.error},
        "a3_local_kappa_variant": {
            "value": kappa.value, "error": kappa.error,
            "flag": "alternative printed normalisation; comparison only, "
                    "never substituted"},
        "phi_expansion": phi_expansion(em.values).as_dict(),
    }
    if topo.connected_boundary:
        payload["mode_count"] = delta_a3(topo, a3l.value).as_dict()
    payload["manifest"] = _manifest(args, [inputs] if inputs else [], t0)

    _write_json(_out_dir(args) / "coeffs.json", payload)
    failed = [c.name for c in checks if not c.ok]
    if failed:
        raise ToleranceFailure("exact consistency failure",
                               {"failed_relations": failed})
    if not payload["gauss_bonnet"]["ok"]:
        raise ToleranceFailure(
            "total-curvature residual beyond tolerance",
            {"gauss_bonnet": payload["gauss_bonnet"],
             "hint": "declared topology may not match the surface"})
    return 0


_P_CHOICES = ("em", "0", "1", "2", "3")


def _cmd_modes(args, parser):
    from .spectrum import em_modes, form_modes

    t0 = time.time()
    p = args.p
    if p == "em":
        modes = em_modes(args.omega_max, args.radius)
    else:
        modes = form_modes(int(p), args.omega_max, args.radius)
    out = _out_dir(args) / f"modes_{p}.csv"
    modes.to_csv(out)
    print(f"wrote {out}")
    _write_json(_out_dir(args) / f"modes_{p}.manifest.json",
                {**_manifest(args, [], t0),
                 "modes": {"rows": len(modes), "count": modes.count,
                           "families": sorted(set(modes.family.tolist()))}})
    return 0


def _cmd_trace(args, parser):
    if not args.t_lo < args.t_hi:
        raise ValueError(f"--t-lo {args.t_lo:g} must be below "
                         f"--t-hi {args.t_hi:g}")
    from .spectrum import ModeList, heat_trace_samples, sidecar_path

    t0 = time.time()
    modes = ModeList.from_csv(args.modes)
    ts = np.geomspace(args.t_lo, args.t_hi, GRID_POINTS)
    t, K, bound = heat_trace_samples(modes, ts)
    _write_csv(_out_dir(args) / "trace.csv", "t,K,bound", t, K, bound)
    _write_json(_out_dir(args) / "trace.manifest.json",
                _manifest(args, [args.modes, sidecar_path(args.modes)], t0))
    return 0


def _cmd_fit(args, parser):
    from .asymptotics import CONDITION_REPORT, FitConfig, fit_coefficients

    t0 = time.time()
    lines = [line for line in Path(args.trace).read_text().splitlines()
             if line.strip()]
    if not lines:
        raise ValueError(f"{args.trace} is empty: no header, 0 data rows")
    # field counts of the rows numpy reads: the header, then the text
    # before any '#' in each later line
    body = (line.split("#")[0] for line in lines[1:])
    fields = [text.count(",") + 1
              for text in [lines[0], *filter(str.strip, body)]]
    i = next((i for i, n in enumerate(fields) if n != fields[0]), None)
    if i is not None:
        raise ValueError(f"{args.trace}: data row {i} has {fields[i]} "
                         f"fields, the header {fields[0]}")
    rows = np.genfromtxt(lines, delimiter=",", names=True)
    columns = rows.dtype.names or ()
    if not {"t", "K", "bound"} <= set(columns):
        raise ValueError(f"{args.trace}: columns {','.join(columns)}; "
                         "expected t,K,bound as written by 'trace'")
    t, K, bound = (np.atleast_1d(rows[c]) for c in ("t", "K", "bound"))
    # a non-numeric field reads as NaN
    ok = (np.isfinite(t) & (t > 0) & np.isfinite(K) & np.isfinite(bound)
          & (bound >= 0))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{args.trace}: data row {i + 1} needs finite t > 0,"
                         f" K and bound >= 0, got t={t[i]:g}, K={K[i]:g}, "
                         f"bound={bound[i]:g}")
    n = len(t)
    try:
        # a header-only trace reaches the sample-count check with
        # (inf, -inf)
        config = FitConfig(t_lo=float(t.min(initial=math.inf)),
                           t_hi=float(t.max(initial=-math.inf)), n_points=n)
        result = fit_coefficients((t, K, bound), config)
    except errors.NumericalError as err:
        raise type(err)(f"{args.trace}: {err}") from None
    except ValueError as err:
        raise ValueError(f"{args.trace} has {n} data row{'s' * (n != 1)}: "
                         f"{err}") from None
    payload = {"schema_version": SCHEMA_VERSION,
               "fit": result.as_dict(),
               "a_n": {f"a{n}": result.a(n) for n in range(6)},
               "manifest": _manifest(args, [args.trace], t0)}
    _write_json(_out_dir(args) / "fit.json", payload)
    if result.condition_number > CONDITION_REPORT:
        print(f"note: condition number {result.condition_number:.3g}",
              file=sys.stderr)
    return 0


def _em_values(path):
    """a_0..a_5 of a 'coeffs' report; a usage error when they are absent."""
    try:
        # integers read as floats, too large ones as inf
        doc = json.loads(Path(path).read_text(), parse_int=float)
    except (json.JSONDecodeError, RecursionError) as err:
        # RecursionError: nesting deeper than the decoder follows
        raise ValueError(f"{path}: malformed JSON ({err})") from None
    try:
        values = doc["em"]["values"]
    except (KeyError, TypeError):
        values = None
    # JSON numbers only: true and false are not, nor are strings
    if not (isinstance(values, list) and len(values) == 6
            and all(type(v) is float for v in values)):
        raise ValueError(f"{path}: no em.values list of six JSON numbers; "
                         "expected the report written by 'coeffs'")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: em.values must be finite, got {values}")
    return values


def _cmd_casimir(args, parser):
    if not args.gamma_lo < args.gamma_hi:
        raise ValueError(f"--gamma-lo {args.gamma_lo:g} must be below "
                         f"--gamma-hi {args.gamma_hi:g}")
    from .casimir import RegulatorKind, divergence_prediction, remainder_scan
    from .spectrum import ModeList, sidecar_path

    t0 = time.time()
    modes = ModeList.from_csv(args.modes)
    a = _em_values(args.coeffs)
    kind = RegulatorKind(args.regulator)
    pred = divergence_prediction(a, kind)
    gammas = np.geomspace(args.gamma_lo, args.gamma_hi, GRID_POINTS)
    scan = remainder_scan(modes, pred, gammas)

    inputs = [args.modes, sidecar_path(args.modes), args.coeffs]
    payload = {"schema_version": SCHEMA_VERSION,
               "prediction": pred.as_dict(),
               "scan": scan.as_dict(),
               "manifest": _manifest(args, inputs, t0)}
    _write_json(_out_dir(args) / "casimir.json", payload)
    if not scan.finite:
        raise ToleranceFailure(
            "half-power component incompatible with a finite limit",
            {"half_power": list(scan.half_power), "z": scan.z_half})
    return 0


def _cmd_verify(args, parser):
    from .coefficients import (
        compute_moments,
        gauss_bonnet_residual,
        gauss_bonnet_tolerance,
    )
    from .geometry import QuadratureSpec, ellipsoid, sphere, torus
    from .geometry.identities import curvature_identity_residuals
    from .tables import consistency_report

    t0 = time.time()
    rng = np.random.default_rng(args.seed)
    report = {"exact_relations": {}, "identity_residuals": {},
              "gauss_bonnet": {}}
    failures = []

    for topo_name, model in (("sphere", sphere(1.0)),
                             ("torus", torus(2.0, 0.5))):
        for check in consistency_report(model.topology):
            key = f"{topo_name}:{check.name}"
            report["exact_relations"][key] = check.ok
            if not check.ok:
                failures.append(key)

    surfaces = {"ellipsoid": (ellipsoid(1.0, 1.3, 1.7), (0.4, 2.7)),
                "torus": (torus(2.0, 0.5), (0.0, 2 * math.pi))}
    for sname, (model, (u_lo, u_hi)) in surfaces.items():
        u, v = rng.uniform((u_lo, 0.0), (u_hi, 2 * math.pi),
                           (args.points, 2)).T
        res = curvature_identity_residuals(model.charts[0], u, v)
        report["identity_residuals"][sname] = res.max_residual
        if res.violations():
            failures.append(f"identity:{sname}")

    for model in (sphere(1.0), ellipsoid(1.0, 1.3, 1.7), torus(2.0, 0.5)):
        moments = compute_moments(model, QuadratureSpec(order=args.quad_order))
        gb = gauss_bonnet_residual(moments, model.topology)
        report["gauss_bonnet"][model.name] = gb.value
        if abs(gb.value) > gauss_bonnet_tolerance(gb):
            failures.append(f"gauss_bonnet:{model.name}")

    payload = {"schema_version": SCHEMA_VERSION, "report": report,
               "failures": failures,
               "manifest": _manifest(args, [], t0)}
    _write_json(_out_dir(args) / "verify.json", payload)
    for key, ok in report["exact_relations"].items():
        if not ok:
            print(f"FAIL {key}")
    print(f"exact relations: "
          f"{sum(report['exact_relations'].values())}"
          f"/{len(report['exact_relations'])} ok")
    print(f"identity residuals: "
          + ", ".join(f"{k}={v:.2e}" for k, v in
                      report["identity_residuals"].items()))
    if failures:
        raise ToleranceFailure("verification failures", {"failures": failures})
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="cavityheat",
                     description="heat-trace coefficients, ball spectra and "
                                 "Casimir divergence structure for smooth "
                                 "cavities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("coeffs", help="curvature-integral coefficients")
    p.add_argument("--surface", default="sphere",
                   help="sphere | ellipsoid | torus | file:PATH")
    p.add_argument("--quad-order", type=positive_int, default=32)
    add_out(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("modes", help="enumerate ball spectra to CSV")
    p.add_argument("--p", choices=_P_CHOICES, default="em")
    p.add_argument("--omega-max", type=positive_float, default=60.0)
    p.add_argument("--radius", type=positive_float, default=1.0)
    add_out(p)
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("trace", help="heat-trace samples from a mode CSV")
    p.add_argument("--modes", required=True)
    p.add_argument("--t-lo", type=positive_float, default=0.006)
    p.add_argument("--t-hi", type=positive_float, default=0.06)
    add_out(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("fit", help="coefficients from a trace CSV")
    p.add_argument("--trace", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("casimir", help="regulated-sum remainder scan")
    p.add_argument("--modes", required=True)
    p.add_argument("--coeffs", required=True,
                   help="coefficient report JSON from 'coeffs'")
    p.add_argument("--regulator", choices=("heat", "sqrt"), default="heat")
    p.add_argument("--gamma-lo", type=positive_float, default=1e-3)
    p.add_argument("--gamma-hi", type=positive_float, default=5e-2)
    add_out(p)
    p.set_defaults(func=_cmd_casimir)

    p = sub.add_parser("verify", help="exact relations and identity residuals")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--points", type=positive_int, default=20)
    p.add_argument("--quad-order", type=positive_int, default=64)
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args._command = ["cavityheat"] + argv
        return args.func(args, parser)
    except errors.NumericalError as err:
        print(json.dumps({"error": str(err), "diagnostics": err.diagnostics},
                         sort_keys=True), file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        # a usage error, unreadable or out-of-domain input
        # (SurfaceFileError included); NumericalErrors that are also
        # ValueErrors were caught above and exit 2
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
