"""The benchmark's four workloads: seeded inputs, one op, and its gate.

Each workload is driven by one closed-loop client: ``run_op`` calls the
library (or starts one CLI process) and returns its outputs, and
``check`` compares them with the acceptance tolerances of
``tests/test_acceptance.py``, scaled by R^(3-n) where a radius is
seeded.  ``check`` returns the failed checks (empty when the op is
correct) and the op's result-quality figures.

Every input comes from ``inputs()``; parameters are drawn from
``numpy.random.default_rng([seed, stream, index])``, so the same seed
gives the same inputs.  Ops come in cycles and a run ends only at a
cycle boundary, so every run covers each op kind equally.  Where op
cost grows with a seeded size, a cycle draws that size once from each
of equal strata of its range (the ball cutoff) or antithetically (the
CLI cutoff), so the run's latency quantiles do not hinge on the seed.

One cycle of ``ball-crosscheck``, ``casimir-scan`` or ``cli-pipeline``
takes about twice the benchmark's 10-second run length, so each run of
them measures exactly one cycle, and the op count (which sets the tail
percentile) does not flip with the machine's speed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from sympy.core.cache import clear_cache

import cavityheat
import cavityheat.casimir
import cavityheat.coefficients
import cavityheat.geometry.quadrature
import cavityheat.spectrum
from cavityheat import (
    ModeList,
    QuadratureSpec,
    RegulatorKind,
    TopologyInfo,
    detection_z,
    divergence_prediction,
    ellipsoid,
    loads_surface,
    remainder_scan,
    sphere,
    torus,
)
from cavityheat.asymptotics import FitConfig, fit_coefficients
from cavityheat.coefficients import (
    compute_moments,
    em_coefficients,
    form_coefficients,
    gauss_bonnet_residual,
)
from cavityheat.geometry.identities import curvature_identity_residuals
from cavityheat.spectrum import (
    dirichlet_modes,
    em_modes,
    heat_trace_samples,
    neumann_modes,
    resolvent2_expansion,
    resolvent2_trace,
)
from cavityheat.tables import consistency_report, harmonic_form_dims
from tracing import NULL_TRACER

SQPI = math.sqrt(math.pi)
# unit-ball electromagnetic closed forms (criterion 2)
BALL_EM = (1 / (3 * SQPI), 0.0, -4 / (3 * SQPI), 5 / 8,
           -16 / (315 * SQPI), 1 / 320)
BALL = TopologyInfo(1, (0,))
Q32 = QuadratureSpec(order=32)
Q64 = QuadratureSpec(order=64)
RESOLVENT_MU = (50.0, 120.0, 250.0, 500.0)     # criterion 7, unit ball
MAX_X = 200.0                                   # verified Bessel domain


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _cutoff(x_max, radius):
    """omega_max with omega_max * radius <= x_max in floating point."""
    omega = x_max / radius
    while omega * radius > x_max:
        omega = math.nextafter(omega, 0.0)
    return omega


def _scaled(values, radius):
    return [a * radius ** (3 - n) for n, a in enumerate(values)]


def unit_ball_tables():
    """Unit-ball moments at order 32 with the EM and p-form coefficients."""
    moments = compute_moments(sphere(1.0), Q32)
    return {
        "em": em_coefficients(moments, BALL).values,
        "forms": {p: form_coefficients(p, moments).values for p in range(4)},
    }


class Workload:
    """Interface of one workload; ``cycle`` ops form one balanced cycle."""

    name = ""
    cycle = 1
    # timings per op; an op's latency is its fastest (see run.measure)
    repeats = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup_params(self):
        """Seeded set-up inputs (recorded in the input digest)."""
        return {}

    def setup(self):
        """One round of set-up; the state of the last round is kept."""

    def inputs(self):
        """Infinite, deterministic sequence of op specs (plain dicts)."""
        raise NotImplementedError

    def kind(self, spec):
        """Op kind, for per-kind medians and per-kind layer times."""
        return self.name

    def before_op(self):
        """Called before every timed op, outside the timing."""

    def run_op(self, spec, tracer):
        raise NotImplementedError

    def check(self, spec, out, tracer):
        """Return (failed check names, quality figures)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# surface-coeffs
# ---------------------------------------------------------------------------

SQUASHED_TORUS = """\
schema 1
name squashed-torus
components 1
genera {genus}

param R {ring!r}
param r {tube!r}
param squash {squash!r}

chart
  domain u 0 2*pi
  domain v 0 2*pi
  periodic u
  periodic v
  x (R + r*cos(u))*cos(v)
  y (R + r*cos(u))*sin(v)
  z squash*r*sin(u)
  normal inward
end
"""


def _close(got, want, error):
    return abs(got - want) <= max(1e-10 * abs(want), 10.0 * error)


class SurfaceCoeffs(Workload):
    """A fresh seeded surface per op: moments, coefficients and checks."""

    name = "surface-coeffs"
    cycle = 4
    # a 0.25 s op is far shorter than the phases in which a shared
    # machine runs slow, so one timing reports the phase, not the op
    repeats = 2
    SHAPES = ("sphere", "ellipsoid", "torus", "squashed-torus")

    WARMUP = {"shape": "sphere", "radius": 1.0,
              "points": [[1.0, 1.0], [2.0, 3.0], [0.7, 5.0]]}

    def setup(self):
        # lazy imports inside sympy's lambdify and scipy's Legendre
        # nodes finish here, not in the first measured op
        self.run_op(self.WARMUP, NULL_TRACER)

    def kind(self, spec):
        return spec["shape"]

    def before_op(self):
        # every op, and every repeat of it, compiles its surface from a
        # cold sympy cache, as a fresh process would
        clear_cache()

    def inputs(self):
        index = 0
        while True:
            rng = _rng(self.seed, 1, index)
            shape = self.SHAPES[index % self.cycle]
            spec = {"shape": shape}
            if shape == "sphere":
                spec["radius"] = float(rng.uniform(0.8, 1.25))
            elif shape == "ellipsoid":
                spec["axes"] = [float(rng.uniform(0.8, 1.2)),
                                float(rng.uniform(1.0, 1.5)),
                                float(rng.uniform(1.3, 2.0))]
            else:
                # the smallest curvature radius stays >= 0.375, the
                # unit-scale regime of criterion 5's fixed 1e-6 level
                spec["ring"] = float(rng.uniform(1.6, 2.4))
                spec["tube"] = float(rng.uniform(0.5, 0.7))
                if shape == "squashed-torus":
                    spec["squash"] = float(rng.uniform(0.75, 0.95))
                    spec["genus"] = 1
            u_win = (0.4, 2.7) if shape in ("sphere", "ellipsoid") \
                else (0.0, 2 * math.pi)
            spec["points"] = [[float(rng.uniform(*u_win)),
                               float(rng.uniform(0.0, 2 * math.pi))]
                              for _ in range(3)]
            yield spec
            index += 1

    @staticmethod
    def build(spec, tracer):
        shape = spec["shape"]
        if shape == "sphere":
            return sphere(spec["radius"]), None
        if shape == "ellipsoid":
            return ellipsoid(*spec["axes"]), None
        if shape == "torus":
            return torus(spec["ring"], spec["tube"]), None
        text = SQUASHED_TORUS.format(**spec)
        with tracer.span("surfacefile.parse"):
            model = loads_surface(text)
        # scaling z by `squash` scales the enclosed volume by it
        volume = 2.0 * math.pi ** 2 * spec["ring"] * spec["tube"] ** 2 \
            * spec["squash"]
        return model, volume

    def run_op(self, spec, tracer):
        model, volume = self.build(spec, tracer)
        if tracer.active:
            with tracer.span("geometry.compile"):
                for chart in model.charts:
                    for du in range(4):
                        for dv in range(4 - du):
                            chart.deriv(du, dv)
        with tracer.span("coefficients.moments_o32"):
            m32 = compute_moments(model, Q32)
        with tracer.span("coefficients.moments_o64"):
            m64 = compute_moments(model, Q64)
        topo = model.topology
        em = em_coefficients(m64, topo)
        forms = [form_coefficients(p, m64) for p in range(4)]
        gb = [gauss_bonnet_residual(m, topo) for m in (m32, m64)]
        with tracer.span("tables.consistency"):
            checks = consistency_report(topo)
        with tracer.span("geometry.identity"):
            residuals = [curvature_identity_residuals(model.charts[0], u, v)
                         .max_residual for u, v in spec["points"]]
        return {"model": model, "volume": volume, "m64": m64, "em": em,
                "forms": forms, "gb": gb, "checks": checks,
                "residuals": residuals}

    def check(self, spec, out, tracer):
        failed = []
        for m, gb in zip(("o32", "o64"), out["gb"]):
            if not abs(gb.value) <= max(1e-8, 10.0 * gb.error):
                failed.append(f"gauss_bonnet:{m}")
        if not all(c.ok for c in out["checks"]):
            failed.append("consistency")
        model, m64 = out["model"], out["m64"]
        area = model.closed_form_area
        volume = model.closed_form_volume or out["volume"]
        if area is not None and not _close(m64.area.value, area, m64.area.error):
            failed.append("area")
        if volume is not None and not _close(m64.volume.value, volume,
                                             m64.volume.error):
            failed.append("volume")
        if not max(out["residuals"]) < 1e-6:
            failed.append("identity")
        if spec["shape"] == "sphere":
            want = _scaled(BALL_EM, spec["radius"])
            for n, (got, w) in enumerate(zip(out["em"].values, want)):
                if (got != 0.0) if w == 0.0 else abs(got - w) > 1e-10 * abs(w):
                    failed.append(f"ball_closed_form:a{n}")
        return failed, {}


# ---------------------------------------------------------------------------
# ball-crosscheck
# ---------------------------------------------------------------------------

class BallCrosscheck(Workload):
    """Enumerate three spectra of a seeded ball and fit them to the tables."""

    name = "ball-crosscheck"
    cycle = 8

    def setup(self):
        self.tables = unit_ball_tables()

    def inputs(self):
        index = 0
        while True:
            u_r, u_x = _rng(self.seed, 2, index).uniform(size=2)
            stratum = index % self.cycle
            yield {"radius": float(0.8 + 0.45 * u_r),
                   "x_max": float(60.0 + 40.0 * (stratum + u_x) / self.cycle)}
            index += 1

    def run_op(self, spec, tracer):
        radius = spec["radius"]
        omega = _cutoff(spec["x_max"], radius)
        with tracer.span("spectrum.em"):
            em = em_modes(omega, radius)
        with tracer.span("spectrum.dirichlet"):
            p0 = dirichlet_modes(omega, radius)
        with tracer.span("spectrum.neumann"):
            p3 = neumann_modes(omega, radius)
        tracer.count("spectrum.rows", len(em) + len(p0) + len(p3))
        config = FitConfig(t_lo=0.006 * radius ** 2, t_hi=0.06 * radius ** 2,
                           n_points=40)
        fits = {}
        for key, modes in (("em", em), (0, p0), (3, p3)):
            with tracer.span("spectrum.heat_trace"):
                samples = heat_trace_samples(modes, config.t_grid())
            with tracer.span("asymptotics.fit"):
                fits[key] = fit_coefficients(samples, config)
            tracer.sample("asymptotics.fit_cond", fits[key].condition_number)
            tracer.sample("asymptotics.fit_chi2_dof", fits[key].chi2_dof)
        with tracer.span("spectrum.resolvent"):
            resolvent = [(mu / radius ** 2, resolvent2_trace(em, mu / radius ** 2))
                         for mu in RESOLVENT_MU]
        path = Path(self.workdir) / "ball_em.csv"
        with tracer.span("spectrum.csv_write"):
            em.to_csv(path)
        with tracer.span("spectrum.csv_read"):
            back = ModeList.from_csv(path)
        return {"em": em, "fits": fits, "resolvent": resolvent, "back": back}

    def check(self, spec, out, tracer):
        radius = spec["radius"]
        r2 = radius ** 2
        failed = []
        em_table = _scaled(self.tables["em"], radius)
        fit = out["fits"]["em"]
        # criterion 3, EM problem
        if not abs(fit.a(0) - em_table[0]) <= 1e-3 * em_table[0]:
            failed.append("em:a0")
        if not abs(fit.a(1)) < 1e-3 * r2:
            failed.append("em:a1")
        if not abs(fit.a(2) - em_table[2]) <= 1e-2 * abs(em_table[2]):
            failed.append("em:a2")
        a3_err = abs(fit.a(3) - em_table[3])
        if not a3_err <= 0.01:
            failed.append("em:a3")
        # criterion 3, value- and flux-fixed problems
        dims = harmonic_form_dims(BALL)
        for p in (0, 3):
            table = _scaled(self.tables["forms"][p], radius)
            fitp = out["fits"][p]
            if not abs(fitp.a(0) - table[0]) <= 1e-3 * abs(table[0]):
                failed.append(f"p{p}:a0")
            if not abs(fitp.a(1) - table[1]) <= 2.5e-3 * r2:
                failed.append(f"p{p}:a1")
            if not abs(fitp.a(2) - table[2]) <= 1e-2 * abs(table[2]):
                failed.append(f"p{p}:a2")
            err = abs(fitp.a(3) + dims[p] - table[3])
            a3_err = max(a3_err, err)
            if not err <= 0.01:
                failed.append(f"p{p}:a3")
        # criterion 7, squared-resolvent route
        for mu, r in out["resolvent"]:
            model = resolvent2_expansion(em_table, mu)
            bound = r.tail_sigma + math.gamma(3.5) * abs(em_table[5]) * mu ** -3.5
            if not abs(r.value - model) <= bound:
                failed.append(f"resolvent:mu={mu:g}")
        em, back = out["em"], out["back"]
        if not (np.array_equal(em.lam, back.lam)
                and np.array_equal(em.family, back.family)
                and np.array_equal(em.multiplicity, back.multiplicity)
                and em.radius == back.radius
                and em.omega_max == back.omega_max):
            failed.append("csv_round_trip")
        return failed, {"fit_a3_abs_err": a3_err}


# ---------------------------------------------------------------------------
# casimir-scan
# ---------------------------------------------------------------------------

class CasimirScan(Workload):
    """Criterion-6 verdicts, read-many, on one large seeded EM mode list."""

    name = "casimir-scan"
    cycle = 3
    # op kind -> (regulator, upper grid end for the unit ball, with defect)
    KINDS = {
        "heat": (RegulatorKind.HEAT, 1e-2, True),
        "sqrt-narrow": (RegulatorKind.SQRT, 1e-2, False),
        "sqrt-wide": (RegulatorKind.SQRT, 1e-1, True),
    }

    def setup_params(self):
        return {"radius": float(0.8 + 0.45 * _rng(self.seed, 3).uniform()),
                "x_max": MAX_X}

    def setup(self):
        radius = self.setup_params()["radius"]
        self.coeffs = _scaled(unit_ball_tables()["em"], radius)
        self.modes = em_modes(_cutoff(MAX_X, radius), radius)

    def inputs(self):
        r2 = self.setup_params()["radius"] ** 2
        index = 0
        while True:
            kind = list(self.KINDS)[index % self.cycle]
            # the two ends move oppositely by up to 10 %, which keeps the
            # share of excluded points (the op's cost) nearly fixed
            jitter = 0.1 * (2.0 * float(_rng(self.seed, 4, index).uniform())
                            - 1.0)
            yield {"kind": kind, "gamma_lo": 1e-4 * r2 * (1.0 + jitter),
                   "gamma_hi": self.KINDS[kind][1] * r2 * (1.0 - jitter),
                   "points": 60}
            index += 1

    def kind(self, spec):
        return spec["kind"]

    def run_op(self, spec, tracer):
        regulator, _, with_defect = self.KINDS[spec["kind"]]
        gammas = np.geomspace(spec["gamma_lo"], spec["gamma_hi"],
                              spec["points"])
        scans = []
        with tracer.span("casimir.scan_" + spec["kind"].replace("-", "_")):
            pred = divergence_prediction(self.coeffs, regulator)
            clean = remainder_scan(self.modes, pred, gammas)
            scans.append(clean)
            if with_defect:
                defect = remainder_scan(self.modes, pred.without("g_m1"),
                                        gammas)
                scans.append(defect)
        z = None
        if with_defect:
            with tracer.span("casimir.detect"):
                z = detection_z(clean, defect)
        for scan in scans:
            tracer.count("casimir.attempted", len(gammas))
            tracer.count("casimir.kept", len(scan.gammas))
            tracer.count("casimir.excluded", len(scan.excluded))
        return {"clean": clean, "z": z}

    def check(self, spec, out, tracer):
        failed = []
        value, err = out["clean"].half_power
        # criterion 6: the gamma^-1/2 component is compatible with zero
        if not abs(value) <= err:
            failed.append("half_power")
        quality = {"half_power_z_max": out["clean"].z_half}
        if out["z"] is not None:
            quality["defect_z_min"] = out["z"]
            if not out["z"] > 5.0:
                failed.append("defect_not_detected")
        return failed, quality


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

CLI_STEPS = ("modes", "trace", "fit", "coeffs", "casimir-heat",
             "casimir-sqrt", "verify")


def cli_env(tmpdir):
    """Environment for child processes: this package first on the path."""
    env = dict(os.environ)
    src = str(Path(cavityheat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmpdir)
    return env


class CliPipeline(Workload):
    """One ``python -m cavityheat`` process per op, in pipeline order."""

    name = "cli-pipeline"
    cycle = 2 * len(CLI_STEPS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = cli_env(workdir)

    def inputs(self):
        pipeline = 0
        while True:
            rng = _rng(self.seed, 5, pipeline // 2)
            u = float(rng.uniform())
            verify_seed = int(rng.integers(0, 2 ** 31))
            if pipeline % 2:
                u = 1.0 - u
            for step in CLI_STEPS:
                yield {"pipeline": pipeline, "step": step,
                       "omega_max": 60.0 + 60.0 * u,
                       "verify_seed": verify_seed}
            pipeline += 1

    def kind(self, spec):
        return spec["step"]

    @staticmethod
    def argv(spec):
        step = spec["step"]
        if step == "modes":
            return ["modes", "--p", "em", "--omega-max", repr(spec["omega_max"])]
        if step == "trace":
            return ["trace", "--modes", "modes_em.csv"]
        if step == "fit":
            return ["fit", "--trace", "trace.csv"]
        if step == "coeffs":
            return ["coeffs", "--surface", "sphere"]
        if step.startswith("casimir"):
            return ["casimir", "--modes", "modes_em.csv", "--coeffs",
                    "coeffs.json", "--regulator", step.split("-")[1]]
        return ["verify", "--seed", str(spec["verify_seed"])]

    def pipeline_dir(self, spec):
        path = Path(self.workdir) / f"pipeline-{spec['pipeline']}"
        path.mkdir(exist_ok=True)
        return path

    def run_op(self, spec, tracer):
        cwd = self.pipeline_dir(spec)
        before = _tree_bytes(cwd)
        with tracer.span("cli." + spec["step"].split("-")[0]):
            proc = subprocess.run(
                [sys.executable, "-m", "cavityheat", *self.argv(spec),
                 "--out", "."],
                cwd=cwd, env=self.env, capture_output=True, text=True,
                timeout=150)
        tracer.count("cli.bytes_written", _tree_bytes(cwd) - before)
        return {"returncode": proc.returncode, "stderr": proc.stderr,
                "dir": cwd}

    def check(self, spec, out, tracer):
        if out["returncode"] != 0:
            return [f"exit_code:{out['returncode']}"], {}
        step, cwd = spec["step"], out["dir"]
        try:
            failed, quality = self._check_artifacts(step, cwd, spec, tracer)
        except (OSError, ValueError, KeyError, TypeError) as err:
            return [f"unparseable:{type(err).__name__}"], {}
        if step == CLI_STEPS[-1]:
            shutil.rmtree(cwd, ignore_errors=True)
        return failed, quality

    @staticmethod
    def _check_artifacts(step, cwd, spec, tracer):
        failed, quality = [], {}
        if step == "modes":
            manifest = json.loads((cwd / "modes_em.manifest.json").read_text())
            with tracer.span("spectrum.csv_read"):
                modes = ModeList.from_csv(cwd / "modes_em.csv")
            if (len(modes) != manifest["modes"]["rows"]
                    or modes.omega_max != spec["omega_max"]):
                failed.append("modes_csv")
        elif step == "trace":
            rows = np.genfromtxt(cwd / "trace.csv", delimiter=",", names=True)
            if len(rows) != 40 or not np.all(np.isfinite(rows["K"])) \
                    or not np.all(rows["K"] > 0):
                failed.append("trace_csv")
        elif step == "fit":
            a = json.loads((cwd / "fit.json").read_text())["a_n"]
            # criterion 3 at radius 1
            if not abs(a["a0"] - BALL_EM[0]) <= 1e-3 * BALL_EM[0]:
                failed.append("fit:a0")
            if not abs(a["a1"]) < 1e-3:
                failed.append("fit:a1")
            if not abs(a["a2"] - BALL_EM[2]) <= 1e-2 * abs(BALL_EM[2]):
                failed.append("fit:a2")
            quality["fit_a3_abs_err"] = abs(a["a3"] - 0.625)
            if not quality["fit_a3_abs_err"] <= 0.01:
                failed.append("fit:a3")
        elif step == "coeffs":
            doc = json.loads((cwd / "coeffs.json").read_text())
            if not all(doc["consistency"].values()):
                failed.append("consistency")
            if not doc["gauss_bonnet"]["ok"]:
                failed.append("gauss_bonnet")
            for n, (got, want) in enumerate(zip(doc["em"]["values"], BALL_EM)):
                if (got != 0.0) if want == 0.0 \
                        else abs(got - want) > 1e-10 * abs(want):
                    failed.append(f"ball_closed_form:a{n}")
        elif step.startswith("casimir"):
            scan = json.loads((cwd / "casimir.json").read_text())["scan"]
            quality["half_power_z_max"] = scan["z_half_power"]
            if not scan["finite"]:
                failed.append("half_power")
        else:
            doc = json.loads((cwd / "verify.json").read_text())
            if doc["failures"]:
                failed.append("verify")
        return failed, quality


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


WORKLOADS = {w.name: w for w in (SurfaceCoeffs, BallCrosscheck, CasimirScan,
                                 CliPipeline)}

# module-level names the traced run wraps: (module, attribute, counter
# name, first positional argument of the point count or None, one span
# per call)
WRAPPED = (
    (cavityheat.spectrum, "spherical_jn", "spectrum.bessel", 0, False),
    (cavityheat.casimir, "regularized_sum", "casimir.sum", None, True),
    (cavityheat.casimir, "min_usable_gamma", "casimir.min_gamma", None, True),
    (cavityheat.coefficients, "curvature_grid", "geometry.grid", 1, True),
    (cavityheat.geometry.quadrature, "curvature_grid", "geometry.grid", 1,
     True),
)
