"""Tests of the benchmark itself: gate power, counters and the tracer.

Run from the checkout root with ``python -m pytest perfbench``.  Each
planted defect is paired with its clean control, so the gate is shown
to fail because of the defect and only then.
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL_TRACER, Tracer  # noqa: E402

from cavityheat import em_modes  # noqa: E402


def measure(workload, specs, tracer=NULL_TRACER):
    return run.measure(workload, 0.0, tracer, specs=specs)


def traced(workload, specs):
    tracer = Tracer()
    for module, attr, name, points_from, as_span in workloads.WRAPPED:
        tracer.wrap(module, attr, name, points_from, as_span)
    try:
        result = measure(workload, specs, tracer)
    finally:
        tracer.restore()
    return tracer, result


@pytest.fixture(scope="module")
def casimir(tmp_path_factory):
    workload = workloads.CasimirScan(7, tmp_path_factory.mktemp("casimir"))
    workload.setup()
    return workload


def heat_spec(workload):
    return next(s for s in workload.inputs() if s["kind"] == "heat")


# ---------------------------------------------------------------------------
# planted defects raise fail_frac above 0; the clean controls keep it at 0
# ---------------------------------------------------------------------------

def test_missing_divergence_term_scored_as_clean_fails(casimir, monkeypatch):
    spec = heat_spec(casimir)
    assert measure(casimir, [spec]).fail_frac == 0.0

    original = workloads.divergence_prediction
    monkeypatch.setattr(workloads, "divergence_prediction",
                        lambda c, k: original(c, k).without("g_m1"))
    result = measure(casimir, [spec])
    assert result.fail_frac > 0.0
    assert result.failures["half_power"] == 1


def squashed_torus(genus):
    spec = next(s for s in workloads.SurfaceCoeffs(3, None).inputs()
                if s["shape"] == "squashed-torus")
    return {**spec, "genus": genus}


def test_wrong_declared_genus_fails_gauss_bonnet():
    workload = workloads.SurfaceCoeffs(3, None)
    assert measure(workload, [squashed_torus(1)]).fail_frac == 0.0
    result = measure(workload, [squashed_torus(0)])
    assert result.fail_frac > 0.0
    # failures are counted per timed call
    assert result.failures["gauss_bonnet:o64"] == workload.repeats


def drop_lowest_tm_row(modes):
    tm = np.flatnonzero(modes.family == "TM")
    keep = np.ones(len(modes), dtype=bool)
    keep[tm[np.argmin(modes.lam[tm])]] = False
    return replace(modes, family=modes.family[keep], l=modes.l[keep],
                   m=modes.m[keep], multiplicity=modes.multiplicity[keep],
                   lam=modes.lam[keep])


def test_em_list_missing_lowest_tm_row_fails_fit(tmp_path, monkeypatch):
    workload = workloads.BallCrosscheck(5, tmp_path)
    workload.setup()
    spec = {"radius": 1.1, "x_max": 60.0}
    assert measure(workload, [spec]).fail_frac == 0.0
    monkeypatch.setattr(workloads, "em_modes",
                        lambda *a: drop_lowest_tm_row(em_modes(*a)))
    result = measure(workload, [spec])
    assert result.fail_frac > 0.0
    assert result.failures["em:a3"] == 1


def test_failed_cli_process_counts(tmp_path):
    workload = workloads.CliPipeline(1, tmp_path)
    spec = {"pipeline": 0, "step": "trace", "omega_max": 60.0,
            "verify_seed": 0}
    # no modes_em.csv in the pipeline directory: the process must fail
    result = measure(workload, [spec])
    assert result.fail_frac == 1.0


# ---------------------------------------------------------------------------
# counters reproduce the costs known from reading the code
# ---------------------------------------------------------------------------

def test_six_curvature_grids_per_compute_moments():
    workload = workloads.SurfaceCoeffs(2, None)
    specs = [s for s, _ in zip(workload.inputs(), range(4))]
    tracer, result = traced(workload, specs)
    assert result.fail_frac == 0.0
    # two compute_moments calls per timed op
    assert tracer.counters["geometry.grid_calls"] == \
        6 * 2 * len(specs) * workload.repeats
    metrics = run.per_layer_metrics(tracer, result, result.ops_per_s, 1.0)
    assert metrics["geometry.grid_calls"] == 12
    assert metrics["geometry.compile_s"] > 0
    assert metrics["surfacefile.parse_s"] > 0


def test_casimir_counters_match_scan_structure(casimir):
    small = workloads.CasimirScan(7, None)
    small.coeffs = casimir.coeffs
    small.modes = em_modes(60.0)
    spec = {"kind": "sqrt-wide", "gamma_lo": 1e-3, "gamma_hi": 5e-2,
            "points": 40}
    tracer, result = traced(small, [spec])
    counters = tracer.counters
    assert counters["casimir.excluded"] > 0
    assert counters["casimir.min_gamma_calls"] == 2 * counters["casimir.excluded"]
    # clean and defect scans each attempt every gamma point
    assert counters["casimir.sum_calls"] == counters["casimir.attempted"] == 80
    metrics = run.per_layer_metrics(tracer, result, result.ops_per_s, 1.0)
    assert 0.0 < metrics["casimir.usable_frac"] < 1.0
    assert set(metrics) == set(run.PER_LAYER_UNITS)


# ---------------------------------------------------------------------------
# tracer, inputs and the declared metrics
# ---------------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
        tracer.timed("hot", 0.01)
    spans = {s[0]: s for s in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    assert inner[3] == 0                    # parent is the outer span
    assert inner[5] == pytest.approx(inner[2] - inner[1])
    assert outer[5] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]) - 0.01)
    assert tracer.counters["hot_s"] == 0.01


def test_wrap_counts_and_restores():
    import cavityheat.spectrum as spectrum
    original = spectrum.spherical_jn
    tracer = Tracer()
    tracer.wrap(spectrum, "spherical_jn", "spectrum.bessel", 0, False)
    assert spectrum.spherical_jn is not original
    spectrum.spherical_jn(3, np.linspace(1, 2, 5))
    tracer.restore()
    assert spectrum.spherical_jn is original
    assert tracer.counters["spectrum.bessel_calls"] == 1
    assert tracer.counters["spectrum.bessel_points"] == 5


def test_inputs_follow_the_seed():
    for cls in (workloads.SurfaceCoeffs, workloads.BallCrosscheck):
        assert run.inputs_digest(cls(4, None)) == run.inputs_digest(cls(4, None))
        assert run.inputs_digest(cls(4, None)) != run.inputs_digest(cls(5, None))


def test_ball_cycle_covers_every_cutoff_stratum():
    workload = workloads.BallCrosscheck(9, None)
    specs = [s for s, _ in zip(workload.inputs(), range(workload.cycle))]
    strata = sorted(int((s["x_max"] - 60.0) / 40.0 * workload.cycle)
                    for s in specs)
    assert strata == list(range(workload.cycle))


def test_tail_latency_definition():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    values = list(range(1, 41))
    value, percentile, beyond = run.tail_latency(values)
    assert (value, percentile, beyond) == (30, 75.0, 10)
    assert sum(v > value for v in values) == 10


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units

