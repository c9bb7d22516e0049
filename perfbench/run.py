"""cavityheat benchmark: seeded closed-loop workloads with correctness gates.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload surface-coeffs --seed 1 \
        --seconds 10 --trace 0

or every workload in turn with ``--workload all``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs
the same ops once untraced and once traced, and reports the per-layer
metrics and the tracing overhead.  The package is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints
no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with every metric, the machine and input facts.
Scratch files go to ``.bench_tmp/`` and traces to ``.bench_out/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("surface-coeffs", "ball-crosscheck", "casimir-scan",
                  "cli-pipeline")
# two rounds keep the x_max = 200 enumeration of casimir-scan, ~5 s a
# round, from crowding the benchmark's time budget
SETUP_ROUNDS = 2
# no op starts later than this after process start, so that even a
# slow machine finishes a run well inside three minutes
OP_DEADLINE_S = 140.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "_s" metrics are self time (span minus child
# spans) per op, counts are per op
PER_LAYER_UNITS = {
    "spectrum.em_s": "s", "spectrum.dirichlet_s": "s",
    "spectrum.neumann_s": "s", "spectrum.rows": "count",
    "spectrum.bessel_calls": "count", "spectrum.bessel_points": "count",
    "spectrum.bessel_s": "s", "spectrum.heat_trace_s": "s",
    "spectrum.resolvent_s": "s", "spectrum.csv_write_s": "s",
    "spectrum.csv_read_s": "s",
    "casimir.scan_heat_s": "s", "casimir.scan_sqrt_narrow_s": "s",
    "casimir.scan_sqrt_wide_s": "s", "casimir.sum_calls": "count",
    "casimir.sum_s": "s", "casimir.min_gamma_calls": "count",
    "casimir.min_gamma_s": "s", "casimir.excluded": "count",
    "casimir.usable_frac": "ratio", "casimir.detect_s": "s",
    "geometry.compile_s": "s", "coefficients.moments_o32_s": "s",
    "coefficients.moments_o64_s": "s", "geometry.grid_calls": "count",
    "geometry.grid_points": "count", "geometry.grid_s": "s",
    "geometry.identity_s": "s", "tables.consistency_s": "s",
    "surfacefile.parse_s": "s",
    "asymptotics.fit_s": "s", "asymptotics.fit_cond": "ratio",
    "asymptotics.fit_chi2_dof": "ratio",
    "cli.import_s": "s", "cli.modes_s": "s", "cli.trace_s": "s",
    "cli.fit_s": "s", "cli.coeffs_s": "s", "cli.casimir_s": "s",
    "cli.verify_s": "s", "cli.bytes_written": "bytes",
    "trace_overhead": "ratio",
}
# per-layer times taken per op of one kind rather than per op
PER_KIND = {
    "casimir.scan_heat_s": ("heat",),
    "casimir.scan_sqrt_narrow_s": ("sqrt-narrow",),
    "casimir.scan_sqrt_wide_s": ("sqrt-wide",),
    "cli.modes_s": ("modes",), "cli.trace_s": ("trace",),
    "cli.fit_s": ("fit",), "cli.coeffs_s": ("coeffs",),
    "cli.casimir_s": ("casimir-heat", "casimir-sqrt"),
    "cli.verify_s": ("verify",),
}
QUALITY_WORST = {"fit_a3_abs_err": max, "half_power_z_max": max,
                 "defect_z_min": min}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# facts recorded with every result
# ---------------------------------------------------------------------------

def machine_facts():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": os.cpu_count(), "cpu_model": cpu,
             "python": platform.python_version()}
    for dist in ("numpy", "scipy", "sympy", "mpmath"):
        facts[dist] = importlib.metadata.version(dist)
    facts["machine_settings_changed"] = False
    return facts


def inputs_digest(workload):
    """SHA-256 of the set-up inputs and the first two cycles of op inputs."""
    ops = list(itertools.islice(workload.inputs(), 2 * workload.cycle))
    blob = json.dumps({"setup": workload.setup_params(), "ops": ops},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def time_import(env, cwd):
    """Wall time of a fresh interpreter running ``import cavityheat``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cavityheat"], env=env,
                   cwd=cwd, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def set_up(workload, import_s):
    """Set-up time of one run.

    The package import, timed once in this process, plus the median of
    SETUP_ROUNDS rounds of the workload's own preparation.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        workload.setup()
        rounds.append(time.perf_counter() - t0)
    return import_s + statistics.median(rounds)


class Pass:
    """Latencies, kinds, failures and quality of one measured pass.

    ``latencies`` and ``kinds`` hold one entry per op; with repeated
    timing an op's latency is its fastest timing.  ``executions`` counts
    every timed call, and failures are counted per call.
    """

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.executions = 0
        self.kind_executions = Counter()
        self.failed_ops = 0
        self.failures = Counter()
        self.quality = {}

    @property
    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)

    @property
    def fail_frac(self):
        return self.failed_ops / self.executions

    def add_quality(self, quality):
        for key, value in quality.items():
            worst = QUALITY_WORST[key]
            self.quality[key] = worst(self.quality.get(key, value), value)


def time_op(workload, spec, index, tracer, result):
    """Run and check one op; return its latency."""
    workload.before_op()
    tracer.op_id = index
    t0 = time.perf_counter()
    try:
        out = workload.run_op(spec, tracer)
        error = None
    except Exception as err:  # a failing op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        error = err
    latency = time.perf_counter() - t0
    kind = workload.kind(spec)
    result.executions += 1
    result.kind_executions[kind] += 1
    if error is None:
        failed, quality = workload.check(spec, out, tracer)
        result.add_quality(quality)
    else:
        failed = [f"exception:{type(error).__name__}"]
    if failed:
        result.failed_ops += 1
        result.failures.update(failed)
        print(f"op {index} {kind} failed: {failed}", file=sys.stderr)
    return latency


def measure(workload, seconds, tracer, specs=None, deadline=math.inf):
    """Closed loop: whole cycles of ops until ``seconds`` have passed.

    At least one cycle runs, and no op after the first starts after
    ``deadline`` (a ``perf_counter`` time).  A workload with ``repeats``
    above 1 then times the same ops again, round after round, and an
    op's latency is its fastest timing; the rounds lie seconds apart,
    so they see different phases of a shared machine.  ``specs`` replaces
    the workload's own inputs (the benchmark's tests plant defects
    through it).
    """
    result = Pass()
    end = time.perf_counter() + seconds
    specs = workload.inputs() if specs is None else specs
    done = []
    for index, spec in enumerate(specs):
        now = time.perf_counter()
        if index and index % workload.cycle == 0 and now >= end:
            break
        if index and now >= deadline:
            print(f"warning: op deadline reached after {index} ops",
                  file=sys.stderr)
            break
        result.latencies.append(time_op(workload, spec, index, tracer,
                                        result))
        result.kinds.append(workload.kind(spec))
        done.append(spec)
    for _ in range(workload.repeats - 1):
        for index, spec in enumerate(done):
            if time.perf_counter() >= deadline:
                print("warning: op deadline reached in a repeat round",
                      file=sys.stderr)
                break
            latency = time_op(workload, spec, index, tracer, result)
            result.latencies[index] = min(result.latencies[index], latency)
    tracer.op_id = None
    return result


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer no percentile has ten beyond it, and the slowest op is given.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(result, setup_s, rss_mb):
    tail, _, _ = tail_latency(result.latencies)
    return {"setup_s": setup_s, "ops_per_s": result.ops_per_s,
            "op_p50_s": statistics.median(result.latencies),
            "op_tail_s": tail, "peak_rss_mb": rss_mb}


def per_layer_metrics(tracer, result, untraced_ops_per_s, import_s):
    ops = result.executions
    kinds = result.kind_executions
    self_s = tracer.self_seconds()
    counters = tracer.counters
    out = {}
    for name in PER_LAYER_UNITS:
        base = name[:-2] if name.endswith("_s") else name
        if name in PER_KIND:
            n = sum(kinds[k] for k in PER_KIND[name])
            out[name] = self_s[base] / n if n else 0.0
        elif name == "spectrum.bessel_s":
            out[name] = counters[name] / ops
        elif name.endswith("_s"):
            out[name] = self_s[base] / ops
        elif name in ("asymptotics.fit_cond", "asymptotics.fit_chi2_dof"):
            values = tracer.samples.get(name)
            out[name] = statistics.median(values) if values else 0.0
        else:
            out[name] = counters[name] / ops
    out["casimir.usable_frac"] = (
        counters["casimir.kept"] / counters["casimir.attempted"]
        if counters["casimir.attempted"] else 0.0)
    out["cli.import_s"] = import_s
    out["trace_overhead"] = untraced_ops_per_s / result.ops_per_s
    return out


def with_units(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# one workload, or all of them
# ---------------------------------------------------------------------------

def run_workload(args, workdir, import_s):
    import workloads
    from tracing import NULL_TRACER, Tracer

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workdir)
    setup_s = set_up(workload, import_s)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": inputs_digest(workload),
              "machine": machine_facts(), "setup_rounds": SETUP_ROUNDS,
              "repeats": workload.repeats,
              "import_s": import_s}
    deadline = T_START + OP_DEADLINE_S
    untraced = measure(workload, args.seconds, NULL_TRACER, deadline=deadline)
    passes = [untraced]
    if args.trace:
        tracer = Tracer()
        for module, attr, name, points_from, as_span in workloads.WRAPPED:
            tracer.wrap(module, attr, name, points_from, as_span)
        try:
            traced = measure(workload, args.seconds, tracer,
                             deadline=deadline)
        finally:
            tracer.restore()
        passes.append(traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        fresh_import_s = statistics.median(
            time_import(workloads.cli_env(workdir), workdir)
            for _ in range(SETUP_ROUNDS))
        metrics = with_units(
            per_layer_metrics(tracer, traced, untraced.ops_per_s,
                              fresh_import_s),
            PER_LAYER_UNITS)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["per_layer"] = metrics
    else:
        metrics = with_units(
            end_to_end_metrics(untraced, setup_s,
                               peak_rss_mb(cls is workloads.CliPipeline)),
            END_TO_END_UNITS)
        tail, percentile, beyond = tail_latency(untraced.latencies)
        report["end_to_end"] = metrics
        report["op_tail"] = {"percentile": percentile,
                             "samples_beyond": beyond,
                             "samples": len(untraced.latencies)}
        report["latencies_s"] = untraced.latencies
        report["op_p50_by_kind_s"] = {
            kind: statistics.median(
                [t for t, k in zip(untraced.latencies, untraced.kinds)
                 if k == kind])
            for kind in sorted(set(untraced.kinds))}

    attempted = sum(p.executions for p in passes)
    failed = sum(p.failed_ops for p in passes)
    report["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    report["failures"] = dict(sum((p.failures for p in passes), Counter()))
    report["quality"] = untraced.quality
    return report, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in turn, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "cavityheat" / "__init__.py").is_file():
        print(f"error: no cavityheat package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cavityheat
    if Path(cavityheat.__file__).resolve().parent != SRC / "cavityheat":
        print(f"error: cavityheat imported from {cavityheat.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (the rest of the set-up import)
    import_s = time.perf_counter() - t0

    # a terminated run still removes its scratch files and stops the
    # CLI child it is waiting for (subprocess.run kills it on the way out)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        report, result = run_workload(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
