"""Benchmark driver: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload sim-noiseless --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from a
traced pass over a fixed number of ops, plus the tracing overhead against
an untraced pass over the same ops. Lines before it give the environment,
the workload's named metrics, every check and probe, and a digest of the
seeded outputs. A fuller record (and, when traced, every span) goes to
.perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

# one BLAS thread: the process then uses one thread, within nproc, and the
# timings do not depend on how busy the other cores are
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# clock imports numpy, so it comes after the pin
from clock import Calibrator, reference_slowdown, timed_process  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BENCH_FILE = ROOT / "BENCHMARK.json"
SETUP_REPS = 13

SELF_TIMED = [
    "assemble.greedy_assemble", "assemble.check_coverage",
    "assemble.check_bridging", "assemble.score_assembly",
    "simulate.generate_reads", "simulate.generate_population",
    "core.RandomStream.child", "simulate.ReadSet.observations",
    "simulate.apply_noise", "denoise.ml_denoise", "denoise.spectral_denoise",
    "denoise.extract_block", "pipeline.run_noisy_trial",
    "pipeline.run_noiseless_trial", "exact_bridging.estimate_bridging",
    "exact_bridging.sample_region_span", "noisy_bounds.noisy_upper_spectral",
    "noisy_bounds.noisy_upper_ml",
    "util.poisson_weights", "util.golden_min", "noiseless_bounds.assembly_bounds",
    "cli.critical_l",
]
CALL_COUNTED = [
    "assemble.check_coverage", "core.RandomStream.child", "denoise.ml_denoise",
    "denoise.spectral_denoise", "denoise.extract_block",
    "noisy_bounds.spectral_quantities", "noisy_bounds.disc_upper",
    "util.poisson_weights", "util.golden_min", "noiseless_bounds.assembly_bounds",
]
COUNTED = [
    ("simulate.reads", "count"), ("simulate.snps", "count"),
    ("simulate.observed_values", "bytes"),
    ("denoise.ml_denoise.candidates", "count"),
    ("denoise.spectral_denoise.rows", "count"),
    ("denoise.spectral_denoise.degraded", "count"),
    ("denoise.spectral_denoise.reseeds", "count"),
    ("pipeline.coverage_fail", "count"),
    ("pipeline.bridging_fail", "count"), ("pipeline.greedy_fail", "count"),
    ("pipeline.disc_fail", "count"), ("pipeline.denoise_fail", "count"),
    ("pipeline.stitch_fail", "count"), ("exact_bridging.chain_steps", "count"),
    ("exact_bridging.capped_trials", "count"),
    ("cli.critical_l.bound_evals", "count"),
    ("util.bisect_decreasing.iterations", "count"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=json.loads(BENCH_FILE.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build the inputs, run the warm-up op, exit")
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "cpu": platform.processor() or platform.machine(),
        **cache_sizes(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return f"unverified (set {BLAS_THREADS})"


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"l{level}_cache"] = size
    return out or {"l2_cache": "unknown", "l3_cache": "unknown"}


@dataclass
class Phase:
    """Ops run back to back. `ops` holds (index, result or None when the op
    raised, start, end, seconds spent calibrating inside the op); `batches`
    holds positions into `ops`; `failures` holds (index, refused, message)
    for every op that raised."""

    ops: list = field(default_factory=list)
    batches: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cal: Calibrator = field(default_factory=Calibrator)

    def results(self):
        return [(i, res) for i, res, *_ in self.ops if res is not None]

    def factors(self, calibrated: bool = True) -> list[float]:
        """Per op: the time-weighted mean slowdown across its batch (1.0 for
        wall time)."""
        out = [1.0] * len(self.ops)
        if calibrated:
            for b in self.batches:
                f = self.cal.factor(self.ops[b[0]][2], self.ops[b[-1]][3])
                for k in b:
                    out[k] = f
        return out

    def seconds(self, calibrated: bool = True) -> list[float]:
        """Seconds per op; calibrated ones are rescaled to nominal speed."""
        return [(t1 - t0 - spent) / f for (_, _, t0, t1, spent), f
                in zip(self.ops, self.factors(calibrated))]

    def rate(self, calibrated: bool = True) -> float:
        """Median over batches of completed ops per second of op time."""
        secs = self.seconds(calibrated)
        return statistics.median(
            sum(1 for k in b if self.ops[k][1] is not None)
            / sum(secs[k] for k in b) for b in self.batches)

    def scaled_results(self, calibrated: bool = True):
        """Results with sub-timings rescaled like their op."""
        return [replace(res, parts={k: [v / f for v in vs]
                                    for k, vs in res.parts.items()})
                for (_, res, *_), f in zip(self.ops, self.factors(calibrated))
                if res is not None]


def install_ticks(points, sample) -> list[tuple]:
    """Rebind each (module, name) in `points` so that every call takes a
    calibration sample first (at most one per EVERY_S); returns what to
    restore. A name the module no longer has is skipped: its calls then
    get no samples inside them, and the timing stays valid."""
    restore = []
    for owner, attr in points:
        if attr not in vars(owner):
            continue
        original = vars(owner)[attr]

        def wrapper(*args, _original=original, **kwargs):
            sample()
            return _original(*args, **kwargs)
        setattr(owner, attr, wrapper)
        restore.append((owner, attr, original))
    return restore


def run_phase(wl, seconds=None, n_ops=None, on_op=None,
              inner_ticks=False) -> Phase:
    """Closed loop: whole batches of ops back to back until `seconds` have
    passed or `n_ops` ops have run, calibrating between ops and, with
    inner_ticks, also at the workload's tick points inside long calls. A
    failing or refused op is recorded and the loop goes on."""
    from workloads import REFUSALS

    ph = Phase()
    wl.tick = ph.cal.sample
    ph.cal.sample(force=True)
    restore = install_ticks(wl.tick_points, ph.cal.sample) if inner_ticks else []
    i = 0
    t_begin = time.perf_counter()
    try:
        while True:
            batch = []
            for _ in range(wl.batch):
                ph.cal.sample()
                if on_op:
                    on_op(i)
                res = None
                spent = ph.cal.spent
                t0 = time.perf_counter()
                try:
                    res = wl.op(i)
                except REFUSALS as exc:
                    ph.failures.append((i, True, repr(exc)))
                except Exception as exc:  # an op failure is a result
                    ph.failures.append((i, False, repr(exc)))
                    traceback.print_exc(file=sys.stderr)
                batch.append(len(ph.ops))
                ph.ops.append((i, res, t0, time.perf_counter(),
                               ph.cal.spent - spent))
                i += 1
            ph.batches.append(batch)
            if n_ops is not None and i >= n_ops:
                break
            if seconds is not None and time.perf_counter() - t_begin >= seconds:
                break
    finally:
        for owner, attr, original in restore:
            setattr(owner, attr, original)
    ph.cal.sample(force=True)
    return ph


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall and calibrated seconds of SETUP_REPS fresh processes that import,
    build the inputs and run the warm-up op. Each is rescaled by the mean
    slowdown of the reference processes run just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    wall, calibrated = [], []
    before = reference_slowdown()
    for _ in range(SETUP_REPS):
        secs = timed_process(cmd, cwd=ROOT)
        after = reference_slowdown()
        wall.append(secs)
        calibrated.append(secs / ((before + after) / 2))
        before = after
    return wall, calibrated


def run_checks(wl, results):
    """Per-op checks of every completed op, then the workload's final
    checks. Returns (report lines, ops failing a check, final checks,
    final checks failed)."""
    bad = [i for i, res in results if not all(wl.check_op(res))]
    final = wl.final_checks([res for _, res in results])
    report = [(f"per-op ({len(results)} ops)", not bad,
               f"failing ops {bad[:10]}" if bad else "all hold"), *final]
    return report, len(bad), len(final), sum(1 for _, ok, _ in final if not ok)


def emit(lines: list[str], record: dict, path: Path) -> None:
    for ln in lines:
        print(ln)
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=repr))


def first_per_op(items):
    """Drop repeats of an op index (a traced run runs the leading ops twice);
    each item starts with its op index."""
    seen = set()
    return [it for it in items if not (it[0] in seen or seen.add(it[0]))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poolseq_limits" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, digest, latency_summary

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed).warmup()
        print(time.perf_counter())  # the end of set-up, for measure_setup
        return 0

    env = environment(args.seed)
    setup_wall, setup_cal = ([], []) if args.trace else measure_setup(args)
    wl = WORKLOADS[args.workload](args.seed)
    wl.warmup()
    lines = [f"# perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "env " + json.dumps(env, sort_keys=True)]

    if args.trace:
        metrics, results, failures, extra = traced_run(wl)
        probes = []
    else:
        ph = run_phase(wl, seconds=args.seconds, inner_ticks=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results, failures = ph.results(), ph.failures
        probes = wl.probes()
    results = first_per_op(results)
    failures = first_per_op(failures)
    checks, bad_ops, n_final, failed_final = run_checks(wl, results)
    crashed = [f for f in failures if not f[1]]
    # each op counts once, whether it completed, failed a check, was
    # refused or crashed; each final check counts once
    attempted = len(results) + len(failures) + n_final
    failed = len(failures) + bad_ops + failed_final

    if not args.trace:
        failed_probes = sum(1 for _, ok, _ in probes if not ok)
        fail_frac = (failed + failed_probes) / (attempted + len(probes))
        # gated: the share of ops that completed and passed their checks,
        # times the share of final checks and probes that passed. The op
        # count depends on the machine's speed and the others are fixed per
        # workload, so the two shares are kept apart to keep it steady.
        n_ops = attempted - n_final
        n_fixed = n_final + len(probes)
        ok_frac = (1 - (failed - failed_final) / n_ops) * \
            (1 - (failed_final + failed_probes) / n_fixed if n_fixed else 1.0)
        done = [res is not None for _, res, *_ in ph.ops]
        extra = {"calibration": ph.cal.values}
        for kind, cal in (("calibrated", True), ("wall", False)):
            secs = [s for s, ok in zip(ph.seconds(cal), done) if ok]
            p50, tail, pct, n = latency_summary(secs)
            setup = statistics.median(setup_cal if cal else setup_wall)
            named = {**wl.detail_metrics(ph.scaled_results(cal), secs),
                     "op_tail_ms": (tail, f"ms@p{pct:.1f}/n={n}"),
                     "setup_s": (setup, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
                     "fail_frac": (fail_frac, "ratio")}
            extra[kind] = {"ops_per_s": ph.rate(cal), "op_p50_ms": p50,
                           "op_tail_ms": tail, "op_tail_percentile": pct,
                           "op_samples": n, "setup_s": setup,
                           "setup_samples_s": setup_cal if cal else setup_wall,
                           "named": named}
            for name, (value, unit) in named.items():
                lines.append(f"named {kind} {name} {value:.6g} {unit}")
        c = extra["calibrated"]
        lines.append(f"setup_s is the median of {len(setup_cal)} setups; "
                     f"median slowdown {statistics.median(ph.cal.values):.3f}")
        metrics = {
            "ops_per_s": (c["ops_per_s"], "1/s"),
            "op_p50_ms": (c["op_p50_ms"], "ms"),
            "setup_s": (c["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (ok_frac, "ratio"),
        }

    first = [wl.digest_item(res) for i, res in results if i < wl.digest_ops]
    lines.append(f"digest first {wl.digest_ops} ops " + (
        digest(first) if len(first) == wl.digest_ops else "incomplete"))
    for name, ok, detail in checks:
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, ok, detail in probes:
        lines.append(f"probe {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for i, refused, msg in failures[:20]:
        lines.append(f"{'refused' if refused else 'error'} op {i}: {msg}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")

    # a refusal is an answer the program may give; a crash or a failed check
    # is a wrong one
    correct = bool(results) and not crashed and not bad_ops and not failed_final
    result = {"correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"args": vars(args), "env": env, "result": result, **extra,
              "checks": checks, "probes": probes, "failures": failures}
    emit(lines, record, OUT_DIR / f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    print(json.dumps(result))
    return 0


def traced_run(wl):
    """The same fixed ops twice: untraced, then traced. A fixed op count
    makes the counts repeat exactly for a seed, and running the same ops
    both ways gives the tracing overhead. Returns the per-layer metrics and
    every result for the checks."""
    import tracing

    plain = run_phase(wl, n_ops=wl.trace_ops)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    def on_op(i):
        tracer.op = i
    try:
        traced = run_phase(wl, n_ops=wl.trace_ops, on_op=on_op)
    finally:
        tracer.restore()

    selfs = tracer.self_times()
    counts = tracer.counts
    counts["cli.critical_l.bound_evals"] = tracer.child_calls("cli.critical_l")
    counts.update(wl.trace_counts([r for _, r in traced.results()]))
    metrics = {}
    for name in SELF_TIMED:
        metrics[name + ".self_s"] = (selfs.get(name, 0.0), "s")
    for name in CALL_COUNTED:
        metrics[name + ".calls"] = (counts[name + ".calls"], "count")
    for name, unit in COUNTED:
        metrics[name] = (counts[name], unit)
    rate_plain = len(plain.results()) / sum(plain.seconds())
    rate_traced = len(traced.results()) / sum(traced.seconds())
    metrics["trace.ops_per_s_untraced"] = (rate_plain, "1/s")
    metrics["trace.ops_per_s_traced"] = (rate_traced, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - rate_traced / rate_plain, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{wl.name}-seed{wl.seed}-spans.jsonl")
    extra = {"missing_hooks": tracer.missing, "traced_ops": wl.trace_ops}
    return metrics, plain.results() + traced.results(), \
        plain.failures + traced.failures, extra


if __name__ == "__main__":
    sys.exit(main())
