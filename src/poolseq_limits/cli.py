"""Batch command-line front end.

Subcommands evaluate bounds over parameter sweeps, run Monte Carlo
simulation trials, locate critical read lengths by bisection, tabulate
confusion exponents, benchmark block denoisers, and run the exact
bridging estimator. Output is CSV (schema tagged `#poolseq-limits v1`)
plus optional JSON summaries. Runs are deterministic for a fixed seed
regardless of worker count.

Exit codes: 0 success, 2 malformed option, config file or output path,
3 capacity refusal, 4 empty region (critical-l target unreachable). Every
command raises core.ValidationError or core.CapacityError, and the command
group alone turns them into exit codes 2 and 3.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

import click
import numpy as np

from ._util import bisect_decreasing, clamp01, format_g, wilson_interval
from .core import (CapacityError, FixedBiallelic, FixedEta, ModelConfig,
                   RandomStream, ValidationError)
from .denoise import AVERAGE_CASE, WORST_CASE, DenoiseBlock
from .exact_bridging import estimate_bridging
from .noiseless_bounds import (assembly_asymptotic, bridging_lower,
                               bridging_upper, coverage_lower,
                               coverage_upper)
from .noisy_bounds import (SegmentationPlan, den_ml_upper, exponent_closed,
                           exponent_table, noisy_upper_ml,
                           noisy_upper_spectral)
from .pipeline import (TrialResult, decode_block, estimate_trial_bytes,
                       run_noiseless_trial, run_noisy_trial)

SCHEMA_TAG = "#poolseq-limits v1"

EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_EMPTY_REGION = 4


def _nu_min_mode(raw: str) -> str:
    """The spectral analysis mode, one of the two `denoise` defines."""
    if raw not in (WORST_CASE, AVERAGE_CASE):
        raise ValueError(raw)
    return raw


# config key -> value parser, in CSV column order
_KEYS = {"D": float, "G": int, "L": float, "M": int, "c_const": float,
         "d": float, "eps": float, "eta": float, "lambda": float,
         "maf": float, "nu_min_mode": _nu_min_mode, "p": float, "seed": int,
         "trials": int}

# denoise-bench refuses a block expected to hold more observations than this
BENCH_MAX_OBSERVATIONS = 1e8
_PLANT_REFUSED = "could not plant distinct truths; raise --kappa or lower --eta"

# per-trial failure flags; their field order is the CSV column order
_TRIAL_FLAGS = tuple(f.name for f in dataclasses.fields(TrialResult)
                     if f.name != "success")


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """Split a KEY=VALUE item, check the key and parse the value; `where`
    prefixes every error message."""
    if "=" not in item:
        raise ValidationError(f"{where}: expected KEY=VALUE")
    key, raw = (t.strip() for t in item.split("=", 1))
    if key not in _KEYS:
        raise ValidationError(f"{where}: unknown key {key!r}")
    try:
        return key, _KEYS[key](raw)
    except ValueError:
        raise ValidationError(
            f"{where}: cannot parse value {raw!r} for key {key!r}")


def load_config_file(path: str) -> dict:
    params: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"{path}: {e}")
    for ln, line in enumerate(lines, start=1):
        item = line.split("#", 1)[0].strip()
        if item:
            key, value = _parse_item(item, f"{path}:{ln}")
            params[key] = value
    return params


def apply_overrides(params: dict, overrides: tuple[str, ...]) -> dict:
    return {**params, **dict(_parse_item(item, f"override {item!r}")
                             for item in overrides)}


def build_model(params: dict) -> ModelConfig:
    for key in ("G", "M", "p", "lambda", "L"):
        if key not in params:
            raise ValidationError(f"missing required key {key!r}")
    if ("eta" in params) == ("maf" in params):
        raise ValidationError("exactly one of 'eta' or 'maf' must be given")
    law = FixedEta(params["eta"]) if "eta" in params \
        else FixedBiallelic(params["maf"])
    return ModelConfig(G=params["G"], M=params["M"], p=params["p"],
                       L=params["L"], lam=params["lambda"],
                       law=law, eps=params.get("eps", 0.0))


def parse_sweeps(specs: tuple[str, ...]) -> list[tuple[str, list]]:
    axes = []
    for spec in specs:
        try:
            name, rest = spec.split("=", 1)
            parts = rest.split(":")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            scale = parts[3] if len(parts) > 3 else "linear"
        except (ValueError, IndexError):
            raise ValidationError(
                f"sweep {spec!r}: expected NAME=MIN:MAX:COUNT[:log]")
        name = name.strip()
        if name not in _KEYS:
            raise ValidationError(f"sweep {spec!r}: unknown parameter {name!r}")
        if name in dict(axes):
            raise ValidationError(f"sweep {spec!r}: axis {name!r} is repeated")
        if _KEYS[name] not in (int, float):
            raise ValidationError(f"sweep {spec!r}: {name!r} is not numeric")
        if count < 1:
            raise ValidationError(f"sweep {spec!r}: count must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"sweep {spec!r}: MIN and MAX must be finite")
        if scale == "log":
            if lo <= 0.0 or hi <= 0.0:
                raise ValidationError(
                    f"sweep {spec!r}: a log axis needs MIN and MAX > 0")
            vals = np.geomspace(lo, hi, count)
        elif scale == "linear":
            vals = np.linspace(lo, hi, count)
        else:
            raise ValidationError(f"sweep {spec!r}: scale must be linear or log")
        vals = vals.tolist()
        if _KEYS[name] is int:
            # Python ints, as an override gives: int64 would wrap past 2^63
            vals = sorted({round(v) for v in vals})
        axes.append((name, vals))
    return axes


def _output(path: str):
    """Stdout for "-", else `path` opened for appending and closed by click;
    a path that cannot be opened exits 2. One output rule: only `write_csv`
    truncates, as it writes the rows, so a refused run leaves an existing
    file as it was (a path that did not exist may be left empty)."""
    if path == "-":
        return sys.stdout
    try:
        fh = open(path, "a")
    except OSError as e:
        raise ValidationError(f"{path}: {e}")
    return click.get_current_context().with_resource(fh)


def write_csv(fh, fieldnames: list[str], rows: list[dict]) -> None:
    """Write the schema tag, header and rows to `fh` from `_output`, first
    truncating a regular file; stdout, /dev/null and FIFOs are not."""
    try:
        if fh is not sys.stdout and os.path.isfile(fh.name):
            fh.truncate(0)
    except OSError as e:
        raise ValidationError(f"{fh.name}: {e}")
    fh.write(SCHEMA_TAG + "\n")
    fh.write(",".join(fieldnames) + "\n")
    for row in rows:
        fh.write(",".join(format_g(row.get(f, "")) for f in fieldnames) + "\n")
    # the rows precede anything the command prints next, as when --out
    # names the same stream as stdout
    fh.flush()


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout or sys.stderr, named explicitly:
    without `file`, click caches a wrapper per stream object in a
    WeakKeyDictionary whose value keeps its key alive, so every in-process
    invocation (each with fresh streams) would leak one wrapper."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


class _Main(click.Group):
    """Command group mapping library errors to exit codes for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as e:
            code, message = EXIT_CONFIG, str(e)
        except CapacityError as e:
            code, message = EXIT_CAPACITY, str(e)
        _echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Main)
def main():
    """Pooled-sequencing assembly bounds and Monte Carlo validation."""


_common = [
    click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                 help="Flat KEY=VALUE config file."),
    click.option("--set", "-O", "overrides", multiple=True,
                 help="Override or supply a config key, KEY=VALUE."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _load_params(config_path, overrides) -> dict:
    params = load_config_file(config_path) if config_path else {}
    return apply_overrides(params, overrides)


def _echo_params(params: dict) -> dict:
    return {key: params.get(key, "") for key in _KEYS}


def _plan(params: dict) -> SegmentationPlan | None:
    if "D" in params and "d" in params:
        return SegmentationPlan(D=params["D"], d=params["d"])
    return None


def _assembly_lower(config: ModelConfig, params: dict) -> dict:
    cov = coverage_lower(config)  # as in assembly_lower
    return {"esc_lower": clamp01(cov),
            "e_lower": clamp01(max(cov, bridging_lower(config)))}


def _assembly_upper(config: ModelConfig, params: dict) -> dict:
    cov = coverage_upper(config)  # as in assembly_upper
    return {"esc_upper": clamp01(cov),
            "e_upper": clamp01(cov + bridging_upper(config))}


def _assembly_asym(config: ModelConfig, params: dict) -> dict:
    lower, upper = assembly_asymptotic(config)
    return {"e_lower_asym": clamp01(lower), "e_upper_asym": clamp01(upper)}


def _ml(config: ModelConfig, params: dict) -> dict:
    value, plan = noisy_upper_ml(config, _plan(params))
    return {"en_ml_upper": value, "en_ml_D": plan.D, "en_ml_d": plan.d}


def _spectral(config: ModelConfig, params: dict) -> dict:
    value, plan = noisy_upper_spectral(
        config, _plan(params), mode=params.get("nu_min_mode", AVERAGE_CASE),
        c_const=params.get("c_const", 1.0))
    return {"en_sd_upper": value, "en_sd_D": plan.D, "en_sd_d": plan.d}


def _always(config: ModelConfig) -> bool:
    return True


# bound family -> (evaluate to CSV columns, whether `bounds` writes them).
# Lower and upper bounds are separate families, so an upper bound never
# pays for a lower bound's search. The assembly families also write the
# coverage bound they combine, so a row runs each coverage bound once.
_FAMILIES = {
    "assembly-lower": (_assembly_lower, _always),
    "assembly-upper": (_assembly_upper, _always),
    "assembly-asym": (_assembly_asym, lambda config: config.lam > 0),
    # the bridging event is degenerate (bounded by 0 from both sides)
    # without discriminating SNPs
    "bridging-lower": (lambda config, params:
                       {"eb_lower": clamp01(bridging_lower(config)),
                        "eb_degenerate": int(config.disc_rate <= 0.0)},
                       lambda config: config.M >= 2),
    "bridging-upper": (lambda config, params:
                       {"eb_upper": clamp01(bridging_upper(config))},
                       lambda config: config.M >= 2),
    "ml": (_ml, lambda config: config.eps > 0.0),
    "spectral": (_spectral, lambda config: config.eps > 0.0),
}

# critical-l --bound name -> the family and `bounds` column it bisects
_BOUNDS = {
    "assembly-upper": ("assembly-upper", "e_upper"),
    "assembly-lower": ("assembly-lower", "e_lower"),
    "assembly-upper-asym": ("assembly-asym", "e_upper_asym"),
    "coverage-upper": ("assembly-upper", "esc_upper"),
    "bridging-upper": ("bridging-upper", "eb_upper"),
    "ml-upper": ("ml", "en_ml_upper"),
    "spectral-upper": ("spectral", "en_sd_upper"),
}


@main.command()
@common_options
@click.option("--sweep", "sweeps", multiple=True,
              help="Sweep axis NAME=MIN:MAX:COUNT[:log]; may repeat.")
@click.option("--out", default="-", help="CSV output path or - for stdout.")
def bounds(config_path, overrides, sweeps, out):
    """Evaluate analytic bounds at one point or over a sweep grid."""
    base = _load_params(config_path, overrides)
    axes = parse_sweeps(sweeps)
    names = [name for name, _ in axes]
    rows = []
    for point in itertools.product(*(vals for _, vals in axes)):
        params = {**base, **dict(zip(names, point))}
        config = build_model(params)
        row = _echo_params(params)
        for evaluate, applies in _FAMILIES.values():
            if applies(config):
                row.update(evaluate(config, params))
        rows.append(row)
    columns = {k for r in rows for k in r}.difference(_KEYS)
    fieldnames = [*_KEYS, *sorted(columns)]
    write_csv(_output(out), fieldnames, rows)


def _simulate_one(args) -> dict:
    params, plan, seed, trial, denoiser = args
    config = build_model(params)
    stream = RandomStream(seed).child(trial, "trial")
    if plan is not None:
        res = run_noisy_trial(config, plan, stream, denoiser,
                              params.get("nu_min_mode", AVERAGE_CASE))
    else:
        res = run_noiseless_trial(config, stream)
    row = {"trial": trial}
    for name in _TRIAL_FLAGS:
        v = getattr(res, name)
        row[name] = "" if v is None else int(v)
    row["success"] = int(res.success)
    return row


def _simulate_chunk(jobs: list) -> list[dict]:
    return [_simulate_one(job) for job in jobs]


def _simulate_pooled(jobs: list, workers: int) -> list[dict]:
    """The rows of `_simulate_one` over jobs, in order, on `workers`
    processes, in chunks of len(jobs) // (4 workers) trials. No more chunks
    are handed out than there are workers, so once a trial raises only the
    chunks already running finish before the error propagates, and a worker
    that dies raises BrokenProcessPool."""
    size = max(1, len(jobs) // (workers * 4))
    todo = ((i, jobs[i:i + size]) for i in range(0, len(jobs), size))
    rows = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        running = {pool.submit(_simulate_chunk, chunk): i
                   for i, chunk in itertools.islice(todo, workers)}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in sorted(done, key=running.get):
                i = running.pop(fut)
                rows[i:i + size] = fut.result()
            for i, chunk in itertools.islice(todo, len(done)):
                running[pool.submit(_simulate_chunk, chunk)] = i
    return rows


@main.command()
@common_options
@click.option("--trials", type=int, default=None, help="Trial count.")
@click.option("--seed", type=int, default=None, help="Root seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1,
              help="Worker processes.")
@click.option("--denoiser", type=click.Choice(["ml", "spectral"]), default="ml")
@click.option("--mem-cap-mb", type=click.IntRange(min=1), default=1024,
              help="Refuse trials whose estimated footprint exceeds this.")
@click.option("--out", default="-", help="Per-trial CSV path or - for stdout.")
@click.option("--json", "as_json", is_flag=True, help="JSON summary on stdout.")
def simulate(config_path, overrides, trials, seed, workers, denoiser,
             mem_cap_mb, out, as_json):
    """Run Monte Carlo assembly trials and summarize failure rates."""
    params = _load_params(config_path, overrides)
    if trials is None:
        trials = int(params.get("trials", 0))
    if seed is None:
        seed = int(params.get("seed", 0))
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    RandomStream(seed)  # rejects a bad seed before any trial runs
    config = build_model(params)
    if "eta" in params:
        raise ValidationError("simulate needs 'maf': 'eta' cannot be sampled")
    plan = None  # noiseless trials
    if config.eps > 0.0:
        plan = _plan(params)
        if plan is None:
            raise ValidationError("noisy simulation needs D and d")
    est = estimate_trial_bytes(config, plan)
    if est > mem_cap_mb * 1024 * 1024:
        raise CapacityError(
            f"estimated {est / 1e6:.0f} MB per trial exceeds the cap; "
            f"reduce G, lambda, or p, raise d, or raise --mem-cap-mb")
    fh = _output(out)
    jobs = [(params, plan, seed, t, denoiser) for t in range(trials)]
    if workers > 1 and trials > 1:
        rows = _simulate_pooled(jobs, workers)
    else:
        rows = [_simulate_one(j) for j in jobs]
    echo = _echo_params({**params, "trials": trials, "seed": seed})
    for row in rows:
        row.update(echo)
    fieldnames = [*_KEYS, "trial", *_TRIAL_FLAGS, "success"]
    write_csv(fh, fieldnames, rows)
    summary = {"trials": trials, "seed": seed}
    for flag in (*_TRIAL_FLAGS, "success"):
        vals = [r[flag] for r in rows if r[flag] != ""]
        if vals:
            k = int(sum(vals))
            lo, hi = wilson_interval(k, len(vals))
            summary[flag] = {"count": k, "rate": k / len(vals),
                             "ci95": [lo, hi]}
    if as_json:
        _echo(json.dumps(summary, sort_keys=True))
    else:
        for key, val in summary.items():
            _echo(f"{key}: {val}")


@main.command("critical-l")
@common_options
@click.option("--target", type=float, required=True, help="Target error rate.")
@click.option("--bound", type=click.Choice(list(_BOUNDS)), required=True)
@click.option("--l-min", type=float, default=1.0)
@click.option("--l-max", type=float, default=1e7)
@click.option("--json", "as_json", is_flag=True)
def critical_l(config_path, overrides, target, bound, l_min, l_max, as_json):
    """Bisect for the smallest read length meeting a target error rate."""
    # noisy bounds are always minimized over (D, d): a configured plan is
    # ignored here
    params = {k: v for k, v in _load_params(config_path, overrides).items()
              if k not in ("D", "d")}
    if math.isnan(target):
        raise ValidationError("--target must be a number, got nan")
    if l_min > l_max:
        raise ValidationError(f"reversed bracket: --l-min {l_min} > --l-max {l_max}")
    family, column = _BOUNDS[bound]
    evaluate = _FAMILIES[family][0]

    # cached so that bisection reuses the endpoint values checked here
    @functools.cache
    def f(L: float) -> float:
        return evaluate(build_model({**params, "L": L}), params)[column]

    if f(l_min) < f(l_max):
        raise ValidationError("bound is not non-increasing on the bracket")
    value, iters = bisect_decreasing(f, target, l_min, l_max)
    if value is None:
        if as_json:
            _echo(json.dumps({"region": "empty", "bound": bound,
                              "target": target,
                              "bracket": [l_min, l_max]}))
        else:
            _echo(f"region empty: {bound} stays above {target} "
                  f"on [{l_min}, {l_max}]")
        sys.exit(EXIT_EMPTY_REGION)
    result = {"bound": bound, "target": target, "critical_L": value,
              "bracket": [l_min, l_max], "iterations": iters}
    if as_json:
        _echo(json.dumps(result, sort_keys=True))
    else:
        for key, val in result.items():
            _echo(f"{key}: {val}")


@main.command()
@click.option("--m", "m_individuals", type=click.IntRange(min=1), required=True)
@click.option("--kappa", type=click.IntRange(min=1), required=True)
@click.option("--eps", "eps_list", required=True,
              help="Comma-separated flip probabilities in [0, 0.5].")
@click.option("--out", default="-")
def exponent(m_individuals, kappa, eps_list, out):
    """Tabulate confusion exponents by hypothesis distance."""
    try:
        eps_values = [float(t) for t in eps_list.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse eps list {eps_list!r}")
    rows = []
    for eps in eps_values:
        tbl = exponent_table(m_individuals, kappa, eps)
        closed = exponent_closed(m_individuals, eps)
        for i, d_i in enumerate(tbl, start=1):
            rows.append({"M": m_individuals, "kappa": kappa, "eps": eps,
                         "i": i, "exponent": d_i, "d1_closed": closed})
    write_csv(_output(out), ["M", "kappa", "eps", "i", "exponent", "d1_closed"],
              rows)


@main.command("denoise-bench")
@click.option("--m", "m_individuals", type=click.IntRange(min=1), default=2)
@click.option("--kappa", type=click.IntRange(min=1), required=True)
@click.option("--eps", type=click.FloatRange(0.0, 0.5), required=True)
@click.option("--coverage", type=click.FloatRange(min=0.0), required=True,
              help="Mean number of covering reads per block.")
@click.option("--blocks", type=click.IntRange(min=1), default=1000)
@click.option("--algo", type=click.Choice(["ml", "spectral", "both"]),
              default="both")
@click.option("--eta", type=click.FloatRange(0.5, 1.0), default=0.5,
              help="Match probability used to plant block contents; biallelic "
                   "planting realizes [0.5, 1].")
@click.option("--seed", type=int, default=0)
@click.option("--out", default="-")
def denoise_bench(m_individuals, kappa, eps, coverage, blocks, algo, eta, seed,
                  out):
    """Benchmark block denoisers against planted truths."""
    if not math.isfinite(coverage):
        raise ValidationError(f"--coverage must be finite, got {coverage}")
    if math.isnan(eta):
        raise ValidationError("--eta must be a number, got nan")
    if m_individuals > 2 ** kappa:
        raise ValidationError(
            f"--m {m_individuals} needs distinct truths, but --kappa {kappa} "
            f"gives only {2 ** kappa} sequences")
    if coverage * kappa > BENCH_MAX_OBSERVATIONS:
        raise CapacityError(
            f"--coverage {coverage} at --kappa {kappa} expects more than "
            f"{BENCH_MAX_OBSERVATIONS:.0e} observations per block")
    law = FixedBiallelic(0.5 * (1.0 - math.sqrt(2.0 * eta - 1.0)))
    stream = RandomStream(seed)
    algos = ["ml", "spectral"] if algo == "both" else [algo]
    # this call refuses, before any block is decoded, every (M, kappa) past
    # the bound's caps (PAIR_ENUM_CAP candidate sets, MATCHING_WORK_CAP
    # matchings); the blocks of every (M, kappa) they admit are either
    # enumerated, or have M = 1 and are searched within 2^kappa - 1 <= 2,047
    # nodes, so no block refuses after --out opens
    if "ml" in algos:
        ml_bound = den_ml_upper(m_individuals, coverage, eps, kappa=kappa)
    fh = _output(out)
    rows = []
    for name in algos:
        fails = 0
        for b in range(blocks):
            gen = stream.child("bench", b).gen
            truth = _plant_truth(gen, m_individuals, kappa, law)
            obs = truth[gen.integers(0, m_individuals,
                                     size=gen.poisson(coverage))]
            flips = gen.random(obs.shape) < eps
            block = DenoiseBlock(observations=np.where(flips, -obs, obs),
                                 M=m_individuals, eps=eps)
            decoded = decode_block(block, name, stream.child("sp", b),
                                   AVERAGE_CASE, eta)
            fails += decoded is None or \
                {r.tobytes() for r in decoded} != {r.tobytes() for r in truth}
        lo, hi = wilson_interval(fails, blocks)
        row = {"algo": name, "M": m_individuals, "kappa": kappa,
               "eps": eps, "coverage": coverage, "blocks": blocks,
               "failure_rate": fails / blocks, "ci_low": lo, "ci_high": hi}
        if name == "ml":
            row["ml_bound"] = ml_bound
        rows.append(row)
    write_csv(fh, ["algo", "M", "kappa", "eps", "coverage", "blocks",
                   "failure_rate", "ci_low", "ci_high", "ml_bound"], rows)


def _plant_truth(gen, M: int, kappa: int, law: FixedBiallelic) -> np.ndarray:
    for _ in range(1000):
        truth = law.alleles(gen, M, kappa)
        if len({r.tobytes() for r in truth}) == M:
            return truth
    raise CapacityError(_PLANT_REFUSED)


@main.command("exact-bridging")
@common_options
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", default="-")
def exact_bridging_cmd(config_path, overrides, trials, seed, out):
    """Estimate the two-individual bridging failure rate via the chain."""
    params = _load_params(config_path, overrides)
    if trials is None:
        trials = int(params.get("trials", 10000))
    if seed is None:
        seed = int(params.get("seed", 0))
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    stream = RandomStream(seed)
    config = build_model(params)
    fh = _output(out)
    res = estimate_bridging(config.G, config.L, config.lam, config.p,
                            config.eta, trials, stream)
    # the estimate's fields are its columns, in order; its trial count
    # fills the echoed "trials" column
    row = {**_echo_params({**params, "seed": seed}),
           **dataclasses.asdict(res)}
    write_csv(fh, list(row.keys()), [row])


if __name__ == "__main__":
    main()
