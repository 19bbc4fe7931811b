"""Batch command-line front end.

Subcommands evaluate bounds over parameter sweeps, run Monte Carlo
simulation trials, locate critical read lengths by bisection, tabulate
confusion exponents, benchmark block denoisers, and run the exact
bridging estimator. Output is CSV (schema tagged `#poolseq-limits v1`)
plus optional JSON summaries. Runs are deterministic for a fixed seed
regardless of worker count.

Exit codes: 0 success, 2 malformed configuration, 3 capacity refusal,
4 empty region (critical-l target unreachable).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from ._util import bisect_decreasing, format_g, wilson_interval
from .core import (CapacityError, FixedBiallelic, FixedEta, ModelConfig,
                   RandomStream, ValidationError)
from .denoise import DenoiseBlock, ml_denoise, spectral_denoise
from .exact_bridging import estimate_bridging
from .noiseless_bounds import (VARIANT_ASYMPTOTIC, assembly_bounds,
                               bridging_bounds, coverage_bounds)
from .noisy_bounds import (SegmentationPlan, den_ml_upper, exponent_closed,
                           exponent_table, noisy_upper_ml,
                           noisy_upper_spectral)
from .pipeline import (TrialResult, estimate_trial_bytes,
                       run_noiseless_trial, run_noisy_trial)

SCHEMA_TAG = "#poolseq-limits v1"

EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_EMPTY_REGION = 4

_INT_KEYS = {"G", "M", "trials", "seed"}
_FLOAT_KEYS = {"p", "L", "lambda", "eta", "maf", "eps", "D", "d", "c_const"}
_STR_KEYS = {"nu_min_mode"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

# per-trial failure flags; their field order is the CSV column order
_TRIAL_FLAGS = tuple(f.name for f in dataclasses.fields(TrialResult)
                     if f.name != "success")


class ConfigError(Exception):
    pass


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """Split a KEY=VALUE item, check the key and parse the value; `where`
    prefixes every error message."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected KEY=VALUE")
    key, raw = (t.strip() for t in item.split("=", 1))
    if key not in _ALL_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        if key in _INT_KEYS:
            return key, int(raw)
        if key in _FLOAT_KEYS:
            return key, float(raw)
        return key, raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}")


def load_config_file(path: str) -> dict:
    params: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
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
            raise ConfigError(f"missing required key {key!r}")
    if ("eta" in params) == ("maf" in params):
        raise ConfigError("exactly one of 'eta' or 'maf' must be given")
    law = FixedEta(params["eta"]) if "eta" in params \
        else FixedBiallelic(params["maf"])
    try:
        return ModelConfig(G=params["G"], M=params["M"], p=params["p"],
                           L=params["L"], lam=params["lambda"],
                           law=law, eps=params.get("eps", 0.0))
    except ValidationError as e:
        raise ConfigError(str(e))


def parse_sweeps(specs: tuple[str, ...]) -> list[tuple[str, np.ndarray]]:
    axes = []
    for spec in specs:
        try:
            name, rest = spec.split("=", 1)
            parts = rest.split(":")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            scale = parts[3] if len(parts) > 3 else "linear"
        except (ValueError, IndexError):
            raise ConfigError(
                f"sweep {spec!r}: expected NAME=MIN:MAX:COUNT[:log]")
        name = name.strip()
        if name not in _ALL_KEYS:
            raise ConfigError(f"sweep {spec!r}: unknown parameter {name!r}")
        if count < 1:
            raise ConfigError(f"sweep {spec!r}: count must be >= 1")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"sweep {spec!r}: MIN and MAX must be finite")
        if scale == "log":
            if lo <= 0.0 or hi <= 0.0:
                raise ConfigError(
                    f"sweep {spec!r}: a log axis needs MIN and MAX > 0")
            vals = np.geomspace(lo, hi, count)
        elif scale == "linear":
            vals = np.linspace(lo, hi, count)
        else:
            raise ConfigError(f"sweep {spec!r}: scale must be linear or log")
        if name in _INT_KEYS:
            vals = np.unique(np.round(vals).astype(int))
        axes.append((name, vals))
    return axes


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    fh, close = _open_out(path)
    try:
        fh.write(SCHEMA_TAG + "\n")
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(format_g(row.get(f, "")) for f in fieldnames) + "\n")
    finally:
        if close:
            fh.close()


class _Main(click.Group):
    """Command group mapping library errors to exit codes for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, ValidationError) as e:
            code, message = EXIT_CONFIG, str(e)
        except CapacityError as e:
            code, message = EXIT_CAPACITY, str(e)
        click.echo(f"error: {message}", err=True)
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
    row = {}
    for key in sorted(_ALL_KEYS):
        row[key] = params.get(key, "")
    return row


def _plan(params: dict) -> SegmentationPlan | None:
    if "D" in params and "d" in params:
        return SegmentationPlan(D=params["D"], d=params["d"])
    return None


def _coverage(config: ModelConfig, params: dict) -> dict:
    cov = coverage_bounds(config)
    return {"esc_lower": cov.lower, "esc_upper": cov.upper}


def _assembly(config: ModelConfig, params: dict) -> dict:
    asm = assembly_bounds(config)
    return {"e_lower": asm.lower, "e_upper": asm.upper}


def _assembly_asym(config: ModelConfig, params: dict) -> dict:
    asm = assembly_bounds(config, VARIANT_ASYMPTOTIC)
    return {"e_lower_asym": asm.lower, "e_upper_asym": asm.upper}


def _bridging(config: ModelConfig, params: dict) -> dict:
    br = bridging_bounds(config)
    return {"eb_lower": br.lower, "eb_upper": br.upper,
            "eb_degenerate": int(br.degenerate)}


def _ml(config: ModelConfig, params: dict) -> dict:
    value, plan = noisy_upper_ml(config, _plan(params))
    return {"en_ml_upper": value, "en_ml_D": plan.D, "en_ml_d": plan.d}


def _spectral(config: ModelConfig, params: dict) -> dict:
    value, plan = noisy_upper_spectral(
        config, _plan(params), mode=params.get("nu_min_mode", "average_case"),
        c_const=params.get("c_const", 1.0))
    return {"en_sd_upper": value, "en_sd_D": plan.D, "en_sd_d": plan.d}


# bound family -> (evaluate to CSV columns, whether `bounds` writes them)
_FAMILIES = {
    "coverage": (_coverage, lambda config: True),
    "assembly": (_assembly, lambda config: True),
    "assembly-asym": (_assembly_asym, lambda config: config.lam > 0),
    "bridging": (_bridging, lambda config: config.M >= 2),
    "ml": (_ml, lambda config: config.eps > 0.0),
    "spectral": (_spectral, lambda config: config.eps > 0.0),
}

# critical-l --bound name -> (family, column)
_BOUNDS = {
    "assembly-upper": ("assembly", "e_upper"),
    "assembly-lower": ("assembly", "e_lower"),
    "assembly-upper-asym": ("assembly-asym", "e_upper_asym"),
    "coverage-upper": ("coverage", "esc_upper"),
    "bridging-upper": ("bridging", "eb_upper"),
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
    for point in itertools.product(*(vals.tolist() for _, vals in axes)):
        params = {**base, **dict(zip(names, point))}
        config = build_model(params)
        row = _echo_params(params)
        for evaluate, applies in _FAMILIES.values():
            if applies(config):
                row.update(evaluate(config, params))
        rows.append(row)
    fieldnames = sorted({k for r in rows for k in r},
                        key=lambda k: (k not in _ALL_KEYS, k))
    write_csv(out, fieldnames, rows)


def _simulate_one(args) -> dict:
    params, seed, trial, denoiser = args
    config = build_model(params)
    stream = RandomStream(seed).child(trial, "trial")
    if config.eps > 0.0:
        plan = SegmentationPlan(D=params["D"], d=params["d"])
        res = run_noisy_trial(config, plan, stream, denoiser,
                              params.get("nu_min_mode", "average_case"))
    else:
        res = run_noiseless_trial(config, stream)
    row = {"trial": trial}
    for name in _TRIAL_FLAGS:
        v = getattr(res, name)
        row[name] = "" if v is None else int(v)
    row["success"] = int(res.success)
    return row


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
        raise ConfigError(f"trials must be >= 0, got {trials}")
    RandomStream(seed)  # rejects a bad seed before any trial runs
    config = build_model(params)
    if config.eps > 0.0 and not ("D" in params and "d" in params):
        raise ConfigError("noisy simulation needs D and d")
    est = estimate_trial_bytes(config)
    if est > mem_cap_mb * 1024 * 1024:
        raise CapacityError(
            f"estimated {est / 1e6:.0f} MB per trial exceeds the cap; "
            f"reduce G, lambda, or p, or raise --mem-cap-mb")
    jobs = [(params, seed, t, denoiser) for t in range(trials)]
    if workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_simulate_one, jobs,
                                 chunksize=max(1, trials // (workers * 4))))
    else:
        rows = [_simulate_one(j) for j in jobs]
    rows.sort(key=lambda r: r["trial"])
    echo = _echo_params(params)
    for row in rows:
        row.update(echo)
    fieldnames = sorted(_ALL_KEYS) + ["trial", *_TRIAL_FLAGS, "success"]
    write_csv(out, fieldnames, rows)
    summary = {"trials": trials, "seed": seed}
    for flag in (*_TRIAL_FLAGS, "success"):
        vals = [r[flag] for r in rows if r[flag] != ""]
        if vals:
            k = int(sum(vals))
            lo, hi = wilson_interval(k, len(vals))
            summary[flag] = {"count": k, "rate": k / len(vals),
                             "ci95": [lo, hi]}
    if as_json:
        click.echo(json.dumps(summary, sort_keys=True))
    else:
        for key, val in summary.items():
            click.echo(f"{key}: {val}")


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
        raise ConfigError("--target must be a number, got nan")
    if l_min > l_max:
        raise ConfigError(f"reversed bracket: --l-min {l_min} > --l-max {l_max}")
    family, column = _BOUNDS[bound]
    evaluate = _FAMILIES[family][0]

    # cached so that bisection reuses the endpoint values checked here
    @functools.cache
    def f(L: float) -> float:
        return evaluate(build_model({**params, "L": L}), params)[column]

    if f(l_min) < f(l_max):
        raise ConfigError("bound is not non-increasing on the bracket")
    value, iters = bisect_decreasing(f, target, l_min, l_max)
    if value is None:
        if as_json:
            click.echo(json.dumps({"region": "empty", "bound": bound,
                                   "target": target,
                                   "bracket": [l_min, l_max]}))
        else:
            click.echo(f"region empty: {bound} stays above {target} "
                       f"on [{l_min}, {l_max}]")
        sys.exit(EXIT_EMPTY_REGION)
    result = {"bound": bound, "target": target, "critical_L": value,
              "bracket": [l_min, l_max], "iterations": iters}
    if as_json:
        click.echo(json.dumps(result, sort_keys=True))
    else:
        for key, val in result.items():
            click.echo(f"{key}: {val}")


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
        raise ConfigError(f"cannot parse eps list {eps_list!r}")
    rows = []
    for eps in eps_values:
        tbl = exponent_table(m_individuals, kappa, eps)
        closed = exponent_closed(m_individuals, eps)
        for i, d_i in enumerate(tbl, start=1):
            rows.append({"M": m_individuals, "kappa": kappa, "eps": eps,
                         "i": i, "exponent": d_i, "d1_closed": closed})
    write_csv(out, ["M", "kappa", "eps", "i", "exponent", "d1_closed"], rows)


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
        raise ConfigError(f"--coverage must be finite, got {coverage}")
    if math.isnan(eta):
        raise ConfigError("--eta must be a number, got nan")
    stream = RandomStream(seed)
    minor = 0.5 * (1.0 - math.sqrt(2.0 * eta - 1.0))
    rows = []
    algos = ["ml", "spectral"] if algo == "both" else [algo]
    for name in algos:
        fails = 0
        used = 0
        for b in range(blocks):
            gen = stream.child("bench", b).gen
            truth = _plant_truth(gen, m_individuals, kappa, minor)
            n = int(gen.poisson(coverage))
            if n == 0 or (name == "spectral" and n < m_individuals):
                fails += 1
                used += 1
                continue
            who = gen.integers(0, m_individuals, size=n)
            obs = truth[who]
            flips = gen.random(obs.shape) < eps
            obs = np.where(flips, -obs, obs).astype(np.int8)
            block = DenoiseBlock(kappa=kappa, observations=obs,
                                 M=m_individuals, eps=eps)
            if name == "ml":
                decoded = ml_denoise(block)
            else:
                decoded = spectral_denoise(block, mode="average_case",
                                           eta=eta,
                                           stream=stream.child("sp", b)
                                           ).sequences
            same = {r.tobytes() for r in decoded} == \
                {r.tobytes() for r in truth}
            fails += int(not same)
            used += 1
        lo, hi = wilson_interval(fails, used)
        row = {"algo": name, "M": m_individuals, "kappa": kappa,
               "eps": eps, "coverage": coverage, "blocks": used,
               "failure_rate": fails / used, "ci_low": lo, "ci_high": hi}
        if name == "ml":
            row["ml_bound"] = den_ml_upper(
                m_individuals, 1.0, coverage / m_individuals + 1.0, 1.0,
                eps, kappa=kappa)
        rows.append(row)
    write_csv(out, ["algo", "M", "kappa", "eps", "coverage", "blocks",
                    "failure_rate", "ci_low", "ci_high", "ml_bound"], rows)


def _plant_truth(gen, M: int, kappa: int, minor: float) -> np.ndarray:
    for _ in range(1000):
        truth = np.where(gen.random((M, kappa)) < minor, 1, -1).astype(np.int8)
        if len({r.tobytes() for r in truth}) == M:
            return truth
    raise CapacityError("could not plant distinct truths; raise kappa or minor")


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
    config = build_model(params)
    res = estimate_bridging(config.G, config.L, config.lam, config.p,
                            config.eta, trials, RandomStream(seed))
    row = _echo_params(params)
    row.update({"estimate": res.estimate, "ci_low": res.ci_low,
                "ci_high": res.ci_high, "prefactor": res.prefactor,
                "trials": res.trials, "failures": res.failures,
                "mean_steps": res.mean_steps,
                "capped_trials": res.capped_trials})
    write_csv(out, list(row.keys()), [row])


if __name__ == "__main__":
    main()
