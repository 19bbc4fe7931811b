"""The four benchmark workloads: inputs, ops, output checks and edge probes.

Every op reaches the package through a public entry point, called through
its module (`pipeline.run_noiseless_trial`, not a bound name) so that the
traced run can rebind it. Inputs come only from the seed; parameter sets
are the ones README, the tests and the acceptance criteria already use.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from poolseq_limits import (assemble, cli, core, exact_bridging,
                            noisy_bounds, pipeline, simulate)
from poolseq_limits.core import CapacityError, FixedBiallelic, ModelConfig
from poolseq_limits.noisy_bounds import SegmentationPlan

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Wilson intervals at 99.9%: the seed changes on every run, and at the sizes
# used here a 95% overlap test would flag about one defect-free run in fifty
Z_CHECK = 3.290526731491926
PROBE_SEED = 1  # probes use fixed inputs, so their cost does not vary by seed


class Refused(RuntimeError):
    """A command refused the work with exit code 3 (a CapacityError)."""


# what an op may raise without being wrong: it is counted as refused
REFUSALS = (CapacityError, Refused)


def wilson(k: int, n: int, z: float = Z_CHECK) -> tuple[float, float]:
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def invoke(args: list[str]):
    """Run one CLI command in-process; returns (exit code, stdout, exception)."""
    res = CliRunner().invoke(cli.main, args)
    return res.exit_code, res.stdout, res.exception


def config(params: dict) -> ModelConfig:
    """The model for CLI-style parameters (G, M, p, maf, lambda, L, eps)."""
    return ModelConfig(G=params["G"], M=params["M"], p=params["p"],
                       L=float(params["L"]), lam=params["lambda"],
                       law=FixedBiallelic(params["maf"]),
                       eps=params.get("eps", 0.0))


def overrides(**params) -> list[str]:
    out = []
    for key, value in params.items():
        out += ["-O", f"{key}={value}"]
    return out


def simulate_probe(name: str, params: dict, *extra: str) -> tuple[str, bool, str]:
    """Edge probe through `simulate`: passes on exit 0 with a summary whose
    counts obey coverage_fail => failure."""
    code, out, exc = invoke(["simulate", *overrides(**params), "--trials", "2",
                             "--seed", str(PROBE_SEED), "--json", "--out",
                             "/dev/null", *extra])
    if code != 0:
        return name, False, f"exit {code}: {exc!r}" if exc else f"exit {code}"
    summary = json.loads(out.strip().splitlines()[-1])
    ok = summary["success"]["count"] <= \
        2 - summary.get("coverage_fail", {"count": 0})["count"]
    return name, ok, f"exit 0, success {summary['success']['count']}/2"


@dataclass
class OpResult:
    out: object                 # what the checks and the digest read
    parts: dict = field(default_factory=dict)  # sub-timings, seconds


class Workload:
    name = ""
    batch = 1        # ops per throughput sample
    trace_ops = 1    # ops in the traced phase of a traced run
    digest_ops = 1   # leading ops whose outputs the digest covers
    # (module, name) called often inside calls too long to go without a
    # calibration sample; the timed phase samples at each call
    tick_points = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.root = core.RandomStream(seed)
        # the runner sets this to its calibrator; ops call it between steps
        self.tick = lambda: None

    def warmup(self) -> None:
        self.op(0)

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check_op(self, res: OpResult) -> list[bool]:
        """One verdict per item the op produced (a trial, a round, a solve)."""
        return []

    def final_checks(self, results: list[OpResult]) -> list[tuple[str, bool, str]]:
        return []

    def probes(self) -> list[tuple[str, bool, str]]:
        return []

    def digest_item(self, res: OpResult):
        return res.out

    def detail_metrics(self, results: list[OpResult], op_s: list[float]) -> dict:
        """The workload's named throughput and latency metrics."""
        return {}

    def trace_counts(self, results: list[OpResult]) -> dict:
        """Counts read from op outputs rather than from hooks."""
        return {}


def _flags(res) -> tuple:
    return (res.coverage_fail, res.bridging_fail, res.greedy_fail,
            res.disc_fail, res.denoise_fail, res.stitch_fail, res.success)


class SimNoiseless(Workload):
    """README `simulate` example; greedy assembly is most of a trial."""

    name = "sim-noiseless"
    batch = 10
    trace_ops = 150
    digest_ops = 50
    PARAMS = dict(G=200000, M=2, p=0.001, maf=0.1, **{"lambda": 0.01}, L=30000)

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = config(self.PARAMS)

    def op(self, i):
        return OpResult(pipeline.run_noiseless_trial(
            self.cfg, self.root.child(i, "trial")))

    def check_op(self, res):
        r = res.out
        return [(not r.coverage_fail or not r.success)
                and (r.coverage_fail or r.bridging_fail or r.success)]

    def digest_item(self, res):
        return _flags(res.out)

    def probes(self):
        base = self.PARAMS
        return [simulate_probe("lambda0", {**base, "lambda": 0}),
                simulate_probe("p0", {**base, "p": 0}),
                simulate_probe("M1", {**base, "M": 1})]

    def detail_metrics(self, results, op_s):
        return {"trials_per_s": (len(op_s) / sum(op_s), "1/s"),
                **latency_metrics("trial", op_s)}


class SimNoisy(Workload):
    """One op is an ML trial plus a spectral trial on the same index."""

    name = "sim-noisy"
    batch = 5
    trace_ops = 200
    digest_ops = 50
    ML = dict(G=24000, M=2, p=0.001, maf=0.1, **{"lambda": 0.008}, L=9000,
              eps=0.1, D=1800, d=900)
    SPECTRAL = dict(G=20000, M=2, p=0.004, maf=0.5, **{"lambda": 0.01},
                    L=10000, eps=0.05, D=4000, d=1500)

    def __init__(self, seed):
        super().__init__(seed)
        self.halves = []
        for params, denoiser in ((self.ML, "ml"), (self.SPECTRAL, "spectral")):
            plan = SegmentationPlan(D=float(params["D"]), d=float(params["d"]))
            self.halves.append((config(params), plan, denoiser))

    def op(self, i):
        outs, secs = [], []
        for cfg, plan, denoiser in self.halves:
            self.tick()
            t0 = time.perf_counter()
            outs.append(pipeline.run_noisy_trial(
                cfg, plan, self.root.child(i, "trial"), denoiser))
            secs.append(time.perf_counter() - t0)
        return OpResult(outs, {"trial": secs})

    def check_op(self, res):
        return [not r.success or not r.stitch_fail for r in res.out]

    def digest_item(self, res):
        return [_flags(r) for r in res.out]

    def probes(self):
        return [
            simulate_probe("eps0.5-ml", {**self.ML, "eps": 0.5}),
            simulate_probe("eps0.5-spectral", {**self.SPECTRAL, "eps": 0.5},
                           "--denoiser", "spectral"),
            # one segment needs C(2^23, 2) candidates: refused with exit 3,
            # which aborts the whole simulate run (known failure)
            simulate_probe("ml-over-cap", {**self.ML, "G": 200000,
                                           "lambda": 0.01, "L": 30000,
                                           "D": 15000, "d": 7500}),
        ]

    def detail_metrics(self, results, op_s):
        trial_s = [t for r in results for t in r.parts["trial"]]
        return {"trials_per_s": (len(trial_s) / sum(op_s), "1/s"),
                **latency_metrics("trial", trial_s)}


class BridgingReferee(Workload):
    """Criterion 03 at L=45000. One op is a referee round: an
    estimate_bridging call of 10,000 chain trials plus 400 direct trials."""

    name = "bridging-referee"
    batch = 1
    tick_points = ((exact_bridging, "sample_region_span"),)  # per chain trial
    trace_ops = 2
    digest_ops = 2
    CHAIN_TRIALS = 10_000
    DIRECT_TRIALS = 400
    PARAMS = dict(G=2000000, M=2, p=0.001, maf=0.1, **{"lambda": 0.01}, L=45000)

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = config(self.PARAMS)

    def _chain(self, i, trials):
        c = self.cfg
        return exact_bridging.estimate_bridging(
            float(c.G), c.L, c.lam, c.p, c.eta, trials,
            self.root.child(i, "chain"))

    def _direct(self, t) -> bool:
        st = self.root.child(t, "trial")
        pop = simulate.generate_population(self.cfg, st.child("pop"))
        rs = simulate.generate_reads(pop, self.cfg, st.child("reads"))
        return not assemble.check_bridging(pop, rs).ok

    def warmup(self):
        # a full round takes seconds; warm both paths at reduced size
        self._chain(0, 100)
        self._direct(0)

    def op(self, i):
        t0 = time.perf_counter()
        est = self._chain(i, self.CHAIN_TRIALS)
        chain_s = time.perf_counter() - t0
        fails, direct_s = [], []
        for t in range(i * self.DIRECT_TRIALS, (i + 1) * self.DIRECT_TRIALS):
            self.tick()
            t0 = time.perf_counter()
            fails.append(self._direct(t))
            direct_s.append(time.perf_counter() - t0)
        return OpResult((est, fails), {"chain": [chain_s], "direct": direct_s})

    def check_op(self, res):
        return [res.out[0].capped_trials == 0]

    def final_checks(self, results):
        if not results:
            return []
        n = sum(len(r.out[1]) for r in results)
        k = sum(sum(r.out[1]) for r in results)
        emp = k / n
        code, out, _ = invoke(["bounds", *overrides(**self.PARAMS)])
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        lower, upper = float(row["eb_lower"]), float(row["eb_upper"])
        sigma = math.sqrt(max(emp, 1e-4) * (1 - max(emp, 1e-4)) / n)
        sandwich = lower - 3 * sigma <= emp <= upper + 3 * sigma
        chain_trials = sum(r.out[0].trials for r in results)
        chain_fails = sum(r.out[0].failures for r in results)
        pre = results[0].out[0].prefactor
        c_lo, c_hi = (pre * v for v in wilson(chain_fails, chain_trials))
        d_lo, d_hi = wilson(k, n)
        return [
            ("direct-in-sandwich", code == 0 and sandwich,
             f"direct {emp:.4f} ({k}/{n}) in [{lower:.4f}, {upper:.4f}] +-3sd"),
            ("chain-overlaps-direct", c_lo <= d_hi and d_lo <= c_hi,
             f"chain [{c_lo:.4f}, {c_hi:.4f}] ({chain_trials} trials) vs "
             f"direct [{d_lo:.4f}, {d_hi:.4f}]"),
        ]

    def digest_item(self, res):
        est, fails = res.out
        return [est.failures, est.trials, est.mean_steps, est.capped_trials,
                fails]

    def detail_metrics(self, results, op_s):
        direct = [t for r in results for t in r.parts["direct"]]
        chain = sum(t for r in results for t in r.parts["chain"])
        return {"trials_per_s": (len(direct) / sum(direct), "1/s"),
                **latency_metrics("trial", direct),
                "chain_trials_per_s":
                    (self.CHAIN_TRIALS * len(results) / chain, "1/s")}


class BoundSolve(Workload):
    """critical-l through the click command at paper scale on [1e4, 1e6].

    One op is one pass. A single spectral-upper solve takes about as long
    as a thousand assembly solves, so a pass repeats the cheap families
    until each of the three takes about a third of it; a change to any one
    family's kernels then moves the pass time. Repeat r of a point solves
    for target 1e-3 * (1 + r / repeats), so no two solves of a pass are
    the same question.
    """

    name = "bound-solve"
    # thousands of calls inside each 5 s spectral-upper solve
    tick_points = ((noisy_bounds, "poisson_weights"),)
    FAMILIES = {
        "assembly": ([("assembly-upper", 1e-3, 0.0), ("assembly-lower", 1e-3, 0.0),
                      ("assembly-upper", 1e-2, 0.0), ("assembly-lower", 1e-2, 0.0)],
                     500),
        "ml": ([("ml-upper", 1e-2, 0.01), ("ml-upper", 1e-2, 0.1),
                ("ml-upper", 1e-3, 0.1)], 120),
        "spectral": ([("spectral-upper", 1e-2, 0.1)], 1),
    }
    BASE = dict(G=3000000000, M=2, p=0.001, eta=0.82)
    TARGET = 1e-3
    RTOL = 1e-3  # critical-l's bisection tolerance

    @staticmethod
    def key(bound, lam, eps) -> str:
        return f"{bound} lambda={lam:g} eps={eps:g}"

    def _params(self, lam, eps) -> dict:
        return {**self.BASE, "lambda": lam, **({"eps": eps} if eps else {})}

    def warmup(self):
        self._solve(*self.FAMILIES["assembly"][0][0], self.TARGET)

    def _solve(self, bound, lam, eps, target) -> dict:
        code, out, exc = invoke(["critical-l", *overrides(**self._params(lam, eps)),
                                 "--target", repr(target), "--bound", bound,
                                 "--l-min", "1e4", "--l-max", "1e6", "--json"])
        if code == 3:
            raise Refused(f"critical-l {bound}: {out.strip()}")
        if code != 0:
            raise RuntimeError(f"critical-l {bound} exit {code}: {exc!r}")
        return json.loads(out)

    def op(self, i):
        """Returns, per family, {point key: [solve output per repeat]}."""
        solved, secs = {}, {}
        for family, (points, repeats) in self.FAMILIES.items():
            solved[family] = {self.key(*pt): [] for pt in points}
            t_family = 0.0
            for r in range(repeats):
                target = self.TARGET * (1 + r / repeats)
                for pt in points:
                    self.tick()
                    t0 = time.perf_counter()
                    solved[family][self.key(*pt)].append(self._solve(*pt, target))
                    t_family += time.perf_counter() - t0
            secs[family] = [t_family]
        return OpResult(solved, secs)

    def critical(self, res) -> dict:
        """{point key: critical L per repeat, in target order}."""
        return {key: [out["critical_L"] for out in outs]
                for fam in res.out.values() for key, outs in fam.items()}

    def check_op(self, res):
        """The first repeat of each point matches the recorded value; the
        critical L does not grow with the target; assembly-lower's critical
        L is at most assembly-upper's at every target. Two solves each
        within rtol of the truth differ by at most 2 rtol."""
        want = EXPECTED["bound-solve"]
        crit = self.critical(res)
        slack = 1 + 2 * self.RTOL
        out = []
        for key, Ls in crit.items():
            out.append(abs(Ls[0] - want[key]) <= self.RTOL * want[key])
            out += [b <= a * slack for a, b in zip(Ls, Ls[1:])]
        for lam in (1e-3, 1e-2):
            lower = crit[self.key("assembly-lower", lam, 0.0)]
            upper = crit[self.key("assembly-upper", lam, 0.0)]
            out += [lo <= up * slack for lo, up in zip(lower, upper)]
        return out

    def final_checks(self, results):
        """`bounds` gives e_lower <= e_upper at each point's first solved L."""
        if not results:
            return []
        crit = self.critical(results[0])
        ok, worst = True, ""
        for points, _ in self.FAMILIES.values():
            for bound, lam, eps in points:
                L = crit[self.key(bound, lam, eps)][0]
                code, out, _ = invoke(["bounds", *overrides(**self._params(lam, 0),
                                                            L=L)])
                rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
                row = dict(zip(rows[0].split(","), rows[1].split(",")))
                if code != 0 or float(row["e_lower"]) > float(row["e_upper"]):
                    ok, worst = False, f"{bound} at L={L:g}"
        return [("lower-le-upper", ok, worst or f"{len(crit)} solved lengths")]

    def probes(self):
        # default bracket [1, 1e7]: exp(1 - r*D) underflows in ml_plan_seed for
        # L >= 5e6 and the command dies with ZeroDivisionError (known failure)
        code, _, exc = invoke(["critical-l", *overrides(**self._params(1e-2, 0.1)),
                               "--target", "1e-3", "--bound", "ml-upper",
                               "--json"])
        return [("ml-upper-default-bracket", code == 0,
                 f"exit {code}" + (f": {exc!r}" if code else ""))]

    def digest_item(self, res):
        return self.critical(res)

    def trace_counts(self, results):
        return {"util.bisect_decreasing.iterations":
                sum(out["iterations"] for r in results for fam in r.out.values()
                    for outs in fam.values() for out in outs)}

    def detail_metrics(self, results, op_s):
        solves = sum(len(outs) for fam in results[0].out.values()
                     for outs in fam.values()) * len(results)
        out = {"solves_per_s": (solves / sum(op_s), "1/s")}
        for family in self.FAMILIES:
            secs = sum(r.parts[family][0] for r in results)
            out[f"{family}_share"] = (secs / sum(op_s), "ratio")
        return out


def latency_metrics(prefix: str, secs: list[float]) -> dict:
    p50, tail, pct, n = latency_summary(secs)
    return {f"{prefix}_p50_ms": (p50, "ms"),
            f"{prefix}_tail_ms": (tail, f"ms@p{pct:.1f}/n={n}")}


def latency_summary(secs: list[float]) -> tuple[float, float, float, int]:
    """(p50 ms, tail ms, tail percentile, sample count). The tail is the
    highest percentile with at least ten samples beyond it, or the maximum
    when there are fewer than eleven samples."""
    s = sorted(secs)
    n = len(s)
    mid = n // 2
    p50 = s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])
    k = n - 11 if n >= 11 else n - 1
    return p50 * 1e3, s[k] * 1e3, 100.0 * (k + 1) / n, n


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, default=repr).encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (SimNoiseless, SimNoisy, BridgingReferee,
                                 BoundSolve)}
