"""Span tracing installed from outside the package.

Each hook rebinds one name in the namespace of the module (or class) that
calls it, so the package itself is never edited. A span records its name,
start, end, the index of its parent span and the op id it belongs to;
spans stay in memory until the run writes them out. Hooks can also add
counts derived from a call's arguments or result.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from math import comb


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def hook(self, owner, attr: str, name: str, before=None, after=None,
             span: bool = True) -> None:
        """Rebind owner.attr to a wrapper recording a span named `name`.

        before(args, kwargs) runs ahead of the call and its value is handed
        to after(state, result, args, kwargs), which adds counts. With
        span=False only the call count is kept (for scalar helpers called
        hundreds of thousands of times per op).
        """
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        counts = self.counts
        calls_key = name + ".calls"

        if not span:
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                return original(*args, **kwargs)
        else:
            spans, stack = self.spans, self._stack
            clock = time.perf_counter

            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                state = before(args, kwargs) if before else None
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after:
                    after(state, result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def child_calls(self, parent_name: str) -> int:
        """Number of spans whose parent span is named parent_name."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(1 for s in self.spans if s[3] in parents)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _add(counts: Counter, key: str, value) -> None:
    counts[key] += int(value)


def install(tracer: Tracer) -> None:
    """Hook every layer entry point the workloads pass through."""
    from poolseq_limits import (assemble, cli, core, exact_bridging,
                                noisy_bounds, pipeline, simulate)
    c = tracer.counts
    hook = tracer.hook

    def trial_outcome(_, res, args, kwargs):
        for flag in ("coverage_fail", "bridging_fail", "greedy_fail",
                     "disc_fail", "denoise_fail", "stitch_fail"):
            _add(c, "pipeline." + flag, bool(getattr(res, flag)))

    def population(_, pop, args, kwargs):
        _add(c, "simulate.snps", pop.S)

    def reads(_, rs, args, kwargs):
        _add(c, "simulate.reads", rs.n_reads)

    def observations_before(args, kwargs):
        return args[0]._values is None

    def observations_after(fresh, out, args, kwargs):
        if fresh:
            _add(c, "simulate.observed_values", out[1].nbytes)

    def ml_after(_, res, args, kwargs):
        block = args[0]
        _add(c, "denoise.ml_denoise.candidates", comb(1 << block.kappa, block.M))

    def spectral_after(_, res, args, kwargs):
        _add(c, "denoise.spectral_denoise.rows", args[0].n)
        _add(c, "denoise.spectral_denoise.degraded", res.degraded)
        _add(c, "denoise.spectral_denoise.reseeds", res.reseeds)

    def chain_after(_, est, args, kwargs):
        _add(c, "exact_bridging.chain_steps", round(est.mean_steps * est.trials))
        _add(c, "exact_bridging.capped_trials", est.capped_trials)

    # pipeline calls its own imported names; the benchmark's direct bridging
    # trials call simulate/assemble through their modules
    for mod in (pipeline, simulate):
        hook(mod, "generate_population", "simulate.generate_population",
             after=population)
        hook(mod, "generate_reads", "simulate.generate_reads", after=reads)
    hook(pipeline, "apply_noise", "simulate.apply_noise")
    hook(simulate.ReadSet, "observations", "simulate.ReadSet.observations",
         before=observations_before, after=observations_after)
    for mod in (pipeline, assemble):
        # assemble: score_assembly's second check_coverage call, and the
        # benchmark's direct check_bridging calls
        hook(mod, "check_coverage", "assemble.check_coverage")
        hook(mod, "check_bridging", "assemble.check_bridging")
    hook(pipeline, "greedy_assemble", "assemble.greedy_assemble")
    hook(pipeline, "score_assembly", "assemble.score_assembly")
    hook(pipeline, "extract_block", "denoise.extract_block")
    hook(pipeline, "ml_denoise", "denoise.ml_denoise", after=ml_after)
    hook(pipeline, "spectral_denoise", "denoise.spectral_denoise",
         after=spectral_after)
    hook(pipeline, "run_noiseless_trial", "pipeline.run_noiseless_trial",
         after=trial_outcome)
    hook(pipeline, "run_noisy_trial", "pipeline.run_noisy_trial",
         after=trial_outcome)
    hook(core.RandomStream, "child", "core.RandomStream.child")
    hook(exact_bridging, "estimate_bridging", "exact_bridging.estimate_bridging",
         after=chain_after)
    hook(exact_bridging, "sample_region_span", "exact_bridging.sample_region_span")
    hook(cli.critical_l, "callback", "cli.critical_l")
    for name in ("assembly_bounds", "noisy_upper_ml", "noisy_upper_spectral"):
        module = "noiseless_bounds" if name == "assembly_bounds" else "noisy_bounds"
        hook(cli, name, f"{module}.{name}")
    hook(noisy_bounds, "poisson_weights", "util.poisson_weights")
    hook(noisy_bounds, "golden_min", "util.golden_min")
    # a million or more calls per bound-solve pass: count only
    hook(noisy_bounds, "spectral_quantities", "noisy_bounds.spectral_quantities",
         span=False)
    hook(noisy_bounds, "disc_upper", "noisy_bounds.disc_upper", span=False)
