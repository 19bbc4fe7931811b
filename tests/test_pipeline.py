import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from poolseq_limits import pipeline
from poolseq_limits.core import (FixedBiallelic, ModelConfig, RandomStream,
                                 ValidationError)
from poolseq_limits.denoise import extract_block, ml_denoise, spectral_denoise
from poolseq_limits.noisy_bounds import SegmentationPlan, noisy_upper_ml
from poolseq_limits.pipeline import (TrialResult, run_noiseless_trial,
                                     run_noisy_trial)
from poolseq_limits.simulate import (apply_noise, generate_population,
                                     generate_reads)

LAW = FixedBiallelic(0.1)


def test_noiseless_trial_flags_consistent():
    cfg = ModelConfig(G=150000, M=2, p=1e-3, L=30000.0, lam=1e-2, law=LAW)
    root = RandomStream(1)
    for t in range(30):
        res = run_noiseless_trial(cfg, root.child(t))
        if not res.coverage_fail and not res.bridging_fail:
            assert res.success
        if res.coverage_fail:
            assert not res.success


def test_noisy_trial_succeeds_with_generous_coverage():
    """Spectral path: wide informative overlaps need more SNPs per segment
    than exhaustive ML can enumerate, so this is spectral territory."""
    cfg = ModelConfig(G=20000, M=2, p=4e-3, L=10000.0, lam=2.5e-3,
                      law=FixedBiallelic(0.5), eps=0.05)
    plan = SegmentationPlan(D=4000.0, d=1500.0)
    root = RandomStream(2)
    ok = sum(run_noisy_trial(cfg, plan, root.child(t), "spectral").success
             for t in range(25))
    assert ok >= 17


def test_noisy_trial_spectral_streams_distinct_per_segment(monkeypatch):
    """Every segment's spectral decoder draws from its own stream, so
    reseeding segments of one trial never repeat each other's draws."""
    cfg = ModelConfig(G=20000, M=2, p=4e-3, L=10000.0, lam=2.5e-3,
                      law=FixedBiallelic(0.5), eps=0.05)
    paths = []
    original = pipeline.spectral_denoise

    def recording(block, **kwargs):
        paths.append(kwargs["stream"].path)
        return original(block, **kwargs)

    monkeypatch.setattr(pipeline, "spectral_denoise", recording)
    run_noisy_trial(cfg, SegmentationPlan(D=4000.0, d=1500.0),
                    RandomStream(2).child(0), "spectral")
    assert len(paths) >= 2
    assert len(set(paths)) == len(paths)


def test_noisy_trial_uninformative_channel_fails():
    cfg = ModelConfig(G=20000, M=2, p=1e-3, L=6000.0, lam=6e-3, law=LAW,
                      eps=0.5)
    plan = SegmentationPlan(D=1500.0, d=700.0)
    root = RandomStream(3)
    ok = sum(run_noisy_trial(cfg, plan, root.child(t), "ml").success
             for t in range(12))
    assert ok == 0


def test_noisy_failure_dominated_by_bound():
    """Empirical end-to-end noisy failure stays under the analytic upper
    bound (which is typically loose at desk scale)."""
    cfg = ModelConfig(G=24000, M=2, p=1e-3, L=9000.0, lam=8e-3, law=LAW,
                      eps=0.1)
    plan = SegmentationPlan(D=1800.0, d=900.0)
    root = RandomStream(4)
    trials = 40
    fails = sum(not run_noisy_trial(cfg, plan, root.child(t), "ml").success
                for t in range(trials))
    bound, _ = noisy_upper_ml(cfg, plan)
    emp = fails / trials
    sigma = max((emp * (1 - emp) / trials) ** 0.5, 1.0 / trials)
    assert emp <= bound + 3 * sigma


def test_extract_block_and_ml_decode_from_simulated_reads():
    """Window extraction picks exactly the strictly-covering reads and ML
    decoding recovers the window truth at low noise."""
    cfg = ModelConfig(G=16000, M=2, p=2e-3, L=8000.0, lam=6e-3,
                      law=FixedBiallelic(0.5), eps=0.05)
    root = RandomStream(6)
    decoded_ok = tried = 0
    for t in range(20):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        noisy = apply_noise(rs, cfg.eps, st.child("noise"))
        window = (5000.0, 7500.0)
        snps, reads = reference_ranges(noisy, window)
        block = extract_block(noisy, snps, reads, cfg.eps)
        inside = (rs.starts <= window[0]) & (rs.starts + cfg.L >= window[1])
        assert block.n == int(inside.sum())
        lo = int(np.searchsorted(pop.snp_positions, window[0]))
        hi = int(np.searchsorted(pop.snp_positions, window[1]))
        truth = pop.alleles[:, lo:hi]
        if len({r.tobytes() for r in truth}) < cfg.M or block.kappa > 10:
            continue
        tried += 1
        out = ml_denoise(block)
        decoded_ok += {r.tobytes() for r in out} == \
            {r.tobytes() for r in truth}
    assert tried >= 10
    assert decoded_ok >= 0.9 * tried


def test_extract_block_rows_match_per_read_slices():
    """Each block row is the covering read's source slice over the window's
    SNPs, taken read by read, for a noiseless set, its eps = 0 copy and a
    noisy set, over random windows, including windows longer than a read,
    whose read range is empty and so is their block. A window holding no
    SNP is refused."""
    cfg = ModelConfig(G=4000, M=3, p=0.01, L=600.0, lam=0.01,
                      law=FixedBiallelic(0.3))
    rng = np.random.default_rng(71)
    root = RandomStream(73)
    windows = empty = snp_free = 0
    for t in range(20):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        sets = [(rs, 0.0), (apply_noise(rs, 0.0, st.child("zero")), 0.0),
                (apply_noise(rs, 0.1, st.child("noise")), 0.1)]
        for _ in range(10):
            lo = float(rng.uniform(0.0, cfg.G))
            hi = lo + float(rng.uniform(0.0, 1.5 * cfg.L))
            snp_lo, snp_hi = np.searchsorted(pop.snp_positions, [lo, hi])
            kappa = int(snp_hi - snp_lo)
            snps, reads = reference_ranges(rs, (lo, hi))
            assert snps == (snp_lo, snp_hi)
            if kappa == 0:
                for x, eps in sets:
                    with pytest.raises(ValidationError):
                        extract_block(x, snps, reads, eps)
                snp_free += 1
                continue
            covering = np.flatnonzero((rs.starts <= lo)
                                      & (rs.starts + cfg.L >= hi))
            truth = pop.alleles[rs.hidden[covering], snp_lo:snp_hi]
            blocks = []
            for x, eps in sets:
                want = np.empty((0, kappa), np.int8)
                for r in covering:
                    a = x.base[r] + snp_lo
                    want = np.vstack([want, x.source[a:a + kappa]])
                block = extract_block(x, snps, reads, eps)
                assert block.kappa == kappa
                np.testing.assert_array_equal(block.observations, want)
                blocks.append(block.observations)
            np.testing.assert_array_equal(blocks[0], truth)
            np.testing.assert_array_equal(blocks[1], truth)
            windows += 1
            empty += covering.size == 0 and hi - lo > cfg.L
    assert windows >= 100 and empty >= 10 and snp_free >= 5


# The three-pass noisy trial that the one-pass `run_noisy_trial` replaced,
# kept verbatim (but for the names) as the reference for its flags, with
# the window-to-range lines `extract_block` held before `run_noisy_trial`
# computed its segment table.
def reference_ranges(rs, window: tuple[float, float]
                     ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The SNP range inside a window and the range of reads with
    start <= window start and start + L >= window end."""
    lo_pos, hi_pos = window
    pop = rs.population
    L = rs.config.L
    snp_lo = int(np.searchsorted(pop.snp_positions, lo_pos, side="left"))
    snp_hi = int(np.searchsorted(pop.snp_positions, hi_pos, side="left"))
    r_hi = int(np.searchsorted(rs.starts, lo_pos, side="right"))
    r_lo = int(np.searchsorted(rs.starts, hi_pos - L, side="left"))
    return (snp_lo, snp_hi), (r_lo, r_hi)


def reference_match_rows(prev_rows: np.ndarray, rows: np.ndarray,
                         overlap_prev: slice, overlap_cur: slice) -> list[int] | None:
    """Match segment rows to the previous segment's rows on their shared
    SNP columns; None when any row has no match or a match is ambiguous."""
    M = rows.shape[0]
    a = prev_rows[:, overlap_prev]
    b = rows[:, overlap_cur]
    mapping: list[int] = []
    taken = set()
    for i in range(M):
        hits = [j for j in range(M) if np.array_equal(b[i], a[j])]
        if len(hits) != 1 or hits[0] in taken:
            return None
        taken.add(hits[0])
        mapping.append(hits[0])
    return mapping


def reference_noisy_trial(config: ModelConfig, plan: SegmentationPlan,
                          stream: RandomStream, denoiser: str = "ml",
                          nu_min_mode: str = "average_case") -> TrialResult:
    """Segment, denoise, stitch, and compare against the true genomes.

    The disc/denoise flags report whether the sufficient conditions held;
    the decode and stitch always run, and success is judged on the final
    stitched genomes (an ambiguous overlap match is a stitch failure).
    """
    pop = generate_population(config, stream.child("pop"))
    rs = generate_reads(pop, config, stream.child("reads"))
    noisy = apply_noise(rs, config.eps, stream.child("noise"))
    res = TrialResult(disc_fail=False, denoise_fail=False, stitch_fail=False)
    pos = pop.snp_positions
    D, d = plan.D, plan.d
    segments = []
    k = 0
    while k * d < config.G:
        lo = k * d
        segments.append((lo, min(lo + D, float(config.G))))
        k += 1
    seg_out: list[np.ndarray | None] = []
    seg_cols: list[tuple[int, int]] = []
    for k, (lo, hi) in enumerate(segments):
        c_lo = int(np.searchsorted(pos, lo, side="left"))
        c_hi = int(np.searchsorted(pos, hi, side="left"))
        seg_cols.append((c_lo, c_hi))
        truth = pop.alleles[:, c_lo:c_hi]
        if c_hi == c_lo:
            seg_out.append(np.empty((config.M, 0), dtype=np.int8))
            continue
        block = extract_block(noisy, *reference_ranges(noisy, (lo, hi)),
                              config.eps)
        decoded = None
        if denoiser == "ml":
            try:
                decoded = ml_denoise(block)
            except ValidationError:  # empty block, or 2^kappa < M sequences
                pass
        elif block.n >= config.M:
            decoded = spectral_denoise(block, mode=nu_min_mode,
                                       eta=config.eta,
                                       stream=stream.child("spectral", k)
                                       ).sequences
        if decoded is None:
            res.denoise_fail = True
            seg_out.append(None)
            continue
        seg_out.append(decoded)
        if {r.tobytes() for r in truth} != {r.tobytes() for r in decoded}:
            res.denoise_fail = True
    # discrimination condition: consecutive overlaps must distinguish all
    # individuals in the true genomes
    for k in range(len(segments) - 1):
        lo_next = segments[k + 1][0]
        c_lo, c_hi = seg_cols[k]
        o_lo = int(np.searchsorted(pos, lo_next, side="left"))
        overlap = pop.alleles[:, o_lo:c_hi]
        if len({r.tobytes() for r in overlap}) < config.M:
            res.disc_fail = True
            break
    # stitch consecutive segments into global genomes
    genomes = np.full((config.M, pop.S), -127, dtype=np.int8)
    ok = True
    for k, (lo, hi) in enumerate(segments):
        c_lo, c_hi = seg_cols[k]
        out = seg_out[k]
        if out is None:
            ok = False
            break
        if k > 0 and out.shape[1] > 0 and seg_out[k - 1] is not None:
            p_lo, p_hi = seg_cols[k - 1]
            shared_lo = max(c_lo, p_lo)
            if p_hi > shared_lo:
                mapping = reference_match_rows(
                    seg_out[k - 1],
                    out,
                    slice(shared_lo - p_lo, p_hi - p_lo),
                    slice(shared_lo - c_lo, p_hi - c_lo))
                if mapping is None:
                    res.stitch_fail = True
                    ok = False
                    break
                # express this segment's rows in the previous order
                out = out[np.argsort(mapping)]
                seg_out[k] = out
        genomes[:, c_lo:c_hi] = out
    if ok:
        truth_sorted = sorted(pop.alleles[m].tobytes() for m in range(config.M))
        got_sorted = sorted(genomes[m].tobytes() for m in range(config.M))
        ok = truth_sorted == got_sorted and bool((genomes != -127).all())
    res.success = bool(ok)
    return res


def _case(denoiser, D, d, **kw):
    base = dict(G=10000, M=2, p=8e-4, L=6000.0, lam=1e-2,
                law=FixedBiallelic(0.5), eps=0.05)
    return ModelConfig(**{**base, **kw}), SegmentationPlan(D=D, d=d), denoiser


# G = 10000 is not a multiple of any step d below
_EDGE_CASES = [
    _case("ml", 2500.0, 800.0),
    _case("ml", 2500.0, 900.0, M=3, p=6e-4, law=FixedBiallelic(0.3)),
    _case("ml", 1700.0, 650.0, G=10001, p=1e-3, law=FixedBiallelic(0.3)),
    _case("spectral", 4000.0, 1500.0, G=12000, p=4e-3, L=10000.0),
    _case("spectral", 4000.0, 1500.0, G=12000, M=3, p=4e-3, L=10000.0),
    # 2^kappa < M: most segments hold one SNP or none
    _case("ml", 2000.0, 800.0, M=3, p=4e-4),
    # D > L: no read covers a whole segment
    _case("ml", 2000.0, 1000.0, L=1500.0),
    _case("spectral", 2000.0, 1000.0, p=2e-3, L=1500.0),
    _case("ml", 1500.0, 700.0, p=0.0),
    _case("ml", 1500.0, 700.0, lam=0.0),
    _case("spectral", 1500.0, 700.0, lam=0.0),
    _case("ml", 1500.0, 700.0, eps=0.5),
    _case("spectral", 2500.0, 1000.0, p=3e-3, eps=0.5),
]
_FLAGS = ("disc_fail", "denoise_fail", "stitch_fail", "success")


def test_one_pass_noisy_trial_matches_reference():
    """The one-pass trial sets every flag as the three-pass reference does
    on seeded trials across denoisers, M and the edge inputs."""
    seen = {flag: set() for flag in _FLAGS}
    for c, (cfg, plan, denoiser) in enumerate(_EDGE_CASES):
        for t in range(10):
            stream = RandomStream(7).child(c, t)
            got = run_noisy_trial(cfg, plan, stream, denoiser)
            want = reference_noisy_trial(cfg, plan, stream, denoiser)
            flags = [getattr(got, f) for f in _FLAGS]
            assert flags == [getattr(want, f) for f in _FLAGS], (c, t)
            for flag, value in zip(_FLAGS, flags):
                seen[flag].add(value)
    assert all(values == {False, True} for values in seen.values()), seen


def test_segment_table_gives_window_ranges(monkeypatch):
    """Every segment holding a SNP is extracted over the SNP and read ranges
    that `reference_ranges` derives from its window on its own, on the
    edge inputs: the clipped last segment, segments longer than a read, no
    SNPs and no reads."""
    ranges = []
    original = pipeline.extract_block

    def recording(rs, snps, reads, eps):
        ranges.append((tuple(map(int, snps)), tuple(map(int, reads))))
        return original(rs, snps, reads, eps)

    monkeypatch.setattr(pipeline, "extract_block", recording)
    for c, (cfg, plan, denoiser) in enumerate(_EDGE_CASES):
        stream = RandomStream(7).child(c, 0)
        ranges.clear()
        run_noisy_trial(cfg, plan, stream, denoiser)
        pop = generate_population(cfg, stream.child("pop"))
        rs = generate_reads(pop, cfg, stream.child("reads"))
        windows = [(k * plan.d, min(k * plan.d + plan.D, float(cfg.G)))
                   for k in range(math.ceil(cfg.G / plan.d) + 1)
                   if k * plan.d < cfg.G]
        want = [(snps, reads) for snps, reads in
                (reference_ranges(rs, w) for w in windows) if snps[1] > snps[0]]
        assert ranges == want, c


def test_spectral_trial_flags_pinned():
    """Sixty spectral trials at the sim-noisy benchmark's spectral point set
    these recorded flags; decoding on distinct reads must not move a trial."""
    cfg = ModelConfig(G=20000, M=2, p=4e-3, L=10000.0, lam=1e-2,
                      law=FixedBiallelic(0.5), eps=0.05)
    plan = SegmentationPlan(D=4000.0, d=1500.0)
    flags = []
    for t in range(60):
        res = run_noisy_trial(cfg, plan, RandomStream(12).child(t), "spectral")
        flags.append([getattr(res, f) for f in _FLAGS])
    assert {tuple(f) for f in flags} >= {(False, False, False, True),
                                         (True, True, True, False)}
    digest = hashlib.sha256(json.dumps(flags).encode()).hexdigest()[:16]
    assert digest == "7032e439b821a3ec"


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("G,M,p,depth,L", [
    (10**6, 2, 1e-3, 20.0, 2e3),       # many short reads
    (10**7, 2, 1e-3, 43.0, 1.1e5),     # criterion 09's depth and read length
    (2 * 10**6, 4, 1e-2, 43.0, 1e4),   # many SNPs, four individuals
])
def test_trial_estimate_bounds_traced_peak(G, M, p, depth, L, eps):
    """The capacity guard's estimate is at least the tracemalloc peak of one
    trial, noiseless (no flat observation array) and noisy (one flat array
    plus the noise draws)."""
    config = ModelConfig(G=G, M=M, p=p, L=L, lam=depth / L, law=LAW, eps=eps)
    stream = RandomStream(7).child(0, "trial")
    plan = SegmentationPlan(D=L / 2, d=L / 4) if eps > 0.0 else None
    tracemalloc.start()
    try:
        if plan is not None:
            run_noisy_trial(config, plan, stream, "spectral")
        else:
            run_noiseless_trial(config, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipeline.estimate_trial_bytes(config, plan) >= peak
