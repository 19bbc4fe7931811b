import numpy as np

from poolseq_limits import pipeline
from poolseq_limits.core import FixedBiallelic, ModelConfig, RandomStream
from poolseq_limits.noisy_bounds import SegmentationPlan, noisy_upper_ml
from poolseq_limits.pipeline import run_noiseless_trial, run_noisy_trial

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
    from poolseq_limits.denoise import extract_block, ml_denoise
    from poolseq_limits.simulate import (apply_noise, generate_population,
                                         generate_reads)

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
        block = extract_block(noisy, window, cfg.eps)
        inside = (rs.starts <= window[0]) & (rs.starts + cfg.L >= window[1])
        assert block.n == int(inside.sum())
        lo = int(np.searchsorted(pop.snp_positions, window[0]))
        hi = int(np.searchsorted(pop.snp_positions, window[1]))
        truth = pop.alleles[:, lo:hi]
        if len({r.tobytes() for r in truth}) < cfg.M or block.kappa > 10:
            continue
        tried += 1
        out = ml_denoise(block)
        decoded_ok += {r.tobytes() for r in out.matrix} == \
            {r.tobytes() for r in truth}
    assert tried >= 10
    assert decoded_ok >= 0.9 * tried
