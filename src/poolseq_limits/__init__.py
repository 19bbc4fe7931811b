"""Pooled-DNA sequencing: simulation, assembly, denoising, and error bounds."""

from .core import (AlleleLaw, CapacityError, Empirical, FixedBiallelic,
                   FixedEta, ModelConfig, RandomStream,
                   UnsupportedModelError, ValidationError,
                   sample_poisson_positions)
from .simulate import (Population, ReadSet, apply_noise,
                       discriminating_positions, generate_population,
                       generate_reads)
from .assemble import (Contig, check_bridging, check_coverage,
                       greedy_assemble, score_assembly, unique_and_correct)
from .noiseless_bounds import (assembly_asymptotic, assembly_lower,
                               assembly_upper, bridging_asymptotic,
                               bridging_lower, bridging_upper,
                               coverage_asymptotic, coverage_lower,
                               coverage_single, coverage_upper, delta_m,
                               lambda_lower, p_m)
from .denoise import (DenoiseBlock, build_correlation_graph, majority_vote,
                      ml_denoise, spectral_denoise)
from .noisy_bounds import (SegmentationPlan, SpectralBoundParams, disc_upper,
                           exponent_closed, exponent_numeric, exponent_table,
                           den_ml_upper, noisy_upper_ml, noisy_upper_spectral,
                           spectral_noise_ceiling, spectral_quantities)
from .exact_bridging import BridgingEstimate, estimate_bridging

__version__ = "0.1.0"
