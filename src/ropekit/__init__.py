"""ropekit: rotary positional encodings, their generator form, and the
mechanical checks tying the two together.

The package is organized as plain numpy functions plus small frozen
dataclasses: ``linalg`` (skew matrices, canonical forms, exponentials),
``encodings`` (the encoding families and their frequency tables),
``attention`` (scores and pattern rasters), ``grid`` (patch lattices),
``verify`` (property checks and the theorem reductions), and ``cli``.
"""

from .attention import (AttentionPattern, attention_weights, render_pattern,
                        score, scored_pair, softmax_attention)
from .encodings import (DEFAULT_BASE, Encoder, FrequencyTable, axial,
                        dump_config, encoder_from_config, encoder_to_config,
                        frequency_schedule, grad_frequencies, liere,
                        make_encoder, mixed, parse_config, rope1d, spherical,
                        spherical_fast, trivial2d, uniform)
from .grid import PatchGrid, make_grid
from .linalg import (CanonicalForm, as_skew, canonical_form, commutator,
                     is_commuting, matrix_exp, matrix_exp_series)
from .verify import (CheckReport, check_axial_separability, check_equivariance,
                     check_fast_path, check_flow, check_flow_counterexample,
                     check_gradients, check_isometry, check_mixed_antidiagonal,
                     check_names, check_non_equivariance,
                     check_trivial_degeneracy, commuting_generators,
                     locality_probe, reduce_liere, reduce_liere_1d,
                     reduce_liere_mixed, reduced_score, run_checks)

__version__ = "0.1.0"

__all__ = [
    "AttentionPattern", "CanonicalForm", "CheckReport", "DEFAULT_BASE",
    "Encoder", "FrequencyTable", "PatchGrid", "as_skew", "attention_weights",
    "axial", "canonical_form", "check_axial_separability",
    "check_equivariance", "check_fast_path", "check_flow",
    "check_flow_counterexample", "check_gradients", "check_isometry",
    "check_mixed_antidiagonal", "check_names", "check_non_equivariance",
    "check_trivial_degeneracy", "commutator", "commuting_generators",
    "dump_config", "encoder_from_config", "encoder_to_config",
    "frequency_schedule", "grad_frequencies",
    "is_commuting", "liere", "locality_probe", "make_encoder", "make_grid",
    "matrix_exp", "matrix_exp_series", "mixed", "parse_config",
    "reduce_liere", "reduce_liere_1d", "reduce_liere_mixed", "reduced_score",
    "render_pattern", "rope1d", "run_checks", "score", "scored_pair",
    "softmax_attention", "spherical", "spherical_fast",
    "trivial2d", "uniform",
]
