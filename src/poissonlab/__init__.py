"""Simulation and verification laboratory for Poisson statistics of block
occurrences in symbolic sequences (i.i.d., Markov, continued-fraction).

Importing the package runs BLAS on one thread, so the annealed thread pool
is the one parallel layer: unless the caller set ``OPENBLAS_NUM_THREADS``,
``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS``, it sets the first two to 1.
numpy reads them when it loads, so this holds where poissonlab is imported
first; there OpenBLAS starts no worker thread to busy-wait beside the lab's
work.  Reports are the same bits on any BLAS thread count.
"""

import os

if not {"OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ.update(OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
del os

from .errors import (ConfigError, InsufficientDataError, InternalCheckError,
                     ResourceError, UnsupportedModelError)
from .experiments import (ConcentrationReport, ExperimentConfig,
                          GenericityReport, MixingReport, OracleReport,
                          QuenchedResult, QuenchedSummary, execute,
                          parse_config, run_annealed, run_concentration,
                          run_mixing, run_oracle_suite, run_quenched)
from .measures import (GaussCFModel, IidModel, MarkovModel, SequenceGenerator,
                       contraction_profile, cylinder_prob,
                       cylinder_prob_exact, model_from_spec, model_to_spec)
from .mixing_concentration import (OccurrenceIndex, count_word_occurrences,
                                   delta_matrix, delta_norm, delta_norm_bound,
                                   eta_coefficients, lipschitz_weights_phi1,
                                   lipschitz_weights_phi2, mixing_profile,
                                   phi_k_S, phi_k_j_S)
from .oracles import (VarianceBreakdown, annealed_exact_expectation,
                      brute_force_distribution, dp_count_distribution,
                      exact_expectation, exact_pair_prob, exact_variance,
                      log_n_over_n_bound, period_class_measure)
from .point_process import (IndexSet, IntervalUnion, j_set,
                            required_prefix_length, unit_interval)
from .poisson_stats import (fold_histogram, histogram_j_max, kallenberg_check,
                            poisson_pmf, poisson_reference, tv_distance)
from .rng import derive_seed, uniform_at, uniform_block
from .words import enumerate_words, ext, overlap_merge, periods

__all__ = [
    # errors
    "ConfigError", "InsufficientDataError", "InternalCheckError",
    "ResourceError", "UnsupportedModelError",
    # experiments
    "ConcentrationReport", "ExperimentConfig", "GenericityReport",
    "MixingReport", "OracleReport", "QuenchedResult", "QuenchedSummary",
    "execute", "parse_config", "run_annealed", "run_concentration",
    "run_mixing", "run_oracle_suite", "run_quenched",
    # measures
    "GaussCFModel", "IidModel", "MarkovModel", "SequenceGenerator",
    "contraction_profile", "cylinder_prob", "cylinder_prob_exact",
    "model_from_spec", "model_to_spec",
    # mixing_concentration
    "OccurrenceIndex", "count_word_occurrences", "delta_matrix", "delta_norm",
    "delta_norm_bound", "eta_coefficients", "lipschitz_weights_phi1",
    "lipschitz_weights_phi2", "mixing_profile", "phi_k_S", "phi_k_j_S",
    # oracles
    "VarianceBreakdown", "annealed_exact_expectation",
    "brute_force_distribution", "dp_count_distribution", "exact_expectation",
    "exact_pair_prob", "exact_variance", "log_n_over_n_bound",
    "period_class_measure",
    # point_process
    "IndexSet", "IntervalUnion", "j_set", "required_prefix_length",
    "unit_interval",
    # poisson_stats
    "fold_histogram", "histogram_j_max", "kallenberg_check", "poisson_pmf",
    "poisson_reference", "tv_distance",
    # rng
    "derive_seed", "uniform_at", "uniform_block",
    # words
    "enumerate_words", "ext", "overlap_merge", "periods",
    # the submodules themselves
    "errors", "experiments", "measures", "mixing_concentration", "oracles",
    "point_process", "poisson_stats", "rng", "words",
]
__version__ = "0.1.0"
