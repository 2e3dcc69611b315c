"""Simulation and verification laboratory for Poisson statistics of block
occurrences in symbolic sequences (i.i.d., Markov, continued-fraction)."""

from .errors import (ConfigError, InsufficientDataError, InternalCheckError,
                     ResourceError, UnsupportedModelError)
from .experiments import (ExperimentConfig, GenericityReport, MixingReport,
                          OracleReport, QuenchedResult, QuenchedSummary,
                          execute, load_config, parse_config,
                          poisson_self_test, run_annealed, run_concentration,
                          run_mixing, run_oracle_suite, run_quenched)
from .measures import (GaussCFModel, IidModel, MarkovModel, SequenceGenerator,
                       contraction_profile, cylinder_prob,
                       cylinder_prob_exact, cylinder_prob_high,
                       make_generator, mixing_profile, model_from_spec,
                       model_to_spec, psi_mixing_profile, sample_word)
from .mixing_concentration import (ConcentrationReport, EtaMatrix,
                                   OccurrenceIndex, azuma_bound,
                                   concentration_experiment, delta_matrix,
                                   delta_norm, delta_norm_bound,
                                   eta_coefficients, lipschitz_weights_phi1,
                                   lipschitz_weights_phi2, mcdiarmid_tail,
                                   phi_k_S, phi_k_j_S)
from .oracles import (VarianceBreakdown, annealed_exact_expectation,
                      brute_force_distribution, dp_count_distribution,
                      exact_expectation, exact_pair_prob, exact_variance,
                      log_n_over_n_bound, period_class_measure)
from .point_process import (IndexSet, IntervalUnion, count_word_occurrences,
                            j_set, required_prefix_length, unit_interval)
from .poisson_stats import (EmpiricalDistribution, chen_stein_bracket,
                            fold_histogram, histogram_j_max, kallenberg_check,
                            poisson_avg, poisson_param_shift, poisson_pmf,
                            poisson_reference, sample_poisson_counts,
                            tv_distance)
from .rng import derive_seed, uniform_at, uniform_block
from .words import enumerate_words, ext, overlap_merge, periods

__all__ = [
    # errors
    "ConfigError", "InsufficientDataError", "InternalCheckError",
    "ResourceError", "UnsupportedModelError",
    # experiments
    "ExperimentConfig", "GenericityReport", "MixingReport", "OracleReport",
    "QuenchedResult", "QuenchedSummary", "execute", "load_config",
    "parse_config", "poisson_self_test", "run_annealed", "run_concentration",
    "run_mixing", "run_oracle_suite", "run_quenched",
    # measures
    "GaussCFModel", "IidModel", "MarkovModel", "SequenceGenerator",
    "contraction_profile", "cylinder_prob", "cylinder_prob_exact",
    "cylinder_prob_high", "make_generator", "mixing_profile",
    "model_from_spec", "model_to_spec", "psi_mixing_profile", "sample_word",
    # mixing_concentration
    "ConcentrationReport", "EtaMatrix", "OccurrenceIndex", "azuma_bound",
    "concentration_experiment", "delta_matrix", "delta_norm",
    "delta_norm_bound", "eta_coefficients", "lipschitz_weights_phi1",
    "lipschitz_weights_phi2", "mcdiarmid_tail", "phi_k_S", "phi_k_j_S",
    # oracles
    "VarianceBreakdown", "annealed_exact_expectation",
    "brute_force_distribution", "dp_count_distribution", "exact_expectation",
    "exact_pair_prob", "exact_variance", "log_n_over_n_bound",
    "period_class_measure",
    # point_process
    "IndexSet", "IntervalUnion", "count_word_occurrences", "j_set",
    "required_prefix_length", "unit_interval",
    # poisson_stats
    "EmpiricalDistribution", "chen_stein_bracket", "fold_histogram",
    "histogram_j_max", "kallenberg_check", "poisson_avg",
    "poisson_param_shift", "poisson_pmf", "poisson_reference",
    "sample_poisson_counts", "tv_distance",
    # rng
    "derive_seed", "uniform_at", "uniform_block",
    # words
    "enumerate_words", "ext", "overlap_merge", "periods",
    # the submodules themselves
    "errors", "experiments", "measures", "mixing_concentration", "oracles",
    "point_process", "poisson_stats", "rng", "words",
]
__version__ = "0.1.0"
