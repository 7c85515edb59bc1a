"""Stationary multivariate Hawkes processes: simulation, Bartlett spectra,
long-run variances, branching-process mixing bounds, and normal-limit checks.
"""

from .errors import (ConfigError, HawkesError, HypothesisError,
                     InfiniteMomentError, NumericError, SubcriticalityError)
from .kernels import (ExponentialKernel, Kernel, PowerLawKernel, UniformKernel,
                      ZeroKernel, kernel_from_dict)
from .model import (HawkesModel, ModelSummary, load_model, model_from_dict,
                    spectral_radius, zero_coupling)
from .simulate import (ClusterTrace, EventLog, default_burn_in,
                       read_event_log, simulate, simulate_cluster,
                       simulate_cluster_batch, simulate_thinning,
                       spawn_seeds, write_event_log)
from .testfunctions import (ComponentFunction, ConstantF, ConstPlusIndicatorF,
                            IndicatorF, SampledPeriodicF, TestFunction,
                            TrigPolyF, component_from_dict)
from .branching import (ContractionCert, MixingBoundReport, arrival_tail_bound,
                        c1_constant, contraction_certificate, g_map,
                        laplace_generation, mixing_bound,
                        simulate_generations, tail_sum_generation)
from .spectrum import (PeriodicVariance, SpectrumMatrix,
                       asymptotic_variance_const, asymptotic_variance_periodic,
                       bartlett_density, bartlett_grid, cov_counts,
                       fourier_matrix, variance_ST, variance_profile)
from .stats import (DecayReport, HarnessReport, PathSample, TimeChange,
                    clt_harness, mixing_decay_diagnostic, path_sample,
                    partial_statistics, statistic_ST, time_change)

__version__ = "0.1.0"

__all__ = [
    "HawkesError", "HypothesisError", "InfiniteMomentError", "NumericError",
    "SubcriticalityError", "ConfigError",
    "Kernel", "ExponentialKernel", "PowerLawKernel", "UniformKernel",
    "ZeroKernel", "kernel_from_dict",
    "HawkesModel", "ModelSummary", "spectral_radius", "model_from_dict",
    "load_model", "zero_coupling",
    "EventLog", "ClusterTrace", "default_burn_in", "simulate",
    "simulate_cluster", "simulate_cluster_batch", "simulate_thinning",
    "spawn_seeds", "read_event_log", "write_event_log",
    "ComponentFunction", "ConstantF", "IndicatorF", "ConstPlusIndicatorF",
    "TrigPolyF", "SampledPeriodicF", "TestFunction", "component_from_dict",
    "ContractionCert", "MixingBoundReport", "g_map", "laplace_generation",
    "contraction_certificate", "c1_constant", "tail_sum_generation",
    "arrival_tail_bound", "mixing_bound", "simulate_generations",
    "SpectrumMatrix", "PeriodicVariance", "fourier_matrix", "bartlett_density",
    "bartlett_grid", "variance_profile", "variance_ST",
    "asymptotic_variance_const", "asymptotic_variance_periodic", "cov_counts",
    "TimeChange", "PathSample", "HarnessReport", "DecayReport",
    "partial_statistics", "statistic_ST", "time_change", "path_sample",
    "clt_harness", "mixing_decay_diagnostic",
]
