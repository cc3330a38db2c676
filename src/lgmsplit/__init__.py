"""Latent Gaussian model inference with group-wise node-splitting diagnostics."""

from .model import (AdjacencyGraph, Besag, DataTable, Fixed, FixedOmega,
                    FixedPrecision, GaussianThetaPrior, Iid, Iid2d, Intercept,
                    LikelihoodFamily, LogGammaPrior, ModelError, ModelSpec,
                    Wishart2dPrior, build_model, read_adjacency,
                    read_data_csv, read_model_json, wishart2d_internal)
from .inference import (FitResult, GaussianApprox, HyperGrid, InferenceConfig,
                        InferenceError, LatentSummary, LincombPosterior,
                        explore_hypergrid, fit, gaussian_approximation,
                        latent_summary, lincomb_posterior, log_posterior_theta,
                        posterior_as_prior)
from .nodesplit import (DiscrepancyResult, GroupSplit, NodeSplitResult,
                        RankZeroError, bh_fdr, between_group_run, chisq_tail,
                        conflict_pvalues, discrepancy, within_group_run)
from .analytic import AnalyticNormalModel, latent_tail, pit, two_sided_p
from .datasets import (LatticeParams, generate_lattice, load_rats,
                       square_lattice_graph)
from .sparse import (CholeskyFactor, NotPositiveDefinite, SparseSymmetric,
                     factorize, solve_for_columns)

__version__ = "0.1.0"
