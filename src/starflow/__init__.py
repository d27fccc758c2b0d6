"""Stochastic simulation on star and metric graphs: Walsh Brownian motion,
interface SDEs with one independent noise per edge, coalescing n-point
motions, and obliquely reflected Brownian motion in the quadrant, with
Monte Carlo verification of the closed-form laws."""

from .graphs import (
    CONTINUITY_TOL, PROB_SUM_TOL, DomainFunction, Edge, GraphPoint,
    MetricGraph, StarGraph, canonical_test_functions, distances,
    load_graph, make_star, metric_graph_from_dict, metric_graph_to_dict,
    per_ray_quadratic, save_graph,
)
from .halfline import RngStream, bridge_crossings, map_chunks, reflected_step
from .stats import (
    KSResult, MCEstimate, ks_against_cdf, ks_two_sample, mc_estimate,
    reg_incomplete_beta,
)
from .walsh import (
    ResidualSamples, ResidualSummary, WalshPath, sample_exact_steps,
    sample_residual_summaries, semigroup_apply, walsh_step,
)
from .quadrant import (
    FixedAngles, LegOverflowError, LegSamples, OrbmLeg,
    QuadrantBatch, QuadrantPath, expected_boundary_local_time,
    sample_legs, sample_quadrant_processes,
    tail_bound, ys_cdf, ys_log_mean, ys_log_square_moment, ys_moment,
)
from .isde import (
    FilteredKernelEstimate, N2NoisePath, NPointPath, PairSamples,
    default_coalescence_tol, filtered_kernel, isde_n2_from_noise, npoint_motion,
    sample_coalescence_times, sample_exact_leg_counts, sample_first_legs,
    sample_kernel_dispersions,
)
from .metric import MetricIsdeSolution, metric_isde_forward

__version__ = "0.1.0"
