"""Stochastic simulation on star and metric graphs: Walsh Brownian motion,
interface SDEs with one independent noise per edge, coalescing n-point
motions, and obliquely reflected Brownian motion in the quadrant, with
Monte Carlo verification of the closed-form laws."""

from .graphs import (
    CONTINUITY_TOL, PROB_SUM_TOL, DomainFunction, Edge, GraphPoint,
    MetricGraph, StarGraph, canonical_test_functions, distance, load_graph,
    make_star, metric_graph_from_dict, metric_graph_to_dict,
    per_ray_quadratic, save_graph,
)
from .halfline import (
    RngStream, bridge_crossing_prob, bridge_min, heat_kernels, map_chunks,
    reflected_increment,
)
from .stats import (
    KSResult, MCEstimate, ks_against_cdf, ks_two_sample, mc_estimate,
    reg_incomplete_beta,
)
from .walsh import (
    ResidualSummary, WalshPath, freidlin_sheu_residual, sample_exact_steps,
    sample_residual_summaries, sample_wbm_terminals, semigroup_apply,
    wbm_coupled_path,
)
from .quadrant import (
    AngleSource, FixedAngles, LegOverflowError, LegSamples, OrbmLeg,
    QuadrantBatch, QuadrantProcess, UniformAngles, expected_boundary_local_time,
    orbm_leg, quadrant_process, sample_legs, sample_quadrant_processes,
    tail_bound, ys_cdf, ys_log_mean, ys_log_square_moment, ys_moment,
)
from .isde import (
    CoalescenceSamples, FilteredKernelEstimate, FirstLegSamples, IsdeSolution,
    N2NoisePath, NPointPath, default_coalescence_tol,
    filtered_kernel, isde_forward, isde_n2_from_noise, npoint_motion,
    sample_coalescence_times, sample_first_legs, sample_isde_terminals,
    sample_kernel_dispersions,
)
from .metric import MetricIsdeSolution, metric_isde_forward

__version__ = "0.1.0"
