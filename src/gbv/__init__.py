"""Generalized bounded-variation functionals on sampled functions.

Computes Waterman-Shiba, Schramm and gauge-constrained variation of
functions on a uniform grid, evaluates the associated embedding criteria,
builds constructive counterexamples when a criterion fails, and
property-tests the rearrangement inequalities the theory rests on.
"""

__version__ = "0.1.0"

from .counterexample import (ConstructionSpec, LevelPlan, build_witness,
                             certify_blowup, certify_membership,
                             paper_constants, plan_construction,
                             witness_resolution)
from .criteria import (CriterionReport, criterion_corollary_q,
                       criterion_lambda_gamma, criterion_phi_lambda,
                       criterion_schramm, criterion_union_p)
from .errors import (GbvError, HorizonError, HypothesisError, InfeasibleError,
                     InternalConsistencyError, ResolutionError, ValidationError)
from .inequalities import (TripleSample, check_holder_branch,
                           check_master_inequality, check_weighted_comparison,
                           check_wu_estimate, extremal_profile, monotone_vector)
from .sequences import ConvexBase, GaugePair, SchrammFamily, WeightSequence
from .stepfn import IntervalCollection, StepFunction, generate_block, ingest
from .variation import (VariationResult, modulus_of_variation, schramm_norm,
                        variation_gauged, variation_schramm,
                        variation_unweighted_q, variation_weighted)

__all__ = [
    "__version__",
    "ConstructionSpec", "LevelPlan", "build_witness", "certify_blowup",
    "certify_membership", "paper_constants", "plan_construction",
    "witness_resolution",
    "CriterionReport", "criterion_corollary_q", "criterion_lambda_gamma",
    "criterion_phi_lambda", "criterion_schramm", "criterion_union_p",
    "GbvError", "HorizonError", "HypothesisError", "InfeasibleError",
    "InternalConsistencyError", "ResolutionError", "ValidationError",
    "TripleSample", "check_holder_branch", "check_master_inequality",
    "check_weighted_comparison", "check_wu_estimate", "extremal_profile", "monotone_vector",
    "ConvexBase", "GaugePair", "SchrammFamily", "WeightSequence",
    "IntervalCollection", "StepFunction", "generate_block", "ingest",
    "VariationResult", "modulus_of_variation", "schramm_norm",
    "variation_gauged", "variation_schramm", "variation_unweighted_q",
    "variation_weighted",
]
