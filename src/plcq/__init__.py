"""Exact polyhedral toolkit for constraint qualifications of piecewise-linear
inequalities: tangent/normal cones, Clarke/Frechet subdifferentials, end sets,
BCQ and tau-strong BCQ decisions, and error-bound constants."""

from .linalg import INF, Vec, frac, frac_str, vec
from .polyhedra import (HPolyhedron, NormSpec, UnionPolyhedron, distance, hull,
                        minkowski_sum, nonneg_hull, polar_cone, segment_hull,
                        support_function, union_subset)
from .plfunc import Atom, Max, Min, PLFunction, atom, vmax, vmin, is_boundary_point
from .cones import (LocalFaceAtlas, clarke_normal_cone, clarke_tangent_cone,
                    contingent_cone, face_atlas, frechet_normal_cone)
from .subdiff import (NotLipschitz, clarke_dirderiv, clarke_singular_subdiff,
                      clarke_subdiff, frechet_subdiff, is_regular)
from .endset import EndSetResult, distance_to_end_set, end_set, ray_exit
from .cq import (Analysis, CQReport, NotApplicable, analyze, best_tau_directional,
                 best_tau_endset, check_clarke_bcq, check_extended_bcq,
                 check_frechet_bcq, check_strong_bcq, check_subdiff_in_normal,
                 check_tangent_inclusion, error_bound_modulus,
                 strong_bcq_thresholds, verify_prop32, verify_theorems)
from .oracle import (SamplePlan, sample_clarke_dirderiv,
                     sample_clarke_tangent_membership,
                     sample_contingent_membership,
                     sample_frechet_subgradient_check)
from .instances import Instance, InstanceError, generate_corpus, load_instance

__version__ = "0.1.0"
