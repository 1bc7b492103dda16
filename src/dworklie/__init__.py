"""dworklie: exact symbolic moduli charts, flat connections and vector-field
Lie algebras for the Dwork family, over the rationals."""

from .chart import Chart, build_chart, chart_of_ring, resolve_chart
from .closedforms import matched_c
from .connection import (check_pairing_invariance, full_connection,
                         tangent_fields, vf_from_target)
from .cy3 import (bracket_claim, cy3_basis, cy3_dims, cy3_phi, cy3_sl2,
                  gm_modular, verify_cy3_table)
from .errors import (ActionShapeViolation, DworkError, EliminationStuck,
                     KernelInvariant, LinearInconsistent, NoSuchField,
                     OmegaInconsistent, Sl2Violation, ZeroScalar)
from .geometry import family_dims
from .group import (act, basis_pairs, compose, decompose_elem, group_elem,
                    infinitesimal, lie_gen, symbolic_elem)
from .liealg import (NotMember, amsy_decompose, bracket, fR_identities,
                     generator_rank, jacobi_ok, membership_build,
                     verify_flatness, verify_homomorphism, verify_theorem2)
from .linalg import MatF, OneFormMat, SolveResult, VecField, solve_linear
from .modular import (Sl2Triple, basis_vf, modular_vf, quasi_degree,
                      sl2_triple, truncate_poly, weights)
from .ratfn import RatFn, eq_by_random_eval, parse_ratfn, ratfn_string
from .ring import Poly, Ring

__all__ = [
    "Chart", "build_chart", "chart_of_ring", "resolve_chart",
    "matched_c",
    "check_pairing_invariance", "full_connection", "tangent_fields",
    "vf_from_target",
    "bracket_claim", "cy3_basis", "cy3_dims", "cy3_phi", "cy3_sl2",
    "gm_modular", "verify_cy3_table",
    "ActionShapeViolation", "DworkError", "EliminationStuck",
    "KernelInvariant", "LinearInconsistent", "NoSuchField",
    "OmegaInconsistent", "Sl2Violation", "ZeroScalar",
    "family_dims",
    "act", "basis_pairs", "compose", "decompose_elem", "group_elem",
    "infinitesimal", "lie_gen", "symbolic_elem",
    "NotMember", "amsy_decompose", "bracket", "fR_identities",
    "generator_rank", "jacobi_ok", "membership_build", "verify_flatness",
    "verify_homomorphism", "verify_theorem2",
    "MatF", "OneFormMat", "SolveResult", "VecField", "solve_linear",
    "Sl2Triple", "basis_vf", "modular_vf", "quasi_degree", "sl2_triple",
    "truncate_poly", "weights",
    "RatFn", "eq_by_random_eval", "parse_ratfn", "ratfn_string",
    "Poly", "Ring",
]
