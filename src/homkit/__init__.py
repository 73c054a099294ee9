"""homkit: exact invariants of quiver algebras and recollement checks.

The package computes, over Q or a prime field and with no floating point
anywhere, the Cartan data, homological dimensions, Gorenstein status and
idempotent-recollement structure of finite-dimensional split basic
algebras presented by quivers with admissible relations.
"""

from .linalg import Field, IntMatrix, Matrix, det_int, is_prime
from .presentation import (AlgebraSpec, Arrow, Path, Quiver, Relation, SpecError,
                           compose, enumerate_paths, parse_spec, print_spec,
                           spec_of_fixture)
from .algebra import (Algebra, NotFiniteDimensionalError, algebra_from_json,
                      algebra_to_json, corner, enveloping, from_quiver, opposite,
                      quotient_by_idempotent_ideal, tensor, triangular, validate)
from .modules import (Module, PdResult, dual, ext_dims, hom_dim, hom_space, injective,
                      injective_dimension, is_iso, min_resolution, module_from_json,
                      module_to_json, pd, projective, projective_cover,
                      radical_submodule, regular, simple, syzygy,
                      top, top_multiplicities, tor_dims)
from .invariants import (CartanReport, GldimReport, GorensteinReport,
                         TheoremViolation, cartan_matrix, eilenberg_check,
                         euler_matrix, finite_gldim, gldim, gorenstein,
                         smooth, two_point_criterion)
from .recollement import (det_multiplicativity_check, gorenstein_transfer_check,
                          ladder_estimate, module_Ae, module_eA,
                          smoothness_transfer_check, stratify_search,
                          stratifying_check)

__version__ = "0.1.0"
