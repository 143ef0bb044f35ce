"""Desk-scale numerical toolkit for matrix-curl identities, unique-continuation
transport of boundary data, and generalized Korn seminorms."""

from .algebra import (SkewMat3, axl, curl_product_pointwise,
                      curl_product_skew_pointwise, dvec, mat_of_vec, skewvec,
                      smat, symvec, vec_of_mat)
from .errors import (ConfigError, DeterminantTooSmall, DimensionMismatch,
                     DisconnectedDomain, EigensolveFailed, FaceMismatch,
                     GridTooLarge, GridTooSmall, KornKitError,
                     NonFiniteCoefficient, NotIntegrable, SeedOutsideDomain,
                     UnknownKind)
from .fields import (CoefficientTensorField, ConvergenceReport, GridSpec,
                     MatrixField, VectorField, curl_product_discrepancy,
                     fd_curl_rowwise, fd_entry_gradients, fd_grad,
                     refinement_errors)
from .fieldio import load_field, save_field
from .korn import (DiscreteForm, KornProblem, ProbeReport, RayleighResult,
                   RigidRecovery, assemble_form, build_gp, builtin_p_field,
                   face_mask, kernel_vector_diagnostics, min_rayleigh,
                   norm_property_probe, rigid_recover, seminorm,
                   sweep_roughness, sym_conjugation_sides)
from .transport import (CoverageReport, CounterexampleReport,
                        IntegrabilityReport, LineCoefficient, ResidualReport,
                        Trajectory, counterexample_demo, flood_propagate,
                        gronwall_bound, integrate_line, integrate_norm,
                        propagate_cube, system_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
