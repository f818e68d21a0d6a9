"""Birkhoff normal forms and long-time stability experiments for the
Galerkin-truncated quintic Schrodinger equation on the circle."""

__version__ = "0.1.0"

from .poly import (HomPoly, ModeSet, build_p6, build_z2, poisson, poly_from_json,
                   poly_to_json)
from .spectral import (FrequencySet, NormEnclosure, freqs_conv, japanese,
                       level_enclosures, norm_c, norm_h, project, split_levels,
                       strichartz_identity_check, sup_norm)
from .nf import (NormalFormConfig, NormalFormResult, birkhoff, check_krgamma,
                 epsilon_r, lie_transform, solve_cohomological, suggest_gamma,
                 transform_state)
from .resonance import (NRBounds, NRCertificate, certify_strong, certify_weak,
                        qstar_reduce, recompute_worst_case,
                        sample_conv_potential, sample_mult_potential)
from .sturm import (SLBasis, dirichlet_eig, freqs_mult, p6_decay_constant,
                    p6_eigen_coeffs, sobolev_ratio, verify_ef_decay,
                    verify_ev_asymptotics)
from .dynamics import (DriftResult, Plan, ScanResult, Trajectory, action_drift,
                       integrate, plan_parameters, remainder_g,
                       remainder_scaling, strichartz_scan)
from .errors import BudgetError, ConfigError
