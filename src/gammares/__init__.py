"""Borel-plane toolkit for the Gamma-function normalization
lambda(z) = Gamma(z) / (sqrt(2 pi) z^(z-1/2) e^-z).

Exact coefficient recursions, Lambert-W closed forms for the Borel-plane
germs, directional / Hankel / real-major Laplace resummation, analytic
continuation with branch tracking, and the lateral (alien) operators at
the branch points 2*pi*i*Z*.
"""

from .exactseries import (PuiseuxSeries, Rational, RationalSeries,
                          a_coefficients, bernoulli, lambda_tilde, puiseux_q,
                          series_exp, stirling_series)
from .lambertw import (BACKEND, WValue, lambert_w,
                       lambert_w_near_branch_point)
from .borelplane import (BorelFunction, BranchPath, SingularityData,
                         SurfacePoint, alien, alien_plus, continue_minor,
                         major_chi, major_lambda32, minor_chi,
                         minor_lambda32, minor_mu)
from .laplace import (Direction, HalfPlane, LaplaceResult, QuadratureSpec,
                      glue_directions, laplace_hankel, laplace_ray,
                      laplace_real_major)
from .realmajor import (CIndex, QPath, minor_lambda1_contour, rho_continue,
                        rho_lambda_c, rho_nu_c, rho_on_sheet)
from .reference import gamma_ref, lambda_ref, nu_ref, reflection_check

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    "Rational", "RationalSeries", "PuiseuxSeries", "bernoulli",
    "a_coefficients", "stirling_series", "series_exp", "lambda_tilde",
    "puiseux_q",
    "WValue", "lambert_w", "lambert_w_near_branch_point",
    "SurfacePoint", "BorelFunction", "BranchPath", "SingularityData",
    "minor_lambda32", "major_lambda32", "minor_chi", "major_chi", "minor_mu",
    "continue_minor", "alien", "alien_plus",
    "Direction", "HalfPlane", "QuadratureSpec", "LaplaceResult",
    "laplace_ray", "laplace_hankel", "laplace_real_major", "glue_directions",
    "CIndex", "QPath", "rho_lambda_c", "rho_nu_c", "rho_continue",
    "rho_on_sheet", "minor_lambda1_contour",
    "gamma_ref", "lambda_ref", "nu_ref", "reflection_check",
]
