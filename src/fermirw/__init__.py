"""Fermi coordinates of comoving observers in expanding Robertson-Walker
spacetimes.

The package maps events between the comoving chart (t, chi) and the Fermi
chart (tau, rho) of a comoving observer, evaluates the Fermi metric in
polar and Cartesian form, and computes Fermi velocities and the proper
radius of each simultaneity slice.  Exact solutions for the Milne, de
Sitter, radiation, and matter models back every numeric route.
"""

from .chart import (FermiEvent, RWEvent, comoving_flow_fermi, fermi_from_rw,
                    jacobian_F, rw_from_fermi, sigma_of_rho)
from .closed_forms import (GAMMA_RATIO_SUP, ClosedFormModel, de_sitter,
                           matter, milne, radiation)
from .cosmology import (Cosmology, ScaleFactorModel, hubble, load_table,
                        make_exponential, make_power_law, make_tabulated,
                        sigma_infinity)
from .errors import (AccuracyError, BracketError, DomainError, FermiRWError,
                     OutOfChartError, TableError, UnsupportedCurvatureError)
from .geodesics import (GeodesicPoint, chi_of_sigma, integrate_geodesic_ode,
                        rho_of_sigma, sample_geodesic, t_of_sigma)
from .kinematics import (VelocityReport, fermi_speed, fermi_speed_power_law,
                         fermi_speed_sup, hubble_speed,
                         power_law_geometry_relation, proper_radius,
                         proper_radius_power_law, sigma_of_chi,
                         velocity_identity_residual)
from .metric import (PolarMetric, g_tau_tau, lambda_k, metric_cartesian,
                     metric_polar, s_k)
from .numerics import (DEFAULT_CONFIG, NumericsConfig, find_root_monotone,
                       gamma_fn, hyp2f1, integrate_sigma)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccuracyError",
    "BracketError",
    "ClosedFormModel",
    "Cosmology",
    "DEFAULT_CONFIG",
    "DomainError",
    "FermiEvent",
    "FermiRWError",
    "GAMMA_RATIO_SUP",
    "GeodesicPoint",
    "NumericsConfig",
    "OutOfChartError",
    "PolarMetric",
    "RWEvent",
    "ScaleFactorModel",
    "TableError",
    "UnsupportedCurvatureError",
    "VelocityReport",
    "chi_of_sigma",
    "comoving_flow_fermi",
    "de_sitter",
    "fermi_from_rw",
    "fermi_speed",
    "fermi_speed_power_law",
    "fermi_speed_sup",
    "find_root_monotone",
    "g_tau_tau",
    "gamma_fn",
    "hubble",
    "hubble_speed",
    "hyp2f1",
    "integrate_geodesic_ode",
    "integrate_sigma",
    "jacobian_F",
    "lambda_k",
    "load_table",
    "make_exponential",
    "make_power_law",
    "make_tabulated",
    "matter",
    "metric_cartesian",
    "metric_polar",
    "milne",
    "power_law_geometry_relation",
    "proper_radius",
    "proper_radius_power_law",
    "radiation",
    "rho_of_sigma",
    "rw_from_fermi",
    "s_k",
    "sample_geodesic",
    "sigma_infinity",
    "sigma_of_chi",
    "sigma_of_rho",
    "t_of_sigma",
    "velocity_identity_residual",
]
