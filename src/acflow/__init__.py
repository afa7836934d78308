"""Spectral-Galerkin solver for the stochastic 2-D Navier-Stokes equations
with artificial compressibility, together with a verification suite for the
energy, uniqueness and incompressible-limit estimates the scheme is built on.
"""

__version__ = "0.1.0"

from .spaces import (
    ConfigurationError,
    SpectralSpaces,
    build_spaces,
    h10_norm,
    l2_norm,
)
from .forcing import NoiseModel
from .integrator import GalerkinIntegrator, PathRecord, SolverConfig, State

__all__ = [
    "ConfigurationError",
    "GalerkinIntegrator",
    "NoiseModel",
    "PathRecord",
    "SolverConfig",
    "SpectralSpaces",
    "State",
    "build_spaces",
    "h10_norm",
    "l2_norm",
    "__version__",
]
