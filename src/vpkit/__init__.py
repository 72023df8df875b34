"""Kinetic toolkit for weakly collisional plasmas.

Subpackages:
    profiles     analytic equilibria and interaction potentials
    hybridnorms  Fourier-weighted analytic norms (F, Z, Y) and their battery
    lintheory    linear Volterra theory, dispersion scans, damping fits
    echo         echo-kernel bounds, exponential moments, growth envelopes
    kinetic      nonlinear split-step spectral solver and echo experiments
    acceptance   the numbered acceptance battery and its shared products
    config       the config schema, parsing, and each scenario's defaults
    cli          scenario runners, report serialization, command line
"""

from . import errors

__version__ = "0.1.0"

__all__ = ["errors", "__version__"]
