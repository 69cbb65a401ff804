"""Projected-subspace dynamics for small open quantum models.

The library is imported from its submodules (subdyn.subdynamics,
subdyn.classify, subdyn.gates, ...); the package itself exports nothing else.
"""

__version__ = "0.1.0"
