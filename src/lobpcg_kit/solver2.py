"""Where lobpcg2's names were first published; they live in :mod:`lobpcg_kit.solver`."""

from .solver import Lobpcg2Config, lobpcg2_solve
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import b_orthonormalize_full  # noqa: F401
from .blocks import b_project_out, rayleigh_ritz, residual_block  # noqa: F401
from .operators import norm_estimates  # noqa: F401

__all__ = ["Lobpcg2Config", "lobpcg2_solve"]
