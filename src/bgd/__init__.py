"""Exact computational kernel for finite-dimensional left bialgebroids."""

from .linalg import BACKEND, Field

__all__ = ["BACKEND", "Field"]
__version__ = "0.1.0"
