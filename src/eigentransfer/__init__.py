"""Exact-arithmetic transfer maps for product-of-blocks unitary group data.

The package models the finite, explicit layer of the transfer from a product
of general linear blocks to a single block of the same total size: exact
monomial scalars and Laurent polynomials, torus characters and weights, the
refinement / weight / eigenvalue-system transfer maps with their
normalisations, Steinberg-segment accessibility combinatorics, and a
classical-point model of the induced morphism with its characteristic-
polynomial divisibility criterion.  A JSON batch interface lives in
``eigentransfer.cli``.
"""

from . import errors, laurent, monomial, points, refinements, tori, transfer
from .errors import *  # noqa: F403
from .laurent import *  # noqa: F403
from .monomial import *  # noqa: F403
from .points import *  # noqa: F403
from .refinements import *  # noqa: F403
from .tori import *  # noqa: F403
from .transfer import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (errors, laurent, monomial, points, refinements, tori, transfer)
    for name in module.__all__
)
