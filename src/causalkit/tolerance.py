"""The comparison tolerance of the Gaussian checks, and its rule.

It lives apart from ``gaussian`` so that the CLI's ``--tol`` default and
its validation, and ``serialize.GaussianTransform.check``'s default, need
no numpy: the finite scale never loads it.
"""

from __future__ import annotations

import math

from .errors import SpaceError

DEFAULT_TOL = 1e-9


def check_tolerance(tol: float) -> None:
    """Raise ``SpaceError`` unless ``tol`` is finite and at least 0 (0 asks
    for exact equality)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise SpaceError(f"tolerance must be finite and at least 0, got {tol}")
