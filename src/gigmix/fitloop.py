"""The one fit loop of all four learners.

A learner supplies its first point and its cycle; ``fit`` does the rest: the
deterministic k-means start when no initial point is given, the pass count,
the stop rule, which points are recorded, the timer, and the N x 3
responsibilities of the last recorded point. The data cache holds the
responsibilities of its last pass; when that pass was not at the recorded
point, ``fit`` makes one more, which does not count as an iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import initialization
from .estep import (
    ExpectationCache,
    SufficientStats,
    _assemble_gamma,
    _DataCache,
    _responsibility_pass,
    finite_data,
)


@dataclass
class Point:
    """Parameters after one E-step pass at them: the pass's statistics,
    objective and degenerate points, and ``expectations``, the kernel
    coefficients it ran with (posterior expectations for VB, the point
    values for ML). The pass's responsibilities stay in the data cache."""

    params: object  # MixtureParams (ML) or VBState (VB)
    stats: SufficientStats
    objective: float
    degenerate: int
    expectations: ExpectationCache


@dataclass
class FitConfig:
    """``seed`` is accepted for compatibility; fits do not depend on it."""

    max_iterations: int
    rel_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and > 0")


@dataclass
class FitResult:
    """What every fit reports. ``iterations`` counts E-step passes;
    ``stop_reason`` is "tolerance", "no_ascent" or "max_iterations", and
    ``converged`` means the fit was not capped."""

    responsibilities: np.ndarray
    iterations: int
    wall_time_seconds: float
    converged: bool
    stop_reason: str
    degenerate_rows: int


def fit(data, init, cfg: FitConfig, families, first, cycle, ascent_only: bool):
    """Run a learner from ``init`` (or the k-means start) to its stop.

    ``first(cache, init)`` makes the first point in one pass, and
    ``cycle(cache, recorded, passes)`` the next point from the last recorded
    one, with the number of passes it made. The fit stops when the objective
    moves by at most ``rel_tolerance * (1 + |current|)`` or the passes reach
    ``max_iterations``. A point is recorded unless ``ascent_only`` and its
    objective falls; such a fall beyond the tolerance stops the fit as
    "no_ascent". Returns the last recorded point, the recorded objectives
    and the ``FitResult`` fields as a dict.
    """
    x = finite_data(data)
    start = time.perf_counter()
    if init is None:
        init = initialization.init_params(initialization.kmeans_1d(x, 3), families)
    cache = _DataCache(x)
    recorded = first(cache, init)
    passes, degenerate = 1, recorded.degenerate
    trace = [recorded.objective]
    stop_reason = "max_iterations"
    while passes < cfg.max_iterations:
        point, n = cycle(cache, recorded, passes)
        passes += n
        degenerate += point.degenerate
        tolerance = cfg.rel_tolerance * (1.0 + abs(point.objective))
        settled = abs(point.objective - recorded.objective) <= tolerance
        if not ascent_only or point.objective >= recorded.objective:
            trace.append(point.objective)
            recorded = point
        elif not settled:
            stop_reason = "no_ascent"
            break
        if settled:
            stop_reason = "tolerance"
            break
    if cache.coefficients is not recorded.expectations:
        # A later pass overwrote the recorded point's responsibilities. Only
        # they are needed, so the pass takes the fewest sums (2 rows).
        _responsibility_pass(cache, recorded.expectations, families, 2)
    return recorded, np.asarray(trace), dict(
        responsibilities=_assemble_gamma(cache),
        iterations=passes,
        wall_time_seconds=time.perf_counter() - start,
        converged=stop_reason != "max_iterations",
        stop_reason=stop_reason,
        degenerate_rows=degenerate,
    )
