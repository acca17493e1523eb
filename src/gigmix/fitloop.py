"""The one fit loop of all four learners.

A learner supplies its default start, its first point and its cycle; ``fit``
does the rest: the start when no initial point is given (the noise core for
the ML learners, k-means for the variational ones), the pass budget, the
stop rule, which points are recorded, the timer, and the N x 3
responsibilities of the last recorded point (``estep.responsibilities_at``:
those of the last pass when it ran there, else of one more pass, which does
not count as an iteration). The kernel counts the passes
(``estep.passes_made``); only this loop reads the budget and spends it.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .estep import ExpectationCache, SufficientStats, _DataCache, finite_data, nonzero_values, passes_made, responsibilities_at


@dataclass
class Point:
    """Parameters after one E-step pass at them: the pass's statistics,
    objective and degenerate points, and ``expectations``, the kernel
    coefficients it ran with (posterior expectations for VB, the point
    values for ML). The data cache keeps the pass's responsibilities."""

    params: object  # MixtureParams (ML) or VBState (VB)
    stats: SufficientStats
    objective: float
    degenerate: int
    expectations: ExpectationCache


def as_integer(value) -> int | None:
    """``value`` as an int when it is an integer, a numpy integer too; None
    for a bool or anything else."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass
class FitConfig:
    """``max_iterations`` is an integer >= 1 (``as_integer``) and
    ``rel_tolerance`` a finite real number > 0 (a numpy float too, not a
    bool); ``seed`` is accepted for compatibility; fits do not depend on it."""

    max_iterations: int
    rel_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        cap = as_integer(self.max_iterations)
        if cap is None or cap < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        tol = self.rel_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError(f"rel_tolerance must be a finite real number > 0, got {tol!r}")


@dataclass
class FitResult:
    """What every fit reports. ``iterations`` counts the kernel's E-step
    passes, the first point's as one; ``stop_reason`` is "tolerance",
    "no_ascent" or "max_iterations", and ``converged`` means the fit was not
    capped."""

    responsibilities: np.ndarray
    iterations: int
    wall_time_seconds: float
    converged: bool
    stop_reason: str
    degenerate_rows: int


def fit(data, init, default_start, cfg: FitConfig, families, first, cycle, ascent_only: bool):
    """Run a learner from ``init``, or when it is None from ``default_start``
    of x's nonzero values if at least three exist, else of x, inside the
    timer, to its stop.

    ``first(cache, init)`` makes the first point, which counts as one pass
    however many it took, and ``cycle(cache, recorded, room)`` the next point
    from the last recorded one in at most ``room`` passes, the passes left.
    The passes are those the kernel counts on ``cache``. The fit stops when
    the objective moves by at most ``rel_tolerance * (1 + |current|)`` or the
    passes reach ``max_iterations``. A point is recorded unless
    ``ascent_only`` and its objective falls; such a fall beyond the tolerance
    stops the fit as "no_ascent". Returns the last recorded point, the recorded objectives
    and the ``FitResult`` fields as a dict.
    """
    x = finite_data(data)
    start = time.perf_counter()
    if init is None:
        values = nonzero_values(x)
        init = default_start(values if values.size >= 3 else x, families)
    cache = _DataCache(x, families)
    recorded = first(cache, init)
    base = passes_made(cache) - 1
    passes, degenerate = 1, recorded.degenerate
    trace = [recorded.objective]
    stop_reason = "max_iterations"
    while passes < cfg.max_iterations:
        point = cycle(cache, recorded, cfg.max_iterations - passes)
        passes = passes_made(cache) - base
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
    return recorded, np.asarray(trace), dict(
        responsibilities=responsibilities_at(cache, recorded.expectations, families),
        iterations=passes,
        wall_time_seconds=time.perf_counter() - start,
        converged=stop_reason != "max_iterations",
        stop_reason=stop_reason,
        degenerate_rows=degenerate,
    )
