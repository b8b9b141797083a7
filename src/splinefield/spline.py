"""Pure cubic Hermite / quintic spline mathematics on a uniform knot timeline.

All functions here are stateless and parameter-free. Tangents are expressed
per segment in normalized-time units (derivatives w.r.t. t-bar); multiply by
(n_knots - 1) to convert a tangent to a physical-time derivative on [0, 1].

`segment_derivative` applies a basis to endpoint states of any type that
supports scalar multiplication and addition (numpy arrays, autodiff
variables), so the same formulas serve both plain evaluation and the
differentiable field pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SplineTimeline:
    """Uniform knot timeline on [0, 1] with n_knots knots."""

    n_knots: int

    def __post_init__(self):
        if self.n_knots < 2:
            raise ValueError(f"n_knots must be >= 2, got {self.n_knots}")


@dataclass(frozen=True)
class SegmentQuery:
    """A located segment: start knot index and relative time in [0, 1]."""

    start_idx: int
    t_bar: float

    @property
    def end_idx(self) -> int:
        return self.start_idx + 1


def knot_count(n_timestamps: int, dof_factor: int) -> int:
    """Number of knots for a well-determined fit: max(2, floor(T / K)).

    n_timestamps is the number of observed (training) timestamps, dof_factor
    the per-knot parameter factor (2 for cubic Hermite: position + tangent).
    Callers with a motion prior may override the result with an explicit N.
    """
    if n_timestamps < 2:
        raise ValueError(f"need at least 2 timestamps, got {n_timestamps}")
    if dof_factor < 1:
        raise ValueError(f"dof_factor must be >= 1, got {dof_factor}")
    return max(2, n_timestamps // dof_factor)


def locate_segment(t_query: float, timeline: SplineTimeline) -> SegmentQuery:
    """Map a global query time in [0, 1] to (segment start index, t_bar).

    start = clamp(floor(t_query * (N - 1)), 0, N - 2); t_bar = t_query*(N-1) - start.
    t_query = 1.0 lands on the last segment with t_bar = 1.0 via the clamp.
    """
    if not (0.0 <= t_query <= 1.0):
        raise ValueError(f"t_query must be in [0, 1], got {t_query}")
    n = timeline.n_knots
    start = int(math.floor(t_query * (n - 1)))
    start = min(max(start, 0), n - 2)
    t_bar = t_query * (n - 1) - start
    return SegmentQuery(start_idx=start, t_bar=t_bar)


def hermite_basis(t_bar):
    """Cubic Hermite basis (h00, h10, h01, h11) at t_bar."""
    t2 = t_bar * t_bar
    t3 = t2 * t_bar
    return (
        2.0 * t3 - 3.0 * t2 + 1.0,
        t3 - 2.0 * t2 + t_bar,
        -2.0 * t3 + 3.0 * t2,
        t3 - t2,
    )


def hermite_basis_d1(t_bar):
    """First derivative of the cubic Hermite basis w.r.t. t_bar."""
    t2 = t_bar * t_bar
    return (
        6.0 * t2 - 6.0 * t_bar,
        3.0 * t2 - 4.0 * t_bar + 1.0,
        -6.0 * t2 + 6.0 * t_bar,
        3.0 * t2 - 2.0 * t_bar,
    )


def hermite_basis_d2(t_bar):
    """Second derivative of the cubic Hermite basis w.r.t. t_bar."""
    return (
        12.0 * t_bar - 6.0,
        6.0 * t_bar - 4.0,
        -12.0 * t_bar + 6.0,
        6.0 * t_bar - 2.0,
    )


def quintic_basis(t_bar):
    """Quintic Hermite basis (value, tangent, curvature weights at both ends)."""
    t2 = t_bar * t_bar
    t3 = t2 * t_bar
    t4 = t3 * t_bar
    t5 = t4 * t_bar
    return (
        -6.0 * t5 + 15.0 * t4 - 10.0 * t3 + 1.0,
        -3.0 * t5 + 8.0 * t4 - 6.0 * t3 + t_bar,
        -0.5 * t5 + 1.5 * t4 - 1.5 * t3 + 0.5 * t2,
        6.0 * t5 - 15.0 * t4 + 10.0 * t3,
        -3.0 * t5 + 7.0 * t4 - 4.0 * t3,
        0.5 * t5 - t4 + 0.5 * t3,
    )


def quintic_basis_d1(t_bar):
    t2 = t_bar * t_bar
    t3 = t2 * t_bar
    t4 = t3 * t_bar
    return (
        -30.0 * t4 + 60.0 * t3 - 30.0 * t2,
        -15.0 * t4 + 32.0 * t3 - 18.0 * t2 + 1.0,
        -2.5 * t4 + 6.0 * t3 - 4.5 * t2 + t_bar,
        30.0 * t4 - 60.0 * t3 + 30.0 * t2,
        -15.0 * t4 + 28.0 * t3 - 12.0 * t2,
        2.5 * t4 - 4.0 * t3 + 1.5 * t2,
    )


def quintic_basis_d2(t_bar):
    t2 = t_bar * t_bar
    t3 = t2 * t_bar
    return (
        -120.0 * t3 + 180.0 * t2 - 60.0 * t_bar,
        -60.0 * t3 + 96.0 * t2 - 36.0 * t_bar,
        -10.0 * t3 + 18.0 * t2 - 9.0 * t_bar + 1.0,
        120.0 * t3 - 180.0 * t2 + 60.0 * t_bar,
        -60.0 * t3 + 84.0 * t2 - 24.0 * t_bar,
        10.0 * t3 - 12.0 * t2 + 3.0 * t_bar,
    )


_BASES = {4: (hermite_basis, hermite_basis_d1, hermite_basis_d2),
          6: (quintic_basis, quintic_basis_d1, quintic_basis_d2)}


def segment_derivative(ends, t_bar: float, order: int):
    """order-th derivative (0, 1 or 2) w.r.t. t_bar of the segment with endpoint
    states `ends`: (p0, m0, p1, m1) for a cubic Hermite segment, (p0, m0, a0,
    p1, m1, a1) for a quintic one. The basis weights sum the states left to
    right."""
    coeffs = _BASES[len(ends)][order](t_bar)
    out = coeffs[0] * ends[0]
    for c, e in zip(coeffs[1:], ends[1:]):
        out = out + c * e
    return out
