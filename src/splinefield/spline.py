"""Pure cubic Hermite / quintic spline mathematics on a uniform knot timeline.

All functions here are stateless and parameter-free. Tangents are expressed
per segment in normalized-time units (derivatives w.r.t. t-bar); multiply by
(n_knots - 1) to convert a tangent to a physical-time derivative on [0, 1].

Each spline family is defined once, as a table of power coefficients per
basis function; `basis` derives the velocity and acceleration weights by
differentiating the table, so position, velocity and acceleration cannot
disagree. `segment_derivative` applies a basis to endpoint states of any
type that supports scalar multiplication and addition (numpy arrays,
autodiff variables), so the same formulas serve both plain evaluation and
the differentiable field pipeline.
"""

from __future__ import annotations

import math


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


def locate_segment(t_query: float, n_knots: int):
    """Map a global query time in [0, 1] on a uniform timeline of n_knots knots
    to (segment start knot, t_bar).

    start = clamp(floor(t_query * (N - 1)), 0, N - 2); t_bar = t_query*(N-1) - start.
    t_query = 1.0 lands on the last segment with t_bar = 1.0 via the clamp.
    """
    if n_knots < 2:
        raise ValueError(f"n_knots must be >= 2, got {n_knots}")
    if not (0.0 <= t_query <= 1.0):
        raise ValueError(f"t_query must be in [0, 1], got {t_query}")
    start = int(math.floor(t_query * (n_knots - 1)))
    start = min(max(start, 0), n_knots - 2)
    return start, t_query * (n_knots - 1) - start


def segment_knots(times, n_knots: int) -> list:
    """The knots of the segments around `times`, start and start + 1 of each,
    in first-use order: the order in which the times read them."""
    starts = [locate_segment(t, n_knots)[0] for t in times]
    return list(dict.fromkeys(k for s in starts for k in (s, s + 1)))


# Power coefficients (constant term first) of each basis function, one row per
# endpoint state in the order segment_derivative sums them.
_TABLES = {
    # cubic Hermite: h00, h10, h01, h11 weigh p0, m0, p1, m1
    4: ((1, 0, -3, 2),
        (0, 1, -2, 1),
        (0, 0, 3, -2),
        (0, 0, -1, 1)),
    # quintic Hermite: value, tangent and curvature weights at each end
    6: ((1, 0, 0, -10, 15, -6),
        (0, 1, 0, -6, 8, -3),
        (0, 0, 0.5, -1.5, 1.5, -0.5),
        (0, 0, 0, 10, -15, 6),
        (0, 0, 0, -4, 7, -3),
        (0, 0, 0, 0.5, -1, 0.5)),
}


def basis(n_ends: int, t_bar, order: int) -> tuple:
    """order-th t_bar derivative of the basis for n_ends endpoint states (4 cubic,
    6 quintic): each table row is differentiated `order` times, and its nonzero
    terms are summed from the highest power down."""
    table = _TABLES[n_ends]
    powers = [1.0]
    for _ in range(len(table) - 1 - order):
        powers.append(powers[-1] * t_bar)
    out = []
    for row in table:
        terms = [c * math.perm(k, order) * powers[k - order]
                 for k, c in enumerate(row) if k >= order and c]
        acc = terms.pop()
        for term in reversed(terms):
            acc = acc + term
        out.append(acc)
    return tuple(out)


def segment_derivative(ends, t_bar: float, order: int):
    """order-th derivative (0, 1 or 2) w.r.t. t_bar of the segment with endpoint
    states `ends`: (p0, m0, p1, m1) for a cubic Hermite segment, (p0, m0, a0,
    p1, m1, a1) for a quintic one. The basis weights sum the states left to
    right."""
    coeffs = basis(len(ends), t_bar, order)
    out = coeffs[0] * ends[0]
    for c, e in zip(coeffs[1:], ends[1:]):
        out = out + c * e
    return out
