from typing import NamedTuple

import numpy as np
import pytest

from splinefield import spline
from splinefield.spline import SegmentQuery, SplineTimeline, knot_count, locate_segment


class HermiteState(NamedTuple):
    """Endpoint positions and tangents of one cubic segment."""
    p0: np.ndarray
    m0: np.ndarray
    p1: np.ndarray
    m1: np.ndarray


class QuinticState(NamedTuple):
    """Endpoint positions, tangents and second derivatives of one quintic segment."""
    p0: np.ndarray
    m0: np.ndarray
    a0: np.ndarray
    p1: np.ndarray
    m1: np.ndarray
    a1: np.ndarray


def hermite_position(t_bar, s):
    return spline.segment_derivative(s, t_bar, 0)


def hermite_velocity(t_bar, s):
    return spline.segment_derivative(s, t_bar, 1)


def hermite_acceleration(t_bar, s):
    return spline.segment_derivative(s, t_bar, 2)


quintic_position, quintic_velocity, quintic_acceleration = (
    hermite_position, hermite_velocity, hermite_acceleration)   # the state picks the basis


def _state(rng):
    return HermiteState(*(rng.normal(size=3) for _ in range(4)))


def _qstate(rng):
    return QuinticState(*(rng.normal(size=3) for _ in range(6)))


class TestKnotCount:
    def test_hundred_frames_factor_two(self):
        assert knot_count(100, 2) == 50

    def test_lower_bound(self):
        assert knot_count(4, 2) == 2
        assert knot_count(2, 2) == 2
        assert knot_count(3, 4) == 2

    def test_floor_rule(self):
        assert knot_count(7, 2) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            knot_count(1, 2)
        with pytest.raises(ValueError):
            knot_count(10, 0)


class TestLocateSegment:
    def test_left_boundary(self):
        q = locate_segment(0.0, SplineTimeline(5))
        assert (q.start_idx, q.t_bar) == (0, 0.0)

    def test_right_boundary_clamps(self):
        q = locate_segment(1.0, SplineTimeline(5))
        assert (q.start_idx, q.t_bar) == (3, 1.0)
        assert q.end_idx == 4

    def test_interior(self):
        q = locate_segment(0.3, SplineTimeline(5))
        assert q.start_idx == 1
        assert q.t_bar == pytest.approx(0.2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            locate_segment(-0.1, SplineTimeline(5))
        with pytest.raises(ValueError):
            locate_segment(1.1, SplineTimeline(5))

    def test_tau_and_knot_times(self):
        # segments are 0.25 long: knots 1 and 3 sit at t = 0.25 and 0.75
        tl = SplineTimeline(5)
        assert locate_segment(0.25, tl) == SegmentQuery(1, 0.0)
        assert locate_segment(0.75, tl) == SegmentQuery(3, 0.0)


class TestHermitePosition:
    def test_endpoints(self):
        s = _state(np.random.default_rng(0))
        np.testing.assert_allclose(hermite_position(0.0, s), s.p0, atol=1e-15)
        np.testing.assert_allclose(hermite_position(1.0, s), s.p1, atol=1e-15)

    def test_midpoint_symmetry(self):
        s = HermiteState(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert hermite_position(0.5, s)[0] == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        ts = np.random.default_rng(1).uniform(0, 1, 1000)
        for t in ts:
            b = spline.hermite_basis(t)
            assert abs(b[0] + b[2] - 1.0) < 1e-12


class TestHermiteDerivatives:
    def test_velocity_endpoints_are_tangents(self):
        s = _state(np.random.default_rng(2))
        np.testing.assert_allclose(hermite_velocity(0.0, s), s.m0, atol=1e-15)
        np.testing.assert_allclose(hermite_velocity(1.0, s), s.m1, atol=1e-15)

    def test_velocity_midpoint_value(self):
        s = HermiteState(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert hermite_velocity(0.5, s)[0] == pytest.approx(1.5, abs=1e-12)

    def test_velocity_matches_fd_of_position(self):
        # oracle: central finite difference of hermite_position
        rng = np.random.default_rng(3)
        eps = 1e-5
        for _ in range(1000):
            s = _state(rng)
            t = rng.uniform(eps, 1 - eps)
            fd = (hermite_position(t + eps, s) - hermite_position(t - eps, s)) / (2 * eps)
            v = hermite_velocity(t, s)
            assert np.max(np.abs(v - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-6

    def test_acceleration_midpoint_odd_symmetry(self):
        s = HermiteState(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert hermite_acceleration(0.5, s)[0] == pytest.approx(0.0, abs=1e-12)

    def test_acceleration_endpoint_values(self):
        s = HermiteState(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert hermite_acceleration(0.0, s)[0] == pytest.approx(6.0, abs=1e-12)
        assert hermite_acceleration(1.0, s)[0] == pytest.approx(-6.0, abs=1e-12)

    def test_acceleration_matches_fd_of_velocity(self):
        rng = np.random.default_rng(4)
        eps = 1e-5
        for _ in range(1000):
            s = _state(rng)
            t = rng.uniform(eps, 1 - eps)
            fd = (hermite_velocity(t + eps, s) - hermite_velocity(t - eps, s)) / (2 * eps)
            a = hermite_acceleration(t, s)
            assert np.max(np.abs(a - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-6


class TestContinuityAndLocality:
    def test_c0_c1_across_shared_knot(self):
        rng = np.random.default_rng(5)
        pts = [rng.normal(size=3) for _ in range(3)]
        tans = [rng.normal(size=3) for _ in range(3)]
        seg0 = HermiteState(pts[0], tans[0], pts[1], tans[1])
        seg1 = HermiteState(pts[1], tans[1], pts[2], tans[2])
        np.testing.assert_array_equal(hermite_position(1.0, seg0),
                                      hermite_position(0.0, seg1))
        np.testing.assert_array_equal(hermite_velocity(1.0, seg0),
                                      hermite_velocity(0.0, seg1))

    def test_segment_locality(self):
        rng = np.random.default_rng(6)
        pts = [rng.normal(size=3) for _ in range(3)]
        tans = [rng.normal(size=3) for _ in range(3)]
        seg1 = HermiteState(pts[1], tans[1], pts[2], tans[2])
        before = hermite_position(0.7, seg1)
        pts[0] += 100.0   # segment 0's start knot moves
        after = hermite_position(0.7, seg1)
        np.testing.assert_array_equal(before, after)


class TestQuintic:
    def test_endpoint_values(self):
        s = _qstate(np.random.default_rng(7))
        np.testing.assert_allclose(quintic_position(0.0, s), s.p0, atol=1e-15)
        np.testing.assert_allclose(quintic_position(1.0, s), s.p1, atol=1e-15)

    def test_fd_at_zero_recovers_tangent(self):
        rng = np.random.default_rng(8)
        eps = 1e-5
        s = _qstate(rng)
        fd = (quintic_position(eps, s) - quintic_position(0.0, s)) / eps
        np.testing.assert_allclose(fd, s.m0, rtol=1e-3, atol=1e-3)

    def test_endpoint_contract_by_fd(self):
        # value = p, d1 = m, d2 = a at both ends
        rng = np.random.default_rng(9)
        eps = 1e-5
        for _ in range(20):
            s = _qstate(rng)
            np.testing.assert_allclose(quintic_velocity(0.0, s), s.m0, atol=1e-13)
            np.testing.assert_allclose(quintic_velocity(1.0, s), s.m1, atol=1e-13)
            np.testing.assert_allclose(quintic_acceleration(0.0, s), s.a0, atol=1e-12)
            np.testing.assert_allclose(quintic_acceleration(1.0, s), s.a1, atol=1e-12)
            t = rng.uniform(eps, 1 - eps)
            fd_v = (quintic_position(t + eps, s) - quintic_position(t - eps, s)) / (2 * eps)
            np.testing.assert_allclose(quintic_velocity(t, s), fd_v, rtol=1e-5, atol=1e-6)
            fd_a = (quintic_velocity(t + eps, s) - quintic_velocity(t - eps, s)) / (2 * eps)
            np.testing.assert_allclose(quintic_acceleration(t, s), fd_a, rtol=1e-5, atol=1e-6)
