from typing import NamedTuple

import numpy as np
import pytest

from splinefield import spline
from splinefield.spline import knot_count, locate_segment


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


# Reference oracle: each basis and its derivatives written out by hand.
# spline.basis derives orders 1 and 2 from one coefficient table per family
# and must match these bit for bit.

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
    """First derivative of the quintic basis w.r.t. t_bar."""
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
    """Second derivative of the quintic basis w.r.t. t_bar."""
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


ORACLES = {4: (hermite_basis, hermite_basis_d1, hermite_basis_d2),
           6: (quintic_basis, quintic_basis_d1, quintic_basis_d2)}


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
        assert locate_segment(0.0, 5) == (0, 0.0)

    def test_right_boundary_clamps(self):
        start, t_bar = locate_segment(1.0, 5)
        assert (start, t_bar) == (3, 1.0)
        assert start + 1 == 4

    def test_interior(self):
        start, t_bar = locate_segment(0.3, 5)
        assert start == 1
        assert t_bar == pytest.approx(0.2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            locate_segment(-0.1, 5)
        with pytest.raises(ValueError):
            locate_segment(1.1, 5)

    def test_tau_and_knot_times(self):
        # segments are 0.25 long: knots 1 and 3 sit at t = 0.25 and 0.75
        assert locate_segment(0.25, 5) == (1, 0.0)
        assert locate_segment(0.75, 5) == (3, 0.0)

    @pytest.mark.parametrize("n_knots", [1, 0, -3])
    def test_rejects_fewer_than_two_knots(self, n_knots):
        with pytest.raises(ValueError, match="n_knots must be >= 2"):
            locate_segment(0.5, n_knots)


class TestBasisTables:
    T_BARS = [0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 5e-324,
              *np.random.default_rng(12).uniform(0.0, 1.0, 10_000)]

    @pytest.mark.parametrize("n_ends", [4, 6])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_expanded_oracle_bit_for_bit(self, n_ends, order):
        oracle = ORACLES[n_ends][order]
        for t in self.T_BARS:
            got, want = spline.basis(n_ends, float(t), order), oracle(float(t))
            assert len(got) == len(want) == n_ends
            for g, w in zip(got, want):
                assert g == w and np.signbit(g) == np.signbit(w), (t, g, w)


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
            b = spline.basis(4, t, 0)
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
