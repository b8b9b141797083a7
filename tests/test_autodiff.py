import gc
import inspect
import math
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from splinefield import autodiff as ad
from splinefield.autodiff import ParamStore, Tape, TapeStateError, Var

from gradcheck import fd_check


class TestForwardLinear:
    def test_zero_input_returns_bias(self):
        tape = Tape()
        x = Var(np.zeros((2, 4)), tape)
        W = Var(np.random.default_rng(0).normal(size=(4, 3)), tape)
        b = Var(np.array([1.0, -2.0, 0.5]), tape)
        out = ad.forward_linear(x, W, b)
        np.testing.assert_array_equal(out.value, np.tile(b.value, (2, 1)))

    def test_identity_weights_pass_input_through(self):
        tape = Tape()
        x_np = np.random.default_rng(1).normal(size=(5, 4))
        out = ad.forward_linear(Var(x_np, tape), Var(np.eye(4), tape),
                                Var(np.zeros(4), tape))
        np.testing.assert_array_equal(out.value, x_np)

    def test_matches_naive_dot_products(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        tape = Tape()
        out = ad.forward_linear(Var(x, tape), Var(W, tape), Var(b, tape))
        naive = np.array([sum(x[0, i] * W[i, j] for i in range(4)) + b[j]
                          for j in range(3)])
        np.testing.assert_allclose(out.value[0], naive, rtol=1e-14)

    def test_shape_mismatch_raises(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.forward_linear(Var(np.zeros((2, 3)), tape),
                              Var(np.zeros((4, 3)), tape),
                              Var(np.zeros(3), tape))


class TestActivations:
    def test_sine_at_zero(self):
        tape = Tape()
        out = ad.sine(Var(np.zeros(3), tape), 30.0)
        np.testing.assert_array_equal(out.value, np.zeros(3))

    def test_relu_clamps_negative(self):
        tape = Tape()
        out = ad.relu(Var(np.array([-1.0, 2.0]), tape))
        np.testing.assert_array_equal(out.value, [0.0, 2.0])

    def test_sine_gradient_matches_fd(self):
        w0 = 30.0
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=4)
        tape = Tape()
        x = Var(x0.copy(), tape)
        out = ad.sine(x, w0)
        tape.backward(out)
        np.testing.assert_allclose(x.grad, w0 * np.cos(w0 * x0), rtol=1e-12)
        eps = 1e-6
        fd = (np.sin(w0 * (x0 + eps)) - np.sin(w0 * (x0 - eps))) / (2 * eps)
        np.testing.assert_allclose(x.grad, fd, rtol=1e-4, atol=1e-6)


class TestBackward:
    def test_linear_layer_weight_gradient_is_input(self):
        # loss = sum(x @ W): dW column j equals x
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(1, 4))
        store = ParamStore()
        store.add("W", rng.normal(size=(4, 3)))
        tape = Tape()
        W = store.var("W", tape)
        out = ad.vsum(ad.matmul(Var(x0, tape), W))
        tape.backward(out)
        for j in range(3):
            np.testing.assert_allclose(store.grad("W")[:, j], x0[0], rtol=1e-14)

    def test_gradient_linearity(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 2))
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

        def run(g):
            store = ParamStore()
            store.add("W", np.array([[1.0, 2.0], [3.0, 4.0]]))
            tape = Tape()
            out = ad.matmul(Var(x0, tape), store.var("W", tape))
            tape.backward(ad.vsum(ad.mul(out, g)))
            return store.grad("W").copy()

        np.testing.assert_allclose(run(g1 + g2), run(g1) + run(g2), atol=1e-12)

    def test_double_backward_raises(self):
        tape = Tape()
        out = ad.vsum(ad.mul(Var(np.ones(3), tape), Var(np.ones(3), tape)))
        tape.backward(out)
        with pytest.raises(TapeStateError):
            tape.backward(out)

    def test_determinism(self):
        def run():
            store = ParamStore()
            rng = np.random.default_rng(6)
            store.add("W", rng.normal(size=(4, 4)))
            tape = Tape()
            h = ad.sine(ad.matmul(Var(rng.normal(size=(5, 4)), tape),
                                  store.var("W", tape)), 30.0)
            out = ad.vmean(ad.absolute(h))
            tape.backward(out)
            return out.value.copy(), store.grad("W").copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def _wb_store():
    store = ParamStore()
    store.add("W", np.random.default_rng(0).normal(size=(2, 4)))
    store.add("b", np.zeros(4))
    return store


class TestTapeLifetime:
    def _mlp_loss(self, tape, store):
        h = ad.sine(ad.forward_linear(np.ones((3, 2)), store.var("W", tape),
                                      store.var("b", tape)), 2.0)
        return h, ad.vmean(ad.mul(h, h))

    def _store(self):
        return _wb_store()

    def test_no_grad_tape_records_nothing(self, monkeypatch):
        # with no tape the same forward runs on arrays and records nothing
        store = self._store()
        recorded = Tape()
        h_ref, loss_ref = self._mlp_loss(recorded, store)
        assert len(recorded._nodes) > 0
        monkeypatch.setattr(Tape, "record", lambda *a: pytest.fail("recorded"))
        h, loss = self._mlp_loss(None, store)
        assert type(h) is np.ndarray and type(loss) is np.ndarray
        _bytes_equal(h, h_ref.value)
        _bytes_equal(loss, loss_ref.value)

    def test_backward_frees_forward_vars_without_gc(self):
        store = self._store()
        gc.disable()
        try:
            tape = Tape()
            h, loss = self._mlp_loss(tape, store)
            ref = weakref.ref(h)
            tape.backward(loss)
            del h, loss
            assert ref() is None
            assert tape._nodes == []
        finally:
            gc.enable()
        assert np.any(store.grad("W") != 0.0)

    @staticmethod
    def _field():
        from splinefield.field import FieldConfig, SplineField
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3))
        return SplineField(FieldConfig(n_knots=4, rank=2, hidden=8, depth=2), pts, seed=0)

    @staticmethod
    def _freed_without_gc(fld):
        refs = [weakref.ref(fld.store.value(n)) for n in fld.store.names()]
        refs += [weakref.ref(fld.store.grad(n)) for n in fld.store.names()]
        return refs

    def test_trained_field_freed_without_gc(self):
        from splinefield import dataio, trainer
        traj = dataio.gen_synthetic("composite", 30, 9, seed=0)
        split = dataio.split_frames(traj, dataio.SplitSpec(2, 0.5), seed=0)
        cfg = trainer.TrainConfig(steps=2, rank=2, hidden=8, depth=2, knn_k=4)
        gc.collect()
        gc.disable()
        try:
            fld, _ = trainer.train(traj, split, cfg)
            refs = self._freed_without_gc(fld)
            del fld
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_no_grad_tape_field_freed_without_gc(self):
        gc.collect()
        gc.disable()
        try:
            fld = self._field()
            fld.deform(fld.canonical, [0.2, 0.7])
            fld.velocity(fld.canonical, 0.5)
            refs = self._freed_without_gc(fld)
            del fld
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


class TestParamStoreLeaves:
    def test_one_leaf_per_parameter_per_tape(self):
        # every call makes a leaf on the store's own arrays, so all of them sum
        # into the store's gradient
        store = _wb_store()
        tape = Tape()
        leaf, again = store.var("W", tape), store.var("W", tape)
        assert again is not leaf
        for v in (leaf, again):
            assert v.grad is store.grad("W") and v.value is store.value("W")
        tape.backward(ad.vsum(leaf) + ad.vsum(ad.mul(again, 2.0)))
        np.testing.assert_array_equal(store.grad("W"), np.full((2, 4), 3.0))

    def test_stores_sharing_a_name_get_their_own_leaves(self):
        a, b = _wb_store(), _wb_store()
        tape = Tape()
        tape.backward(ad.vsum(a.var("W", tape)) + ad.vsum(ad.mul(b.var("W", tape), 2.0)))
        np.testing.assert_array_equal(a.grad("W"), np.ones((2, 4)))
        np.testing.assert_array_equal(b.grad("W"), np.full((2, 4), 2.0))

    def test_no_grad_tape_caches_nothing(self):
        # with no tape a use is the store's own array: no leaf, no copy
        store = _wb_store()
        assert store.var("W", None) is store.value("W")
        assert store.var("b", None) is store.value("b")

    def test_no_grad_tape_leaf_makes_no_buffer(self):
        store = _wb_store()
        out = ad.forward_linear(np.ones((3, 2)), store.var("W", None), store.var("b", None))
        assert type(out) is np.ndarray
        assert store._grads == {}

    def test_grad_makes_one_zeroed_buffer(self):
        store = _wb_store()
        grad = store.grad("W")
        assert grad.dtype == np.float64
        np.testing.assert_array_equal(grad, np.zeros((2, 4)))
        assert list(store._grads) == ["W"]
        assert store.grad("W") is grad
        assert store.var("W", Tape()).grad is grad

    def test_drop_grads_then_a_recording_tape_gets_a_new_zeroed_buffer(self):
        store = _wb_store()
        tape = Tape()
        tape.backward(ad.vsum(store.var("W", tape)))
        old = store.grad("W")
        store.drop_grads()
        assert store._grads == {}
        tape = Tape()
        leaf = store.var("W", tape)
        assert leaf.grad is not old
        np.testing.assert_array_equal(leaf.grad, np.zeros((2, 4)))
        tape.backward(ad.vsum(leaf))
        np.testing.assert_array_equal(store.grad("W"), np.ones((2, 4)))
        np.testing.assert_array_equal(old, np.ones((2, 4)))

    def test_uses_sum_in_place_into_the_store(self):
        store = _wb_store()
        tape = Tape()
        w = store.var("W", tape)
        loss = ad.vsum(w) + ad.vsum(ad.mul(store.var("W", tape), 3.0))
        grad = store.grad("W")
        tape.backward(loss)
        assert store.grad("W") is grad
        np.testing.assert_array_equal(grad, np.full((2, 4), 4.0))
        tape = Tape()
        tape.backward(ad.vsum(store.var("W", tape)))
        np.testing.assert_array_equal(grad, np.full((2, 4), 5.0))   # no zero_grad


def _linear_sample(axis: Var, u) -> Var:
    """A [D, C] axis sampled linearly at grid coordinates u, as the axis
    encoder samples it: sample_grid through a one-axis interp_matrix."""
    return ad.sample_grid(axis, ad.interp_matrix((u,), axis.value.shape[:1]))


class TestOps:
    def test_getitem_and_take_gradients(self):
        store = ParamStore()
        store.add("x", np.arange(6.0).reshape(2, 3))
        tape = Tape()
        x = store.var("x", tape)
        out = ad.vsum(x[0, :]) + ad.vsum(ad.take(x, np.array([1, 1])))
        tape.backward(out)
        np.testing.assert_array_equal(store.grad("x"),
                                      [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    def test_getitem_repeated_indices_sum(self):
        tape = Tape()
        x = Var(np.array([1.0, 2.0, 3.0]), tape)
        tape.backward(ad.vsum(x[np.array([0, 0, 1])]))
        np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])

    def test_getitem_repeated_index_pairs_sum(self):
        tape = Tape()
        x = Var(np.zeros((2, 3)), tape)
        out = x[np.array([1, 1, 0]), np.array([2, 2, 2])]
        tape.backward(ad.vsum(ad.mul(out, np.array([1.0, 10.0, 100.0]))))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 100.0], [0.0, 0.0, 11.0]])

    def test_weighted_stack_sum_gradient_matches_outer_product(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        store.add("v", rng.normal(size=4))
        store.add("s", rng.normal(size=(4, 5, 3)))
        store.grad("s")[...] = rng.normal(size=(4, 5, 3))
        before = store.grad("s").copy()
        g = rng.normal(size=(5, 3))
        tape = Tape()
        out = ad.weighted_stack_sum(store.var("v", tape), store.var("s", tape))
        tape.backward(ad.vsum(ad.mul(out, g)))
        outer = store.value("v")[:, None, None] * g[None]
        np.testing.assert_array_equal(store.grad("s"), before + outer)

    def test_weighted_stack_sum(self):
        rng = np.random.default_rng(7)
        v0 = rng.normal(size=3)
        stack0 = rng.normal(size=(3, 2, 2))
        store = ParamStore()
        store.add("v", v0)
        store.add("s", stack0)
        tape = Tape()
        out = ad.weighted_stack_sum(store.var("v", tape), store.var("s", tape))
        np.testing.assert_allclose(out.value, np.tensordot(v0, stack0, axes=(0, 0)))
        tape.backward(ad.vsum(ad.mul(out, out)))
        err = fd_check(lambda t: (lambda o: ad.vsum(ad.mul(o, o)))(
            ad.weighted_stack_sum(store.var("v", t), store.var("s", t))),
            store, samples=15, rng=np.random.default_rng(0))
        assert err < 1e-5

    def test_bilinear_sample_matches_corner_oracle(self):
        rng = np.random.default_rng(8)
        plane0 = rng.normal(size=(5, 5, 2))
        u = rng.uniform(0, 4, size=7)
        v = rng.uniform(0, 4, size=7)
        tape = Tape()
        out = ad.bilinear_sample(Var(plane0.copy(), tape), u, v)
        for i in range(7):
            i0, j0 = int(u[i]), int(v[i])
            fu, fv = u[i] - i0, v[i] - j0
            oracle = ((1 - fu) * (1 - fv) * plane0[i0, j0]
                      + fu * (1 - fv) * plane0[i0 + 1, j0]
                      + (1 - fu) * fv * plane0[i0, j0 + 1]
                      + fu * fv * plane0[i0 + 1, j0 + 1])
            np.testing.assert_allclose(out.value[i], oracle, atol=1e-12)

    def test_bilinear_sample_clamps_to_edge(self):
        plane = np.arange(8.0).reshape(2, 2, 2)
        tape = Tape()
        out = ad.bilinear_sample(Var(plane, tape), np.array([-3.0, 9.0]),
                                 np.array([-3.0, 9.0]))
        np.testing.assert_array_equal(out.value[0], plane[0, 0])
        np.testing.assert_array_equal(out.value[1], plane[1, 1])

    def test_linear_sample_matches_lerp_oracle(self):
        rng = np.random.default_rng(9)
        axis0 = rng.normal(size=(6, 3))
        u = rng.uniform(0, 5, size=5)
        tape = Tape()
        out = _linear_sample(Var(axis0.copy(), tape), u)
        for i in range(5):
            i0 = int(u[i])
            f = u[i] - i0
            np.testing.assert_allclose(out.value[i],
                                       (1 - f) * axis0[i0] + f * axis0[i0 + 1],
                                       atol=1e-12)

    def test_vertex_exact_sampling(self):
        axis = np.arange(10.0).reshape(5, 2)
        tape = Tape()
        out = _linear_sample(Var(axis, tape), np.array([2.0]))
        np.testing.assert_array_equal(out.value[0], axis[2])


# -- the former grid samplers: corner gathers forward, np.add.at back --------


def _scatter_cells(u, n):
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(uc).astype(np.int64), n - 2)
    return i0, uc - i0


def _scatter_bilinear(plane, u, v, g):
    """(value, d plane) of the four-gather, np.add.at sampler."""
    i0, fu = _scatter_cells(u, plane.shape[0])
    j0, fv = _scatter_cells(v, plane.shape[1])
    i1, j1 = i0 + 1, j0 + 1
    p00, p10 = plane[i0, j0], plane[i1, j0]
    p01, p11 = plane[i0, j1], plane[i1, j1]
    wu, wv = fu[:, None], fv[:, None]
    value = p00 * (1 - wu) * (1 - wv) + p10 * wu * (1 - wv) + p01 * (1 - wu) * wv + p11 * wu * wv
    grad = np.zeros_like(plane)
    np.add.at(grad, (i0, j0), g * (1 - wu) * (1 - wv))
    np.add.at(grad, (i1, j0), g * wu * (1 - wv))
    np.add.at(grad, (i0, j1), g * (1 - wu) * wv)
    np.add.at(grad, (i1, j1), g * wu * wv)
    return value, grad


def _scatter_linear(axis, u, g):
    """(value, d axis) of the two-gather, np.add.at sampler."""
    i0, fu = _scatter_cells(u, axis.shape[0])
    i1 = i0 + 1
    a0, a1 = axis[i0], axis[i1]
    wu = fu[:, None]
    grad = np.zeros_like(axis)
    np.add.at(grad, i0, g * (1 - wu))
    np.add.at(grad, i1, g * wu)
    return a0 * (1 - wu) + a1 * wu, grad


def _assert_rel(actual, desired, tol=1e-14):
    scale = max(np.abs(desired).max(), 1e-300)
    assert np.abs(actual - desired).max() / scale <= tol


def _sampled(D, B, case, rng):
    """Coordinates in grid units for one sampling case."""
    if case == "uniform":
        return rng.uniform(0, D - 1, B)
    if case == "one-cell":          # every sample lands in cell [1, 2)
        return 1.0 + rng.uniform(0, 1, B)
    if case == "upper-edge":        # exactly on D - 1, the last vertex
        return np.full(B, D - 1.0)
    if case == "below-zero":
        return rng.uniform(-3.0, 0.0, B)
    raise ValueError(case)


CASES = [(D, case) for D in (2, 5) for case in ("uniform", "one-cell", "upper-edge",
                                                "below-zero") if (D, case) != (2, "one-cell")]


class TestGridSampling:
    @pytest.mark.parametrize("D, case", CASES)
    def test_bilinear_matches_scatter_oracle(self, D, case):
        rng = np.random.default_rng(D)
        B = 40
        plane = rng.normal(size=(D, D, 3))
        u = _sampled(D, B, case, rng)
        v = rng.uniform(-1, D, B) if case == "upper-edge" else _sampled(D, B, case, rng)
        g = rng.normal(size=(B, 3))
        tape = Tape()
        pvar = Var(plane, tape)
        out = ad.bilinear_sample(pvar, u, v)
        tape.backward(ad.vsum(ad.mul(out, g)))
        value, dplane = _scatter_bilinear(plane, u, v, g)
        _assert_rel(out.value, value)
        _assert_rel(pvar.grad, dplane)

    @pytest.mark.parametrize("D, case", CASES)
    def test_linear_matches_scatter_oracle(self, D, case):
        rng = np.random.default_rng(D)
        B = 40
        axis = rng.normal(size=(D, 3))
        u = _sampled(D, B, case, rng)
        g = rng.normal(size=(B, 3))
        tape = Tape()
        avar = Var(axis, tape)
        out = _linear_sample(avar, u)
        tape.backward(ad.vsum(ad.mul(out, g)))
        value, daxis = _scatter_linear(axis, u, g)
        _assert_rel(out.value, value)
        _assert_rel(avar.grad, daxis)

    def test_grid_gradient_adds_to_existing_grad(self):
        rng = np.random.default_rng(4)
        plane = rng.normal(size=(4, 4, 2))
        u, v = rng.uniform(0, 3, 9), rng.uniform(0, 3, 9)
        g = rng.normal(size=(9, 2))
        before = rng.normal(size=plane.shape)
        tape = Tape()
        pvar = Var(plane, tape)
        pvar.grad = before.copy()
        tape.backward(ad.vsum(ad.mul(ad.bilinear_sample(pvar, u, v), g)))
        _assert_rel(pvar.grad, before + _scatter_bilinear(plane, u, v, g)[1])

    @pytest.mark.parametrize("where", ["u", "v"])
    def test_nan_coordinate_raises(self, where):
        coords = {"u": np.array([0.5, 1.0]), "v": np.array([0.5, 1.0])}
        coords[where][1] = np.nan
        tape = Tape()
        with pytest.raises(ValueError, match="NaN"):
            ad.bilinear_sample(Var(np.zeros((3, 3, 2)), tape), coords["u"], coords["v"])
        with pytest.raises(ValueError, match="NaN"):
            _linear_sample(Var(np.zeros((3, 2)), tape), coords[where])

    def test_infinite_coordinates_clamp_to_edge(self):
        plane = np.arange(18.0).reshape(3, 3, 2)
        axis = np.arange(6.0).reshape(3, 2)
        u, v = np.array([-np.inf, np.inf]), np.array([np.inf, -np.inf])
        tape = Tape()
        pvar, avar = Var(plane, tape), Var(axis, tape)
        pout = ad.bilinear_sample(pvar, u, v)
        aout = _linear_sample(avar, u)
        np.testing.assert_array_equal(pout.value, [plane[0, 2], plane[2, 0]])
        np.testing.assert_array_equal(aout.value, [axis[0], axis[2]])
        tape.backward(ad.vsum(pout) + ad.vsum(aout))
        expected = np.zeros_like(plane)
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_array_equal(pvar.grad, expected)
        np.testing.assert_array_equal(avar.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])

    def test_single_cell_grid_or_2d_coordinates_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="at least 2"):
            _linear_sample(Var(np.zeros((1, 2)), tape), np.array([0.0]))
        with pytest.raises(ValueError, match="1-D"):
            ad.bilinear_sample(Var(np.zeros((3, 3, 2)), tape), np.zeros((2, 2)),
                               np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [7, 0])
    @pytest.mark.parametrize("dims", [(5,), (4, 6)])
    def test_stack_sample_equals_sampling_each_grid(self, dims, n):
        rng = np.random.default_rng(len(dims))
        stack = rng.normal(size=(3, *dims, 2))
        coords = [rng.uniform(-0.5, d - 0.5, n) for d in dims]
        S = ad.interp_matrix(coords, dims)
        sample = ad.bilinear_sample if len(dims) == 2 else _linear_sample
        g = rng.normal(size=(3, n, 2))
        tape = Tape()
        svar = Var(stack, tape)
        grids = [Var(stack[r], tape) for r in range(3)]
        out = ad.sample_stack(svar, S)
        singles = [sample(grid, *coords) for grid in grids]
        tape.backward(ad.vsum(ad.mul(out, g)) + ad.vsum(ad.mul(
            ad.concat(singles, axis=0), g.reshape(3 * n, 2))))
        np.testing.assert_array_equal(out.value, np.stack([v.value for v in singles]))
        np.testing.assert_array_equal(svar.grad, np.stack([v.grad for v in grids]))

    def test_backward_runs_without_add_at(self, monkeypatch):
        class AddWithoutAt:
            def __init__(self, ufunc):
                self._ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self._ufunc(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._ufunc, name)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at called")

        monkeypatch.setattr(np, "add", AddWithoutAt(np.add))
        with pytest.raises(AssertionError):     # the patch reaches autodiff
            ad.np.add.at(np.zeros(2), [0], 1.0)
        rng = np.random.default_rng(5)
        tape = Tape()
        plane, axis = Var(rng.normal(size=(4, 4, 2)), tape), Var(rng.normal(size=(4, 2)), tape)
        u = rng.uniform(0, 3, 6)
        out = ad.mul(ad.bilinear_sample(plane, u, rng.uniform(0, 3, 6)),
                     _linear_sample(axis, u))
        tape.backward(ad.vsum(out))
        assert plane.grad is not None and axis.grad is not None


def _two_branch_interp_matrix(coords, dims):
    """The former interp_matrix, with its own code for one axis and for two."""
    if len(coords) == 1:
        i0, fu = ad._cell_coords(coords[0], dims[0])
        cols = i0[:, None] + np.array([0, 1], dtype=np.int32)
        weights = np.stack([1 - fu, fu], axis=1)
    else:
        du, dv = dims
        i0, fu = ad._cell_coords(coords[0], du)
        j0, fv = ad._cell_coords(coords[1], dv)
        cols = (i0 * dv + j0)[:, None] + np.array([0, dv, 1, dv + 1], dtype=np.int32)
        weights = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv],
                           axis=1)
    b, k = cols.shape
    return sp.csr_matrix((weights.reshape(-1), cols.reshape(-1),
                          np.arange(0, k * b + 1, k, dtype=np.int32)),
                         shape=(b, math.prod(dims)))


def _block_diagonal_sample(stack, S, g, grad):
    """The former sample_stack on a stack [R, *cells, C]: its value, and its
    gradient given the one before backward (None if none), both through the
    block-diagonal matrix of R copies of S."""
    r, (b, n_cells), c = stack.shape[0], S.shape, stack.shape[-1]
    shift = np.arange(r, dtype=np.int32)[:, None]
    indptr = np.append(S.indptr[:-1] + S.nnz * shift, r * S.nnz).astype(np.int32)
    big = sp.csr_matrix((np.tile(S.data, r), (S.indices + n_cells * shift).reshape(-1),
                         indptr), shape=(r * b, r * n_cells))
    value = (big @ stack.reshape(-1, c)).reshape(r, b, c)
    scattered = (big.T @ g.reshape(-1, c)).reshape(stack.shape)
    return value, scattered if grad is None else grad + scattered


def _bytes_equal(actual, desired):
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert actual.tobytes() == desired.tobytes()


class TestFormerSamplers:
    """interp_matrix and sample_stack against the former code, bit for bit."""

    @pytest.mark.parametrize("case", ["uniform", "upper-edge", "below-zero", "inf", "empty"])
    @pytest.mark.parametrize("dims", [(5,), (4, 6), (2, 2)])
    def test_interp_matrix_equals_two_branch_oracle(self, dims, case):
        rng = np.random.default_rng(len(dims) + dims[0])
        if case == "inf":
            coords = [np.array([-np.inf, np.inf, 0.5, np.inf])[rng.permutation(4)]
                      for _ in dims]
        elif case == "empty":
            coords = [np.zeros(0) for _ in dims]
        else:
            coords = [_sampled(d, 30, case, rng) for d in dims]
        got, want = ad.interp_matrix(coords, dims), _two_branch_interp_matrix(coords, dims)
        assert got.shape == want.shape
        for attr in ("indices", "indptr", "data"):
            _bytes_equal(getattr(got, attr), getattr(want, attr))

    @pytest.mark.parametrize("preallocated", [True, False])
    @pytest.mark.parametrize("n", [7, 0])
    @pytest.mark.parametrize("dims", [(5,), (4, 6)])
    def test_sample_stack_equals_block_diagonal_oracle(self, dims, n, preallocated):
        rng = np.random.default_rng(n + len(dims))
        store = ParamStore()
        stack = store.add("s", rng.normal(size=(3, *dims, 2)))
        grad = store.grad("s")
        grad[...] = rng.normal(size=grad.shape)
        before = grad.copy()
        S = ad.interp_matrix([rng.uniform(-0.5, d - 0.5, n) for d in dims], dims)
        g = rng.normal(size=(3, n, 2))
        tape = Tape()
        svar = store.var("s", tape) if preallocated else Var(stack, tape)
        out = ad.sample_stack(svar, S)
        tape.backward(ad.vsum(ad.mul(out, g)))
        value, want = _block_diagonal_sample(stack, S, g, before if preallocated else None)
        _bytes_equal(out.value, value)
        _bytes_equal(svar.grad, want)
        if preallocated:    # summed in place into the store's own array
            assert svar.grad is grad


# every primitive on operands it differentiates: name -> (operand values, call)
_R = np.random.default_rng(11)
_S = ad.interp_matrix((np.linspace(0, 2, 4), np.linspace(2, 0, 4)), (3, 3))
PRIMITIVES = {
    "add": ([_R.normal(size=(3, 2)), _R.normal(size=2)], ad.add),
    "mul": ([_R.normal(size=(3, 2)), _R.normal(size=(3, 2))], ad.mul),
    "matmul": ([_R.normal(size=(3, 2)), _R.normal(size=(2, 4))], ad.matmul),
    "sine": ([_R.normal(size=5)], lambda x: ad.sine(x, 3.0)),
    "relu": ([_R.normal(size=5)], ad.relu),
    "absolute": ([_R.normal(size=5)], ad.absolute),
    "vsum": ([_R.normal(size=(3, 2))], lambda x: ad.vsum(x, axis=1)),
    "concat": ([_R.normal(size=(3, 2)), _R.normal(size=(3, 1))],
               lambda a, b: ad.concat([a, b], axis=1)),
    "take": ([_R.normal(size=(4, 2))], lambda x: ad.take(x, np.array([0, 2, 2]))),
    "weighted_stack_sum": ([_R.normal(size=2), _R.normal(size=(2, 3, 3))],
                           ad.weighted_stack_sum),
    "bilinear_sample": ([_R.normal(size=(3, 3, 2))],
                        lambda p: ad.bilinear_sample(p, np.linspace(0, 2, 4),
                                                     np.linspace(2, 0, 4))),
    "sample_grid": ([_R.normal(size=(3, 3, 2))], lambda p: ad.sample_grid(p, _S)),
    "sample_stack": ([_R.normal(size=(2, 3, 3, 2))], lambda s: ad.sample_stack(s, _S)),
}


class TestOpContract:
    def test_every_primitive_is_listed(self):
        built_on_op = {name for name, f in vars(ad).items()
                       if inspect.isfunction(f) and not name.startswith("_")
                       and {"_op", "_sample_grid"} & set(f.__code__.co_names)}
        assert built_on_op == set(PRIMITIVES)

    def test_records_one_node(self):
        for values, call in PRIMITIVES.values():
            tape = Tape()
            call(*[Var(v, tape) for v in values])
            assert len(tape._nodes) == 1

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_output_off_the_loss_path_leaves_operands_alone(self, name):
        values, call = PRIMITIVES[name]
        tape = Tape()
        operands = [Var(v, tape) for v in values]
        call(*operands)                     # recorded, never reaches the loss
        z = Var(np.arange(3.0), tape)
        tape.backward(ad.vsum(ad.mul(z, z)))
        assert [x.grad for x in operands] == [None] * len(operands)
        np.testing.assert_array_equal(z.grad, 2.0 * np.arange(3.0))

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_closure_holds_no_var(self, name):
        values, call = PRIMITIVES[name]
        tape = Tape()
        call(*[Var(v, tape) for v in values])
        todo, seen = list(tape._nodes), set()
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, Var)
            if id(obj) not in seen and isinstance(obj, types.FunctionType):
                seen.add(id(obj))
                todo += [c.cell_contents for c in obj.__closure__ or ()]
            elif isinstance(obj, (list, tuple)):
                todo += obj

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_no_grad_tape_op_makes_no_slot_and_records_nothing(self, name, monkeypatch):
        # on plain arrays, with no tape, a primitive returns an array, no Var,
        # with the bits of its value on a recording tape
        values, call = PRIMITIVES[name]
        want = call(*[Var(v, Tape()) for v in values]).value
        monkeypatch.setattr(Tape, "record", lambda *a: pytest.fail("recorded"))
        monkeypatch.setattr(Var, "__init__", lambda *a: pytest.fail("made a Var"))
        out = call(*values)
        assert type(out) is np.ndarray
        _bytes_equal(out, want)

    @pytest.mark.parametrize("name, expected", [
        ("mul", lambda c, x: c),
        ("matmul", lambda c, x: c.T @ np.ones((c.shape[0], x.shape[1]))),
        ("weighted_stack_sum", lambda c, x: c[:, None, None] * np.ones_like(x)),
    ])
    def test_constant_first_operand(self, name, expected):
        (c, xv), call = PRIMITIVES[name]
        tape = Tape()
        x = Var(xv, tape)
        tape.backward(ad.vsum(call(c, x)))
        np.testing.assert_array_equal(x.grad, expected(c, xv))


class TestOperandChecks:
    @pytest.mark.parametrize("call, error, match", [
        (lambda t: ad.matmul(Var(np.zeros((2, 3)), t), np.zeros((2, 3))), ValueError,
         r"matmul shape mismatch: \(2, 3\) @ \(2, 3\)"),
        (lambda t: ad.weighted_stack_sum(Var(np.zeros(2), t), np.zeros((3, 4))), ValueError,
         "rank mismatch"),
        (lambda t: ad.bilinear_sample(Var(np.zeros((3, 3)), t), np.zeros(2), np.zeros(2)),
         ValueError, r"plane must be \[D, D, C\]"),
        (lambda t: ad.sample_grid(Var(np.zeros((3, 3, 2)), t),
                                  ad.interp_matrix((np.zeros(2),), (3,))), ValueError,
         r"grid of shape \(3, 3, 2\) does not hold 3 cells"),
        (lambda t: ad.sample_grid(Var(np.zeros((4, 4, 2)), t), _S), ValueError,
         r"grid of shape \(4, 4, 2\) does not hold 9 cells"),
        (lambda t: ad.sample_grid(Var(np.zeros((2, 3, 3, 2)), t), _S), ValueError,
         r"grid of shape \(2, 3, 3, 2\) does not hold 9 cells"),
        (lambda t: ad.sample_stack(Var(np.zeros((3, 3, 2)), t), _S), ValueError,
         r"stack of shape \(3, 3, 2\) does not hold 9 cells"),
        (lambda t: ad.sample_stack(Var(np.zeros((9, 2)), t), _S), ValueError,
         r"stack of shape \(9, 2\) does not hold 9 cells"),
    ], ids=["matmul", "weighted-stack-sum", "plane", "axis",
            "grid-cells", "stack-as-grid", "grid-as-stack", "stack-without-grid"])
    def test_bad_operands_rejected_before_recording(self, call, error, match):
        tape = Tape()
        with pytest.raises(error, match=match):
            call(tape)
        assert tape._nodes == []


class TestParamStore:
    def test_grad_buffer_mirrors_shape_and_zeroes(self):
        store = ParamStore()
        store.add("a", np.ones((2, 3)))
        assert store.grad("a").shape == (2, 3)
        tape = Tape()
        tape.backward(ad.vsum(store.var("a", tape)))
        assert store.grad("a").sum() == 6.0
        store.zero_grad()
        np.testing.assert_array_equal(store.grad("a"), np.zeros((2, 3)))

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("a", np.ones(2))
        with pytest.raises(ValueError):
            store.add("a", np.ones(2))
