import numpy as np

from splinefield import autodiff as ad
from splinefield.autodiff import ParamStore

from gradcheck import fd_check


class TestFdCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        store = ParamStore()
        store.add("theta", np.array([3.0]))

        def loss(tape):
            th = store.var("theta", tape)
            return ad.vsum(ad.mul(th, th))

        assert fd_check(loss, store, samples=1) < 1e-9

    def test_constant_function_gives_zero_both_ways(self):
        store = ParamStore()
        store.add("theta", np.array([1.0, 2.0]))

        def loss(tape):
            th = store.var("theta", tape)
            return ad.vsum(ad.mul(th, 0.0))

        assert fd_check(loss, store, samples=2) == 0.0

    def test_mlp_loss_passes(self):
        rng = np.random.default_rng(10)
        store = ParamStore()
        store.add("W0", rng.normal(size=(3, 8)) * 0.5)
        store.add("W1", rng.normal(size=(8, 2)) * 0.5)
        store.add("b1", rng.normal(size=2))
        x0 = rng.normal(size=(4, 3))

        def loss(tape):
            h = ad.sine(ad.matmul(x0, store.var("W0", tape)), 3.0)
            out = ad.forward_linear(h, store.var("W1", tape), store.var("b1", tape))
            return ad.vmean(ad.absolute(out))

        assert fd_check(loss, store, samples=40, rng=np.random.default_rng(1)) < 1e-4
