"""Finite-difference gradient check for the autodiff tape, used by the tests."""

import numpy as np

from splinefield.autodiff import ParamStore, Tape


def fd_check(loss_fn, params: ParamStore, eps: float = 1e-4, samples: int = 100,
             rng=None) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn(tape) must build a scalar Var on the given tape, and with tape
    None its value as an array, deterministic in the parameter values; the
    differences probe it with no tape. Checks `samples` randomly chosen coordinates
    across all parameters and returns the worst relative error (absolute
    error below 1e-8 magnitude).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    rng = np.random.default_rng(0) if rng is None else rng

    params.zero_grad()
    tape = Tape()
    out = loss_fn(tape)
    if out.value.size != 1:
        raise ValueError("loss_fn must return a scalar")
    tape.backward(out)
    analytic = {n: params.grad(n).copy() for n in params.names()}

    names = params.names()
    sizes = np.array([params.value(n).size for n in names])
    total = int(sizes.sum())
    flat_ids = rng.choice(total, size=min(samples, total), replace=False)
    bounds = np.cumsum(sizes)

    worst = 0.0
    for fid in flat_ids:
        which = int(np.searchsorted(bounds, fid, side="right"))
        name = names[which]
        local = int(fid - (bounds[which - 1] if which > 0 else 0))
        value = params.value(name)
        flat = value.reshape(-1)
        orig = flat[local]
        flat[local] = orig + eps
        f_plus = float(loss_fn(None))
        flat[local] = orig - eps
        f_minus = float(loss_fn(None))
        flat[local] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(
                f"non-finite loss while probing parameter {name!r} index {local}"
            )
        fd = (f_plus - f_minus) / (2.0 * eps)
        an = float(analytic[name].reshape(-1)[local])
        denom = max(abs(fd), abs(an))
        err = abs(fd - an) if denom < 1e-8 else abs(fd - an) / denom
        worst = max(worst, err)
    return worst
