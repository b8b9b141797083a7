"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

A forward pass builds a Tape of backward closures; Tape.backward replays them
in exact reverse execution order, dropping each one as it runs. A ParamStore
gives each parameter one leaf Var per tape whose grad is the store's array, so
backward sums into it in place: zero the grads first. A NoGradTape runs the
same forward ops but records nothing, for inference.
The engine covers exactly what the deformation-field pipeline needs: dense
linear layers, low-rank weighted stacks, sine/relu activations, grid
sampling, gathers, reductions.

Everything is 64-bit and single-threaded; identical inputs and evaluation
order yield bitwise-identical values and gradients.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class TapeStateError(RuntimeError):
    """Raised when a tape is replayed twice, or one that records nothing."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self):
        self._nodes = []
        self._used = False
        self._leaves = {}       # (store, name) -> leaf; dropped by backward

    def record(self, backward_fn) -> None:
        self._nodes.append(backward_fn)

    def backward(self, output: "Var", output_grad=None) -> None:
        """Run the backward sweep seeded with d(loss)/d(output).

        output_grad defaults to ones (i.e. output is the loss itself).
        A tape can only be replayed once; rerun the forward pass to
        differentiate again.
        """
        if self._used:
            raise TapeStateError("backward called twice on the same tape")
        self._used = True
        self._leaves = None     # breaks the tape -> leaf -> tape cycle
        if output_grad is None:
            seed = np.ones_like(output.value)
        else:
            seed = np.broadcast_to(
                np.asarray(output_grad, dtype=np.float64), output.value.shape
            ).copy()
        _accum(output, seed)
        # popping frees each closure, and the Vars it holds, once replayed
        nodes, self._nodes = self._nodes, []
        while nodes:
            nodes.pop()()


class NoGradTape(Tape):
    """A tape that records nothing: forward values only, no closure kept."""

    def __init__(self):
        super().__init__()
        self._leaves = None

    def record(self, backward_fn) -> None:
        pass

    def backward(self, output: "Var", output_grad=None) -> None:
        raise TapeStateError("a NoGradTape records nothing to differentiate")


class Var:
    """A node in the computation graph: a float64 array plus its gradient."""

    __slots__ = ("value", "grad", "tape", "__weakref__")

    def __init__(self, value, tape: Tape):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, scale(other, -1.0) if isinstance(other, Var) else -_cval(other))

    def __rsub__(self, other):
        return add(scale(self, -1.0), other)

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            raise TypeError("Var / Var not supported; divide by a constant")
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


def _cval(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else _cval(x)


def _tape_of(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise TypeError("at least one operand must be a Var")


def _accum(x, g) -> None:
    if not isinstance(x, Var):
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), x.value.shape)
    if x.grad is None:
        x.grad = g.copy()
    else:
        x.grad += g


# -- primitive operations ------------------------------------------------


def add(a, b) -> Var:
    tape = _tape_of(a, b)
    out = Var(_val(a) + _val(b), tape)

    def bw():
        if out.grad is None:
            return
        _accum(a, out.grad)
        _accum(b, out.grad)

    tape.record(bw)
    return out


def mul(a, b) -> Var:
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    out = Var(av * bv, tape)

    def bw():
        if out.grad is None:
            return
        _accum(a, out.grad * bv)
        _accum(b, out.grad * av)

    tape.record(bw)
    return out


def scale(a: Var, c: float) -> Var:
    out = Var(a.value * c, a.tape)

    def bw():
        if out.grad is None:
            return
        _accum(a, out.grad * c)

    a.tape.record(bw)
    return out


def matmul(a, b) -> Var:
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    out = Var(av @ bv, tape)

    def bw():
        if out.grad is None:
            return
        _accum(a, out.grad @ bv.T)
        _accum(b, av.T @ out.grad)

    tape.record(bw)
    return out


def sine(x: Var, w0: float = 1.0) -> Var:
    """Elementwise sin(w0 * x)."""
    xv = x.value
    out = Var(np.sin(w0 * xv), x.tape)

    def bw():
        if out.grad is None:
            return
        _accum(x, out.grad * (w0 * np.cos(w0 * xv)))

    x.tape.record(bw)
    return out


def relu(x: Var) -> Var:
    mask = x.value > 0.0
    out = Var(np.where(mask, x.value, 0.0), x.tape)

    def bw():
        if out.grad is None:
            return
        _accum(x, out.grad * mask)

    x.tape.record(bw)
    return out


def absolute(x: Var) -> Var:
    """Elementwise |x| with subgradient 0 at 0."""
    s = np.sign(x.value)
    out = Var(np.abs(x.value), x.tape)

    def bw():
        if out.grad is None:
            return
        _accum(x, out.grad * s)

    x.tape.record(bw)
    return out


def sqrt(x: Var, eps: float = 0.0) -> Var:
    """Elementwise sqrt(x + eps); pass a small eps to keep gradients finite at 0."""
    root = np.sqrt(x.value + eps)
    out = Var(root, x.tape)

    def bw():
        if out.grad is None:
            return
        _accum(x, out.grad * (0.5 / np.maximum(root, 1e-300)))

    x.tape.record(bw)
    return out


def vsum(x: Var, axis=None, keepdims: bool = False) -> Var:
    out = Var(x.value.sum(axis=axis, keepdims=keepdims), x.tape)

    def bw():
        if out.grad is None:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.value.shape))

    x.tape.record(bw)
    return out


def vmean(x: Var, axis=None, keepdims: bool = False) -> Var:
    n = x.value.size if axis is None else np.prod(
        [x.value.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return scale(vsum(x, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(x: Var, shape) -> Var:
    out = Var(x.value.reshape(shape), x.tape)

    def bw():
        if out.grad is None:
            return
        _accum(x, out.grad.reshape(x.value.shape))

    x.tape.record(bw)
    return out


def concat(xs, axis: int = 0) -> Var:
    tape = _tape_of(*xs)
    vals = [_val(x) for x in xs]
    out = Var(np.concatenate(vals, axis=axis), tape)
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def bw():
        if out.grad is None:
            return
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(lo, hi)
            _accum(x, out.grad[tuple(sl)])

    tape.record(bw)
    return out


def take(x: Var, key) -> Var:
    """x.value[key] for any numpy key: slices, or integer arrays gathering
    rows along axis 0. Repeated indices sum their gradients."""
    out = Var(np.array(x.value[key]), x.tape)

    def bw():
        if out.grad is None:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        np.add.at(x.grad, key, out.grad)

    x.tape.record(bw)
    return out


def weighted_stack_sum(v: Var, stack) -> Var:
    """sum_r v[r] * stack[r] over the leading axis of `stack`.

    v has shape [rank], stack [rank, ...]; the result has stack's trailing
    shape. Gradients flow to both operands.
    """
    tape = _tape_of(v, stack)
    vv, sv = _val(v), _val(stack)
    if vv.ndim != 1 or sv.shape[0] != vv.shape[0]:
        raise ValueError(f"rank mismatch: v {vv.shape} vs stack {sv.shape}")
    out = Var(np.tensordot(vv, sv, axes=(0, 0)), tape)

    def bw():
        if out.grad is None:
            return
        g = out.grad
        _accum(v, np.tensordot(sv, g, axes=(tuple(range(1, sv.ndim)), tuple(range(g.ndim)))))
        if isinstance(stack, Var):      # one rank at a time, no [rank, ...] temporary
            if stack.grad is None:
                stack.grad = np.zeros_like(sv)
            term = np.empty_like(g)
            for r in range(vv.shape[0]):
                stack.grad[r] += np.multiply(g, vv[r], out=term)

    tape.record(bw)
    return out


def _cell_coords(u: np.ndarray, n: int):
    """Clamp-to-edge cell lookup for grid sampling: (int32 i0, frac).

    NaN has no cell and raises ValueError (the interpolation matrix does not
    bounds-check its columns); +-inf clamps to the border."""
    if u.ndim != 1:
        raise ValueError(f"sample coordinates must be 1-D, got shape {u.shape}")
    if n < 2:
        raise ValueError(f"a sampled grid needs at least 2 cells per axis, got {n}")
    if np.isnan(u).any():
        raise ValueError("grid sample coordinates contain NaN")
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(uc).astype(np.int32), n - 2)
    return i0, uc - i0


def _sample_grid(grid: Var, cols: np.ndarray, weights: np.ndarray,
                 backward_coords) -> Var:
    """Row b of the result is sum_k weights[b, k] * grid cell cols[b, k].

    One CSR matrix S holds the weights; every row has the same k nonzeros,
    so indptr is a stride-k range and no COO conversion or index sort is
    needed. The forward is S @ grid, the backward adds S.T @ g to the
    grid's gradient, then calls backward_coords(g) for the coordinates."""
    gv = grid.value
    n_cells = gv.size // gv.shape[-1]
    b, k = cols.shape
    S = sp.csr_matrix((weights.reshape(-1), cols.reshape(-1),
                       np.arange(0, k * b + 1, k, dtype=np.int32)), shape=(b, n_cells))
    out = Var(S @ gv.reshape(n_cells, -1), grid.tape)

    def bw():
        if out.grad is None:
            return
        g = out.grad
        scattered = (S.T @ g).reshape(gv.shape)
        if grid.grad is None:
            grid.grad = scattered
        else:
            grid.grad += scattered
        backward_coords(g)

    grid.tape.record(bw)
    return out


def bilinear_sample(plane: Var, u, v) -> Var:
    """Sample a [D, D, C] plane at fractional grid coordinates (u, v).

    Coordinates are 1-D, in grid units [0, D-1], clamped to the border (so
    +-inf reads the edge); NaN raises ValueError. One call builds one sparse
    interpolation matrix S ([B, D*D], the 4 bilinear corner weights per
    row): the forward is S @ plane and the plane's gradient S.T @ g.
    Gradients also flow to u/v when they are Vars (piecewise-constant
    derivative; exact within a cell).
    """
    pv = plane.value
    if pv.ndim != 3:
        raise ValueError(f"plane must be [D, D, C], got {pv.shape}")
    du, dv = pv.shape[0], pv.shape[1]
    i0, fu = _cell_coords(_val(u), du)
    j0, fv = _cell_coords(_val(v), dv)
    cols = (i0 * dv + j0)[:, None] + np.array([0, dv, 1, dv + 1], dtype=np.int32)
    weights = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=1)

    def backward_coords(g):
        if not (isinstance(u, Var) or isinstance(v, Var)):
            return
        i1, j1 = i0 + 1, j0 + 1
        p00, p10 = pv[i0, j0], pv[i1, j0]
        p01, p11 = pv[i0, j1], pv[i1, j1]
        wu, wv = fu[:, None], fv[:, None]
        if isinstance(u, Var):
            dpdu = (p10 - p00) * (1 - wv) + (p11 - p01) * wv
            _accum(u, (g * dpdu).sum(axis=1))
        if isinstance(v, Var):
            dpdv = (p01 - p00) * (1 - wu) + (p11 - p10) * wu
            _accum(v, (g * dpdv).sum(axis=1))

    return _sample_grid(plane, cols, weights, backward_coords)


def linear_sample(axis_grid: Var, u) -> Var:
    """Sample a [D, C] axis at fractional grid coordinates u.

    Same contract as bilinear_sample: 1-D coordinates clamped to the
    border, NaN rejected, and one sparse interpolation matrix ([B, D], 2
    linear weights per row) applied forward and, transposed, backward.
    """
    av = axis_grid.value
    if av.ndim != 2:
        raise ValueError(f"axis grid must be [D, C], got {av.shape}")
    i0, fu = _cell_coords(_val(u), av.shape[0])
    cols = i0[:, None] + np.array([0, 1], dtype=np.int32)

    def backward_coords(g):
        if isinstance(u, Var):
            _accum(u, (g * (av[i0 + 1] - av[i0])).sum(axis=1))

    return _sample_grid(axis_grid, cols, np.stack([1 - fu, fu], axis=1), backward_coords)


# -- layers and the spec-facing surface ----------------------------------


def forward_linear(x, W, b) -> Var:
    """x @ W + b with shape validation; multiplicands recorded on the tape."""
    xv, wv, bv = _val(x), _val(W), _val(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise ValueError(
            f"linear shape mismatch: x {xv.shape}, W {wv.shape}, b {bv.shape}"
        )
    return add(matmul(x, W), b)


class ParamStore:
    """Named float64 parameter arrays with mirrored gradient buffers."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"duplicate parameter name: {name!r}")
        arr = np.array(value, dtype=np.float64, order="C")   # reshape(-1) is a view
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def names(self) -> list[str]:
        return list(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_value(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self._values[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {arr.shape} vs {self._values[name].shape}"
            )
        self._values[name][...] = arr

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._values.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in snap.items():
            self._values[k][...] = v

    def var(self, name: str, tape: Tape) -> Var:
        """The parameter's leaf Var on the given tape, one per tape (a NoGradTape
        gets a fresh one per call). Its grad is the store's gradient array, so
        backward sums each use into it in place: zero the grads before backward."""
        leaves = {} if tape._leaves is None else tape._leaves
        leaf = leaves.get((self, name))
        if leaf is None:
            leaf = leaves[self, name] = Var(self._values[name], tape)
            leaf.grad = self._grads[name]
        return leaf


def fd_check(loss_fn, params: ParamStore, eps: float = 1e-4, samples: int = 100,
             rng=None) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn(tape) must build a scalar Var on the given tape, deterministic
    in the parameter values. Checks `samples` randomly chosen coordinates
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
        f_plus = float(loss_fn(NoGradTape()).value)
        flat[local] = orig - eps
        f_minus = float(loss_fn(NoGradTape()).value)
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
