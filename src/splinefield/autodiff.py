"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

A forward pass builds a Tape of backward closures; Tape.backward replays them
in exact reverse execution order, dropping each one as it runs. Each use of a
ParamStore parameter on a Tape is a new leaf Var whose grad is the store's
array, so backward sums into it in place: zero the grads first. A query runs
the same ops on plain arrays, with no tape: only a recording tape makes Vars.

Every primitive keeps one contract, through `_op`: one forward value and
one backward rule, which runs only once a gradient has reached the output.
Operands may be Vars or constants (arrays, floats); a constant operand gets
no gradient, and none is computed for it. A closure holds GradSlots and the
arrays its rule reads, never a Var, so a value no rule reads dies with its Var.

The engine covers exactly what the deformation-field pipeline needs: dense
linear layers, low-rank weighted stacks, sine/relu activations, grid
sampling, gathers, reductions.

Everything is 64-bit and single-threaded; identical inputs and evaluation
order yield bitwise-identical values and gradients.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


class TapeStateError(RuntimeError):
    """Raised when a tape is replayed twice; a query runs on arrays, with no tape."""


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

    def record(self, backward_fn) -> None:
        self._nodes.append(backward_fn)

    def backward(self, output: "Var") -> None:
        """Run the backward sweep from output, seeded with ones (output is
        the loss). A tape can only be replayed once; rerun the forward pass
        to differentiate again."""
        if self._used:
            raise TapeStateError("backward called twice on the same tape")
        self._used = True
        _accum(output.slot, np.ones_like(output.value))
        # popping frees each closure, and the slots and read arrays it holds
        nodes, self._nodes = self._nodes, []
        while nodes:
            nodes.pop()()


class GradSlot:
    """A Var's gradient, None until one reaches it, and its value's shape."""
    __slots__ = ("grad", "shape")

    def __init__(self, shape):
        self.grad, self.shape = None, shape


class Var:
    """A node in the computation graph on a recording tape: a float64 array
    and the GradSlot that its grad reads and sets."""
    __slots__ = ("value", "slot", "tape", "__weakref__")

    def __init__(self, value, tape: Tape):
        self.value = np.asarray(value, dtype=np.float64)
        self.slot = GradSlot(self.value.shape)
        self.tape = tape

    grad = property(lambda self: self.slot.grad,
                    lambda self, g: setattr(self.slot, "grad", g))

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return take(self, key)


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _accum(slot, g) -> None:
    if slot is None:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), slot.shape)
    if slot.grad is None:
        slot.grad = g.copy()
    else:
        slot.grad += g


def _grad_buffer(slot: GradSlot) -> np.ndarray:
    """The slot's gradient array, made zeros first if no gradient has reached it."""
    if slot.grad is None:
        slot.grad = np.zeros(slot.shape)
    return slot.grad


def _op(value, backward, *operands):
    """The output of one primitive: with no Var operand, the float64 array
    value; else a Var on the first Var's tape, and one closure goes on that
    tape that calls backward(out.grad, *slots), a slot per operand (None for
    a constant), once a gradient has reached the output. An output that never
    reaches the loss leaves its operands' grads alone."""
    tape = next((x.tape for x in operands if isinstance(x, Var)), None)
    if tape is None:
        return np.asarray(value, dtype=np.float64)
    out = Var(value, tape)
    slot, slots = out.slot, [x.slot if isinstance(x, Var) else None for x in operands]
    tape.record(lambda: slot.grad is None or backward(slot.grad, *slots))
    return out


# -- primitive operations ------------------------------------------------


def add(a, b) -> Var:
    def backward(g, sa, sb):
        _accum(sa, g)
        _accum(sb, g)

    return _op(_val(a) + _val(b), backward, a, b)


def mul(a, b) -> Var:
    """Elementwise a * b; a constant factor (array or float) gets no gradient."""
    av, bv = _val(a), _val(b)
    fa, fb = (av if isinstance(b, Var) else None), (bv if isinstance(a, Var) else None)

    def backward(g, sa, sb):
        if sa is not None:
            _accum(sa, g * fb)
        if sb is not None:
            _accum(sb, g * fa)

    return _op(av * bv, backward, a, b)


def matmul(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g, sa, sb):
        if sa is not None:
            _accum(sa, g @ bv.T)
        if sb is not None:
            _accum(sb, av.T @ g)

    return _op(av @ bv, backward, a, b)


def sine(x: Var, w0: float = 1.0) -> Var:
    """Elementwise sin(w0 * x)."""
    xv = _val(x)
    return _op(np.sin(w0 * xv), lambda g, s: _accum(s, g * (w0 * np.cos(w0 * xv))), x)


def relu(x: Var) -> Var:
    mask = _val(x) > 0.0
    return _op(np.where(mask, _val(x), 0.0), lambda g, s: _accum(s, g * mask), x)


def absolute(x: Var) -> Var:
    """Elementwise |x| with subgradient 0 at 0."""
    s = np.sign(_val(x))
    return _op(np.abs(_val(x)), lambda g, sx: _accum(sx, g * s), x)


def vsum(x: Var, axis=None) -> Var:
    def backward(g, s):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(s, np.broadcast_to(g, s.shape))

    return _op(_val(x).sum(axis=axis), backward, x)


def vmean(x: Var) -> Var:
    """The mean of every element."""
    return mul(vsum(x), 1.0 / float(_val(x).size))


def concat(xs, axis: int = 0) -> Var:
    vals = [_val(x) for x in xs]
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def backward(g, *slots):
        for s, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(s, g[tuple(sl)])

    return _op(np.concatenate(vals, axis=axis), backward, *xs)


def take(x: Var, key) -> Var:
    """A copy of x's value[key] for any numpy key: slices, or integer arrays
    gathering rows along axis 0. Repeated indices sum their gradients."""

    def backward(g, s):
        np.add.at(_grad_buffer(s), key, g)

    return _op(np.array(_val(x)[key]), backward, x)


def weighted_stack_sum(v, stack) -> Var:
    """sum_r v[r] * stack[r] over the leading axis of `stack`.

    v has shape [rank], stack [rank, ...]; the result has stack's trailing
    shape. Gradients flow to the operands that are Vars.
    """
    vv, sv = _val(v), _val(stack)
    if vv.ndim != 1 or sv.shape[0] != vv.shape[0]:
        raise ValueError(f"rank mismatch: v {vv.shape} vs stack {sv.shape}")

    def backward(g, s_v, s_stack):
        if s_v is not None:
            _accum(s_v, np.tensordot(sv, g, axes=(tuple(range(1, sv.ndim)), tuple(range(g.ndim)))))
        if s_stack is not None:     # one rank at a time, no [rank, ...] temporary
            grad, term = _grad_buffer(s_stack), np.empty_like(g)
            for r in range(vv.shape[0]):
                grad[r] += np.multiply(g, vv[r], out=term)

    return _op(np.tensordot(vv, sv, axes=(0, 0)), backward, v, stack)


def _cell_coords(u, n: int):
    """Clamp-to-edge cell lookup for grid sampling: (int32 i0, frac).

    NaN has no cell and raises ValueError (the interpolation matrix does not
    bounds-check its columns); +-inf clamps to the border."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"sample coordinates must be 1-D, got shape {u.shape}")
    if n < 2:
        raise ValueError(f"a sampled grid needs at least 2 cells per axis, got {n}")
    if np.isnan(u).any():
        raise ValueError("grid sample coordinates contain NaN")
    uc = np.clip(u, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(uc).astype(np.int32), n - 2)
    return i0, uc - i0


def interp_matrix(coords, dims) -> sp.csr_matrix:
    """The [B, prod(dims)] interpolation matrix S of B points on a grid with
    `dims` cells per axis (one axis, linear, or two, bilinear).

    `coords` holds one 1-D array of fractional grid coordinates per axis, in
    grid units [0, D-1]; they are clamped to the border (so +-inf reads the
    edge) and NaN raises ValueError. Row b holds point b's 2 or 4 corner
    weights, the products of one (1 - f, f) pair per axis, the first axis
    fastest; every row has the same nonzero count, so indptr is a stride
    range and no COO conversion or index sort is needed."""
    cols, weights = np.zeros((1, 1), dtype=np.int32), np.ones((1, 1))
    for a, (u, n) in enumerate(zip(coords, dims)):
        i0, f = _cell_coords(u, n)
        stride = math.prod(dims[a + 1:])
        low = cols + (i0 * stride)[:, None]
        cols = np.concatenate([low, low + stride], axis=1)
        weights = np.concatenate([weights * (1 - f)[:, None], weights * f[:, None]], axis=1)
    b, k = cols.shape
    return sp.csr_matrix((weights.reshape(-1), cols.reshape(-1),
                          np.arange(0, k * b + 1, k, dtype=np.int32)),
                         shape=(b, math.prod(dims)))


def _sample_grid(grid: Var, S: sp.csr_matrix, stacked: bool) -> Var:
    """S applied to the cells of one grid [*cells, C] (result [B, C]), or to
    each grid of a stack [R, *cells, C] in turn (result [R, B, C]). The
    forward is S @ grid, the backward adds S.T @ g to that grid's slice of
    the gradient."""
    gv = _val(grid)
    (b, n_cells), c = S.shape, gv.shape[-1]
    lead = gv.shape[:1] if stacked else ()
    if gv.ndim < 2 + stacked or gv.size != math.prod(lead) * n_cells * c:
        raise ValueError(f"{'stack' if stacked else 'grid'} of shape {gv.shape} does not "
                         f"hold {n_cells} cells per grid")
    grids = gv.reshape(-1, n_cells, c)

    def backward(g, s):
        grad = _grad_buffer(s)
        for part, gr in (zip(grad, g) if stacked else [(grad, g)]):
            part += (S.T @ gr).reshape(part.shape)

    return _op(np.stack([S @ x for x in grids]).reshape(*lead, b, c), backward, grid)


def sample_grid(grid: Var, S: sp.csr_matrix) -> Var:
    """Sample one grid [*cells, C] at the points of an `interp_matrix` S:
    [B, C]. The points get no gradient."""
    return _sample_grid(grid, S, stacked=False)


def sample_stack(stack: Var, S: sp.csr_matrix) -> Var:
    """Sample every grid of a stack [R, *cells, C] at the points of an
    `interp_matrix` S: [R, B, C], one `sample_grid` per grid in one node."""
    return _sample_grid(stack, S, stacked=True)


def bilinear_sample(plane: Var, u, v) -> Var:
    """Sample a [D, D, C] plane at fractional grid coordinates (u, v).

    The coordinates are 1-D arrays in grid units [0, D-1] and get no
    gradient; see `interp_matrix` for clamping. The forward is S @ plane
    and the plane's gradient S.T @ g, with S [B, D*D] (4 weights per row).
    """
    pv = _val(plane)
    if pv.ndim != 3:
        raise ValueError(f"plane must be [D, D, C], got {pv.shape}")
    return _sample_grid(plane, interp_matrix((u, v), pv.shape[:2]), stacked=False)


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
    """Named float64 parameter arrays. A parameter's zeroed gradient buffer is
    made when first asked for, by grad or by a leaf on a tape."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"duplicate parameter name: {name!r}")
        arr = np.array(value, dtype=np.float64, order="C")   # reshape(-1) is a view
        self._values[name] = arr
        return arr

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        if name not in self._grads:
            self._grads[name] = np.zeros(self._values[name].shape)
        return self._grads[name]

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def drop_grads(self) -> None:
        self._grads.clear()

    def var(self, name: str, tape: Tape | None):
        """A new leaf Var of the parameter on the given tape, whose grad is
        the store's gradient array, so backward sums each use into it in
        place: zero the grads before backward. With no tape, the store's own
        array, and no gradient buffer is made."""
        if tape is None:
            return self._values[name]
        leaf = Var(self._values[name], tape)
        leaf.grad = self.grad(name)
        return leaf
