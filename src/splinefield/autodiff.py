"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

A forward pass builds a Tape of backward closures; Tape.backward replays them
in exact reverse execution order, dropping each one as it runs. A ParamStore
gives each parameter one leaf Var per tape whose grad is the store's array, so
backward sums into it in place: zero the grads first. A NoGradTape runs the
same forward ops but records nothing, for inference.

Every primitive keeps one contract, through `_op`: one forward value and
one backward rule, which runs only once a gradient has reached the output.
Operands may be Vars or constants (arrays, floats); a constant operand gets
no gradient, and none is computed for it.

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

    def backward(self, output: "Var") -> None:
        """Run the backward sweep from output, seeded with ones (output is
        the loss). A tape can only be replayed once; rerun the forward pass
        to differentiate again."""
        if self._used:
            raise TapeStateError("backward called twice on the same tape")
        self._used = True
        self._leaves = None     # breaks the tape -> leaf -> tape cycle
        _accum(output, np.ones_like(output.value))
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

    def backward(self, output: "Var") -> None:
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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return take(self, key)


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


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


def _op(value, tape: Tape, backward) -> Var:
    """The output Var of one primitive, with one closure on the tape that
    calls backward(out.grad) once a gradient has reached the output. An
    output that never reaches the loss leaves its operands' grads alone."""
    out = Var(value, tape)

    def bw():
        if out.grad is not None:
            backward(out.grad)

    tape.record(bw)
    return out


# -- primitive operations ------------------------------------------------


def add(a, b) -> Var:
    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _op(_val(a) + _val(b), _tape_of(a, b), backward)


def mul(a, b) -> Var:
    """Elementwise a * b; a constant factor (array or float) gets no gradient."""
    av, bv = _val(a), _val(b)

    def backward(g):
        if isinstance(a, Var):
            _accum(a, g * bv)
        if isinstance(b, Var):
            _accum(b, g * av)

    return _op(av * bv, _tape_of(a, b), backward)


def matmul(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g):
        if isinstance(a, Var):
            _accum(a, g @ bv.T)
        if isinstance(b, Var):
            _accum(b, av.T @ g)

    return _op(av @ bv, _tape_of(a, b), backward)


def sine(x: Var, w0: float = 1.0) -> Var:
    """Elementwise sin(w0 * x)."""
    xv = x.value
    return _op(np.sin(w0 * xv), x.tape, lambda g: _accum(x, g * (w0 * np.cos(w0 * xv))))


def relu(x: Var) -> Var:
    mask = x.value > 0.0
    return _op(np.where(mask, x.value, 0.0), x.tape, lambda g: _accum(x, g * mask))


def absolute(x: Var) -> Var:
    """Elementwise |x| with subgradient 0 at 0."""
    s = np.sign(x.value)
    return _op(np.abs(x.value), x.tape, lambda g: _accum(x, g * s))


def sqrt(x: Var, eps: float = 0.0) -> Var:
    """Elementwise sqrt(x + eps); pass a small eps to keep gradients finite at 0."""
    root = np.sqrt(x.value + eps)
    return _op(root, x.tape, lambda g: _accum(x, g * (0.5 / np.maximum(root, 1e-300))))


def vsum(x: Var, axis=None) -> Var:
    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.value.shape))

    return _op(x.value.sum(axis=axis), x.tape, backward)


def vmean(x: Var) -> Var:
    """The mean of every element."""
    return mul(vsum(x), 1.0 / float(x.value.size))


def concat(xs, axis: int = 0) -> Var:
    vals = [_val(x) for x in xs]
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def backward(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(x, g[tuple(sl)])

    return _op(np.concatenate(vals, axis=axis), _tape_of(*xs), backward)


def take(x: Var, key) -> Var:
    """x.value[key] for any numpy key: slices, or integer arrays gathering
    rows along axis 0. Repeated indices sum their gradients."""

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        np.add.at(x.grad, key, g)

    return _op(np.array(x.value[key]), x.tape, backward)


def weighted_stack_sum(v, stack) -> Var:
    """sum_r v[r] * stack[r] over the leading axis of `stack`.

    v has shape [rank], stack [rank, ...]; the result has stack's trailing
    shape. Gradients flow to the operands that are Vars.
    """
    vv, sv = _val(v), _val(stack)
    if vv.ndim != 1 or sv.shape[0] != vv.shape[0]:
        raise ValueError(f"rank mismatch: v {vv.shape} vs stack {sv.shape}")

    def backward(g):
        if isinstance(v, Var):
            _accum(v, np.tensordot(sv, g, axes=(tuple(range(1, sv.ndim)), tuple(range(g.ndim)))))
        if isinstance(stack, Var):      # one rank at a time, no [rank, ...] temporary
            if stack.grad is None:
                stack.grad = np.zeros_like(sv)
            term = np.empty_like(g)
            for r in range(vv.shape[0]):
                stack.grad[r] += np.multiply(g, vv[r], out=term)

    return _op(np.tensordot(vv, sv, axes=(0, 0)), _tape_of(v, stack), backward)


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


def _sample_grid(grid: Var, cols: np.ndarray, weights: np.ndarray) -> Var:
    """Row b of the result is sum_k weights[b, k] * grid cell cols[b, k].

    One CSR matrix S holds the weights; every row has the same k nonzeros,
    so indptr is a stride-k range and no COO conversion or index sort is
    needed. The forward is S @ grid, the backward adds S.T @ g to the
    grid's gradient."""
    gv = grid.value
    n_cells = gv.size // gv.shape[-1]
    b, k = cols.shape
    S = sp.csr_matrix((weights.reshape(-1), cols.reshape(-1),
                       np.arange(0, k * b + 1, k, dtype=np.int32)), shape=(b, n_cells))

    def backward(g):
        scattered = (S.T @ g).reshape(gv.shape)
        if grid.grad is None:
            grid.grad = scattered
        else:
            grid.grad += scattered

    return _op(S @ gv.reshape(n_cells, -1), grid.tape, backward)


def bilinear_sample(plane: Var, u, v) -> Var:
    """Sample a [D, D, C] plane at fractional grid coordinates (u, v).

    The coordinates are 1-D arrays in grid units [0, D-1] and get no
    gradient. They are clamped to the border (so +-inf reads the edge);
    NaN raises ValueError. One call builds one sparse interpolation matrix
    S ([B, D*D], the 4 bilinear corner weights per row): the forward is
    S @ plane and the plane's gradient S.T @ g.
    """
    pv = plane.value
    if pv.ndim != 3:
        raise ValueError(f"plane must be [D, D, C], got {pv.shape}")
    du, dv = pv.shape[0], pv.shape[1]
    i0, fu = _cell_coords(u, du)
    j0, fv = _cell_coords(v, dv)
    cols = (i0 * dv + j0)[:, None] + np.array([0, dv, 1, dv + 1], dtype=np.int32)
    weights = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=1)
    return _sample_grid(plane, cols, weights)


def linear_sample(axis_grid: Var, u) -> Var:
    """Sample a [D, C] axis at fractional grid coordinates u.

    Same contract as bilinear_sample: a 1-D coordinate array that gets no
    gradient, clamped to the border, NaN rejected, and one sparse
    interpolation matrix ([B, D], 2 linear weights per row) applied forward
    and, transposed, backward.
    """
    av = axis_grid.value
    if av.ndim != 2:
        raise ValueError(f"axis grid must be [D, C], got {av.shape}")
    i0, fu = _cell_coords(u, av.shape[0])
    cols = i0[:, None] + np.array([0, 1], dtype=np.int32)
    return _sample_grid(axis_grid, cols, np.stack([1 - fu, fu], axis=1))


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

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

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
