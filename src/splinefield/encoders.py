"""Time-variant spatial encoders.

Each encoder maps (normalized canonical coordinate, knot code v_t) to a
feature vector; `SplineField` owns the per-knot codes and passes a knot's
row in. Time enters only through that code: one modulation, `low_rank`
(base + sum_r v_t[r] * res[r]), makes every time-variant tensor at a knot,
the layer weights of the MLP encoder and the factor grids of the plane/axis
encoder alike; the coordinates never see time. Rank 0 (v_t None) is the
coupled baseline's alone: a spline field's knots differ only by their codes.

So an encoder's work splits in two. `spatial(tape, store, x_norm, knots,
rows)` is the time-invariant part for the points `rows` of the normalized
set x_norm, which `knots` knots will modulate; `encode(tape, store,
spatial, v_t, memo)` is the per-knot modulation of it. `SplineField.knot_states`
makes one `spatial` per block of the points it predicts knots on, for the
knots it predicts in one call, and hands each of them that `spatial` and
the knot's `memo`, which the first block fills with the knot's point-free
tensors (an MLP layer's weight and bias, a case-(b) grid) for the others.
For the MLP encoder `spatial` is the positional encoding. For the grid
encoder it rests on an identity: grid interpolation is linear, so sampling
base + sum_r v_t[r] * res[r] at a point equals applying `low_rank` to the
samples of base and of each res[r]. A factor with fewer points than cells
and enough knots to repay sampling its residual stack samples base and
stack once and each knot modulates the samples; otherwise each knot builds
its grid and samples it (see `TriplaneEncoder`).

The MLP variants differ only in PE frequency count and activation (see
`MLPEncoder`). The coupled-4D baseline is the rank-0 sine MLP; `SplineField`
hands its `encode` the points with time appended (`xyzt`).

An encoder holds no parameters: `params()` declares each as (name, shape,
init) in draw order, init(rng, shape) drawing the array (None: zeros).
`SplineField` draws a new field from these and checks a load against them,
which draws nothing.
"""

from __future__ import annotations

import numpy as np

from splinefield import autodiff as ad
from splinefield.autodiff import ParamStore, Tape, Var

GRID_INIT_RANGE = 0.1     # grid bases uniform in [-0.1, 0.1]


def low_rank(base, res, v_t):
    """base + sum_r v_t[r] * res[r], the time-variant tensor at one knot.

    res has shape [rank, *base.shape]; None, the coupled baseline's rank 0,
    returns base itself.
    """
    return base if res is None else ad.add(base, ad.weighted_stack_sum(v_t, res))


def xyzt(x_norm: np.ndarray, t: float) -> np.ndarray:
    """The coupled baseline's input: time t in [0, 1] as a fourth
    coordinate 2t - 1 in [-1, 1]."""
    return np.concatenate([x_norm, np.full((x_norm.shape[0], 1), 2.0 * t - 1.0)], axis=1)


def positional_encode(x: np.ndarray, n_frequencies: int) -> np.ndarray:
    """Sinusoidal encoding: x, then [sin(2^l pi x), cos(2^l pi x)] per l.

    x is [B, 3] with coordinates in [-1, 1]; blocks are concatenated along
    the channel axis, 3 channels per block; 0 frequencies return x itself.
    """
    blocks = [x]
    for l in range(n_frequencies):
        w = (2.0 ** l) * np.pi
        blocks += [np.sin(w * x), np.cos(w * x)]
    return np.concatenate(blocks, axis=1) if n_frequencies else x


def uniform(bound: float, scale: float = 1.0):
    """The init drawing U(-bound, bound), times scale."""
    return lambda rng, shape: rng.uniform(-bound, bound, shape) * scale


def normal(std: float, scale: float = 1.0):
    """The init drawing N(0, std^2), times scale."""
    return lambda rng, shape: rng.normal(0.0, std, shape) * scale


class MLPEncoder:
    """The MLP encoder of every MLP variant: the normalized coordinates'
    `positional_encode` at `frequencies` frequencies, then `depth` time-variant
    linear layers (weights built by `low_rank` from the knot's code) with
    sine(w0) or ReLU activations.

    The SIREN variant takes 0 frequencies and sines, the PE variant its
    `pe_frequencies` and ReLUs, and the coupled baseline sines at rank 0 on
    its `xyzt` input, whose time coordinate is its only time input.
    """

    def __init__(self, rank: int, coords: int, hidden: int, depth: int, w0: float,
                 frequencies: int, act: str):
        self.rank = rank
        self.in_dim = coords * (1 + 2 * frequencies)    # see positional_encode
        self.depth = depth
        self.frequencies = frequencies
        # the activation, and the uniform init bound of layer i with ci inputs
        self._act, self._bound = {
            "sine": (lambda h: ad.sine(h, w0),
                     lambda i, ci: 1.0 / ci if i == 0 else np.sqrt(6.0 / ci) / w0),
            "relu": (ad.relu, lambda i, ci: np.sqrt(6.0 / ci))}[act]
        self.out_dim = hidden

    def params(self):
        """Each layer's base weights, residual stack (rank > 0) and bias."""
        for i in range(self.depth):
            ci, co = self.in_dim if i == 0 else self.out_dim, self.out_dim
            yield f"enc.mlp.l{i}.Wb", (ci, co), uniform(self._bound(i, ci))
            if self.rank > 0:
                # residual stacks start small so training begins near the base
                yield f"enc.mlp.l{i}.Wres", (self.rank, ci, co), normal(1.0 / ci, 0.1)
            yield f"enc.mlp.l{i}.b", (co,), None

    def spatial(self, tape: Tape, store: ParamStore, x_norm: np.ndarray, knots: int, rows: slice):
        """The positional encoding of the normalized points `rows`, for any count of knots."""
        return positional_encode(x_norm[rows], self.frequencies)

    def encode(self, tape: Tape, store: ParamStore, h: np.ndarray, v_t: Var | None,
               memo: dict | None = None) -> Var:
        """The features h of `spatial` under the knot code v_t (None for the
        coupled baseline), which modulates the layer weights kept in `memo`."""
        memo = {} if memo is None else memo
        for i in range(self.depth):
            if i not in memo:
                wb = store.var(f"enc.mlp.l{i}.Wb", tape)
                wres = store.var(f"enc.mlp.l{i}.Wres", tape) if self.rank > 0 else None
                memo[i] = low_rank(wb, wres, v_t), store.var(f"enc.mlp.l{i}.b", tape)
            h = self._act(ad.forward_linear(h, *memo[i]))
        return h


def _to_grid_units(x01: np.ndarray, d: int) -> np.ndarray:
    """Map [-1, 1] coordinates to grid units [0, D-1] (clamped by sampling)."""
    return (x01 + 1.0) * 0.5 * (d - 1)


class TriplaneEncoder:
    """Multi-level time-variant factorized grid: each factor is a grid over
    some of the coordinates (the XY/YZ/XZ planes here), its features are
    combined by elementwise product, and levels are concatenated.

    `spatial` computes each factor's cell lookup, the interpolation matrix S
    of the points `rows`, once. Then, by the size B of the whole point set
    and the number K of knots that will modulate it:
    (a) a factor with 8 * B below K times its cell count (D*D for a plane,
        D for an axis), and B below the cell count itself, samples its base
        to [B, C] and its residual stack to [R, B, C] there, and each knot
        applies `low_rank` to the samples;
    (b) otherwise each knot builds its grid with `low_rank` and samples it
        through S, bilinearly for a plane and linearly for an axis.
    Both give the knot grid's samples, since interpolation commutes with the
    weighted sum. Case (a) keeps the per-knot work at B rows instead of
    cells, but first pays for sampling R + 1 grids. Timed per factor on a
    2-vCPU Xeon (rank 8, 16 channels, level-32 and level-64 planes), a
    forward-only query broke even near B = cells / 4 at two knots and
    B = cells / 2 at four, hence the factor 8. The bound B < cells keeps the
    samples no larger than the factor's own parameters. A block of the
    points takes the whole set's case and samples, or keeps the S of, its
    own rows only.
    """

    FACTORS = (("xy", (0, 1)), ("yz", (1, 2)), ("xz", (0, 2)))

    def __init__(self, rank: int, levels: tuple, channels: int):
        self.rank = rank
        self.levels = levels
        self.channels = channels
        self.out_dim = channels * len(self.levels)

    def params(self):
        """Each level's factor bases and residual stacks."""
        for li, d in enumerate(self.levels):
            for fname, axes in self.FACTORS:
                shape = (d,) * len(axes) + (self.channels,)
                yield f"enc.grid.L{li}.{fname}.base", shape, uniform(GRID_INIT_RANGE)
                yield (f"enc.grid.L{li}.{fname}.res", (self.rank,) + shape,
                       uniform(GRID_INIT_RANGE, 0.1))

    def spatial(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
                knots: int, rows: slice) -> list:
        """Per level, per factor, the (base, res, S) each of `knots` knots hands
        `low_rank` and then samples through S, for the points `rows` of
        x_norm: the samples and S None in case (a), the parameters and the
        lookup in case (b)."""
        b, x_norm = x_norm.shape[0], x_norm[rows]
        levels = []
        for li, d in enumerate(self.levels):
            factors = []
            for fname, axes in self.FACTORS:
                key = f"enc.grid.L{li}.{fname}"
                base = store.var(f"{key}.base", tape)
                res = store.var(f"{key}.res", tape)
                S = ad.interp_matrix([_to_grid_units(x_norm[:, a], d) for a in axes],
                                     (d,) * len(axes))
                cells = d ** len(axes)
                if b < cells and 8 * b < knots * cells:
                    base, res, S = ad.sample_grid(base, S), ad.sample_stack(res, S), None
                factors.append((base, res, S))
            levels.append(factors)
        return levels

    def encode(self, tape: Tape, store: ParamStore, spatial: list, v_t: Var,
               memo: dict | None = None) -> Var:
        """The factors of `spatial` under the knot code v_t, each case-(b)
        grid taken from, or built into, `memo`."""
        memo = {} if memo is None else memo
        feats = []
        for li, factors in enumerate(spatial):
            level = None
            for fi, (base, res, S) in enumerate(factors):
                if S is not None and (li, fi) not in memo:
                    memo[li, fi] = low_rank(base, res, v_t)
                f = low_rank(base, res, v_t) if S is None else ad.sample_grid(memo[li, fi], S)
                level = f if level is None else ad.mul(level, f)
            feats.append(level)
        return ad.concat(feats, axis=1) if len(feats) > 1 else feats[0]


class TriaxesEncoder(TriplaneEncoder):
    """The factorized grid over the X/Y/Z axes, each a grid over one coordinate."""

    FACTORS = (("x", (0,)), ("y", (1,)), ("z", (2,)))


def __getattr__(name):
    # MLPEncoder's former name, still read by the benchmark's tracing test
    if name == "SirenResFieldsEncoder":
        return MLPEncoder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
