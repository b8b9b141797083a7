"""Time-variant spatial encoders.

Each encoder maps (normalized canonical coordinate, knot index) to a feature
vector. Temporal conditioning enters only through low-rank per-knot codes:
one modulation, `low_rank` (base + sum_r v_t[r] * res[r]), builds every
time-variant tensor at a knot, the layer weights of the MLP encoder and the
factor grids of the plane/axis encoder alike; the coordinates themselves
never see time. Rank 0 degenerates both to a time-invariant encoder.

The MLP variants differ only in the MLP's feature map and activation (see
`MLPEncoder`). The coupled-4D baseline is the rank-0 sine MLP
whose feature map appends time as a fourth input coordinate.
"""

from __future__ import annotations

import numpy as np

from splinefield import autodiff as ad
from splinefield.autodiff import ParamStore, Tape, Var

CODE_INIT_STD = 1e-2      # per-knot temporal codes ~ N(0, (1e-2)^2)
GRID_INIT_RANGE = 0.1     # grid bases uniform in [-0.1, 0.1]


def init_temporal_codes(n_knots: int, rank: int, rng) -> np.ndarray:
    """Per-knot code matrix V of shape [n_knots, rank]."""
    return rng.normal(0.0, CODE_INIT_STD, size=(n_knots, rank))


def materialize_code(tape, store: ParamStore, n_knots: int, knot_idx: int):
    """Row v_t of the store's code matrix on the tape, or None when the store
    holds no codes (rank 0). The knot index is checked either way."""
    if not (0 <= knot_idx < n_knots):
        raise ValueError(f"knot index {knot_idx} out of range [0, {n_knots})")
    if "codes" not in store:
        return None
    return ad.take(store.var("codes", tape), np.array(knot_idx))


def low_rank(base, res, v_t):
    """base + sum_r v_t[r] * res[r], the time-variant tensor at one knot.

    res has shape [rank, *base.shape]; None (rank 0) returns base itself.
    """
    return base if res is None else ad.add(base, ad.weighted_stack_sum(v_t, res))


def tv_linear_apply(x, w_base, w_res, bias, v_t) -> Var:
    """input @ (W_base + sum_r v_t[r] * W_res[r]) + bias.

    w_res has shape [rank, C_in, C_out]; None (rank 0) is a plain linear.
    """
    return ad.forward_linear(x, low_rank(w_base, w_res, v_t), bias)


def xyz(x_norm: np.ndarray, t) -> np.ndarray:
    """The identity feature map of the SIREN variant."""
    return x_norm


def xyzt(x_norm: np.ndarray, t: float) -> np.ndarray:
    """The coupled baseline's feature map: time t in [0, 1] as a fourth
    coordinate 2t - 1 in [-1, 1]."""
    return np.concatenate([x_norm, np.full((x_norm.shape[0], 1), 2.0 * t - 1.0)], axis=1)


def positional_encode(x: np.ndarray, n_frequencies: int) -> np.ndarray:
    """Sinusoidal encoding: x, then [sin(2^l pi x), cos(2^l pi x)] per l.

    x is [B, 3] with coordinates in [-1, 1]; blocks are concatenated along
    the channel axis, 3 channels per block.
    """
    blocks = [x]
    for l in range(n_frequencies):
        w = (2.0 ** l) * np.pi
        blocks += [np.sin(w * x), np.cos(w * x)]
    return np.concatenate(blocks, axis=1)


def _siren_layer_init(rng, c_in: int, c_out: int, w0: float, first: bool) -> np.ndarray:
    if first:
        bound = 1.0 / c_in
    else:
        bound = np.sqrt(6.0 / c_in) / w0
    return rng.uniform(-bound, bound, size=(c_in, c_out))


class MLPEncoder:
    """The MLP encoder of every MLP variant: a feature map of the normalized
    coordinates, then `depth` time-variant linear layers (weights built by
    `low_rank` from the knot's code) with sine(w0) or ReLU activations.

    The SIREN variant uses the identity features `xyz` and sines, the PE
    variant `positional_encode` and ReLUs, and the coupled baseline `xyzt`
    and sines at rank 0, so its only temporal input is the time coordinate.
    """

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 hidden: int = 64, depth: int = 3, w0: float = 30.0,
                 features=xyz, act: str = "sine"):
        self.n_knots = n_knots
        self.rank = rank
        self.depth = depth
        self.features = features
        self._act = {"sine": lambda h: ad.sine(h, w0), "relu": ad.relu}[act]
        self.out_dim = hidden
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        dims = [features(np.zeros((1, 3)), 0.0).shape[1]] + [hidden] * depth
        for i, (ci, co) in enumerate(zip(dims[:-1], dims[1:])):
            if act == "sine":
                base = _siren_layer_init(rng, ci, co, w0, first=(i == 0))
            else:
                base = rng.uniform(-np.sqrt(6.0 / ci), np.sqrt(6.0 / ci), size=(ci, co))
            store.add(f"enc.mlp.l{i}.Wb", base)
            if rank > 0:
                # residual stacks start small so training begins near the base
                res = rng.normal(0.0, 1.0 / max(ci, 1), size=(rank, ci, co)) * 0.1
                store.add(f"enc.mlp.l{i}.Wres", res)
            store.add(f"enc.mlp.l{i}.b", np.zeros(co))

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int | None, t: float | None = None) -> Var:
        """Features at knot `knot_idx`, whose code modulates the weights; the
        coupled baseline has no knots and passes None with its query time t."""
        v_t = None if knot_idx is None else materialize_code(tape, store, self.n_knots,
                                                             knot_idx)
        h = self.features(x_norm, t)
        for i in range(self.depth):
            wb = store.var(f"enc.mlp.l{i}.Wb", tape)
            wres = store.var(f"enc.mlp.l{i}.Wres", tape) if self.rank > 0 else None
            b = store.var(f"enc.mlp.l{i}.b", tape)
            h = self._act(tv_linear_apply(h, wb, wres, b, v_t))
        return h


def _to_grid_units(x01: np.ndarray, d: int) -> np.ndarray:
    """Map [-1, 1] coordinates to grid units [0, D-1] (clamped by sampling)."""
    return (x01 + 1.0) * 0.5 * (d - 1)


class TriplaneEncoder:
    """Multi-level time-variant factorized grid: each factor is a grid over
    some of the coordinates (the XY/YZ/XZ planes here), its features are
    combined by elementwise product, and levels are concatenated.

    At a knot each factor's grid is built once with `low_rank` and sampled
    once, bilinearly for a plane and linearly for an axis.
    """

    FACTORS = (("xy", (0, 1)), ("yz", (1, 2)), ("xz", (0, 2)))

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 levels: tuple = (32, 64), channels: int = 16):
        self.n_knots = n_knots
        self.rank = rank
        self.levels = tuple(levels)
        self.channels = channels
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        for li, d in enumerate(self.levels):
            for fname, axes in self.FACTORS:
                shape = (d,) * len(axes) + (channels,)
                store.add(f"enc.grid.L{li}.{fname}.base",
                          rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE, shape))
                if rank > 0:
                    store.add(f"enc.grid.L{li}.{fname}.res",
                              rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE,
                                          (rank,) + shape) * 0.1)
        self.out_dim = channels * len(self.levels)

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int) -> Var:
        v_t = materialize_code(tape, store, self.n_knots, knot_idx)
        feats = []
        for li, d in enumerate(self.levels):
            level = None
            for fname, axes in self.FACTORS:
                key = f"enc.grid.L{li}.{fname}"
                res = store.var(f"{key}.res", tape) if self.rank > 0 else None
                grid = low_rank(store.var(f"{key}.base", tape), res, v_t)
                coords = [_to_grid_units(x_norm[:, a], d) for a in axes]
                sample = ad.bilinear_sample if len(axes) == 2 else ad.linear_sample
                f = sample(grid, *coords)
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
