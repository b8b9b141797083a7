"""Time-variant spatial encoders.

Each encoder maps (normalized canonical coordinate, knot index) to a feature
vector. Temporal conditioning enters only through low-rank per-knot codes:
one modulation, `low_rank` (base + sum_r v_t[r] * res[r]), builds every
time-variant tensor at a knot, the layer weights of the MLP variants and the
factor grids of the plane/axis variants alike; the coordinates themselves
never see time. The coupled-4D baseline does the opposite: it feeds time as
a fourth input coordinate to a plain SIREN MLP.

Rank 0 degenerates every variant to a time-invariant encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splinefield import autodiff as ad
from splinefield.autodiff import NoGradTape, ParamStore, Tape, Var

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


@dataclass(frozen=True)
class PositionalEncodingConfig:
    n_frequencies: int = 4
    include_input: bool = True

    @property
    def out_dim(self) -> int:
        return 3 * (2 * self.n_frequencies + (1 if self.include_input else 0))


def positional_encode(x, cfg: PositionalEncodingConfig):
    """Sinusoidal encoding: optionally x, then [sin(2^l pi x), cos(2^l pi x)].

    x is [B, 3] with coordinates in [-1, 1]; blocks are concatenated along
    the channel axis, 3 channels per block. A Var gives a Var, an array an
    array.
    """
    if not isinstance(x, Var):
        return positional_encode(Var(x, NoGradTape()), cfg).value
    blocks = [x] if cfg.include_input else []
    for l in range(cfg.n_frequencies):
        w = (2.0 ** l) * np.pi
        blocks.append(ad.sine(x, w))
        blocks.append(ad.cosine(x, w))
    if not blocks:
        raise ValueError("L=0 without include_input produces an empty encoding")
    return ad.concat(blocks, axis=1) if len(blocks) > 1 else blocks[0]


def _siren_layer_init(rng, c_in: int, c_out: int, w0: float, first: bool) -> np.ndarray:
    if first:
        bound = 1.0 / c_in
    else:
        bound = np.sqrt(6.0 / c_in) / w0
    return rng.uniform(-bound, bound, size=(c_in, c_out))


class _ResFieldsMLP:
    """Shared machinery of the SIREN/PE ResFields variants: a stack of
    time-variant linear layers whose weights are modulated by v_t."""

    def __init__(self, prefix, store: ParamStore, rng, in_dim: int, hidden: int,
                 depth: int, rank: int, act: str, w0: float):
        self.prefix = prefix
        self.depth = depth
        self.rank = rank
        self.act = act
        self.w0 = w0
        self.out_dim = hidden
        dims = [in_dim] + [hidden] * depth
        for i, (ci, co) in enumerate(zip(dims[:-1], dims[1:])):
            if act == "sine":
                base = _siren_layer_init(rng, ci, co, w0, first=(i == 0))
            else:
                base = rng.uniform(-np.sqrt(6.0 / ci), np.sqrt(6.0 / ci), size=(ci, co))
            store.add(f"{prefix}.l{i}.Wb", base)
            if rank > 0:
                # residual stacks start small so training begins near the base
                res = rng.normal(0.0, 1.0 / max(ci, 1), size=(rank, ci, co)) * 0.1
                store.add(f"{prefix}.l{i}.Wres", res)
            store.add(f"{prefix}.l{i}.b", np.zeros(co))

    def apply(self, tape: Tape, store: ParamStore, x, v_t) -> Var:
        h = x
        for i in range(self.depth):
            wb = store.var(f"{self.prefix}.l{i}.Wb", tape)
            wres = store.var(f"{self.prefix}.l{i}.Wres", tape) if self.rank > 0 else None
            b = store.var(f"{self.prefix}.l{i}.b", tape)
            h = tv_linear_apply(h, wb, wres, b, v_t)
            h = ad.activation(h, self.act, self.w0)
        return h


class SirenResFieldsEncoder:
    """Time-variant SIREN MLP (sine activations, ResFields-style weights)."""

    name = "siren-resfields"

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 hidden: int = 64, depth: int = 3, w0: float = 30.0):
        self.n_knots = n_knots
        self.rank = rank
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        self.mlp = _ResFieldsMLP("enc.mlp", store, rng, 3, hidden, depth, rank, "sine", w0)
        self.out_dim = hidden

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int) -> Var:
        v_t = materialize_code(tape, store, self.n_knots, knot_idx)
        x = Var(x_norm, tape)
        return self.mlp.apply(tape, store, x, v_t)


class PEResFieldsEncoder:
    """Positional encoding followed by a ReLU ResFields MLP."""

    name = "pe-resfields"

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 hidden: int = 64, depth: int = 3,
                 pe: PositionalEncodingConfig = PositionalEncodingConfig()):
        self.n_knots = n_knots
        self.rank = rank
        self.pe = pe
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        self.mlp = _ResFieldsMLP("enc.mlp", store, rng, pe.out_dim, hidden, depth,
                                 rank, "relu", 0.0)
        self.out_dim = hidden

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int) -> Var:
        v_t = materialize_code(tape, store, self.n_knots, knot_idx)
        feat = positional_encode(x_norm, self.pe)
        return self.mlp.apply(tape, store, Var(feat, tape), v_t)


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

    name = "triplanes"
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
        if not np.all(np.isfinite(x_norm)):
            raise ValueError("non-finite coordinates")
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

    name = "triaxes"
    FACTORS = (("x", (0,)), ("y", (1,)), ("z", (2,)))


class Coupled4DEncoder:
    """Baseline encoder with time as a fourth input coordinate (plain SIREN).

    No temporal codes; temporal behaviour comes entirely from the network's
    smoothness over the t axis, which is precisely the coupling the
    decoupled variants avoid.
    """

    name = "coupled4d-baseline"

    def __init__(self, store: ParamStore, rng, hidden: int = 64, depth: int = 3,
                 w0: float = 30.0):
        self.depth = depth
        self.w0 = w0
        dims = [4] + [hidden] * depth
        for i, (ci, co) in enumerate(zip(dims[:-1], dims[1:])):
            store.add(f"enc.mlp.l{i}.Wb", _siren_layer_init(rng, ci, co, w0, first=(i == 0)))
            store.add(f"enc.mlp.l{i}.b", np.zeros(co))
        self.out_dim = hidden

    def encode_at_time(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
                       t: float) -> Var:
        """Encode with continuous time t in [0, 1] (mapped to [-1, 1])."""
        tcol = np.full((x_norm.shape[0], 1), 2.0 * t - 1.0)
        h = Var(np.concatenate([x_norm, tcol], axis=1), tape)
        return self._apply(tape, store, h)

    def encode_xyzt(self, tape: Tape, store: ParamStore, xyzt) -> Var:
        """Encode a [B, 4] input directly (all coordinates differentiable)."""
        h = xyzt if isinstance(xyzt, Var) else Var(xyzt, tape)
        return self._apply(tape, store, h)

    def _apply(self, tape, store, h):
        for i in range(self.depth):
            wb = store.var(f"enc.mlp.l{i}.Wb", tape)
            b = store.var(f"enc.mlp.l{i}.b", tape)
            h = ad.sine(ad.forward_linear(h, wb, b), self.w0)
        return h
