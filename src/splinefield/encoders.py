"""Time-variant spatial encoders.

Each encoder maps (normalized canonical coordinate, knot index) to a feature
vector. Temporal conditioning enters only through low-rank per-knot codes
that modulate the encoder's parameters (weights for the MLP variants, grid
contents for the plane/axis variants); the coordinates themselves never see
time. The coupled-4D baseline does the opposite: it feeds time as a fourth
input coordinate to a plain SIREN MLP.

Rank 0 degenerates every variant to a time-invariant encoder.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from splinefield import autodiff as ad
from splinefield.autodiff import NoGradTape, ParamStore, Tape, Var

CODE_INIT_STD = 1e-2      # per-knot temporal codes ~ N(0, (1e-2)^2)
GRID_INIT_RANGE = 0.1     # grid bases uniform in [-0.1, 0.1]


def init_temporal_codes(n_knots: int, rank: int, rng) -> np.ndarray:
    """Per-knot code matrix V of shape [n_knots, rank]."""
    return rng.normal(0.0, CODE_INIT_STD, size=(n_knots, rank))


def materialize_code(codes, knot_idx: int):
    """Row v_t of the code matrix; works on arrays and tape variables."""
    n = codes.shape[0]
    if not (0 <= knot_idx < n):
        raise ValueError(f"knot index {knot_idx} out of range [0, {n})")
    if isinstance(codes, Var):
        return ad.take(codes, np.array(knot_idx))
    return codes[knot_idx]


def _knot_code(tape, store: ParamStore, rank: int, n_knots: int, knot_idx: int):
    """The knot's code row on the tape, or None at rank 0 (index still checked)."""
    if rank > 0:
        return materialize_code(store.var("codes", tape), knot_idx)
    if not (0 <= knot_idx < n_knots):
        raise ValueError(f"knot index {knot_idx} out of range")
    return None


def tv_linear_apply(x, w_base, w_res, bias, v_t) -> Var:
    """input @ (W_base + sum_r v_t[r] * W_res[r]) + bias.

    w_res has shape [rank, C_in, C_out]; rank 0 reduces to a plain linear.
    """
    rank = ad._val(w_res).shape[0] if w_res is not None else 0
    if rank > 0:
        w = ad.add(w_base, ad.weighted_stack_sum(v_t, w_res))
    else:
        w = w_base
    return ad.forward_linear(x, w, bias)


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
        v_t = _knot_code(tape, store, self.rank, self.n_knots, knot_idx)
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
        v_t = _knot_code(tape, store, self.rank, self.n_knots, knot_idx)
        feat = positional_encode(x_norm, self.pe)
        return self.mlp.apply(tape, store, Var(feat, tape), v_t)


def _to_grid_units(x01: np.ndarray, d: int) -> np.ndarray:
    """Map [-1, 1] coordinates to grid units [0, D-1] (clamped by sampling)."""
    return (x01 + 1.0) * 0.5 * (d - 1)


class TriplaneEncoder:
    """Multi-level time-variant triplanes: bilinear samples of the XY/YZ/XZ
    planes combined by elementwise product, levels concatenated."""

    name = "triplanes"
    PLANES = (("xy", 0, 1), ("yz", 1, 2), ("xz", 0, 2))

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 levels: tuple = (32, 64), channels: int = 16):
        self.n_knots = n_knots
        self.rank = rank
        self.levels = tuple(levels)
        self.channels = channels
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        for li, d in enumerate(self.levels):
            for pname, _, _ in self.PLANES:
                store.add(f"enc.grid.L{li}.{pname}.base",
                          rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE, (d, d, channels)))
                if rank > 0:
                    store.add(f"enc.grid.L{li}.{pname}.res",
                              rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE,
                                          (rank, d, d, channels)) * 0.1)
        self.out_dim = channels * len(self.levels)

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int) -> Var:
        v_t = _knot_code(tape, store, self.rank, self.n_knots, knot_idx)
        if not np.all(np.isfinite(x_norm)):
            raise ValueError("non-finite coordinates")
        feats = []
        for li, d in enumerate(self.levels):
            level = None
            for pname, ax_u, ax_v in self.PLANES:
                u = _to_grid_units(x_norm[:, ax_u], d)
                v = _to_grid_units(x_norm[:, ax_v], d)
                f = self._sample(tape, store, f"enc.grid.L{li}.{pname}", u, v, v_t)
                level = f if level is None else ad.mul(level, f)
            feats.append(level)
        return ad.concat(feats, axis=1) if len(feats) > 1 else feats[0]

    def _sample(self, tape, store, key, u, v, v_t):
        # lazy route: sample base and residual planes, then weight by v_t;
        # equals sampling the materialized plane by linearity of bilinear
        # interpolation.
        f = ad.bilinear_sample(store.var(f"{key}.base", tape), u, v)
        if self.rank > 0:
            res = store.var(f"{key}.res", tape)
            for r in range(self.rank):
                fr = ad.bilinear_sample(res[r], u, v)
                f = ad.add(f, ad.mul(v_t[np.array(r)], fr))
        return f

    def materialized_plane(self, store: ParamStore, level: int, pname: str,
                           knot_idx: int) -> np.ndarray:
        """Explicit P(t) = base + sum_r v_t[r] * res[r]; used by equivalence tests."""
        key = f"enc.grid.L{level}.{pname}"
        p = store.value(f"{key}.base").copy()
        if self.rank > 0:
            v = store.value("codes")[knot_idx]
            p += np.tensordot(v, store.value(f"{key}.res"), axes=(0, 0))
        return p


class TriaxesEncoder:
    """Multi-level time-variant axes: linear samples of the X/Y/Z axes
    combined by elementwise product, levels concatenated."""

    name = "triaxes"

    def __init__(self, store: ParamStore, rng, n_knots: int, rank: int,
                 levels: tuple = (32, 64), channels: int = 16):
        self.n_knots = n_knots
        self.rank = rank
        self.levels = tuple(levels)
        self.channels = channels
        if rank > 0:
            store.add("codes", init_temporal_codes(n_knots, rank, rng))
        for li, d in enumerate(self.levels):
            for aname in "xyz":
                store.add(f"enc.grid.L{li}.{aname}.base",
                          rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE, (d, channels)))
                if rank > 0:
                    store.add(f"enc.grid.L{li}.{aname}.res",
                              rng.uniform(-GRID_INIT_RANGE, GRID_INIT_RANGE,
                                          (rank, d, channels)) * 0.1)
        self.out_dim = channels * len(self.levels)

    def encode(self, tape: Tape, store: ParamStore, x_norm: np.ndarray,
               knot_idx: int) -> Var:
        v_t = _knot_code(tape, store, self.rank, self.n_knots, knot_idx)
        if not np.all(np.isfinite(x_norm)):
            raise ValueError("non-finite coordinates")
        feats = []
        for li, d in enumerate(self.levels):
            level = None
            for ax, aname in enumerate("xyz"):
                u = _to_grid_units(x_norm[:, ax], d)
                f = self._sample(tape, store, f"enc.grid.L{li}.{aname}", u, v_t)
                level = f if level is None else ad.mul(level, f)
            feats.append(level)
        return ad.concat(feats, axis=1) if len(feats) > 1 else feats[0]

    def _sample(self, tape, store, key, u, v_t):
        f = ad.linear_sample(store.var(f"{key}.base", tape), u)
        if self.rank > 0:
            res = store.var(f"{key}.res", tape)
            for r in range(self.rank):
                f = ad.add(f, ad.mul(v_t[np.array(r)], ad.linear_sample(res[r], u)))
        return f

    def materialized_axis(self, store: ParamStore, level: int, aname: str,
                          knot_idx: int) -> np.ndarray:
        key = f"enc.grid.L{level}.{aname}"
        a = store.value(f"{key}.base").copy()
        if self.rank > 0:
            v = store.value("codes")[knot_idx]
            a += np.tensordot(v, store.value(f"{key}.res"), axes=(0, 0))
        return a


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


# -- checkpoint file format ------------------------------------------------

_MAGIC = b"SDFCKPT1"
_VERSION = 1


class FormatError(Exception):
    """Malformed checkpoint or trajectory file."""


def write_checkpoint(path, arrays: dict, header: dict | None = None) -> None:
    """Write named float arrays plus an optional JSON header.

    Layout: magic 'SDFCKPT1', u32 version, u32 header length, UTF-8 JSON
    header, u32 section count, then per section: u16 name length, name,
    u8 shape rank, u32 dims, f32 payload (row-major). Little-endian.
    """
    hdr = json.dumps(header or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(hdr)))
        f.write(hdr)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float32)
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def read_checkpoint(path):
    """Read a checkpoint file; returns (arrays, header)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != _MAGIC:
        raise FormatError(f"bad magic at byte 0: {data[:8]!r}")
    off = 8
    try:
        version, hlen = struct.unpack_from("<II", data, off)
        off += 8
        if version != _VERSION:
            raise FormatError(f"unsupported version {version} at byte 8")
        header = json.loads(data[off:off + hlen].decode("utf-8"))
        off += hlen
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            n = int(np.prod(shape)) if rank else 1
            payload = data[off:off + 4 * n]
            if len(payload) != 4 * n:
                raise FormatError(f"truncated payload for {name!r} at byte {off}")
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
            off += 4 * n
    except struct.error as e:
        raise FormatError(f"truncated file at byte {off}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"malformed header or array name at byte {off}: {e}") from None
    return arrays, header
