"""The spline deformation field.

Composes an encoder and a decoder MLP into per-knot states: (position,
tangent), or (position, tangent, curvature) for a quintic field, a position
being the decoder's offset plus the points. A state is the segment endpoint
`spline.segment_derivative` reads: the two states around the query time go
to it as they are, the tuple's length picks the Hermite family, and the
derivative order gives position, velocity or acceleration (in normalized
segment-time units unless physical scaling is requested). The field owns
the per-knot codes ([n_knots, rank]) and hands the encoder the checked
knot's code v_t. The MLP variants share one encoder class and differ only
in PE frequency count and activation; the plane and axis variants share the
factorized-grid class. Constant-velocity advection extrapolates past the
fitted interval.

Each parameter is declared once (`SplineField.params`: codes, encoder, decoder).
A new field draws them in order from default_rng(seed); a load checks the
checkpoint's arrays against them, drawing and allocating nothing more.

A dict, knot index -> state, holds the knot states of one point set. A
query or loss at time t reads the two knots around t, so each call names
the knots it needs: `SplineField.knot_states` predicts, in the order
listed, each one the dict lacks, per block of at most QUERY_BLOCK points,
from an encoder `spatial` (the time-invariant half of the encoder's work,
see `encoders`) of the block's rows, and joins the blocks, so activations
are [block, ...], not [N, ...]; a knot's first block builds its point-free
tensors for the rest. Arrays and tapes take the same blocks, so a tape of
over QUERY_BLOCK rows sums each gradient over its blocks. The coupled-4D
baseline's MLP runs on the same blocks.
`derivative_var` asks for its two knots, a no-op when its caller listed
them. The plain-array queries (`deform`, `velocity`, `acceleration`,
`advect`) take a 1-D sequence of times, or one time as a sequence of one,
list the segment knots of all their times in first-use order, and run with
no tape, making no Var. A multi-time query fills one [T, N, 3] output frame by
frame; `deform_frames` hands the frames out one at a time instead, to a
caller that keeps few of them (`trainer.evaluate`, `cli` interp and flow).
A loaded field is read-only (its canonical points, normalizer center and
parameter arrays raise ValueError on a write), so it keeps one dict for its
canonical points: each knot is predicted at most once per loaded field, by
the first query that needs it.
Other point sets, and fields built from a seed (which training updates in
place), get a new dict per call, which predicts each knot once.

The coupled-4D baseline variant bypasses the spline entirely: its MLP takes
the time as a fourth input (`encoders.xyzt`) and returns the offset directly.
Its velocity is a difference quotient on [t - 1e-4, t + 1e-4] cut to [0, 1]:
one-sided at t = 0 and 1, lopsided within 1e-4 of either end. Acceleration
is a central second difference of step 1e-3 at t clamped into [1e-3, 1 - 1e-3].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from splinefield import autodiff as ad
from splinefield import dataio
from splinefield import encoders as enc
from splinefield import spline
from splinefield.autodiff import ParamStore, Tape, Var

# Each variant's encoder from its config; the coupled baseline's takes x, y, z, t.
_ENCODERS = {
    "siren-resfields": lambda c: enc.MLPEncoder(c.rank, 3, c.hidden, c.depth, c.w0, 0, "sine"),
    "pe-resfields": lambda c: enc.MLPEncoder(c.rank, 3, c.hidden, c.depth, c.w0,
                                             c.pe_frequencies, "relu"),
    "triplanes": lambda c: enc.TriplaneEncoder(c.rank, c.grid_levels, c.grid_channels),
    "triaxes": lambda c: enc.TriaxesEncoder(c.rank, c.grid_levels, c.grid_channels),
    "coupled4d-baseline": lambda c: enc.MLPEncoder(0, 4, c.hidden, c.depth, c.w0, 0, "sine"),
}
VARIANTS = tuple(_ENCODERS)

CODE_INIT_STD = 1e-2      # per-knot temporal codes ~ N(0, (1e-2)^2)
# Positional-encoding octaves. A float64 coordinate in [0.5, 1] is a multiple
# of 2^-53, so at 2^l pi x with l >= 53 every such x is a whole number of
# periods and sin, cos carry nothing; 2.0 ** l itself overflows at l = 1024.
PE_FREQUENCIES_MAX = 52
_FD_T_EPS = 1e-4  # time step for the coupled baseline's FD derivatives
# Most points per block of a query's knot predictions (see `_blocks`).
QUERY_BLOCK = 4096
# The most parameter values (1 GiB of float64, 4 GiB with gradients and Adam's
# moments) and arrays a field may declare; a default triplanes field has 2.21 M in 17.
PARAM_BUDGET, PARAM_ARRAYS = 2 ** 27, 2 ** 16


@dataclass
class FieldConfig:
    variant: str = "siren-resfields"
    n_knots: int = 4
    rank: int = 8
    hidden: int = 64
    depth: int = 3
    w0: float = 30.0
    pe_frequencies: int = 4
    grid_levels: tuple = (32, 64)
    grid_channels: int = 16
    quintic: bool = False

    def __post_init__(self):
        dataio.check_config(self, self._checks())

    def _checks(self):
        # (field, ok, requirement); check_config has checked every key's type
        yield from [
                ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
                ("n_knots", self.n_knots >= 2, ">= 2"), ("rank", self.rank >= 1, ">= 1"),
                ("w0", np.isfinite(self.w0) and self.w0 > 0, "finite and > 0"),
                ("pe_frequencies", 0 <= self.pe_frequencies <= PE_FREQUENCIES_MAX,
                 f"in [0, {PE_FREQUENCIES_MAX}]"),
                ("hidden", self.hidden >= 1, ">= 1"), ("depth", self.depth >= 1, ">= 1"),
                ("grid_channels", self.grid_channels >= 1, ">= 1"),
                ("grid_levels", bool(self.grid_levels) and min(self.grid_levels) >= 2,
                 "non-empty with each level >= 2")]


def _blocks(n: int) -> list:
    """Row slices covering n points, as few as keep each within QUERY_BLOCK
    rows, all of one even size but the last.

    A blocked query equals the unblocked call up to how the BLAS sums a row
    of a matmul, which may depend on the matrix's row count: a lone last row
    or a small odd block can take another kernel. Even blocks of about half
    the bound or more kept every spline variant's outputs bitwise with
    OpenBLAS 0.3.31 on an AVX-512 Xeon, at 4097 to 12 001 points. The
    coupled-4D baseline's moved there, by up to 7.8e-16 in a position (its
    finite differences magnify that to 1.8e-9 in an acceleration): its
    decoder's [64, 3] product sums a row differently per block. With another
    BLAS or CPU any variant may differ in the last bits above QUERY_BLOCK
    points. Up to it a query is one block, the unblocked call itself."""
    count = max(1, -(-n // QUERY_BLOCK))
    step = max(2, 2 * -(-n // (2 * count)))
    return [slice(lo, lo + step) for lo in range(0, max(n, 1), step)]


def _joined(parts) -> Var:
    """The [block, ...] parts of `_blocks`' slices as one, in row order."""
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)


def _times(name: str, value, scalar: bool = False) -> np.ndarray:
    """`value` as float64: a number, or unless `scalar` a non-empty 1-D
    sequence of numbers; anything else, a bool or a string too, raises
    ValueError naming `name`."""
    try:
        times = np.asarray(value)
    except ValueError:      # a ragged sequence
        times = np.asarray(None)
    if times.dtype.kind not in "iuf" or times.size == 0 or times.ndim > (0 if scalar else 1):
        want = "a number" if scalar else "a number or a non-empty 1-D sequence of numbers"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return times.astype(np.float64)


class SplineField:
    """A fitted (or fittable) deformation field over canonical points."""

    def __init__(self, cfg: FieldConfig, canonical_points: np.ndarray, seed: int = 0,
                 arrays: dict | None = None, normalizer=None):
        """Draws a new field's parameters from default_rng(seed), or takes `arrays`."""
        canonical_points = np.asarray(canonical_points, dtype=np.float64)
        if (canonical_points.ndim != 2 or canonical_points.shape[1] != 3
                or not canonical_points.size):
            raise ValueError("canonical points must be [N_p, 3] with N_p >= 1")
        if not np.all(np.isfinite(canonical_points)):
            raise ValueError("canonical points must be finite")
        self.cfg = cfg
        self.canonical = canonical_points
        lo, hi = canonical_points.min(axis=0), canonical_points.max(axis=0)
        if normalizer is None:
            normalizer = (0.5 * (lo + hi), max(float(np.max(hi - lo)) * 0.5, 1e-9))
        center, half_extent = normalizer
        if not (np.ndim(center) == 1 and all(map(dataio.is_number, [*center, half_extent]))):
            raise ValueError(f"normalizer must be numbers, got center {center!r}, "
                             f"half_extent {half_extent!r}")
        self.center = np.asarray(center, dtype=np.float64)    # is_number: no overflow
        self.half_extent = float(half_extent)
        if self.center.shape != (3,) or not np.all(np.isfinite(self.center)):
            raise ValueError(f"normalizer center must be 3 finite numbers, got {self.center}")
        if not (np.isfinite(self.half_extent) and self.half_extent > 0):
            raise ValueError(f"normalizer half_extent must be finite and > 0, "
                             f"got {self.half_extent}")
        with np.errstate(over="ignore"):    # an overflow to inf is refused below
            if not np.all(np.isfinite(self.normalize([lo, hi]))):
                raise ValueError(f"normalizer ({self.center}, {self.half_extent}) takes "
                                 f"the canonical points past float64")

        self.encoder = _ENCODERS[cfg.variant](cfg)
        self.out_channels = 3 if cfg.variant == "coupled4d-baseline" else 9 if cfg.quintic else 6
        # grid features go through a small two-layer MLP
        hidden = (cfg.hidden,) if isinstance(self.encoder, enc.TriplaneEncoder) else ()
        self._decoder_dims = (self.encoder.out_dim, *hidden, self.out_channels)
        self.store = ParamStore()
        self._canonical_states = None   # a loaded field's knot states, see load
        # params() is lazy, so the count stops at the first array past the budget
        sizes = itertools.accumulate(math.prod(shape) for _, shape, _ in self.params())
        if any(i >= PARAM_ARRAYS or n > PARAM_BUDGET for i, n in enumerate(sizes)):
            raise ValueError(f"the size keys (n_knots, rank, hidden, depth, pe_frequencies, "
                             f"grid_levels, grid_channels) declare over {PARAM_BUDGET} "
                             f"parameter values or over {PARAM_ARRAYS} arrays")
        if arrays is None:
            rng = np.random.default_rng(seed)
            for name, shape, init in self.params():
                self.store.add(name, np.zeros(shape) if init is None else init(rng, shape))
            return
        # params() is lazy, so the first missing or misshapen name ends a load
        for name, shape, _ in self.params():
            have = arrays[name].shape if name in arrays else None
            if have != shape:
                raise ValueError(f"parameter {name} has shape {have}, {cfg.variant} wants {shape}")
            self.store.add(name, arrays[name])
        if extra := sorted(arrays.keys() - set(self.store.names())):
            raise ValueError(f"{cfg.variant} declares no parameter {', '.join(extra)}")

    # -- construction ------------------------------------------------------

    def params(self):
        """(name, shape, init) of each parameter in draw order: codes, encoder, decoder."""
        if self.encoder.rank > 0:
            yield "codes", (self.cfg.n_knots, self.encoder.rank), enc.normal(CODE_INIT_STD)
        yield from self.encoder.params()
        dims = self._decoder_dims
        for i, (ci, co) in enumerate(zip(dims[:-1], dims[1:])):
            # a zero last layer starts optimization from the identity deformation
            last = i == len(dims) - 2
            yield f"dec.l{i}.W", (ci, co), None if last else enc.uniform(np.sqrt(6.0 / ci))
            yield f"dec.l{i}.b", (co,), None

    def _decode(self, tape, h: Var) -> Var:
        for i in range(len(self._decoder_dims) - 1):
            h = ad.forward_linear(ad.relu(h) if i else h, self.store.var(f"dec.l{i}.W", tape),
                                  self.store.var(f"dec.l{i}.b", tape))
        return h

    # -- queries -----------------------------------------------------------

    def normalize(self, points: np.ndarray) -> np.ndarray:
        """Query points mapped to the encoders' [-1, 1] box; every query of
        every variant passes here, so points that are not [N, 3], or a NaN or
        inf point, raise ValueError."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"query points must be [N, 3], got shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("query points must be finite")
        return (points - self.center) / self.half_extent

    def predict_knot(self, tape: Tape | None, spatial, knot_idx: int,
                     memo: dict | None = None) -> tuple:
        """The decoder's output at one knot: (offset, tangent) of shape [B, 3],
        and the curvature as a third for a quintic field, from the encoder's
        `spatial` of the B points and the knot's `memo` (see `knot_states`);
        Vars on a tape, else arrays, each a copy, not a view of the output."""
        if self.cfg.variant == "coupled4d-baseline":
            raise ValueError("the coupled-4D baseline has no knot states")
        if not (0 <= knot_idx < self.cfg.n_knots):
            raise ValueError(f"knot index {knot_idx} out of range [0, {self.cfg.n_knots})")
        v_t = ad.take(self.store.var("codes", tape), np.array(knot_idx))
        out = self._decode(tape, self.encoder.encode(tape, self.store, spatial, v_t, memo))
        return tuple(ad.take(out, np.s_[:, j:j + 3]) for j in range(0, self.out_channels, 3))

    def knot_states(self, tape: Tape | None, points, knots, states: dict | None = None) -> dict:
        """`states` (a new dict if None), knot index -> (position, tangent[,
        curvature]) on `points`, with each of the distinct `knots` it lacks
        predicted in the order listed, per block of `_blocks`, from an encoder
        `spatial` of the block made for that many knots, with one memo per
        knot over the blocks. It is the one place that adds the points to
        `predict_knot`'s offset. The coupled-4D baseline predicts none."""
        states = {} if states is None else states
        todo = [k for k in dict.fromkeys(knots) if k not in states]
        if not todo or self.cfg.variant == "coupled4d-baseline":
            return states
        x_norm, blocks = self.normalize(points), _blocks(len(points))
        parts, memos = {k: [] for k in todo}, {k: {} for k in todo}
        for rows in blocks:
            spatial = self.encoder.spatial(tape, self.store, x_norm, len(todo), rows)
            for k in todo:      # a knot's last block drops its memo, freeing its grids
                memo = memos.pop(k) if rows is blocks[-1] else memos[k]
                parts[k].append(self.predict_knot(tape, spatial, k, memo))
        for k in todo:
            offset, *rest = map(_joined, zip(*parts.pop(k)))
            states[k] = (ad.add(offset, np.asarray(points, dtype=np.float64)), *rest)
        return states

    def derivative_var(self, tape, points, t_query, order: int,
                       states: dict | None = None) -> Var:
        """Order-th time derivative (0, 1 or 2) at t_query, a Var on a tape, an
        array with tape None: the Hermite (or quintic) basis of that order on
        the two knots around it, in t-bar units, read from (and predicted into)
        `states`, the knot states of `points`. The coupled-4D baseline takes
        finite differences in t (see the module docstring)."""
        start, t_bar = spline.locate_segment(t_query, self.cfg.n_knots)   # validates t_query
        if self.cfg.variant == "coupled4d-baseline":
            return self._coupled_var(tape, points, t_query, order)
        states = self.knot_states(tape, points, (start, start + 1), states)
        return spline.segment_derivative((*states[start], *states[start + 1]), t_bar, order)

    def _coupled_var(self, tape, points, t, order: int) -> Var:
        if order == 0:
            x_norm = self.normalize(points)
            offset = _joined([self._decode(tape, self.encoder.encode(
                tape, self.store, enc.xyzt(x_norm[rows], t), None))
                for rows in _blocks(len(points))])
            return ad.add(offset, np.asarray(points, dtype=np.float64))
        if order == 1:
            lo, hi = max(t - _FD_T_EPS, 0.0), min(t + _FD_T_EPS, 1.0)
            a, b = (self._coupled_var(tape, points, s, 0) for s in (hi, lo))
            return ad.mul(ad.add(a, ad.mul(b, -1.0)), 1.0 / (hi - lo))
        eps = 10.0 * _FD_T_EPS
        tq = min(max(t, eps), 1.0 - eps)
        a, b, c = (self._coupled_var(tape, points, s, 0) for s in (tq + eps, tq, tq - eps))
        return ad.mul(ad.add(ad.add(a, c), ad.mul(b, -2.0)), 1.0 / eps ** 2)

    def deform_var(self, tape, points, t_query, states=None) -> Var:
        """Differentiable deformation of `points` to time t_query."""
        return self.derivative_var(tape, points, t_query, 0, states)

    def velocity_var(self, tape, points, t_query, physical: bool = False,
                     states=None) -> Var:
        """Differentiable velocity at t_query (t-bar units by default; the
        coupled baseline's is always per unit of global time)."""
        v = self.derivative_var(tape, points, t_query, 1, states)
        if physical and self.cfg.variant != "coupled4d-baseline":
            v = ad.mul(v, float(self.cfg.n_knots - 1))
        return v

    def acceleration_var(self, tape, points, t_query, states=None) -> Var:
        """Differentiable acceleration at t_query (t-bar units)."""
        return self.derivative_var(tape, points, t_query, 2, states)

    def _states(self, points, times) -> dict:
        """The array states of every knot `times` read: the loaded field's
        canonical dict when `points` equal (shape and values) its canonical
        points, else a new one."""
        states = self._canonical_states
        if states is None or not (points is self.canonical or np.array_equal(points, self.canonical)):
            states = {}
        return self.knot_states(None, points, spline.segment_knots(times, self.cfg.n_knots), states)

    def _query(self, var_fn, points, t_query, **kw) -> np.ndarray:
        """var_fn's values at a 1-D sequence of times, filled into one [T, N,
        3] array, or at one time unstacked, with no copy."""
        times = _times("t_query", t_query)
        states = self._states(points, times.reshape(-1))
        if not times.ndim:
            return var_fn(None, points, float(times), states=states, **kw)
        out = np.empty((times.size, *np.shape(points)))
        for i, t in enumerate(times):
            out[i] = var_fn(None, points, float(t), states=states, **kw)
        return out

    def deform(self, points, t_query) -> np.ndarray:
        """Positions at t_query: [N, 3] for a scalar, [T, N, 3] for a 1-D sequence.

        Like velocity and acceleration, it runs on arrays and predicts
        each knot it needs once per call, whatever the number of times, or
        once per loaded field on its canonical points."""
        return self._query(self.deform_var, points, t_query)

    def deform_frames(self, points, times):
        """`deform` at each of `times` (a number or a 1-D sequence), one [N, 3]
        frame at a time from a generator that keeps none of them. The call
        predicts every knot the times read, as a multi-time `deform` does."""
        times = _times("times", times).reshape(-1)
        states = self._states(points, times)
        return (self.deform_var(None, points, float(t), states=states) for t in times)

    def velocity(self, points, t_query, physical: bool = False) -> np.ndarray:
        return self._query(self.velocity_var, points, t_query, physical=physical)

    def acceleration(self, points, t_query) -> np.ndarray:
        return self._query(self.acceleration_var, points, t_query)

    def advect(self, points, from_t: float, dt: float) -> np.ndarray:
        """deform(points, from_t) + physical velocity * dt."""
        from_t = float(_times("from_t", from_t, scalar=True))
        dt = float(_times("dt", dt, scalar=True))
        if not (0.0 <= from_t <= 1.0):
            raise ValueError(f"from_t must be in [0, 1], got {from_t}")
        if not (np.isfinite(dt) and dt >= 0):
            raise ValueError(f"dt must be finite and >= 0, got {dt}")

        def moved(tape, pts, t, states):
            vel = self.velocity_var(tape, pts, t, physical=True, states=states)
            return ad.add(self.deform_var(tape, pts, t, states), ad.mul(vel, dt))
        return self._query(moved, points, from_t)

    # -- checkpoints --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "config": asdict(self.cfg),
            "center": self.center.tolist(),
            "half_extent": self.half_extent,
        }
        arrays = {name: self.store.value(name) for name in self.store.names()}
        arrays["__canonical__"] = self.canonical
        dataio.write_checkpoint(path, arrays, header)

    @classmethod
    def load(cls, path) -> "SplineField":
        """Read a checkpoint into a read-only field that keeps its canonical
        knot states (see the module docstring); a header that lacks a config
        key, or a header, canonical point set or parameter set that does not
        make a field, raises FormatError."""
        arrays, header = dataio.read_checkpoint(path)
        try:
            cfg_d = dict(header["config"])
            if missing := [f.name for f in fields(FieldConfig) if f.name not in cfg_d]:
                raise ValueError(f"header config has no {', '.join(missing)}")
            canonical = arrays.pop("__canonical__")
            fld = cls(FieldConfig(**cfg_d), canonical, arrays=arrays,
                      normalizer=(header["center"], header["half_extent"]))
        except (KeyError, TypeError, ValueError) as e:
            raise dataio.FormatError(f"malformed checkpoint {path}: {e}") from None
        for a in (fld.canonical, fld.center, *map(fld.store.value, fld.store.names())):
            a.flags.writeable = False
        fld._canonical_states = {}
        return fld
