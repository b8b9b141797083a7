"""The spline deformation field.

Composes an encoder and a decoder MLP into per-knot states, the tuple
(offset, tangent) or, for a quintic field, (offset, tangent, curvature),
then interpolates with the Hermite segment located for the query time,
whose family the tuple's length picks. The MLP variants share one encoder
class and differ only in its feature map and activation; the plane and axis
variants share the factorized-grid class. Velocity and acceleration come
from the closed-form segment derivatives, in normalized segment-time units
unless physical scaling is requested; one evaluator,
`spline.segment_derivative`, serves all three by derivative order.
Constant-velocity advection extrapolates past the fitted interval.

The plain-array queries take one time or a 1-D sequence of times. They run
on a NoGradTape and predict each knot once per call, so T times cost one
network pass per knot instead of two per time.

The coupled-4D baseline variant bypasses the spline entirely: its MLP takes
the continuous time as a fourth input and returns the offset directly, with
velocity/acceleration obtained by central finite differences in t.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from splinefield import autodiff as ad
from splinefield import dataio
from splinefield import encoders as enc
from splinefield import spline
from splinefield.autodiff import NoGradTape, ParamStore, Tape, Var

VARIANTS = ("siren-resfields", "pe-resfields", "triplanes", "triaxes",
            "coupled4d-baseline")

_FD_T_EPS = 1e-4  # time step for the coupled baseline's FD derivatives
_GRIDS = {"triplanes": enc.TriplaneEncoder, "triaxes": enc.TriaxesEncoder}


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
        self.grid_levels = tuple(self.grid_levels)
        for name, ok, want in [
                ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
                ("n_knots", self.n_knots >= 2, ">= 2"), ("rank", self.rank >= 0, ">= 0"),
                ("w0", np.isfinite(self.w0) and self.w0 > 0, "finite and > 0"),
                ("hidden", self.hidden >= 1, ">= 1"), ("depth", self.depth >= 1, ">= 1"),
                ("grid_channels", self.grid_channels >= 1, ">= 1"),
                ("grid_levels", bool(self.grid_levels) and min(self.grid_levels) >= 2,
                 "non-empty with each level >= 2")]:
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")


class _ShapesOnly:
    """Stands in for a Generator when only parameter names and shapes matter."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    normal = uniform


class SplineField:
    """A fitted (or fittable) deformation field over canonical points."""

    def __init__(self, cfg: FieldConfig, canonical_points: np.ndarray, seed: int = 0,
                 store: ParamStore | None = None, normalizer=None):
        canonical_points = np.asarray(canonical_points, dtype=np.float64)
        if canonical_points.ndim != 2 or canonical_points.shape[1] != 3:
            raise ValueError("canonical points must be [N_p, 3]")
        if not np.all(np.isfinite(canonical_points)):
            raise ValueError("canonical points must be finite")
        self.cfg = cfg
        self.canonical = canonical_points
        if normalizer is None:
            lo = canonical_points.min(axis=0)
            hi = canonical_points.max(axis=0)
            center = 0.5 * (lo + hi)
            half = max(float(np.max(hi - lo)) * 0.5, 1e-9)
            normalizer = (center, half)
        self.center = np.asarray(normalizer[0], dtype=np.float64)
        self.half_extent = float(normalizer[1])
        if self.center.shape != (3,) or not np.all(np.isfinite(self.center)):
            raise ValueError(f"normalizer center must be 3 finite numbers, got {self.center}")
        if not (np.isfinite(self.half_extent) and self.half_extent > 0):
            raise ValueError(f"normalizer half_extent must be finite and > 0, "
                             f"got {self.half_extent}")

        # a given store must hold exactly the names and shapes the config builds
        built = ParamStore()
        rng = np.random.default_rng(seed) if store is None else _ShapesOnly()
        self.encoder = self._build_encoder(built, rng)
        self._build_decoder(built, rng)
        if store is not None:
            want = {n: built.value(n).shape for n in built.names()}
            have = {n: store.value(n).shape for n in store.names()}
            bad = [f"{n} has shape {have.get(n)}, expects {want.get(n)}"
                   for n in sorted(want.keys() | have.keys()) if want.get(n) != have.get(n)]
            if bad:
                raise ValueError(f"{cfg.variant} parameters: {'; '.join(bad)}")
        self.store = built if store is None else store

    # -- construction ------------------------------------------------------

    def _build_encoder(self, store, rng):
        c = self.cfg
        if c.variant in _GRIDS:
            return _GRIDS[c.variant](store, rng, c.n_knots, c.rank, c.grid_levels,
                                     c.grid_channels)
        features, act, rank = {
            "siren-resfields": (enc.xyz, "sine", c.rank),
            "pe-resfields": (lambda x, t: enc.positional_encode(x, c.pe_frequencies),
                             "relu", c.rank),
            "coupled4d-baseline": (enc.xyzt, "sine", 0),
        }[c.variant]
        return enc.MLPEncoder(store, rng, c.n_knots, rank, c.hidden, c.depth,
                              c.w0, features, act)

    @property
    def out_channels(self) -> int:
        if self.cfg.variant == "coupled4d-baseline":
            return 3
        return 9 if self.cfg.quintic else 6

    def _build_decoder(self, store, rng):
        feat = self.encoder.out_dim
        out = self.out_channels
        if isinstance(self.encoder, enc.TriplaneEncoder):
            # grid features go through a small two-layer MLP
            h = self.cfg.hidden
            store.add("dec.l0.W", rng.uniform(-np.sqrt(6.0 / feat), np.sqrt(6.0 / feat),
                                              (feat, h)))
            store.add("dec.l0.b", np.zeros(h))
            store.add("dec.l1.W", np.zeros((h, out)))
            store.add("dec.l1.b", np.zeros(out))
        else:
            # zero-init so optimization starts from the identity deformation
            store.add("dec.l0.W", np.zeros((feat, out)))
            store.add("dec.l0.b", np.zeros(out))

    def _decode(self, tape, feat: Var) -> Var:
        store = self.store
        h = ad.forward_linear(feat, store.var("dec.l0.W", tape), store.var("dec.l0.b", tape))
        if "dec.l1.W" in store:
            h = ad.forward_linear(ad.relu(h), store.var("dec.l1.W", tape),
                                  store.var("dec.l1.b", tape))
        return h

    # -- queries -----------------------------------------------------------

    def normalize(self, points: np.ndarray) -> np.ndarray:
        """Query points mapped to the encoders' [-1, 1] box; every query of
        every variant passes here, so a NaN or inf point raises ValueError."""
        points = np.asarray(points, dtype=np.float64)
        if not np.all(np.isfinite(points)):
            raise ValueError("query points must be finite")
        return (points - self.center) / self.half_extent

    def predict_knot(self, tape: Tape, points: np.ndarray, knot_idx: int) -> tuple:
        """The knot state at one knot: Vars (delta_x, m) of shape [B, 3], and the
        curvature a as a third for a quintic field."""
        if self.cfg.variant == "coupled4d-baseline":
            raise ValueError("the coupled-4D baseline has no knot states")
        if not (0 <= knot_idx < self.cfg.n_knots):
            raise ValueError(f"knot index {knot_idx} out of range")
        feat = self.encoder.encode(tape, self.store, self.normalize(points), knot_idx)
        out = self._decode(tape, feat)
        return tuple(out[:, j:j + 3] for j in range(0, self.out_channels, 3))

    def derivative_var(self, tape, points, t_query, order: int,
                       knot_cache=None) -> Var:
        """Differentiable order-th time derivative (0, 1 or 2) at t_query: the
        Hermite (or quintic) basis of that order on the two knots around it, in
        t-bar units. `knot_cache` maps knot index to state for one point set.
        The coupled-4D baseline differentiates by central differences."""
        start, t_bar = spline.locate_segment(t_query, self.cfg.n_knots)   # validates t_query
        if self.cfg.variant == "coupled4d-baseline":
            return self._coupled_var(tape, points, t_query, order)
        cache = {} if knot_cache is None else knot_cache
        for k in (start, start + 1):
            if k not in cache:
                cache[k] = self.predict_knot(tape, points, k)
        (dx0, *rest0), (dx1, *rest1) = cache[start], cache[start + 1]
        const = np.asarray(points, dtype=np.float64)
        ends = (ad.add(dx0, const), *rest0, ad.add(dx1, const), *rest1)
        return spline.segment_derivative(ends, t_bar, order)

    def _coupled_var(self, tape, points, t, order: int) -> Var:
        if order == 0:
            feat = self.encoder.encode(tape, self.store, self.normalize(points), None, t)
            return ad.add(self._decode(tape, feat), np.asarray(points, dtype=np.float64))
        if order == 1:
            lo, hi = max(t - _FD_T_EPS, 0.0), min(t + _FD_T_EPS, 1.0)
            a, b = (self._coupled_var(tape, points, s, 0) for s in (hi, lo))
            return ad.mul(ad.add(a, ad.mul(b, -1.0)), 1.0 / (hi - lo))
        eps = 10.0 * _FD_T_EPS
        tq = min(max(t, eps), 1.0 - eps)
        a, b, c = (self._coupled_var(tape, points, s, 0) for s in (tq + eps, tq, tq - eps))
        return ad.mul(ad.add(ad.add(a, c), ad.mul(b, -2.0)), 1.0 / eps ** 2)

    def deform_var(self, tape, points, t_query, knot_cache=None) -> Var:
        """Differentiable deformation of `points` to time t_query."""
        return self.derivative_var(tape, points, t_query, 0, knot_cache)

    def velocity_var(self, tape, points, t_query, physical: bool = False,
                     knot_cache=None) -> Var:
        """Differentiable velocity at t_query (t-bar units by default; the
        coupled baseline's is always per unit of global time)."""
        v = self.derivative_var(tape, points, t_query, 1, knot_cache)
        if physical and self.cfg.variant != "coupled4d-baseline":
            v = ad.mul(v, float(self.cfg.n_knots - 1))
        return v

    def acceleration_var(self, tape, points, t_query, knot_cache=None) -> Var:
        """Differentiable acceleration at t_query (t-bar units)."""
        return self.derivative_var(tape, points, t_query, 2, knot_cache)

    def _query(self, var_fn, points, t_query, **kw) -> np.ndarray:
        tape, cache = NoGradTape(), {}
        if np.ndim(t_query) == 0:
            return var_fn(tape, points, t_query, knot_cache=cache, **kw).value
        times = np.asarray(t_query, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError(f"t_query must be a scalar or a non-empty 1-D sequence, "
                             f"got shape {times.shape}")
        return np.stack([var_fn(tape, points, float(t), knot_cache=cache, **kw).value
                         for t in times])

    def deform(self, points, t_query) -> np.ndarray:
        """Positions at t_query: [N, 3] for a scalar, [T, N, 3] for a 1-D sequence.

        Like velocity and acceleration, it runs on a NoGradTape and predicts
        each knot it needs once per call, whatever the number of times."""
        return self._query(self.deform_var, points, t_query)

    def velocity(self, points, t_query, physical: bool = False) -> np.ndarray:
        return self._query(self.velocity_var, points, t_query, physical=physical)

    def acceleration(self, points, t_query) -> np.ndarray:
        return self._query(self.acceleration_var, points, t_query)

    def advect(self, points, from_t: float, dt: float) -> np.ndarray:
        """deform(points, from_t) + physical velocity * dt."""
        if not (0.0 <= from_t <= 1.0):
            raise ValueError(f"from_t must be in [0, 1], got {from_t}")
        if not (np.isfinite(dt) and dt >= 0):
            raise ValueError(f"dt must be finite and >= 0, got {dt}")
        tape, cache = NoGradTape(), {}
        base = self.deform_var(tape, points, from_t, knot_cache=cache).value
        vel = self.velocity_var(tape, points, from_t, physical=True, knot_cache=cache)
        return base + vel.value * dt

    # -- checkpoints --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "config": {**asdict(self.cfg), "grid_levels": list(self.cfg.grid_levels)},
            "center": self.center.tolist(),
            "half_extent": self.half_extent,
        }
        arrays = {name: self.store.value(name) for name in self.store.names()}
        arrays["__canonical__"] = self.canonical
        dataio.write_checkpoint(path, arrays, header)

    @classmethod
    def load(cls, path) -> "SplineField":
        """Read a checkpoint; a header, canonical point set or parameter set
        that does not make a field raises FormatError."""
        arrays, header = dataio.read_checkpoint(path)
        try:
            cfg_d = dict(header["config"])
            cfg_d["grid_levels"] = tuple(cfg_d["grid_levels"])
            canonical = arrays.pop("__canonical__")
            store = ParamStore()
            for name in sorted(arrays):
                store.add(name, arrays[name])
            return cls(FieldConfig(**cfg_d), canonical, store=store,
                       normalizer=(np.asarray(header["center"]), header["half_extent"]))
        except (KeyError, TypeError, ValueError) as e:
            raise dataio.FormatError(f"malformed checkpoint {path}: {e}") from None
