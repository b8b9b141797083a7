"""Trajectory container, frame splits, synthetic scenes, file formats, and the
config type rule: `parse_config` parses, and `check_config` checks values and
stores them as Python types (numpy bools, ints and floats are taken alike).

Trajectory files use a small binary layout: an 8-byte magic "SDFTRAJ1",
a u32 frame count T, a u32 point count N_p, then T*N_p*3 little-endian
f32 positions ordered frame-major. Total size is 16 + 4*T*N_p*3 bytes.
Checkpoints (magic "SDFCKPT1") hold named f32 arrays and a JSON header;
`write_checkpoint` documents the layout. Both readers return the f32 values,
which their consumers convert exactly to float64 before computing, and check
them finite with no cast: a cast warns on a signaling NaN.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import struct
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

TRAJ_MAGIC = b"SDFTRAJ1"
CKPT_MAGIC = b"SDFCKPT1"
CKPT_VERSION = 1

SYNTHETIC_KINDS = ("rigid-translate", "rotate", "bending-sheet",
                   "swing-arm", "composite")

__all__ = ["FormatError", "is_int", "is_number", "check_config", "parse_config", "TrajectorySet",
           "SplitSpec", "Split", "split_frames", "gen_synthetic", "write_traj", "read_traj",
           "write_checkpoint", "read_checkpoint", "export_ply", "flow_colors"]


class FormatError(Exception):
    """Malformed checkpoint or trajectory file."""


def is_int(v) -> bool:
    """The type test of an int config key: an integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """The type test of a float config key: a real number, not a bool, that
    float() takes: an integer of magnitude 2**1024 - 2**970 or more rounds past float64."""
    if is_int(v):
        return abs(int(v)) < 2 ** 1024 - 2 ** 970
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


_BOOLS = dict(zip(("1", "true", "yes", "on", "0", "false", "no", "off"), [True] * 4 + [False] * 4))
# a config key's type, by the type of its default: (test, requirement, parse of
# a string, the plain Python value of a value that passed the test)
_TYPES = {int: (is_int, "an integer", int, int), float: (is_number, "a number", float, float),
          bool: (lambda v: isinstance(v, (bool, np.bool_)), "a bool",
                 lambda s: _BOOLS[s.lower()], bool),
          tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)), "integers",
                  lambda s: tuple(map(int, s.split(","))), lambda v: tuple(map(int, v))),
          str: (lambda v: isinstance(v, str), "a string", str, str)}


def check_config(config, checks) -> None:
    """Raise ValueError "<key> must be <requirement>, got <value>" at the first
    failed check of the dataclass `config`: first each key's type, read from
    its default, then `checks`, (key, ok, requirement) triples made lazily, so
    that each may assume the types. A value that passes its type test is stored
    as its default's Python type, so the config is plain JSON."""
    def typed(f):
        test, want, _, plain = _TYPES[type(f.default)]
        if ok := test(value := getattr(config, f.name)):
            object.__setattr__(config, f.name, plain(value))    # frozen ones too
        return f.name, ok, want
    for name, ok, want in itertools.chain(map(typed, fields(config)), checks):
        if not ok:
            raise ValueError(f"{name} must be {want}, got {getattr(config, name)!r}")


def parse_config(cls, pairs, base=None):
    """cls(**values): base's (cls()'s if None), each "key=value" of `pairs` parsed
    by its key's type as an int, a float, a comma list of ints, a string or a bool
    (1/true/yes/on or 0/false/no/off, in any case). A value that does not parse
    raises ValueError "<key> must be <requirement>, got <raw>"; cls checks the rest."""
    types = {f.name: _TYPES[type(f.default)] for f in fields(cls)}
    values = asdict(base or cls())
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {pair!r}")
        if key not in types:
            raise ValueError(f"unknown config key {key!r}; valid keys: {', '.join(types)}")
        try:
            values[key] = types[key][2](raw)
        except (KeyError, ValueError):
            raise ValueError(f"{key} must be {types[key][1]}, got {raw!r}") from None
    return cls(**values)


def _finite(a: np.ndarray) -> bool:
    """Whether a is all finite, by its min and max: no temporary, no f32 cast."""
    return not a.size or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _check_finite(p: np.ndarray, first_frame: int = 0) -> None:
    """Raise ValueError naming the first point of the [T, N_p, 3] positions p
    (frame 0 of p being frame `first_frame`) that is not finite."""
    if not _finite(p):
        frame, point = np.argwhere(~np.isfinite(p).all(axis=2))[0]
        raise ValueError(f"non-finite position at frame {first_frame + frame}, point {point}")


@dataclass(frozen=True)
class TrajectorySet:
    """Dense point trajectories, positions[t, i] is point i at frame t."""
    positions: np.ndarray   # [T, N_p, 3] float32 or float64, kept as given; else float64

    def __post_init__(self):
        p = np.asarray(self.positions)
        p = p if p.dtype in (np.float32, np.float64) else p.astype(np.float64)
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1:
            raise ValueError(f"positions must be [T, N_p, 3], got {p.shape}")
        if p.shape[1] < 1:
            raise ValueError(f"need at least one point per frame, got N_p={p.shape[1]}")
        _check_finite(p)
        object.__setattr__(self, "positions", p)

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def n_points(self) -> int:
        return self.positions.shape[1]

    def frame_time(self, t: int) -> float:
        """Normalized time of frame t, frame 0 at 0.0 and the last at 1.0."""
        if self.n_frames == 1:
            return 0.0
        return t / (self.n_frames - 1)


@dataclass(frozen=True)
class SplitSpec:
    stride: int = 4
    supervised_fraction: float = 0.25

    def __post_init__(self):
        check_config(self, self._checks())

    def _checks(self):
        yield "stride", self.stride >= 1, ">= 1"
        yield "supervised_fraction", 0.0 < self.supervised_fraction <= 1.0, "in (0, 1]"


@dataclass(frozen=True)
class Split:
    train_frames: tuple     # sorted frame ids used for supervision
    test_frames: tuple      # held-out frame ids
    supervised: np.ndarray  # point ids with ground truth available


def _check_ints(*checks) -> None:
    """Raise ValueError "<name> must be an integer, got ..." or "<name> must be
    >= <least>, got ..." at the first failed (name, value, least) of `checks`."""
    for name, value, least in checks:
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def split_frames(traj: TrajectorySet, spec: SplitSpec, seed: int = 0) -> Split:
    """Every stride-th frame trains; the rest are held out. A random subset
    of points, drawn with `seed` (an integer >= 0), is supervised."""
    _check_ints(("seed", seed, 0))
    if spec.stride == 1:
        warnings.warn("stride=1 leaves no held-out frames", stacklevel=2)
    train = tuple(range(0, traj.n_frames, spec.stride))
    if len(train) < 2:
        raise ValueError(
            f"split needs at least 2 training frames, got {len(train)} "
            f"(T={traj.n_frames}, stride={spec.stride})")
    test = tuple(sorted(set(range(traj.n_frames)).difference(train)))
    rng = np.random.default_rng(seed)
    n_sup = max(1, int(round(spec.supervised_fraction * traj.n_points)))
    supervised = np.sort(rng.choice(traj.n_points, size=n_sup, replace=False))
    return Split(train_frames=train, test_frames=test, supervised=supervised)


def gen_synthetic(kind: str, n_points: int, n_frames: int,
                  seed: int = 0) -> TrajectorySet:
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}, choose from {SYNTHETIC_KINDS}")
    _check_ints(("n_points", n_points, 1), ("n_frames", n_frames, 2), ("seed", seed, 0))
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n_frames)

    if kind == "bending-sheet":
        side = int(np.ceil(np.sqrt(n_points)))
        gx, gy = np.meshgrid(np.linspace(-1, 1, side), np.linspace(-1, 1, side))
        base = np.stack([gx.ravel(), gy.ravel()], axis=1)[:n_points]
        base = base + rng.normal(0.0, 0.02, size=base.shape)
        # one-signed bend profile: the whole sheet lifts together, more near
        # one edge, so ground-truth motion stays spatially coherent
        profile = 0.5 + 0.5 * np.sin(0.5 * np.pi * (base[:, 0] + 1.0))
        frames = []
        for t in ts:
            z = 0.35 * profile * np.sin(np.pi * t)
            frames.append(np.column_stack([base[:, 0], base[:, 1], z]))
        return TrajectorySet(np.stack(frames))

    pts = rng.uniform(-1.0, 1.0, size=(n_points, 3))

    if kind == "rigid-translate":
        direction = np.array([0.6, -0.3, 0.45])
        frames = [pts + t * direction for t in ts]
    elif kind == "rotate":
        frames = []
        for t in ts:
            a = 0.5 * np.pi * t
            rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                            [np.sin(a), np.cos(a), 0.0],
                            [0.0, 0.0, 1.0]])
            frames.append(pts @ rot.T)
    elif kind == "swing-arm":
        # points along an arm hinged at the origin, swinging in the xz plane
        pts = np.column_stack([rng.uniform(0.1, 1.0, n_points),
                               rng.normal(0.0, 0.05, n_points),
                               rng.normal(0.0, 0.05, n_points)])
        frames = []
        for t in ts:
            a = 0.6 * np.sin(2.0 * np.pi * t)
            rot = np.array([[np.cos(a), 0.0, np.sin(a)],
                            [0.0, 1.0, 0.0],
                            [-np.sin(a), 0.0, np.cos(a)]])
            frames.append(pts @ rot.T)
    else:   # composite: translation plus a per-point sinusoidal wobble
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_points, 1))
        direction = np.array([0.4, 0.2, -0.3])
        frames = []
        for t in ts:
            wobble = 0.1 * np.sin(2.0 * np.pi * t + phase)
            frames.append(pts + t * direction + wobble * np.array([0.0, 0.0, 1.0]))
    return TrajectorySet(np.stack(frames))


def write_traj(path, traj) -> None:
    """Write a TrajectorySet, or an iterable of [N_p, 3] frames, as f32 a
    frame at a time into `path` + ".part", renamed to path once whole. A
    frame not shaped like the first, or a position not finite in f32 (which
    `read_traj` refuses), raises ValueError naming the frame; path is untouched."""
    part, shape = f"{path}.part", None
    try:
        with open(part, "wb") as f:
            f.write(TRAJ_MAGIC + bytes(8))      # T and N_p, once counted
            for t, frame in enumerate(getattr(traj, "positions", traj)):
                with np.errstate(over="ignore"):    # an overflow to inf is refused below
                    data = np.ascontiguousarray(frame, dtype="<f4")
                shape = shape or data.shape
                if data.shape != shape or shape[1:] != (3,) or not shape[0]:
                    raise ValueError(f"frame {t} must be [N_p, 3] like frame 0, got {data.shape}")
                _check_finite(data[None], t)
                f.write(data)
            if shape is None:
                raise ValueError("no frames to write")
            f.seek(8)
            f.write(struct.pack("<II", t + 1, shape[0]))
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def read_traj(path) -> TrajectorySet:
    """Read a trajectory file's payload in one call into an f32 TrajectorySet;
    a wrong size or magic, or a non-finite position, raises FormatError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 16:
            raise FormatError(f"file truncated at byte {size}: header needs 16 bytes")
        head = f.read(16)
        if head[:8] != TRAJ_MAGIC:
            raise FormatError(f"bad magic at byte 0: {head[:8]!r}")
        n_frames, n_points = struct.unpack_from("<II", head, 8)
        expect = 16 + 4 * n_frames * n_points * 3
        if size != expect:
            raise FormatError(
                f"payload size mismatch at byte 16: have {size} bytes, "
                f"expected {expect} for T={n_frames}, N_p={n_points}")
        pos = np.empty((n_frames, n_points, 3), dtype="<f4")
        if f.readinto(pos) != pos.nbytes:
            raise FormatError(f"file truncated at byte {f.tell()}")
    try:
        return TrajectorySet(pos)
    except ValueError as e:
        raise FormatError(f"bad trajectory payload at byte 16: {e}") from None


def write_checkpoint(path, arrays: dict, header: dict | None = None) -> None:
    """Write named float arrays plus an optional JSON header.

    Layout: magic 'SDFCKPT1', u32 version, u32 header length, UTF-8 JSON
    header, u32 section count, then per section: u16 name length, name,
    u8 shape rank, u32 dims, f32 payload (row-major). Little-endian.
    An array that is not finite in f32 raises ValueError naming it before
    the file is opened, since `read_checkpoint` would refuse it.
    """
    hdr = json.dumps(header or {}, sort_keys=True).encode("utf-8")
    with np.errstate(over="ignore"):    # an overflow to inf is refused below
        f32 = {name: np.ascontiguousarray(arrays[name], dtype=np.float32)
               for name in sorted(arrays)}
    for name, arr in f32.items():
        if not _finite(arr):
            raise ValueError(f"array {name!r} is not finite in float32")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(hdr)) + hdr)
        f.write(struct.pack("<I", len(f32)))
        for name, arr in f32.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)) + nb)
            f.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            f.write(arr)


def read_checkpoint(path):
    """Read a checkpoint file; returns (arrays, header), the arrays read-only
    f32 views of its bytes. A non-finite value, a repeated array name or bytes
    after the last section raise FormatError naming the array or byte offset."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != CKPT_MAGIC:
        raise FormatError(f"bad magic at byte 0: {data[:8]!r}")
    off = 8
    try:
        version, hlen = struct.unpack_from("<II", data, off)
        off += 8
        if version != CKPT_VERSION:
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
            if name in arrays:
                raise FormatError(f"repeated array {name!r} at byte {off}")
            off += nlen
            (rank,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            n = math.prod(shape)
            if off + 4 * n > len(data):
                raise FormatError(f"truncated payload for {name!r} at byte {off}")
            arrays[name] = np.frombuffer(data, "<f4", n, off).reshape(shape)
            if not _finite(arrays[name]):
                raise FormatError(f"non-finite value in array {name!r} at byte {off}")
            off += 4 * n
    except struct.error as e:
        raise FormatError(f"truncated file at byte {off}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"malformed header or array name at byte {off}: {e}") from None
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes at byte {off}")
    return arrays, header


def export_ply(path, points: np.ndarray, colors=None) -> None:
    """ASCII PLY point cloud, optionally with uchar RGB per vertex; a point not
    finite in float32, as its header declares, raises ValueError naming its row."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be [N, 3], got {points.shape}")
    with np.errstate(over="ignore"):    # an overflow to inf is refused below
        f32 = points.astype(np.float32)
    if not _finite(f32):
        bad = np.argwhere(~np.isfinite(f32).all(axis=1))[0, 0]
        raise ValueError(f"point {bad} is not finite in float32: {points[bad].tolist()}")
    lines = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
             "property float x", "property float y", "property float z"]
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != points.shape:
            raise ValueError("colors must match points shape")
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    # the body is one %-format over every value in row order, colors as ints
    table = np.empty((points.shape[0], 3 if colors is None else 6), dtype=object)
    table[:, :3] = points
    if colors is not None:
        table[:, 3:] = colors.astype(int)
    row = " ".join(["%.6f"] * 3 + ["%d"] * (table.shape[1] - 3)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n" + (row * len(table)) % tuple(table.ravel()))


def flow_colors(velocities: np.ndarray) -> np.ndarray:
    """Map velocity magnitude to RGB: zero motion is gray, fast is red."""
    v = np.linalg.norm(np.asarray(velocities, dtype=np.float64), axis=1)
    peak = v.max()
    t = v / peak if peak > 0 else np.zeros_like(v)
    r = np.clip(128 + 127 * t, 0, 255)
    gb = np.clip(128 * (1.0 - t), 0, 255)
    return np.column_stack([r, gb, gb]).astype(np.uint8)
