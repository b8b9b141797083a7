"""A seeded fuzz gate for the two file readers and the config entry points.

Each mutation of the committed checkpoint `data/triplanes_small.ckpt`, or
of a small trajectory written here, must either load and query finite
values or raise FormatError: no other exception and no warning of any
kind. A trajectory that loads must hold f32 positions, and split and score
its frames against frame 0 as fit and eval do, in float64: a position near
the f32 maximum, tried here, overflows any consumer that computes in f32.
The mutations are bit flips anywhere, bit flips in the header and
framing, truncations, and for the checkpoint JSON header values of the
wrong type or range and missing or extra keys. Random cases are drawn from
default_rng(SEED), so every run tries the same files; the small families
(header values, header bits, trajectory truncations) are tried whole.

Each key of FieldConfig, TrainConfig and SplitSpec takes each value of one
pool (CONFIG_VALUES) through its constructor; the field keys also through a
checkpoint header, and the string values through `parse_config`. Each case
must build a config whose field saves and reloads to an equal config (a
SplitSpec: one that splits a trajectory), or raise ValueError naming the
key (FormatError from a header); a TypeError, or any other error, fails.
Pairs of keys are drawn from default_rng(SEED + 4).
"""

import copy
import dataclasses
import json
import math
import os
import re
import struct
import warnings

import numpy as np
import pytest

from splinefield import dataio, metrics
from splinefield.dataio import FormatError, SplitSpec, parse_config
from splinefield.field import FieldConfig, SplineField
from splinefield.trainer import TrainConfig

SEED = 20260
CKPT = os.path.join(os.path.dirname(__file__), "data", "triplanes_small.ckpt")
# JSON values of the wrong type, or of a type a key takes but out of its range
VALUES = [None, True, False, "", "x", "triplanes", [], [1], [4, 8], [2.5], {}, {"a": 1},
          -1, 0, 1, 2, 10 ** 9, 10 ** 400, -2.5, 1e-310, 1e300, -1e300, float("nan"), float("inf")]
# config values of every kind a caller might pass, for every key
CONFIG_VALUES = [None, "", b"1", True, np.int64(3), np.float64(0.5), np.bool_(True), 1e400,
                 10 ** 400, float("nan"), -1, 0, [], (1.5,), "16,32", object(), "3", 7, 0.5]
# a small base, so that every field a case builds is quick to make and save
SMALL = {FieldConfig: dict(hidden=8, grid_levels=(4, 8)),
         TrainConfig: dict(hidden=8, grid_levels=(4, 8)), SplitSpec: {}}


def _load_and_query(path) -> None:
    fld = SplineField.load(path)
    outs = (fld.deform(fld.canonical, [0.0, 0.45, 1.0]), fld.velocity(fld.canonical, 0.3),
            fld.acceleration(fld.canonical, 0.7), fld.advect(fld.canonical, 1.0, 0.5))
    assert all(np.isfinite(out).all() for out in outs)


def _read_traj(path) -> None:
    traj = dataio.read_traj(path)
    assert traj.positions.dtype == np.float32 and np.isfinite(traj.positions).all()
    dataio.split_frames(traj, dataio.SplitSpec())
    for frame in traj.positions:
        assert np.isfinite(metrics.epe(frame, traj.positions[0], 1.0))


def _outcomes(read, path, cases) -> dict:
    """Write each (label, bytes) of `cases` to path and read it: the labels
    that loaded and those refused with FormatError; anything else fails,
    naming the case."""
    seen = {"loaded": [], "refused": []}
    for label, blob in cases:
        with open(path, "wb") as f:
            f.write(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read(path)
            except FormatError:
                seen["refused"].append(label)
                continue
            except Exception as e:
                pytest.fail(f"{label}: {type(e).__name__}: {e}")
        seen["loaded"].append(label)
    return seen


def _flips(rng, blob: bytes, offsets, count: int, label: str):
    """`count` copies of blob, each with one to three bits flipped at
    offsets drawn from `offsets`."""
    for i in range(count):
        out = bytearray(blob)
        for off in rng.choice(offsets, size=rng.integers(1, 4)):
            out[off] ^= 1 << int(rng.integers(8))
        yield f"{label} {i}", bytes(out)


def _ckpt_framing(blob: bytes) -> np.ndarray:
    """The byte offsets of the checkpoint's magic, version, header and
    section framing: every byte but the f32 payloads."""
    (hlen,) = struct.unpack_from("<I", blob, 12)
    off = 16 + hlen + 4
    spans = [range(off)]
    for _ in range(struct.unpack_from("<I", blob, off - 4)[0]):
        (nlen,) = struct.unpack_from("<H", blob, off)
        rank = blob[off + 2 + nlen]
        dims = struct.unpack_from(f"<{rank}I", blob, off + 3 + nlen)
        end = off + 3 + nlen + 4 * rank
        spans.append(range(off, end))
        off = end + 4 * math.prod(dims)
    assert off == len(blob)
    return np.concatenate([np.arange(r.start, r.stop) for r in spans])


def _with_header(blob: bytes, header: dict) -> bytes:
    (hlen,) = struct.unpack_from("<I", blob, 12)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + hlen:]


def _header_cases(blob: bytes):
    """Each config key, center and half_extent set to each of VALUES; each
    key dropped; an extra key in the config and in the header."""
    (hlen,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16:16 + hlen])

    def edited(where, key, *value):
        h = copy.deepcopy(header)
        keys = h[where] if where else h
        if value:
            keys[key] = value[0]
        else:
            del keys[key]
        return _with_header(blob, h)

    for where, key in [("config", k) for k in header["config"]] + [(None, k) for k in header]:
        name = f"{where}.{key}" if where else key
        for value in VALUES:
            yield f"{name} = {value!r}", edited(where, key, value)
        yield f"no {name}", edited(where, key)
    for where in ("config", None):
        yield f"extra key in {where or 'header'}", edited(where, "extra", 1)


def _committed() -> bytes:
    with open(CKPT, "rb") as f:
        return f.read()


class TestCheckpointFuzz:
    def test_bit_flips_anywhere(self, tmp_path):
        blob, rng = _committed(), np.random.default_rng(SEED)
        seen = _outcomes(_load_and_query, tmp_path / "f.ckpt",
                         _flips(rng, blob, np.arange(len(blob)), 300, "flip"))
        assert seen["loaded"] and seen["refused"]

    def test_bit_flips_in_the_header_and_framing(self, tmp_path):
        blob, rng = _committed(), np.random.default_rng(SEED + 1)
        seen = _outcomes(_load_and_query, tmp_path / "f.ckpt",
                         _flips(rng, blob, _ckpt_framing(blob), 300, "framing flip"))
        assert seen["refused"]

    def test_truncations(self, tmp_path):
        blob, rng = _committed(), np.random.default_rng(SEED + 2)
        cases = ((f"first {n} bytes", blob[:n]) for n in rng.integers(0, len(blob), 200))
        seen = _outcomes(_load_and_query, tmp_path / "f.ckpt", cases)
        assert not seen["loaded"]

    def test_header_values_and_keys(self, tmp_path):
        seen = _outcomes(_load_and_query, tmp_path / "f.ckpt", _header_cases(_committed()))
        # an unread header key is ignored; a header without a config is refused
        assert "extra key in header" in seen["loaded"] and "no config" in seen["refused"]
        # so is a normalizer that is not numbers, a bool or a string among them
        for key in ("center", "half_extent"):
            for value in VALUES:
                if not dataio.is_number(value):
                    assert f"{key} = {value!r}" in seen["refused"]


class TestTrajectoryFuzz:
    @pytest.fixture
    def blob(self, tmp_path) -> bytes:
        path = tmp_path / "t.traj"
        dataio.write_traj(path, dataio.gen_synthetic("composite", 7, 5, seed=0))
        return path.read_bytes()

    def test_bit_flips_anywhere(self, tmp_path, blob):
        rng = np.random.default_rng(SEED + 3)
        seen = _outcomes(_read_traj, tmp_path / "f.traj",
                         _flips(rng, blob, np.arange(len(blob)), 300, "flip"))
        assert seen["loaded"] and seen["refused"]

    def test_every_bit_of_the_header(self, tmp_path, blob):
        cases = ((f"bit {b} of byte {i}", blob[:i] + bytes([blob[i] ^ 1 << b]) + blob[i + 1:])
                 for i in range(16) for b in range(8))
        seen = _outcomes(_read_traj, tmp_path / "f.traj", cases)
        assert not seen["loaded"]

    def test_positions_near_the_float32_maximum(self, tmp_path, blob):
        top = np.finfo(np.float32).max
        # one coordinate of a point at +-max in frame 0 and -+max in a later
        # frame: their difference, and its square, lie past f32
        cases = []
        for frame, point, axis in [(1, 0, 0), (2, 6, 2), (4, 3, 1)]:
            for sign in (1.0, -1.0):
                pos = np.frombuffer(blob, "<f4", offset=16).reshape(5, 7, 3).copy()
                pos[0, point, axis], pos[frame, point, axis] = sign * top, -sign * top
                cases.append((f"{sign:+} max at point {point}, frame {frame}",
                              blob[:16] + pos.tobytes()))
        seen = _outcomes(_read_traj, tmp_path / "f.traj", cases)
        assert len(seen["loaded"]) == len(cases)

    def test_every_truncation(self, tmp_path, blob):
        cases = ((f"first {n} bytes", blob[:n]) for n in range(len(blob)))
        assert not _outcomes(_read_traj, tmp_path / "f.traj", cases)["loaded"]


def _keys(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def _saves_and_reloads(cfg, path) -> None:
    """A built config's field saves and reloads to an equal config; a
    SplitSpec splits a 30-frame trajectory."""
    if isinstance(cfg, SplitSpec):
        dataio.split_frames(dataio.gen_synthetic("composite", 8, 30, seed=0), cfg)
        return
    fc = cfg.field_config(4) if isinstance(cfg, TrainConfig) else cfg
    SplineField(fc, np.random.default_rng(SEED).uniform(-1.0, 1.0, (6, 3))).save(path)
    assert SplineField.load(path).cfg == fc


def _built_or_named(make, keys, path, label: str) -> str:
    """Run make(): "built" if the config it makes saves and reloads,
    "refused" if it raises a ValueError that names one of `keys`; any other
    outcome, a warning too, fails, naming the case."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = make()
        except ValueError as e:
            if not re.match(rf"({'|'.join(keys)}) must be ", str(e)):
                pytest.fail(f"{label}: the ValueError names no key of {keys}: {e}")
            return "refused"
        except Exception as e:
            pytest.fail(f"{label}: {type(e).__name__}: {e}")
        try:
            _saves_and_reloads(cfg, path)
        except Exception as e:
            pytest.fail(f"{label}: built, but {type(e).__name__}: {e}")
    return "built"


class TestConfigFuzz:
    @pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.__name__)
    def test_each_key_takes_each_value(self, tmp_path, cls):
        seen = [_built_or_named(lambda: cls(**{**SMALL[cls], key: value}), [key],
                                tmp_path / "f.ckpt", f"{cls.__name__}({key}={value!r})")
                for key in _keys(cls) for value in CONFIG_VALUES]
        assert {"built", "refused"} == set(seen)

    def test_seeded_pairs_of_keys(self, tmp_path):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(200):
            cls = list(SMALL)[rng.integers(len(SMALL))]
            keys = [str(k) for k in rng.choice(_keys(cls), 2, replace=False)]
            values = [CONFIG_VALUES[i] for i in rng.integers(len(CONFIG_VALUES), size=2)]
            kw = dict(zip(keys, values))
            _built_or_named(lambda: cls(**{**SMALL[cls], **kw}), keys, tmp_path / "f.ckpt",
                            f"{cls.__name__}(**{kw!r})")

    @pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.__name__)
    def test_string_values_through_parse_config(self, tmp_path, cls):
        for key in _keys(cls):
            for value in [v for v in CONFIG_VALUES if isinstance(v, str)]:
                _built_or_named(lambda: parse_config(cls, [f"{key}={value}"], cls(**SMALL[cls])),
                                [key], tmp_path / "f.ckpt", f"{cls.__name__} --set {key}={value}")

    def test_field_keys_through_a_checkpoint_header(self, tmp_path):
        # a header value loads to the config the constructor builds from it,
        # or is refused with the constructor's message; a valid config whose
        # parameters the file does not hold is refused naming a parameter
        path = tmp_path / "f.ckpt"
        base = FieldConfig(**SMALL[FieldConfig])
        SplineField(base, np.random.default_rng(SEED).uniform(-1.0, 1.0, (6, 3))).save(path)
        blob = path.read_bytes()
        header = json.loads(blob[16:16 + struct.unpack_from("<I", blob, 12)[0]])
        seen = set()
        for key in _keys(FieldConfig):
            for value in CONFIG_VALUES:
                try:
                    value = json.loads(json.dumps(value.item() if isinstance(value, np.generic)
                                                  else value))
                except TypeError:
                    continue        # bytes and objects have no JSON form
                try:
                    want = FieldConfig(**{**dataclasses.asdict(base), key: value})
                except ValueError as e:
                    want = e
                path.write_bytes(_with_header(blob, {**header, "config": {
                    **header["config"], key: value}}))
                label = f"header {key} = {value!r}"
                try:
                    got = SplineField.load(path).cfg
                except FormatError as e:
                    assert (str(want) in str(e) if isinstance(want, ValueError)
                            else "parameter" in str(e)), f"{label}: {e}"
                    seen.add("refused")
                except Exception as e:
                    pytest.fail(f"{label}: {type(e).__name__}: {e}")
                else:
                    assert got == want, label
                    seen.add("loaded")
        assert seen == {"loaded", "refused"}
