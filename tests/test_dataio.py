import errno
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from splinefield import dataio, metrics, trainer
from splinefield.dataio import (TRAJ_MAGIC, FormatError, SplitSpec, TrajectorySet,
                                export_ply, flow_colors, gen_synthetic,
                                read_checkpoint, read_traj, split_frames,
                                write_checkpoint, write_traj)

from ply_oracle import read_ply


class TestTrajectorySet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrajectorySet(np.zeros((4, 5)))

    def test_non_finite_positions_rejected(self):
        pos = np.zeros((4, 5, 3))
        pos[2, 3, 1] = np.nan
        with pytest.raises(ValueError, match="frame 2, point 3"):
            TrajectorySet(pos)
        pos[2, 3, 1] = np.inf
        with pytest.raises(ValueError):
            TrajectorySet(pos)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_and_float64_positions_are_kept_without_a_copy(self, dtype):
        pos = np.arange(24.0, dtype=dtype).reshape(2, 4, 3)
        assert TrajectorySet(pos).positions is pos

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_other_dtypes_become_float64(self, dtype):
        pos = np.arange(24).reshape(2, 4, 3).astype(dtype)
        traj = TrajectorySet(pos)
        assert traj.positions.dtype == np.float64
        assert np.array_equal(traj.positions, pos)

    def test_frame_time(self):
        traj = TrajectorySet(np.zeros((5, 2, 3)))
        assert traj.frame_time(0) == 0.0
        assert traj.frame_time(4) == 1.0
        assert traj.frame_time(2) == pytest.approx(0.5)


class TestGenSynthetic:
    def test_same_seed_bitwise_identical(self):
        a = gen_synthetic("bending-sheet", 100, 10, seed=3)
        b = gen_synthetic("bending-sheet", 100, 10, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_rigid_translate_motion_vectors(self):
        traj = gen_synthetic("rigid-translate", 50, 11, seed=0)
        v = np.diff(traj.positions, axis=0)
        d_total = traj.positions[-1, 0] - traj.positions[0, 0]
        np.testing.assert_allclose(v, np.tile(d_total / 10, (10, 50, 1)), atol=1e-12)

    def test_bending_sheet_is_coherent(self):
        traj = gen_synthetic("bending-sheet", 500, 12, seed=1)
        scores = metrics.morans_i_sequence(traj.positions, k=10)
        assert np.mean([s for s in scores if s is not None]) > 0.95

    def test_rotation_is_rigid(self):
        traj = gen_synthetic("rotate", 40, 8, seed=2)
        d0 = np.linalg.norm(traj.positions[0, 0] - traj.positions[0, 1])
        for t in range(8):
            d = np.linalg.norm(traj.positions[t, 0] - traj.positions[t, 1])
            assert d == pytest.approx(d0, rel=1e-12)

    def test_all_kinds_produce_shapes(self):
        for kind in dataio.SYNTHETIC_KINDS:
            traj = gen_synthetic(kind, 30, 6, seed=0)
            assert traj.positions.shape == (6, 30, 3)
            assert np.all(np.isfinite(traj.positions))

    @pytest.mark.parametrize("kind", dataio.SYNTHETIC_KINDS)
    def test_every_4th_frame_of_a_finer_scene_is_the_scene(self, kind):
        # a scene is analytic in t with every draw made first, so a T-frame
        # fit can be scored on the 4(T - 1) + 1-frame scene of its seed
        for n_frames in (2, 5, 13, 60):
            for seed in (0, 3):
                coarse = gen_synthetic(kind, 300, n_frames, seed).positions
                fine = gen_synthetic(kind, 300, 4 * (n_frames - 1) + 1, seed).positions
                assert fine[::4].tobytes() == coarse.tobytes(), (n_frames, seed)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_synthetic("galloping-horse", 10, 5)

    @pytest.mark.parametrize("args, match", [
        (("composite", 2.5, 9), "n_points must be an integer, got 2.5"),
        (("composite", "5", 9), "n_points must be an integer, got '5'"),
        (("composite", 5, 9.0), "n_frames must be an integer, got 9.0"),
        (("composite", 5, 9, 1.5), "seed must be an integer, got 1.5"),
        (("composite", 5, 9, True), "seed must be an integer, got True")])
    def test_an_argument_that_is_not_an_integer_is_named(self, args, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            gen_synthetic(*args)

    @pytest.mark.parametrize("args, match", [
        (("rotate", 0, 9), "n_points must be >= 1, got 0"),
        (("rotate", 5, 1), "n_frames must be >= 2, got 1")])
    def test_an_argument_out_of_range_is_named(self, args, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            gen_synthetic(*args)


class TestSplit:
    def test_stride_four_on_120_frames(self):
        traj = TrajectorySet(np.zeros((120, 10, 3)))
        s = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.5))
        assert len(s.train_frames) == 30
        assert len(s.test_frames) == 90

    def test_stride_one_warns(self):
        traj = TrajectorySet(np.zeros((8, 10, 3)))
        with pytest.warns(UserWarning):
            s = split_frames(traj, SplitSpec(stride=1))
        assert s.test_frames == ()

    def test_supervised_sampling_reproducible(self):
        traj = TrajectorySet(np.zeros((12, 1000, 3)))
        spec = SplitSpec(stride=4, supervised_fraction=0.25)
        a = split_frames(traj, spec, seed=5)
        b = split_frames(traj, spec, seed=5)
        assert len(a.supervised) == 250
        assert len(set(a.supervised)) == 250
        np.testing.assert_array_equal(a.supervised, b.supervised)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_a_seed_that_is_not_an_integer_is_named(self, seed):
        traj = TrajectorySet(np.zeros((12, 10, 3)))
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            split_frames(traj, SplitSpec(), seed=seed)

    def test_too_few_train_frames(self):
        traj = TrajectorySet(np.zeros((3, 10, 3)))
        with pytest.raises(ValueError):
            split_frames(traj, SplitSpec(stride=4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(stride=0)
        with pytest.raises(ValueError):
            SplitSpec(supervised_fraction=0.0)

    @pytest.mark.parametrize("bad, message", [
        (dict(stride=2.5), "stride must be an integer, got 2.5"),
        (dict(stride=True), "stride must be an integer, got True"),
        (dict(supervised_fraction="0.5"), "supervised_fraction must be a number, got '0.5'"),
        (dict(supervised_fraction=False), "supervised_fraction must be a number, got False")])
    def test_spec_key_of_the_wrong_type_is_named(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitSpec(**bad)


class TestTrajFormat:
    def test_round_trip_within_f32(self, tmp_path):
        traj = gen_synthetic("composite", 25, 7, seed=4)
        path = tmp_path / "t.traj"
        write_traj(path, traj)
        back = read_traj(path)
        np.testing.assert_allclose(back.positions, traj.positions, atol=1e-6)

    def test_file_size_formula(self, tmp_path):
        traj = gen_synthetic("rigid-translate", 100, 16, seed=0)
        path = tmp_path / "t.traj"
        write_traj(path, traj)
        assert path.stat().st_size == 16 + 4 * 16 * 100 * 3

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "t.traj"
        write_traj(path, gen_synthetic("rotate", 5, 3, seed=0))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_traj(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.traj"
        write_traj(path, gen_synthetic("rotate", 5, 3, seed=0))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_traj(path)

    def test_a_position_past_float32_is_refused_before_the_file_is_opened(self, tmp_path):
        # finite in float64, so the trajectory holds it, but inf once written
        positions = np.zeros((2, 3, 3))
        positions[1, 2, 0] = 1e39
        path = tmp_path / "big.traj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite position at frame 1, point 2$"):
                write_traj(path, TrajectorySet(positions))
        assert not path.exists()

    def test_a_file_reads_as_float32_and_writes_back_byte_identical(self, tmp_path):
        path, again, wide = tmp_path / "t.traj", tmp_path / "again.traj", tmp_path / "w.traj"
        write_traj(path, gen_synthetic("composite", 25, 7, seed=4))
        back = read_traj(path)
        assert back.positions.dtype == np.float32
        write_traj(again, back)
        write_traj(wide, TrajectorySet(back.positions.astype(np.float64)))
        assert again.read_bytes() == wide.read_bytes() == path.read_bytes()

    def test_frames_stream_to_the_bytes_of_their_set(self, tmp_path):
        traj = gen_synthetic("swing-arm", 9, 5, seed=1)
        whole, streamed = tmp_path / "whole.traj", tmp_path / "streamed.traj"
        write_traj(whole, traj)
        write_traj(streamed, iter(traj.positions))
        assert streamed.read_bytes() == whole.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.traj", "whole.traj"]

    @pytest.mark.parametrize("frames, message", [
        ([np.zeros((4, 3)), np.zeros((5, 3))], r"^frame 1 must be \[N_p, 3\] like frame 0, "
                                               r"got \(5, 3\)$"),
        ([np.zeros((4, 2))], r"^frame 0 must be \[N_p, 3\] like frame 0, got \(4, 2\)$"),
        ([np.zeros((0, 3))], r"^frame 0 must be \[N_p, 3\]"),
        ([], "^no frames to write$"),
        ([np.zeros((4, 3)), np.zeros((4, 3)), np.full((4, 3), 1e39)],
         "^non-finite position at frame 2, point 0$"),
    ], ids=["points-differ", "two-columns", "no-points", "no-frames", "past-float32"])
    def test_a_bad_stream_leaves_the_file_as_it_was(self, tmp_path, frames, message):
        path = tmp_path / "t.traj"
        path.write_bytes(b"before")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                write_traj(path, iter(frames))
        assert [p.name for p in tmp_path.iterdir()] == ["t.traj"]
        assert path.read_bytes() == b"before"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_writing_holds_at_most_two_f32_frames(self, tmp_path, dtype):
        traj = TrajectorySet(gen_synthetic("composite", 2000, 40, seed=0).positions.astype(dtype))
        tracemalloc.start()
        try:
            write_traj(tmp_path / "t.traj", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an f32 frame is written as it is; a float64 frame is cast to an f32
        # frame of 24 000 bytes while the one before it is live, where a cast
        # of the whole set and its bytes took 1 920 000
        assert peak < 2 * 2000 * 3 * 4 + (16 << 10)

    def test_zero_points_rejected_with_count(self, tmp_path):
        path = tmp_path / "empty.traj"
        path.write_bytes(TRAJ_MAGIC + struct.pack("<II", 9, 0))
        with pytest.raises(FormatError, match="N_p=0"):
            read_traj(path)

    def test_non_finite_payload_names_frame_and_point(self, tmp_path):
        path = tmp_path / "nan.traj"
        write_traj(path, gen_synthetic("rotate", 6, 4, seed=0))
        blob = bytearray(path.read_bytes())
        # frame 2, point 5, z coordinate
        off = 16 + 4 * ((2 * 6 + 5) * 3 + 2)
        blob[off:off + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="frame 2, point 5"):
            read_traj(path)

    def test_a_later_frame_is_named_as_in_the_file(self, tmp_path):
        path = tmp_path / "nan.traj"
        write_traj(path, gen_synthetic("rotate", 6, 11, seed=0))
        blob = bytearray(path.read_bytes())
        off = 16 + 4 * ((7 * 6 + 3) * 3 + 1)        # frame 7, point 3, y
        blob[off:off + 4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="at byte 16: non-finite position at frame 7, "
                                              "point 3$"):
            read_traj(path)

    def test_peak_memory_is_the_float32_result(self, tmp_path):
        path = tmp_path / "t.traj"
        write_traj(path, gen_synthetic("composite", 2000, 40, seed=0))
        tracemalloc.start()
        try:
            back = read_traj(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.positions.dtype == np.float32
        # 64 KiB of slack for the file object and the header; the chunked
        # float64 read this replaced peaked at 3x the f32 payload's 960 000 bytes
        assert peak < back.positions.nbytes + (64 << 10)

    @pytest.mark.parametrize("kind", ["traj", "ckpt"])
    def test_a_signaling_nan_is_a_format_error_with_no_warning(self, tmp_path, kind):
        # float32 bits 0x7f800001 raise numpy's invalid-value warning in a cast
        path = tmp_path / f"snan.{kind}"
        if kind == "traj":
            write_traj(path, gen_synthetic("rotate", 6, 4, seed=0))
            read, named = read_traj, "non-finite position at frame 3, point 5$"
        else:
            write_checkpoint(path, {"w": np.zeros((2, 3))})
            read, named = read_checkpoint, "non-finite value in array 'w'"
        blob = path.read_bytes()
        path.write_bytes(blob[:-4] + struct.pack("<I", 0x7F800001))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=named):
                read(path)

    # `ckpt` holds one section, "w" of shape [2, 3]: a 6-float payload after
    # its u8 rank and two u32 dims
    @pytest.mark.parametrize("read, damage, named", [
        (read_traj, lambda ckpt: TRAJ_MAGIC + b"\x01", "header needs 16 bytes"),
        (read_checkpoint, lambda ckpt: ckpt[:8] + struct.pack("<I", 7) + ckpt[12:],
         "unsupported version 7"),
        (read_checkpoint, lambda ckpt: ckpt[:-4 * 6 - 5], "truncated file"),
    ], ids=["traj-under-16-bytes", "ckpt-version-7", "ckpt-cut-in-section-dims"])
    def test_short_or_unsupported_file_is_format_error(self, tmp_path, read, damage, named):
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.bin"
        write_checkpoint(good, {"w": np.zeros((2, 3))})
        bad.write_bytes(damage(good.read_bytes()))
        with pytest.raises(FormatError, match=named):
            read(bad)


class _NoSpace:
    """A file whose every write fails as on a full disk."""
    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):    # the rest of the file, for a text wrapper
        return getattr(self._f, name)

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def _run_log(*norms):
    """A RunLog with one row per entry of norms, each row's gradient norms."""
    log = trainer.RunLog()
    for step, gn in enumerate(norms):
        log.record(step, 0.5, 0.25, 0.125, 1.0, 12.0, 1.0, 2.0, 0.5, gn)
    return log


def _report_rows(*epes):
    return [{"frame_idx": j, "mean_I": 0.5, "epe": e, "n_points": 10} for j, e in enumerate(epes)]


# each writer, writing a file whose bytes depend on v
WRITERS = {"traj": lambda path, v: write_traj(path, gen_synthetic("rotate", 5, 3, seed=v)),
           "ckpt": lambda path, v: write_checkpoint(path, {"w": np.full((2, 3), v)}),
           "ply": lambda path, v: export_ply(path, np.full((4, 3), v), np.full((4, 3), v)),
           "log-csv": lambda path, v: _run_log({"codes": v}).write_csv(path),
           "report": lambda path, v: metrics.write_report(path, _report_rows(v))}


class TestReplaceOnSuccess:
    @pytest.mark.parametrize("failing", ["write", "rename"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, writer, failing):
        path = tmp_path / f"out.{writer}"
        WRITERS[writer](path, 1)
        before = path.read_bytes()
        if failing == "write":
            monkeypatch.setattr(dataio, "open", lambda *a, **k: _NoSpace(open(*a, **k)),
                                raising=False)
        else:
            def no_space(src, dst):
                raise OSError(errno.ENOSPC, "No space left on device")
            monkeypatch.setattr(dataio.os, "replace", no_space)
        with pytest.raises(OSError, match="No space left on device"):
            WRITERS[writer](path, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_an_interrupt_midway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "t.traj"
        write_traj(path, gen_synthetic("rotate", 5, 3, seed=1))
        before = path.read_bytes()

        def frames():
            yield np.zeros((5, 3))
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            write_traj(path, frames())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.traj"]

    @pytest.mark.parametrize("writer, failing_second_row, error", [
        ("log-csv", lambda path: _run_log({"codes": 1.0}, {}).write_csv(path), KeyError),
        ("report", lambda path: metrics.write_report(path, _report_rows(1.0, "x")), ValueError)],
        ids=["log-csv", "report"])
    def test_a_csv_row_failing_midway_leaves_the_old_file(self, tmp_path, writer,
                                                           failing_second_row, error):
        path = tmp_path / f"{writer}.csv"
        WRITERS[writer](path, 3.0)
        before = path.read_bytes()
        with pytest.raises(error):
            failing_second_row(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestPly:
    def test_single_point_header(self, tmp_path):
        path = tmp_path / "p.ply"
        export_ply(path, np.array([[1.0, 2.0, 3.0]]))
        header, xyz, rgb = read_ply(path)
        assert header == ["ply", "format binary_little_endian 1.0", "element vertex 1",
                          "property float x", "property float y", "property float z",
                          "end_header"]
        assert xyz.tolist() == [[1.0, 2.0, 3.0]] and rgb is None

    def test_zero_velocity_maps_to_gray(self):
        colors = flow_colors(np.zeros((3, 3)))
        np.testing.assert_array_equal(colors, np.full((3, 3), 128, dtype=np.uint8))

    def test_fast_points_go_red(self):
        colors = flow_colors(np.array([[0.0, 0, 0], [10.0, 0, 0]]))
        assert tuple(colors[1]) == (255, 0, 0)
        assert tuple(colors[0]) == (128, 128, 128)

    def test_colored_export(self, tmp_path):
        path = tmp_path / "c.ply"
        export_ply(path, np.zeros((2, 3)), np.full((2, 3), 10, dtype=np.uint8))
        header, xyz, rgb = read_ply(path)
        assert header[-4:] == ["property uchar red", "property uchar green",
                               "property uchar blue", "end_header"]
        assert xyz.tolist() == [[0.0] * 3] * 2 and rgb.tolist() == [[10] * 3] * 2

    @pytest.mark.parametrize("n", [0, 1, 500])
    @pytest.mark.parametrize("colored", [False, True])
    def test_reads_back_as_float32_and_uint8(self, tmp_path, n, colored):
        # every float32 bitwise: -0.0, values below 1e-6 and float32's largest too
        rng = np.random.default_rng(n)
        edge = [-0.0, 0.0, 5e-7, -5e-7, 1.234567e-4, 2.0000005, 0.1234565, -1.9999995,
                1e6, -1e6, 123456789.1234565, 1e15, -3.4e38, 3.4e38, 1e-300, 2.675]
        points = rng.normal(0.0, 10.0 ** rng.integers(-8, 9, (n, 3)), (n, 3))
        points.ravel()[:min(len(edge), points.size)] = edge[:points.size]
        colors = rng.integers(0, 256, (n, 3)).astype(np.uint8) if colored else None
        path = tmp_path / "p.ply"
        export_ply(path, points, colors)
        header, xyz, rgb = read_ply(path)
        assert header[2] == f"element vertex {n}"
        assert xyz.dtype == np.float32 and xyz.tobytes() == points.astype(np.float32).tobytes()
        assert rgb is None if colors is None else np.array_equal(rgb, colors)
        if n == 500:
            assert xyz[1, 1] == np.float32(1.234567e-4) and xyz[4, 1] == np.float32(3.4e38)

    def test_float_colors_truncate_as_before(self, tmp_path):
        colors = np.array([[0.0, 127.9, 255.0], [1.5, 2.5, 3.99], [10, 20, 255.999]])
        path = tmp_path / "p.ply"
        export_ply(path, np.zeros((3, 3)), colors)
        np.testing.assert_array_equal(read_ply(path)[2], colors.astype(int))

    @pytest.mark.parametrize("points, colors, named", [
        (np.zeros((2, 2)), None, "points must be"),
        (np.zeros(3), None, "points must be"),
        (np.zeros((2, 3)), np.zeros((3, 3)), "colors must match"),
        (np.zeros((2, 3)), np.zeros((2, 4)), "colors must match")])
    def test_bad_shapes_are_rejected_before_writing(self, tmp_path, points, colors, named):
        path = tmp_path / "p.ply"
        with pytest.raises(ValueError, match=named):
            export_ply(path, points, colors)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [-5, 300.7, 256.0, -0.5, np.nan, 1e30, -np.inf],
                             ids=str)
    def test_a_color_a_uchar_cannot_hold_is_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "p.ply"
        colors = np.full((4, 3), 255.9)
        colors[2, 1] = bad
        with pytest.raises(ValueError, match=r"^color 2 is not in \[0, 256\) for a uchar"):
            export_ply(path, np.zeros((4, 3)), colors)
        assert not path.exists()

    def test_writing_holds_little_more_than_the_packed_body(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(10 ** 5, 3))
        colors = flow_colors(rng.normal(size=(10 ** 5, 3)))
        tracemalloc.start()
        try:
            export_ply(tmp_path / "p.ply", points, colors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the body is 1.5 MB: 10**5 vertices of 15 bytes
        assert peak < 5 << 20

    def test_no_velocities_have_no_colors(self):
        colors = flow_colors(np.zeros((0, 3)))
        assert colors.shape == (0, 3) and colors.dtype == np.uint8

    @pytest.mark.parametrize("bad", [1e39, -3.5e38, np.inf, np.nan])
    def test_a_point_past_float32_is_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "p.ply"
        points = np.zeros((4, 3))
        points[2, 1] = bad
        with pytest.raises(ValueError, match="^point 2 is not finite in float32"):
            export_ply(path, points)
        assert not path.exists()
        points[2, 1] = 3.4e38       # float32's largest is about 3.40282e38
        export_ply(path, points)
        assert read_ply(path)[1][2, 1] == np.float32(3.4e38)
