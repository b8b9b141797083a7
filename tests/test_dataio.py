import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from splinefield import dataio, metrics
from splinefield.dataio import (TRAJ_MAGIC, FormatError, SplitSpec, TrajectorySet,
                                export_ply, flow_colors, gen_synthetic,
                                read_checkpoint, read_traj, split_frames,
                                write_checkpoint, write_traj)


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


class TestPly:
    def test_single_point_header(self, tmp_path):
        path = tmp_path / "p.ply"
        export_ply(path, np.array([[1.0, 2.0, 3.0]]))
        text = path.read_text()
        assert "element vertex 1" in text

    def test_round_trip_six_digits(self, tmp_path):
        pts = np.random.default_rng(5).normal(size=(10, 3))
        path = tmp_path / "p.ply"
        export_ply(path, pts)
        lines = path.read_text().splitlines()
        body = lines[lines.index("end_header") + 1:]
        back = np.array([[float(x) for x in line.split()] for line in body])
        np.testing.assert_allclose(back, pts, atol=1e-5)

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
        text = path.read_text()
        assert "property uchar red" in text
        assert text.strip().endswith("0.000000 0.000000 0.000000 10 10 10")

    @staticmethod
    def _per_row(path, points, colors=None):
        """The per-point formatting export_ply replaced: the byte oracle."""
        lines = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
                 "property float x", "property float y", "property float z"]
        if colors is not None:
            lines += ["property uchar red", "property uchar green", "property uchar blue"]
        lines.append("end_header")
        for i in range(points.shape[0]):
            row = f"{points[i, 0]:.6f} {points[i, 1]:.6f} {points[i, 2]:.6f}"
            if colors is not None:
                c = colors[i].astype(int)
                row += f" {c[0]} {c[1]} {c[2]}"
            lines.append(row)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("n", [0, 1, 500])
    @pytest.mark.parametrize("colored", [False, True])
    def test_bytes_equal_the_per_row_format(self, tmp_path, n, colored):
        rng = np.random.default_rng(n)
        edge = [-0.0, 0.0, 5e-7, -5e-7, 0.0000015, 2.0000005, 0.1234565, -1.9999995,
                1e6, -1e6, 123456789.1234565, 1e15, -3.5e20, 1e-300, 2.675]
        points = rng.normal(0.0, 10.0 ** rng.integers(-8, 9, (n, 3)), (n, 3))
        points.ravel()[:min(len(edge), points.size)] = edge[:points.size]
        colors = rng.integers(0, 256, (n, 3)).astype(np.uint8) if colored else None
        got, want = tmp_path / "got.ply", tmp_path / "want.ply"
        export_ply(got, points, colors)
        self._per_row(want, points, colors)
        assert got.read_bytes() == want.read_bytes()
        if points.size >= len(edge):
            assert b"end_header\n-0.000000 0.000000 " in got.read_bytes()
            assert b" 1000000.000000" in got.read_bytes()

    def test_float_colors_truncate_like_the_per_row_format(self, tmp_path):
        points = np.zeros((3, 3))
        colors = np.array([[0.0, 127.9, 255.0], [1.5, 2.5, 3.99], [10, 20, 30]])
        got, want = tmp_path / "got.ply", tmp_path / "want.ply"
        export_ply(got, points, colors)
        self._per_row(want, points, colors)
        assert got.read_bytes() == want.read_bytes()

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
        assert "339999999999999996" in path.read_text()   # the float64, as given
