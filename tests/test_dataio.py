import struct

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
        v = metrics.motion_vectors(traj.positions)
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

    def test_too_few_train_frames(self):
        traj = TrajectorySet(np.zeros((3, 10, 3)))
        with pytest.raises(ValueError):
            split_frames(traj, SplitSpec(stride=4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(stride=0)
        with pytest.raises(ValueError):
            SplitSpec(supervised_fraction=0.0)


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
