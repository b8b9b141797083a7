import struct

import numpy as np
import pytest

from splinefield import cli, dataio, trainer
from splinefield.cli import main
from splinefield.field import SplineField
from splinefield.trainer import DivergenceError


def _gen(tmp_path, kind="rigid-translate", points=40, frames=9, seed=0):
    path = tmp_path / "scene.traj"
    assert main(["gen", "--kind", kind, "--points", str(points),
                 "--frames", str(frames), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


def _fit(tmp_path, traj_path, extra=()):
    ckpt = tmp_path / "field.ckpt"
    rc = main(["fit", "--traj", str(traj_path), "--out", str(ckpt),
               "--stride", "2", "--frac", "1.0", "--steps", "10",
               "--set", "rank=2", "--set", "hidden=16", "--set", "depth=2",
               "--set", "knn_k=4", *extra])
    assert rc == 0
    return ckpt


class TestGen:
    def test_file_size_formula(self, tmp_path):
        path = _gen(tmp_path, points=100, frames=16)
        assert path.stat().st_size == 16 + 4 * 16 * 100 * 3

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "rotate"])
        assert exc.value.code == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a = _gen(tmp_path, seed=7)
        b = tmp_path / "again.traj"
        main(["gen", "--kind", "rigid-translate", "--points", "40",
              "--frames", "9", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_logs_knot_count(self, tmp_path, capsys):
        traj = tmp_path / "long.traj"
        dataio.write_traj(traj, dataio.gen_synthetic("rigid-translate", 10, 120,
                                                     seed=0))
        ckpt = tmp_path / "f.ckpt"
        rc = main(["fit", "--traj", str(traj), "--out", str(ckpt),
                   "--stride", "4", "--K", "2", "--steps", "1",
                   "--set", "rank=1", "--set", "hidden=8", "--set", "depth=1",
                   "--set", "knn_k=3", "--frac", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "15 knots" in out   # 30 train frames / 2

    def test_default_regularizer_weights(self):
        parser = cli._build_parser()
        args = parser.parse_args(["fit", "--traj", "x", "--out", "y"])
        assert args.alpha == 1.0 and args.beta == 0.01
        assert args.K == 2 and args.frac == 0.25 and args.K_neighbors == 10

    def test_rerun_same_seed_byte_identical_checkpoint(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("SDF_THREADS", "0")
        traj = _gen(tmp_path)
        c1 = _fit(tmp_path, traj)
        blob1 = c1.read_bytes()
        c2 = _fit(tmp_path, traj)
        assert blob1 == c2.read_bytes()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_neighbors_below_one_is_usage_error(self, tmp_path, capsys, k):
        traj = _gen(tmp_path, points=50)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                   "--frac", "1.0", "--steps", "1", "--K-neighbors", k])
        assert rc == 2
        assert "knn_k" in capsys.readouterr().err
        assert not (tmp_path / "f.ckpt").exists()

    def test_k_neighbors_at_supervised_count_is_usage_error(self, tmp_path, capsys):
        traj = _gen(tmp_path, kind="composite", points=200)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                   "--frac", "0.25", "--steps", "2", "--K-neighbors", "50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "50" in err and "50 supervised points" in err
        assert not (tmp_path / "f.ckpt").exists()

    @pytest.mark.parametrize("field,args", [
        ("frames_per_step", ["--set", "frames_per_step=0"]),
        ("steps", ["--steps", "-5"]),
        ("lr", ["--lr", "-1"]),
        ("lr", ["--lr", "nan"]),
        ("lr", ["--lr", "inf"]),
        ("batch_points", ["--set", "batch_points=-1"]),
        ("lr_decay", ["--set", "lr_decay=2"]),
        ("lr_decay", ["--set", "lr_decay=0"]),
        ("accel_mode", ["--set", "accel_mode=l3"]),
        ("beta1", ["--set", "beta1=1"]),
        ("beta1", ["--set", "beta1=-0.5"]),
        ("beta2", ["--set", "beta2=1"]),
        ("eps", ["--set", "eps=0"]),
        ("eps", ["--set", "eps=-1"]),
        ("eps", ["--set", "eps=nan"]),
        ("grid_lr_mult", ["--set", "grid_lr_mult=-1"]),
        ("grid_lr_mult", ["--set", "grid_lr_mult=inf"]),
        ("w0", ["--set", "w0=0"]),
        ("w0", ["--set", "w0=-5"]),
        ("alpha", ["--alpha", "-1"]),
        ("alpha", ["--alpha", "nan"]),
        ("beta", ["--beta", "nan"]),
        ("beta", ["--beta", "-0.5"]),
        ("beta", ["--set", "beta=inf"]),
        ("knot_factor", ["--set", "knot_factor=0"]),
        ("knot_factor", ["--K", "0"]),
        ("n_knots", ["--set", "n_knots=-1"]),
        ("n_knots", ["--set", "n_knots=1"]),
        ("rank", ["--set", "rank=-1"]),
        ("hidden", ["--set", "hidden=0"]),
        ("depth", ["--set", "depth=0"]),
        ("variant", ["--variant", "nope"])])
    def test_bad_train_config_is_usage_error(self, tmp_path, capsys, field, args):
        traj = _gen(tmp_path)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                   "--steps", "2", *args])
        assert rc == 2
        out, err = capsys.readouterr()
        assert f"{field} must be" in err
        assert "fitting" not in out     # rejected where the config is built
        assert not (tmp_path / "f.ckpt").exists()

    def test_log_csv_has_one_row_per_step(self, tmp_path):
        log = tmp_path / "log.csv"
        _fit(tmp_path, _gen(tmp_path), extra=["--log-csv", str(log)])
        lines = log.read_text().splitlines()
        assert lines[0].split(",")[:9] == ["step", "recon", "lv", "lacc", "total",
                                           "wallclock_ms", "forward_ms", "backward_ms",
                                           "optimizer_ms"]
        assert lines[0].split(",")[9].startswith("gn:")
        assert [line.split(",")[0] for line in lines[1:]] == [str(s) for s in range(10)]

    def test_prints_median_phase_times(self, tmp_path, capsys):
        _fit(tmp_path, _gen(tmp_path))
        line = [s for s in capsys.readouterr().out.splitlines()
                if s.startswith("median step ms:")]
        assert len(line) == 1
        assert [p.split("=")[0] for p in line[0].split()[3:]] == \
            ["forward", "backward", "optimizer"]

    def test_missing_traj_is_io_error(self, tmp_path):
        rc = main(["fit", "--traj", str(tmp_path / "nope.traj"),
                   "--out", str(tmp_path / "f.ckpt")])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--out", "--log-csv"])
    @pytest.mark.parametrize("bad", ["missing-dir", "directory", "read-only-dir"])
    def test_unwritable_output_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                     flag, bad):
        traj = _gen(tmp_path)

        def no_train(*a, **kw):
            raise AssertionError("training started before the output paths were checked")
        monkeypatch.setattr(trainer, "train", no_train)
        paths = {"--out": tmp_path / "f.ckpt", "--log-csv": tmp_path / "log.csv"}
        paths[flag] = {"missing-dir": tmp_path / "nope" / "f.out", "directory": tmp_path,
                       "read-only-dir": tmp_path / "ro" / "f.out"}[bad]
        (tmp_path / "ro").mkdir()
        access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            not path.endswith("ro") and access(path, mode)))
        rc = main(["fit", "--traj", str(traj), *(str(a) for kv in paths.items() for a in kv)])
        assert rc == 1
        assert f"cannot write {paths[flag]}" in capsys.readouterr().err

    def test_zero_point_trajectory_is_io_error(self, tmp_path, capsys):
        traj = tmp_path / "empty.traj"
        traj.write_bytes(dataio.TRAJ_MAGIC + struct.pack("<II", 9, 0))
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt")])
        assert rc == 1
        assert "N_p=0" in capsys.readouterr().err

    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        traj = _gen(tmp_path)

        def boom(*a, **kw):
            raise DivergenceError("non-finite loss at step 0")

        monkeypatch.setattr(trainer, "train", boom)
        rc = main(["fit", "--traj", str(traj), "--out",
                   str(tmp_path / "f.ckpt")])
        assert rc == 3


# the argv of each writing subcommand other than fit, with its output flag last
WRITERS = {
    "gen": ["gen", "--kind", "rotate", "--out"],
    "eval": ["eval", "--ckpt", "{ckpt}", "--traj", "{traj}", "--report"],
    "interp": ["interp", "--ckpt", "{ckpt}", "--times", "0.5", "--out"],
    "advect": ["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "0.1", "--out"],
    "flow": ["flow", "--ckpt", "{ckpt}", "--out-prefix"],
}


class TestOutputChecks:
    @pytest.mark.parametrize("command", WRITERS)
    @pytest.mark.parametrize("bad", ["missing-dir", "read-only-dir"])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command, bad):
        def no_work(*a, **kw):
            raise AssertionError("work started before the output paths were checked")
        monkeypatch.setattr(SplineField, "load", no_work)
        monkeypatch.setattr(dataio, "gen_synthetic", no_work)
        (tmp_path / "ro").mkdir()
        access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            not path.endswith("ro") and access(path, mode)))
        out = tmp_path / {"missing-dir": "nope", "read-only-dir": "ro"}[bad] / "f"
        argv = [a.format(ckpt=tmp_path / "f.ckpt", traj=tmp_path / "s.traj")
                for a in WRITERS[command]]
        assert main([*argv, str(out)]) == 1
        named = f"{out}_0000.ply" if command == "flow" else str(out)
        assert f"cannot write {named}" in capsys.readouterr().err


class TestEval:
    def test_report_rows_match_test_frames(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        report = tmp_path / "report.csv"
        rc = main(["eval", "--ckpt", str(ckpt), "--traj", str(traj),
                   "--stride", "2", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) - 1 == 4   # 9 frames, stride 2 -> 4 held out

    def test_prints_skipped_transition_count(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj),
                     "--stride", "2"]) == 0
        assert "skipped=0" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["1", "0", "-3"])
    def test_fewer_than_two_neighbors_is_usage_error(self, tmp_path, capsys, k):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj),
                     "--stride", "2", "--K-neighbors", k]) == 2
        assert f"K={k}" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_io_error(self, tmp_path):
        traj = _gen(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage!")
        assert main(["eval", "--ckpt", str(bad), "--traj", str(traj)]) == 1

    def test_checkpoint_missing_array_is_io_error(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        arrays, header = dataio.read_checkpoint(ckpt)
        del arrays["dec.l0.W"]
        dataio.write_checkpoint(ckpt, arrays, header)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj)]) == 1
        assert "dec.l0.W" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.update(center=h["center"][:2]), "center"),
        (lambda h: h.update(half_extent=0.0), "half_extent"),
        (lambda h: h["config"].update(hidden=0), "hidden"),
        (lambda h: h["config"].update(grid_levels=[]), "grid_levels"),
        (lambda h: h["config"].update(w0=0), "w0"),
    ], ids=["center-2-entries", "half-extent-0", "hidden-0", "no-grid-levels", "w0-0"])
    def test_checkpoint_bad_header_value_is_io_error(self, tmp_path, capsys, edit, named):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        arrays, header = dataio.read_checkpoint(ckpt)
        edit(header)
        dataio.write_checkpoint(ckpt, arrays, header)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj)]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"{not json", b'{"config": "\xff\xfe'])
    def test_malformed_header_is_io_error(self, tmp_path, header):
        traj = _gen(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"SDFCKPT1" + struct.pack("<II", 1, len(header)) + header)
        assert main(["eval", "--ckpt", str(bad), "--traj", str(traj)]) == 1

    def test_truncated_header_is_io_error(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:30])
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj)]) == 1

    def test_non_finite_trajectory_is_io_error(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        blob = bytearray(traj.read_bytes())
        blob[16 + 4 * 7:16 + 4 * 8] = np.array([np.nan], dtype="<f4").tobytes()
        traj.write_bytes(bytes(blob))
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt")])
        assert rc == 1
        assert "frame 0, point 2" in capsys.readouterr().err


class TestInterpAdvectFlow:
    def test_interp_writes_frames(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        out = tmp_path / "interp.traj"
        rc = main(["interp", "--ckpt", str(ckpt), "--times", "0.0,0.5,1.0",
                   "--out", str(out)])
        assert rc == 0
        assert dataio.read_traj(out).n_frames == 3

    def test_interp_rejects_out_of_range_times(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        rc = main(["interp", "--ckpt", str(ckpt), "--times", "1.5",
                   "--out", str(tmp_path / "x.traj")])
        assert rc == 2

    def test_advect_dt_zero_equals_deform(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        out = tmp_path / "adv.ply"
        rc = main(["advect", "--ckpt", str(ckpt), "--from-t", "0.5",
                   "--dt", "0.0", "--out", str(out)])
        assert rc == 0
        fld = SplineField.load(ckpt)
        expected = fld.deform(fld.canonical, 0.5)
        lines = out.read_text().splitlines()
        body = lines[lines.index("end_header") + 1:]
        got = np.array([[float(x) for x in line.split()] for line in body])
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_flow_emits_requested_count(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        rc = main(["flow", "--ckpt", str(ckpt), "--frames", "6",
                   "--out-prefix", str(tmp_path / "flow")])
        assert rc == 0
        assert len(list(tmp_path.glob("flow_*.ply"))) == 6


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A 10-step checkpoint and its 9-frame, 40-point trajectory."""
    tmp_path = tmp_path_factory.mktemp("fitted")
    traj = _gen(tmp_path)
    return traj, _fit(tmp_path, traj)


# malformed inputs of each subcommand and what the error names; "{traj}" and
# "{ckpt}" stand for real files
MALFORMED = {
    "advect-from-t-1.5": (["advect", "--ckpt", "{ckpt}", "--from-t", "1.5", "--dt", "0.1"],
                          "from_t"),
    "advect-dt-negative": (["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "-1"],
                           "dt"),
    "advect-dt-nan": (["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "nan"], "dt"),
    "advect-dt-inf": (["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "inf"], "dt"),
    "flow-frames-0": (["flow", "--ckpt", "{ckpt}", "--frames", "0"], "--frames"),
    "interp-non-numeric-time": (["interp", "--ckpt", "{ckpt}", "--times", "0.1,abc"], "abc"),
    "gen-points-0": (["gen", "--kind", "rotate", "--points", "0"], "n_points"),
    "fit-stride-0": (["fit", "--traj", "{traj}", "--stride", "0"], "stride"),
    "fit-frac-0": (["fit", "--traj", "{traj}", "--frac", "0"], "supervised_fraction"),
    "fit-frac-1.5": (["fit", "--traj", "{traj}", "--frac", "1.5"], "supervised_fraction"),
    "fit-one-train-frame": (["fit", "--traj", "{traj}", "--stride", "9"], "training frames"),
    "fit-unknown-set-key": (["fit", "--traj", "{traj}", "--set", "nope=1"], "nope"),
    "fit-set-snapshot-every": (["fit", "--traj", "{traj}", "--set", "snapshot_every=5"],
                               "unknown config key 'snapshot_every'"),
    "fit-unknown-variant": (["fit", "--traj", "{traj}", "--variant", "nope"], "nope"),
    **{f"eval-scale-{x}": (["eval", "--ckpt", "{ckpt}", "--traj", "{traj}", "--scale", x],
                           "--scale") for x in ("nan", "-1", "0", "inf")},
}


class TestMalformedInput:
    @pytest.mark.parametrize("argv, named", MALFORMED.values(), ids=MALFORMED.keys())
    def test_is_usage_error(self, fitted, tmp_path, capsys, argv, named):
        traj, ckpt = fitted
        out = {"flow": "--out-prefix", "eval": "--report"}.get(argv[0], "--out")
        argv = [a.format(traj=traj, ckpt=ckpt) for a in argv]
        assert main([*argv, out, str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_eval_point_count_mismatch_fails_before_deforming(self, fitted, tmp_path,
                                                              capsys, monkeypatch):
        _, ckpt = fitted
        traj = _gen(tmp_path, points=50)

        def no_deform(*args, **kwargs):
            raise AssertionError("deform ran before the point counts were checked")
        monkeypatch.setattr(SplineField, "deform", no_deform)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj)]) == 2
        err = capsys.readouterr().err
        assert "trajectory has 50 points, checkpoint has 40" in err

    @pytest.mark.parametrize("k", ["1", "40"])
    def test_eval_bad_k_fails_before_deforming(self, fitted, capsys, monkeypatch, k):
        traj, ckpt = fitted

        def no_deform(*args, **kwargs):
            raise AssertionError("deform ran before K was checked")
        monkeypatch.setattr(SplineField, "deform", no_deform)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj),
                     "--K-neighbors", k]) == 2
        assert f"2 <= K < 40 (the point count), got K={k}" in capsys.readouterr().err


def _nan_in_bias(ckpt, bad):
    """One NaN in dec.l0.b."""
    arrays, header = dataio.read_checkpoint(ckpt)
    arrays["dec.l0.b"][0] = np.nan
    dataio.write_checkpoint(bad, arrays, header)


def _second_canonical(ckpt, bad):
    """A second __canonical__ section, of zeros, after the last one."""
    data = bytearray(ckpt.read_bytes())
    (hlen,) = struct.unpack_from("<I", data, 12)
    (count,) = struct.unpack_from("<I", data, 16 + hlen)
    struct.pack_into("<I", data, 16 + hlen, count + 1)
    n = dataio.read_checkpoint(ckpt)[0]["__canonical__"].shape[0]
    name = b"__canonical__"
    data += (struct.pack("<H", len(name)) + name + struct.pack("<BII", 2, n, 3)
             + np.zeros((n, 3), dtype="<f4").tobytes())
    bad.write_bytes(bytes(data))


def _trailing_garbage(ckpt, bad):
    bad.write_bytes(ckpt.read_bytes() + b"garbage")


CORRUPTIONS = {"nan-in-dec.l0.b": (_nan_in_bias, "'dec.l0.b'"),
               "repeated-canonical": (_second_canonical, "'__canonical__'"),
               "trailing-bytes": (_trailing_garbage, "trailing bytes")}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("argv", [
        ["eval", "--traj", "{traj}", "--report", "{out}/report.csv"],
        ["interp", "--times", "0.0,0.5", "--out", "{out}/interp.traj"],
        ["advect", "--from-t", "0.5", "--dt", "0.1", "--out", "{out}/adv.ply"],
        ["flow", "--frames", "2", "--out-prefix", "{out}/flow"],
    ], ids=["eval", "interp", "advect", "flow"])
    def test_non_finite_value_is_io_error(self, fitted, tmp_path, capsys, argv):
        traj, ckpt = fitted
        bad, out = tmp_path / "bad.ckpt", tmp_path / "out"
        _nan_in_bias(ckpt, bad)
        out.mkdir()
        argv = [a.format(traj=traj, out=out) for a in argv]
        assert main([argv[0], "--ckpt", str(bad), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "'dec.l0.b'" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("corrupt, named", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_eval_is_io_error(self, fitted, tmp_path, capsys, corrupt, named):
        traj, ckpt = fitted
        bad = tmp_path / "bad.ckpt"
        corrupt(ckpt, bad)
        assert main(["eval", "--ckpt", str(bad), "--traj", str(traj)]) == 1
        assert named in capsys.readouterr().err


class TestEnv:
    def test_bad_threads_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDF_THREADS", "banana")
        assert main(["gen", "--kind", "rotate", "--points", "5",
                     "--frames", "3", "--out", str(tmp_path / "t.traj")]) == 2

    def test_negative_threads_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SDF_THREADS", "-1")
        assert main(["gen", "--kind", "rotate", "--points", "5",
                     "--frames", "3", "--out", str(tmp_path / "t.traj")]) == 2
        assert "SDF_THREADS must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "t.traj").exists()
