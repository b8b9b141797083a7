import argparse
import re
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from splinefield import cli, dataio, trainer
from splinefield.cli import main
from splinefield.dataio import flow_colors
from splinefield.field import FieldConfig, SplineField
from splinefield.trainer import DivergenceError

from ply_oracle import read_ply


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


    def test_negative_seed_names_the_key(self, tmp_path, capsys):
        assert main(["gen", "--kind", "rotate", "--seed", "-1",
                     "--out", str(tmp_path / "s.traj")]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "s.traj").exists()


# fit arguments whose value the config refuses, and the field the error names;
# a key is its case's pytest id, written out so that removing a case renames no
# other case
BAD_TRAIN_CONFIGS = {
    "steps-args0": ("steps", ["--steps", "0"]),
    "steps-args1": ("steps", ["--steps", "-5"]),
    "lr-args2": ("lr", ["--lr", "-1"]),
    "lr-args3": ("lr", ["--lr", "nan"]),
    "lr-args4": ("lr", ["--lr", "inf"]),
    "batch_points-args5": ("batch_points", ["--set", "batch_points=-1"]),
    "batch_points-args6": ("batch_points", ["--set", "batch_points=1.5"]),
    "knn_k-args7": ("knn_k", ["--set", "knn_k=two"]),
    "knot_factor-args8": ("knot_factor", ["--set", "knot_factor=2.5"]),
    "lr-args9": ("lr", ["--lr", "0"]),
    "alpha-args10": ("alpha", ["--set", "alpha=-inf"]),
    "alpha-args11": ("alpha", ["--alpha", "inf"]),
    "knn_k-args12": ("knn_k", ["--set", "knn_k=0"]),
    "w0-args13": ("w0", ["--set", "w0=nan"]),
    "pe_frequencies-args14": ("pe_frequencies", ["--set", "pe_frequencies=-1"]),
    "grid_levels-args15": ("grid_levels", ["--set", "grid_levels=16,1"]),
    "seed-args16": ("seed", ["--set", "seed=1.5"]),
    "w0-args17": ("w0", ["--set", "w0=0"]),
    "w0-args18": ("w0", ["--set", "w0=-5"]),
    "alpha-args19": ("alpha", ["--alpha", "-1"]),
    "alpha-args20": ("alpha", ["--alpha", "nan"]),
    "beta-args21": ("beta", ["--beta", "nan"]),
    "beta-args22": ("beta", ["--beta", "-0.5"]),
    "beta-args23": ("beta", ["--set", "beta=inf"]),
    "knot_factor-args24": ("knot_factor", ["--set", "knot_factor=0"]),
    "knot_factor-args25": ("knot_factor", ["--K", "0"]),
    "n_knots-args26": ("n_knots", ["--set", "n_knots=-1"]),
    "n_knots-args27": ("n_knots", ["--set", "n_knots=1"]),
    "rank-args28": ("rank", ["--set", "rank=-1"]),
    "hidden-args29": ("hidden", ["--set", "hidden=0"]),
    "depth-args30": ("depth", ["--set", "depth=0"]),
    "variant-args31": ("variant", ["--variant", "nope"]),
    "seed-args32": ("seed", ["--set", "seed=-1"]),
    "seed-args33": ("seed", ["--seed", "-1"]),
    "steps-args34": ("steps", ["--set", "steps=1e3"]),
    "lr-args35": ("lr", ["--set", "lr=fast"]),
    "grid_levels-args36": ("grid_levels", ["--set", "grid_levels=16,x"]),
    "grid_levels-args37": ("grid_levels", ["--set", "grid_levels="]),
    "grid_levels-args38": ("grid_levels", ["--set", "grid_levels=1"]),
    "pe_frequencies-args39": ("pe_frequencies", ["--set", "pe_frequencies=53"]),
    "grid_channels-args40": ("grid_channels", ["--set", "grid_channels=0"]),
    # a spline field's knots differ only by their codes; the coupled
    # baseline ignores rank, but the rule is one for every variant
    "rank-args41": ("rank", ["--variant", "siren-resfields", "--set", "rank=0"]),
    "rank-args42": ("rank", ["--variant", "triplanes", "--set", "rank=0"]),
    "rank-args43": ("rank", ["--variant", "coupled4d-baseline", "--set", "rank=0"]),
}


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
        # the flags carry no default of their own: the dataclasses' apply
        assert cli._given(args, trainer.TrainConfig) == cli._given(args, dataio.SplitSpec) == {}
        cfg = trainer.TrainConfig(**cli._given(args, trainer.TrainConfig))
        spec = dataio.SplitSpec(**cli._given(args, dataio.SplitSpec))
        assert cfg.alpha == 1.0 and cfg.beta == 0.01
        assert cfg.knot_factor == 2 and spec.supervised_fraction == 0.25 and cfg.knn_k == 10

    def test_given_flags_reach_the_configs(self):
        args = cli._build_parser().parse_args([
            "fit", "--traj", "x", "--out", "y", "--stride", "3", "--frac", "0.5",
            "--steps", "7", "--lr", "0.01", "--alpha", "0.5", "--beta", "0.02", "--K", "3",
            "--K-neighbors", "6", "--variant", "triaxes", "--seed", "4"])
        assert cli._given(args, dataio.SplitSpec) == {"stride": 3, "supervised_fraction": 0.5}
        assert cli._given(args, trainer.TrainConfig) == {
            "steps": 7, "lr": 0.01, "alpha": 0.5, "beta": 0.02, "knot_factor": 3,
            "knn_k": 6, "variant": "triaxes", "seed": 4}

    def test_seed_flag_and_set_seed_give_the_same_run(self, tmp_path):
        # the split draws its supervised points with the run's seed either way
        traj = _gen(tmp_path, kind="composite", points=60)
        blobs = []
        for i, seed in enumerate((["--seed", "5"], ["--set", "seed=5"])):
            ckpt = tmp_path / f"{i}.ckpt"
            assert main(["fit", "--traj", str(traj), "--out", str(ckpt), "--stride", "2",
                         "--steps", "2", "--set", "rank=2", "--set", "hidden=8",
                         "--set", "depth=2", "--set", "knn_k=4", *seed]) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("variant, sets, want", [
        ("triplanes", ["grid_levels=16,32", "grid_channels=4"],
         {"grid_levels": (16, 32), "grid_channels": 4}),
        ("pe-resfields", ["pe_frequencies=2"], {"pe_frequencies": 2})])
    def test_set_reaches_field_keys(self, tmp_path, variant, sets, want):
        extra = ["--variant", variant, *(a for kv in sets for a in ("--set", kv))]
        cfg = SplineField.load(_fit(tmp_path, _gen(tmp_path), extra=extra)).cfg
        assert cfg.variant == variant
        assert {k: getattr(cfg, k) for k in want} == want

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

    @pytest.mark.parametrize("field, args", BAD_TRAIN_CONFIGS.values(),
                             ids=BAD_TRAIN_CONFIGS.keys())
    def test_bad_train_config_is_usage_error(self, tmp_path, capsys, field, args):
        traj = _gen(tmp_path)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                   "--steps", "2", *args])
        assert rc == 2
        out, err = capsys.readouterr()
        assert f"{field} must be" in err
        assert "fitting" not in out     # rejected where the config is built
        assert not (tmp_path / "f.ckpt").exists()

    def test_a_size_past_the_parameter_budget_is_usage_error(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                   "--steps", "2", "--set", "depth=10000000"])
        assert rc == 2
        assert "the size keys (" in capsys.readouterr().err
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

    def test_reports_the_last_total_and_median_phase_times(self, tmp_path, capsys,
                                                            monkeypatch):
        logs, train = [], trainer.train

        def recording(*args):
            fld, log = train(*args)
            logs.append(log)
            return fld, log
        monkeypatch.setattr(trainer, "train", recording)
        ckpt = _fit(tmp_path, _gen(tmp_path))
        rows = logs[0].rows
        med = [np.median([r[f"{k}_ms"] for r in rows])
               for k in ("forward", "backward", "optimizer")]
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"wrote {ckpt}: final loss {rows[-1]['total']:.6g}",
            "median step ms: forward={:.3f} backward={:.3f} optimizer={:.3f}".format(*med)]

    def test_parameters_beyond_float32_write_no_checkpoint(self, tmp_path, capsys):
        traj = _gen(tmp_path, kind="composite", points=80, frames=9)
        ckpt = tmp_path / "f.ckpt"
        assert main(["fit", "--traj", str(traj), "--out", str(ckpt), "--steps", "2",
                     "--lr", "1e40"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: array 'codes' is not finite in float32"]
        assert not ckpt.exists()

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

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.00 TiB"), "Unable to allocate 2.00 TiB"),
        (MemoryError(), "MemoryError")])
    def test_an_allocation_failure_is_a_one_line_usage_error(self, tmp_path, monkeypatch,
                                                              capsys, error, message):
        traj = _gen(tmp_path)

        def boom(*a, **kw):
            raise error

        monkeypatch.setattr(trainer, "train", boom)
        rc = main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {message}\n"


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

    @pytest.mark.parametrize("argv, shared", [
        (["fit", "--traj", "{traj}", "--out", "{ckpt}", "--log-csv", "{ckpt}"], "{ckpt}"),
        (["fit", "--traj", "{traj}", "--out", "{traj}"], "{traj}"),
        (["fit", "--traj", "{traj}", "--out", "{new}", "--log-csv", "{traj}"], "{traj}"),
        (["eval", "--ckpt", "{ckpt}", "--traj", "{traj}", "--report", "{ckpt}"], "{ckpt}"),
        (["eval", "--ckpt", "{ckpt}", "--traj", "{traj}", "--report", "{traj}"], "{traj}"),
        (["interp", "--ckpt", "{ckpt}", "--times", "0.5", "--out", "{ckpt}"], "{ckpt}"),
        (["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "0.1", "--out", "{link}"],
         "{link}")],
        ids=["fit-out-log-csv", "fit-out-traj", "fit-log-csv-traj", "eval-report-ckpt",
             "eval-report-traj", "interp-out-ckpt", "advect-out-link-to-ckpt"])
    def test_an_output_sharing_a_path_is_usage_error_and_keeps_every_file(
            self, fitted, tmp_path, capsys, monkeypatch, argv, shared):
        paths = {"traj": tmp_path / "s.traj", "ckpt": tmp_path / "f.ckpt",
                 "link": tmp_path / "link.ply", "new": tmp_path / "new.ckpt"}
        for src, name in zip(fitted, ("traj", "ckpt")):
            shutil.copyfile(src, paths[name])
        paths["link"].symlink_to(paths["ckpt"])
        kept = {p: p.read_bytes() for p in (paths["traj"], paths["ckpt"])}

        def no_read(*a, **kw):
            raise AssertionError("a file was read before the paths were compared")
        monkeypatch.setattr(SplineField, "load", no_read)
        monkeypatch.setattr(dataio, "read_traj", no_read)
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {shared.format(**paths)}: it is also ")
        assert {p: p.read_bytes() for p in kept} == kept
        assert not paths["new"].exists() and len(list(tmp_path.iterdir())) == 3

    @pytest.mark.parametrize("ckpt, prefix, frames, refused", [
        ("x_0001.ply", "x", 3, True), ("x_0002.ply", "link/x", 3, True),
        ("x_0003.ply", "x", 3, False), ("x_00001.ply", "x", 3, False),
        ("x_0001.ply", "y", 3, False)],
        ids=["frame-1", "frame-2-through-a-linked-directory", "past-the-last-frame",
             "five-digits", "another-prefix"])
    def test_flow_refuses_a_checkpoint_at_any_frame_path(self, fitted, tmp_path, capsys,
                                                         monkeypatch, ckpt, prefix, frames,
                                                         refused):
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        ckpt, prefix = tmp_path / ckpt, str(tmp_path / prefix)
        shutil.copyfile(fitted[1], ckpt)
        kept = ckpt.read_bytes()
        if refused:
            monkeypatch.setattr(SplineField, "load", lambda *a: pytest.fail("the ckpt was read"))
        argv = ["flow", "--ckpt", str(ckpt), "--frames", str(frames), "--out-prefix", prefix]
        assert main(argv) == (2 if refused else 0)
        if refused:
            frame = f"{prefix}_{ckpt.name[2:]}"
            assert capsys.readouterr().err == f"error: cannot write {frame}: it is also an input\n"
        else:
            assert len(list(tmp_path.glob("[xy]_*.ply"))) == frames + 1     # frames and ckpt
        assert ckpt.read_bytes() == kept

    @pytest.mark.parametrize("directory, refused", [
        ("x_0001.ply", True), ("x_0002.ply", True), ("x_0003.ply", False),
        ("x_00001.ply", False)],
        ids=["frame-1", "last-frame", "past-the-last-frame", "five-digits"])
    def test_flow_refuses_a_directory_at_any_frame_path(self, fitted, tmp_path, capsys,
                                                        monkeypatch, directory, refused):
        (tmp_path / directory).mkdir()
        if refused:
            monkeypatch.setattr(SplineField, "load", lambda *a: pytest.fail("the ckpt was read"))
        prefix = str(tmp_path / "x")
        argv = ["flow", "--ckpt", str(fitted[1]), "--frames", "3", "--out-prefix", prefix]
        assert main(argv) == (1 if refused else 0)
        if refused:
            err = capsys.readouterr().err
            assert err == f"error: cannot write {tmp_path / directory}: it is a directory\n"
        assert (tmp_path / "x_0000.ply").exists() != refused

    @pytest.mark.parametrize("ckpt, link, argv, err", [
        ("out.traj.part", None,
         ["interp", "--ckpt", "{d}/out.traj.part", "--times", "0.5", "--out", "{d}/out.traj"],
         "{d}/out.traj: its temp file {d}/out.traj.part is also an input"),
        ("f.ckpt", None, ["fit", "--traj", "{traj}", "--out", "{d}/a.part", "--log-csv", "{d}/a"],
         "{d}/a: its temp file {d}/a.part is also another output"),
        ("f.ckpt", None, ["fit", "--traj", "{traj}", "--out", "{d}/a", "--log-csv", "{d}/a.part"],
         "{d}/a.part: it is also the temp file of {d}/a"),
        ("x_0001.ply.part", None,
         ["flow", "--ckpt", "{d}/x_0001.ply.part", "--frames", "3", "--out-prefix", "{d}/x"],
         "{d}/x_0001.ply: its temp file {d}/x_0001.ply.part is also an input"),
        ("f.ckpt", "x_0001.ply",
         ["flow", "--ckpt", "{d}/f.ckpt", "--frames", "3", "--out-prefix", "{d}/x"],
         "{d}/x_0001.ply: it is also an input")],
        ids=["interp-temp-file-is-ckpt", "fit-log-csv-temp-file-is-out",
             "fit-out-temp-file-is-log-csv", "flow-temp-file-is-ckpt", "flow-frame-links-to-ckpt"])
    def test_a_path_a_writer_takes_is_usage_error_and_keeps_every_file(
            self, fitted, tmp_path, capsys, monkeypatch, ckpt, link, argv, err):
        shutil.copyfile(fitted[1], tmp_path / ckpt)
        if link:
            (tmp_path / link).symlink_to(tmp_path / ckpt)
        kept = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_read(*a, **kw):
            raise AssertionError("a file was read before the paths were compared")
        monkeypatch.setattr(SplineField, "load", no_read)
        monkeypatch.setattr(dataio, "read_traj", no_read)
        assert main([a.format(d=tmp_path, traj=fitted[0]) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: cannot write {err.format(d=tmp_path)}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == kept
        assert link is None or (tmp_path / link).is_symlink()

    @pytest.mark.parametrize("command", ["fit", "fit-log-csv", "gen", "eval", "interp", "advect"])
    @pytest.mark.parametrize("out", ["", "nope/"], ids=["empty", "trailing-separator"])
    def test_an_output_naming_no_file_fails_before_any_work(self, fitted, tmp_path, capsys,
                                                           monkeypatch, command, out):
        def no_work(*a, **kw):
            raise AssertionError("work started before the output paths were checked")
        for owner, name in ((SplineField, "load"), (dataio, "read_traj"),
                            (dataio, "gen_synthetic")):
            monkeypatch.setattr(owner, name, no_work)
        monkeypatch.chdir(tmp_path)
        argv = {**WRITERS, "fit": ["fit", "--traj", "{traj}", "--out"],
                "fit-log-csv": ["fit", "--traj", "{traj}", "--out", "f.ckpt", "--log-csv"]}
        assert main([*(a.format(ckpt=fitted[1], traj=fitted[0]) for a in argv[command]),
                     out]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out!r}: it names no file\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("frames, code, err", [
        ("10000", 1, "the checks passed"),
        ("10001", 2, "--frames must be in [1, 10000], got 10001")], ids=["10000", "10001"])
    def test_flow_writes_at_most_10000_frames(self, fitted, tmp_path, capsys, monkeypatch,
                                              frames, code, err):
        def loaded(*a, **kw):
            raise OSError("the checks passed")
        monkeypatch.setattr(SplineField, "load", loaded)
        argv = ["flow", "--ckpt", str(fitted[1]), "--frames", frames,
                "--out-prefix", str(tmp_path / "x")]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not list(tmp_path.iterdir())

    def test_every_subcommand_lists_its_outputs(self):
        """main checks the paths of `_OUTPUTS[command]`, so a subcommand missing
        there would write unchecked paths."""
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS) == set(cli._OUTPUTS)


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

    def test_prints_its_wall_time_on_its_own_line(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj), "--stride", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        trajset = dataio.read_traj(traj)
        split = dataio.split_frames(trajset, dataio.SplitSpec(2, 0.25), seed=0)
        summary, _ = trainer.evaluate(SplineField.load(ckpt), trajset, split)
        assert lines[0] == (f"epe={summary['epe']:.6g} mean_I={summary['mean_I']:.6g} "
                            f"frames={summary['n_frames']} skipped=0")
        assert len(lines) == 2 and re.fullmatch(r"eval wall time: \d+\.\d{3} s", lines[1])

    def test_checkpoint_pe_frequencies_beyond_bound_is_io_error(self, tmp_path, capsys):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj, extra=["--variant", "pe-resfields"])
        arrays, header = dataio.read_checkpoint(ckpt)
        header["config"]["pe_frequencies"] = 100000
        dataio.write_checkpoint(ckpt, arrays, header)
        with pytest.raises(dataio.FormatError, match="pe_frequencies must be in"):
            SplineField.load(ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj)]) == 1
        assert "pe_frequencies" in capsys.readouterr().err

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
        # the scale is checked by evaluate, after the load
        assert main(["eval", "--ckpt", str(bad), "--traj", str(traj), "--scale", "0"]) == 1

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--frac", "0.5"]])
    def test_split_seed_and_fraction_are_no_eval_options(self, capsys, flag):
        # evaluate scores the held-out frames, which --stride alone sets
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--ckpt", "c", "--traj", "t", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_only_given_options_reach_evaluate(self, tmp_path, monkeypatch):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        seen = []
        evaluate = trainer.evaluate

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return evaluate(*args, **kwargs)
        monkeypatch.setattr(trainer, "evaluate", spy)
        argv = ["eval", "--ckpt", str(ckpt), "--traj", str(traj), "--stride", "2"]
        assert main(argv) == 0
        assert main([*argv, "--K-neighbors", "5", "--scale", "2"]) == 0
        assert seen == [{}, {"k": 5, "scale": 2.0}]

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
        # the sizes the checkpoint holds, as floats or bools: an equal float
        # makes the same shapes, so only the type check refuses it
        *((lambda h, k=k: h["config"].update({k: float(h["config"][k])}),
           f"{k} must be an integer") for k in ("n_knots", "rank", "hidden", "grid_channels")),
        (lambda h: h["config"].update(depth=True), "depth must be an integer"),
        (lambda h: h["config"].update(grid_levels=[32.0, 64]), "grid_levels must be integers"),
        (lambda h: h["config"].update(variant="pe-resfields", pe_frequencies=4.0),
         "pe_frequencies must be an integer"),
        (lambda h: h["config"].update(quintic=0), "quintic must be a bool"),
        (lambda h: h["config"].update(w0=True), "w0 must be a number"),
        # a key the header lacks is named, not given its FieldConfig default
        (lambda h: h["config"].pop("w0"), "header config has no w0"),
        (lambda h: [h["config"].pop(k) for k in ("quintic", "rank")],
         "header config has no rank, quintic"),
    ], ids=["center-2-entries", "half-extent-0", "hidden-0", "no-grid-levels", "w0-0",
            "n_knots-float", "rank-float", "hidden-float", "grid_channels-float",
            "depth-bool", "grid_levels-float", "pe-resfields-pe_frequencies-float", "quintic-0",
            "w0-true", "no-w0", "no-quintic-no-rank"])
    def test_checkpoint_bad_header_value_is_io_error(self, fitted, tmp_path, capsys, edit,
                                                     named):
        traj, ckpt = fitted
        bad = tmp_path / "bad.ckpt"
        arrays, header = dataio.read_checkpoint(ckpt)
        edit(header)
        dataio.write_checkpoint(bad, arrays, header)
        assert main(["eval", "--ckpt", str(bad), "--traj", str(traj)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

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

    def test_interp_parses_times_before_reading_the_checkpoint(self, tmp_path, capsys):
        rc = main(["interp", "--ckpt", str(tmp_path / "missing.ckpt"), "--times", "abc",
                   "--out", str(tmp_path / "x.traj")])
        assert rc == 2
        assert "--times" in capsys.readouterr().err

    def test_interp_file_is_the_multi_time_deform_written_whole(self, fitted, tmp_path):
        _, ckpt = fitted
        times = [0.0, 0.13, 0.5, 0.77, 1.0]
        out, whole = tmp_path / "interp.traj", tmp_path / "whole.traj"
        assert main(["interp", "--ckpt", str(ckpt), "--times", ",".join(map(str, times)),
                     "--out", str(out)]) == 0
        fld = SplineField.load(ckpt)
        dataio.write_traj(whole, dataio.TrajectorySet(fld.deform(fld.canonical, times)))
        assert out.read_bytes() == whole.read_bytes()

    def test_a_non_finite_frame_exits_2_and_leaves_the_output_as_it_was(
            self, fitted, tmp_path, monkeypatch, capsys):
        _, ckpt = fitted
        frames = SplineField.deform_frames

        def past_float32_second(self, points, times):
            first = next(frames(self, points, times))
            return iter([first, np.where(np.arange(len(points))[:, None] == 4, 1e39, first)])
        monkeypatch.setattr(SplineField, "deform_frames", past_float32_second)
        out = tmp_path / "out"
        out.mkdir()
        (out / "interp.traj").write_bytes(b"before")
        assert main(["interp", "--ckpt", str(ckpt), "--times", "0.0,0.5",
                     "--out", str(out / "interp.traj")]) == 2
        assert capsys.readouterr().err == "error: non-finite position at frame 1, point 4\n"
        assert [p.name for p in out.iterdir()] == ["interp.traj"]
        assert (out / "interp.traj").read_bytes() == b"before"

    def test_interp_of_many_times_holds_about_one_frame(self, tmp_path):
        ckpt, n = tmp_path / "wide.ckpt", 3000
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 3))
        SplineField(FieldConfig(rank=2, hidden=16, depth=2), pts).save(ckpt)

        def peak(times) -> int:
            tracemalloc.start()
            try:
                assert main(["interp", "--ckpt", str(ckpt), "--times", ",".join(times),
                             "--out", str(tmp_path / "interp.traj")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the two end times read every knot, as the 300 do
        ends, many = peak(["0", "1"]), peak([f"{t:.4f}" for t in np.linspace(0, 1, 300)])
        frame = n * 3 * 8
        # the [T, N, 3] deform, its f32 cast and the cast's bytes took about
        # 300 * 2 frames more (41.7 MB)
        assert many < ends + 2 * frame

    def test_advect_dt_zero_equals_deform(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        out = tmp_path / "adv.ply"
        rc = main(["advect", "--ckpt", str(ckpt), "--from-t", "0.5",
                   "--dt", "0.0", "--out", str(out)])
        assert rc == 0
        fld = SplineField.load(ckpt)
        _, xyz, rgb = read_ply(out)
        np.testing.assert_array_equal(xyz, fld.deform(fld.canonical, 0.5).astype(np.float32))
        assert rgb is None

    def test_flow_emits_requested_count(self, tmp_path):
        traj = _gen(tmp_path)
        ckpt = _fit(tmp_path, traj)
        rc = main(["flow", "--ckpt", str(ckpt), "--frames", "6",
                   "--out-prefix", str(tmp_path / "flow")])
        assert rc == 0
        assert len(list(tmp_path.glob("flow_*.ply"))) == 6

    def test_flow_frames_hold_deform_and_velocity_colors(self, fitted, tmp_path):
        _, ckpt = fitted
        assert main(["flow", "--ckpt", str(ckpt), "--frames", "4",
                     "--out-prefix", str(tmp_path / "flow")]) == 0
        fld = SplineField.load(ckpt)
        for j, t in enumerate(np.linspace(0.0, 1.0, 4)):
            _, xyz, rgb = read_ply(tmp_path / f"flow_{j:04d}.ply")
            np.testing.assert_array_equal(xyz, fld.deform(fld.canonical, t).astype(np.float32))
            np.testing.assert_array_equal(rgb, flow_colors(fld.velocity(fld.canonical, t)))

    def test_flow_predicts_each_knot_once(self, fitted, tmp_path, monkeypatch):
        # deform and velocity at every frame time share the loaded field's knots
        _, ckpt = fitted
        calls = []
        predict = SplineField.predict_knot

        def counting(self, tape, spatial, k, memo=None):
            calls.append(k)
            return predict(self, tape, spatial, k, memo)
        monkeypatch.setattr(SplineField, "predict_knot", counting)
        assert main(["flow", "--ckpt", str(ckpt), "--frames", "5",
                     "--out-prefix", str(tmp_path / "flow")]) == 0
        assert sorted(calls) == list(range(SplineField.load(ckpt).cfg.n_knots))


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
    # finite in float64, but the PLY's float32 properties cannot hold the points
    "advect-dt-1e308": (["advect", "--ckpt", "{ckpt}", "--from-t", "0.5", "--dt", "1e308"],
                        "point 0 is not finite in float32"),
    "flow-frames-0": (["flow", "--ckpt", "{ckpt}", "--frames", "0"], "--frames"),
    "interp-non-numeric-time": (["interp", "--ckpt", "{ckpt}", "--times", "0.1,abc"],
                                "--times entry 'abc' is not a number"),
    "interp-no-times": (["interp", "--ckpt", "{ckpt}", "--times", ","], "no times given"),
    "gen-points-0": (["gen", "--kind", "rotate", "--points", "0"], "n_points"),
    "fit-stride-0": (["fit", "--traj", "{traj}", "--stride", "0"], "stride"),
    "fit-frac-0": (["fit", "--traj", "{traj}", "--frac", "0"], "supervised_fraction"),
    "fit-frac-1.5": (["fit", "--traj", "{traj}", "--frac", "1.5"], "supervised_fraction"),
    "fit-one-train-frame": (["fit", "--traj", "{traj}", "--stride", "9"], "training frames"),
    "fit-unknown-set-key": (["fit", "--traj", "{traj}", "--set", "nope=1"], "nope"),
    "fit-set-snapshot-every": (["fit", "--traj", "{traj}", "--set", "snapshot_every=5"],
                               "unknown config key 'snapshot_every'"),
    # keys that are trainer constants now
    **{f"fit-set-{k}": (["fit", "--traj", "{traj}", "--set", f"{k}={v}"],
                        f"unknown config key '{k}'")
       for k, v in (("beta1", "0.9"), ("beta2", "0.999"), ("eps", "1e-8"),
                    ("grid_lr_mult", "10"), ("frames_per_step", "4"),
                    ("accel_mode", "l2"), ("lr_decay", "0.5"))},
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

    def test_eval_stride_one_has_no_frames(self, fitted, tmp_path, capsys):
        traj, ckpt = fitted
        with pytest.warns(UserWarning, match="no held-out frames"):
            assert main(["eval", "--ckpt", str(ckpt), "--traj", str(traj),
                         "--stride", "1"]) == 2
        assert "no frames to evaluate" in capsys.readouterr().err

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
    """One NaN in dec.l0.b, patched into the bytes: write_checkpoint refuses it."""
    data = bytearray(ckpt.read_bytes())
    name = b"dec.l0.b"
    rank_at = data.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
    struct.pack_into("<f", data, rank_at + 1 + 4 * data[rank_at], np.nan)
    bad.write_bytes(bytes(data))


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


def _wrapping_dims(ckpt, bad):
    """A last section whose dims (65536,)*4 multiply to 2**64 elements, 0 in int64."""
    data = bytearray(ckpt.read_bytes())
    (hlen,) = struct.unpack_from("<I", data, 12)
    (count,) = struct.unpack_from("<I", data, 16 + hlen)
    struct.pack_into("<I", data, 16 + hlen, count + 1)
    name = b"huge"
    data += struct.pack("<H", len(name)) + name + struct.pack("<B4I", 4, *(65536,) * 4)
    bad.write_bytes(bytes(data))


def _config(**edits):
    """A header whose config takes `edits`: here arrays of over 128 TiB, or
    10**12 layers, far beyond the checkpoint's, which loading must refuse at
    the field's parameter budget, before allocating anything, in the time a
    small checkpoint takes; or rank 0, which no variant takes."""
    def corrupt(ckpt, bad):
        arrays, header = dataio.read_checkpoint(ckpt)
        header["config"].update(edits)
        dataio.write_checkpoint(bad, arrays, header)
    return corrupt


_PAST_THE_BUDGET = "declare over 134217728 parameter values or over 65536 arrays"
CORRUPTIONS = {"nan-in-dec.l0.b": (_nan_in_bias, "'dec.l0.b'"),
               "repeated-canonical": (_second_canonical, "'__canonical__'"),
               "trailing-bytes": (_trailing_garbage, "trailing bytes"),
               "dims-wrap-int64": (_wrapping_dims, "truncated payload for 'huge'"),
               "n_knots-1e14": (_config(n_knots=10 ** 14), _PAST_THE_BUDGET),
               "hidden-2**45": (_config(hidden=2 ** 45), _PAST_THE_BUDGET),
               "triplanes-level-65536": (_config(variant="triplanes", grid_levels=[65536]),
                                         _PAST_THE_BUDGET),
               "depth-10**12": (_config(depth=10 ** 12), _PAST_THE_BUDGET),
               **{f"{v}-rank-0": (_config(variant=v, rank=0), "rank must be >= 1, got 0")
                  for v in ("siren-resfields", "triplanes", "coupled4d-baseline")}}


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
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


# one key per config type: (key, a string of the wrong type, the type's requirement)
WRONG_TYPES = [("steps", "1e3", "an integer"), ("lr", "fast", "a number"),
               ("quintic", "maybe", "a bool"), ("grid_levels", "16,x", "integers")]


class TestOneMessageForm:
    """A value of the wrong type reads "<key> must be <requirement>, got ..."
    from `fit --set`, from TrainConfig and, for a field key, from a header."""

    @pytest.mark.parametrize("key, raw, want", WRONG_TYPES)
    def test_fit_set(self, fitted, tmp_path, capsys, key, raw, want):
        traj, _ = fitted
        assert main(["fit", "--traj", str(traj), "--out", str(tmp_path / "f.ckpt"),
                     "--set", f"{key}={raw}"]) == 2
        assert capsys.readouterr().err == f"error: {key} must be {want}, got {raw!r}\n"

    @pytest.mark.parametrize("key, raw, want", WRONG_TYPES)
    def test_train_config(self, key, raw, want):
        with pytest.raises(ValueError, match=f"^{key} must be {want}, got "):
            trainer.TrainConfig(**{key: raw})

    @pytest.mark.parametrize("key, raw, want",
                             [w for w in WRONG_TYPES if w[0] in FieldConfig.__annotations__])
    def test_checkpoint_header(self, fitted, tmp_path, key, raw, want):
        _, ckpt = fitted
        bad = tmp_path / "bad.ckpt"
        _config(**{key: raw})(ckpt, bad)
        with pytest.raises(dataio.FormatError, match=f": {key} must be {want}, got "):
            SplineField.load(bad)


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
