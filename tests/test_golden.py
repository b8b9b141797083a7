"""Same-seed digests of thirteen short fits and of the synthetic scenes, and
a committed checkpoint.

Each case fits a field for a few steps on one seeded scene and pins
SHA-256 digests (first 16 hex digits) of what the fit and its checkpoint
produce: the fitted float64 parameters, every step's losses and gradient
norms, the checkpoint bytes, `evaluate`'s summary and rows, the `eval
--report` CSV, and `deform`, `velocity` and `advect` on the reloaded
checkpoint. A one-ulp change to any fitted parameter changes the first
digest, so numeric drift between commits fails here. A change that moves
numbers on purpose updates the pins of the cases it moves, and says why in
CHANGES.md.

The scene has 280 points, 70 of them supervised, so the triaxes factors
(32 and 64 cells) take the encoder's build-then-sample path on every point
set, while the triplanes factors (1024 and 4096 cells) sample their base and
residual stacks first in training. Most cases fit two knots, so on all
280 points the reloaded field's queries, which share its canonical knot
states, build the level-32 planes instead. The four 6-knot cases fit a knot
count at which a step reads some knots and not others, so their digests
also pin the order in which a step and a query predict their knots: with
two knots every order is [0, 1]. The two batch cases train on 60 of the 70
points, so the velocity term predicts its knots on the batch's neighbor
closure and slices their states to the batch rows; triplanes-batch pins
that slice on a grid field.

SCENE_PINS holds the digest of `gen_synthetic`'s positions bytes for every
scene kind at two sizes (n_points, n_frames, seed): 37 points, which the
bending sheet's 7 x 7 grid does not fill, and 500 points over 60 frames.

`tests/data/triplanes_small.ckpt` is a perturbed 20-point triplanes field
(levels (4, 8), 4 channels) written by an earlier commit, and
`triplanes_small_out.npz` holds that commit's `deform` and `velocity` of
its canonical points: the checkpoint must keep loading and querying alike.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from splinefield import dataio, metrics, trainer
from splinefield.field import SplineField

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
QUERY_TIMES = [0.0, 0.27, 0.5, 0.81, 1.0]

CASES = {
    "siren": {},
    "pe": {"variant": "pe-resfields"},
    "triplanes": {"variant": "triplanes"},
    "triaxes": {"variant": "triaxes"},
    "coupled4d": {"variant": "coupled4d-baseline"},
    "siren-quintic": {"quintic": True},
    "triplanes-quintic": {"variant": "triplanes", "quintic": True},
    "siren-batch": {"batch_points": 60},
    "siren-6knots": {"n_knots": 6},
    "triplanes-6knots": {"variant": "triplanes", "n_knots": 6},
    "siren-batch-6knots": {"n_knots": 6, "batch_points": 60},
    "triplanes-alpha0-6knots": {"variant": "triplanes", "n_knots": 6, "alpha": 0.0},
    "triplanes-batch": {"variant": "triplanes", "batch_points": 60},
}

PINS = {
    "siren": {
        "params": "d35afc6dae461317", "log": "2e64a68a5cb4a397", "ckpt": "c40928a6a00ce85c",
        "eval": "5328511cbb136491", "report": "e8df2c90ad1e4a27", "queries": "bc1d5af200726ba9"},
    "pe": {
        "params": "76414b97afc8e8f7", "log": "7bb243105e5cec3a", "ckpt": "acc14e43ca4e0f08",
        "eval": "711afef74a6db204", "report": "49d3d170138934ad", "queries": "b097bd4028b79ffd"},
    "triplanes": {
        "params": "19d3b30c21abb91b", "log": "c026d223430471c0", "ckpt": "d7ebedfc16b3d016",
        "eval": "35d6da8a71da5304", "report": "a991c4bc9b945ebb", "queries": "7d3a61f129cb42d9"},
    "triaxes": {
        "params": "4485b72298f49bb2", "log": "e83c30ecc5b90124", "ckpt": "de65ac4133412724",
        "eval": "a5fc043962fd76f5", "report": "26f6a8729d8cf15a", "queries": "5daabf402eaee1e8"},
    "coupled4d": {
        "params": "e02f4eaeda590e8a", "log": "836c738eff643160", "ckpt": "ed9f116540a21679",
        "eval": "ae25121c95c5054c", "report": "82389304f3419023", "queries": "b2dbb53e581cc646"},
    "siren-quintic": {
        "params": "9ffb4212b280c8ee", "log": "fa57f3587b31ba4b", "ckpt": "7efe877bc3aa9913",
        "eval": "40f09e0233e5601c", "report": "0092a3f2df92a94d", "queries": "6c76ee4741d9bb54"},
    "triplanes-quintic": {
        "params": "7bdc337b6b013414", "log": "c74e6b22eaa8b6d6", "ckpt": "0c373047ff351521",
        "eval": "1881dbb4b02e9f3b", "report": "c2376ae4ac18f801", "queries": "6eefa38b9662bba4"},
    "siren-batch": {
        "params": "834f412a2c2c59cb", "log": "fa58fbd03267094e", "ckpt": "f2118a5a6dac65a5",
        "eval": "5989d82d00c1fb58", "report": "ccc80f6ce6d7d252", "queries": "7e9dd40e7c670a18"},
    "siren-6knots": {
        "params": "e8aaf97bb6b9cae2", "log": "ee591cd22deafcd1", "ckpt": "9a9dd8a2d20b6fa2",
        "eval": "29ffa92f6ad9c83f", "report": "5b2dca9a213130ac", "queries": "cc8a3be90dd6c6b7"},
    "triplanes-6knots": {
        "params": "ee6d20c2dae8cb2f", "log": "d7da471a389878f1", "ckpt": "27702ca167ecd200",
        "eval": "83a25770b0998521", "report": "f3a5c2294aed2761", "queries": "246e3793e3506104"},
    "siren-batch-6knots": {
        "params": "7a1061d0058f16ac", "log": "af6d576adf00d2c4", "ckpt": "1723db513ae54821",
        "eval": "2c696bc1ab048239", "report": "3efd3930584bdfe7", "queries": "7d4f111d0e23e70c"},
    "triplanes-alpha0-6knots": {
        "params": "278ef90141c46e69", "log": "83c1beea10fe475b", "ckpt": "37a85ab079e935e1",
        "eval": "540b0b98f6f4a0cc", "report": "1d0877d9ff4dfc63", "queries": "0c52fe7df32e307c"},
    "triplanes-batch": {
        "params": "ec633ef532736d5f", "log": "8ac2c257c2a826a6", "ckpt": "60e813898d2e15c8",
        "eval": "ab6fd3668db0abc0", "report": "71a25ed8fff75c78", "queries": "112a9faf18943970"},
}

SCENE_SIZES = {"37x9": (37, 9, 3), "500x60": (500, 60, 3)}
SCENE_PINS = {
    "rigid-translate": {"37x9": "75a9fdf3fe5e7c7e", "500x60": "a913f87ef2d3412a"},
    "rotate": {"37x9": "83d57a2f48f39bd6", "500x60": "1ade709611ebbbc7"},
    "bending-sheet": {"37x9": "d3fed7a7bad9279c", "500x60": "072ea6d8b827e715"},
    "swing-arm": {"37x9": "1d080379f851f540", "500x60": "cc980f8d15443a86"},
    "composite": {"37x9": "a966a51bb6cd7286", "500x60": "f628665e252f5597"},
}


def scene():
    traj = dataio.gen_synthetic("composite", 280, 13, seed=3)
    return traj, dataio.split_frames(traj, dataio.SplitSpec(4, 0.25), seed=3)


def fit(case: str):
    """The case's 6-step fit on the scene: (field, run log, trajectory, split)."""
    traj, split = scene()
    cfg = trainer.TrainConfig(steps=6, seed=3, **CASES[case])
    fld, log = trainer.train(traj, split, cfg)
    return fld, log, traj, split


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _arrays(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def digests(case: str, tmp) -> dict:
    fld, log, traj, split = fit(case)
    ckpt = os.path.join(tmp, f"{case}.ckpt")
    fld.save(ckpt)
    with open(ckpt, "rb") as f:
        ckpt_bytes = f.read()
    back = SplineField.load(ckpt)
    summary, rows = trainer.evaluate(back, traj, split)
    report = os.path.join(tmp, f"{case}.csv")
    metrics.write_report(report, rows)
    with open(report, "rb") as f:
        report_bytes = f.read()
    pts = back.canonical
    return {
        "params": _sha(*(fld.store.value(n).tobytes() for n in fld.store.names())),
        "log": _sha([(r["recon"], r["lv"], r["lacc"], r["total"],
                      list(r["grad_norms"].values())) for r in log.rows]),
        "ckpt": _sha(ckpt_bytes),
        "eval": _sha(summary, rows),
        "report": _sha(report_bytes),
        "queries": _sha(_arrays(back.deform(pts, QUERY_TIMES),
                                back.velocity(pts, QUERY_TIMES),
                                back.advect(pts, 0.4, 0.3))),
    }


def scene_digests(kind: str) -> dict:
    return {size: _sha(dataio.gen_synthetic(kind, *args).positions.tobytes())
            for size, args in SCENE_SIZES.items()}


@pytest.mark.parametrize("kind", dataio.SYNTHETIC_KINDS)
def test_synthetic_scene_matches_its_pins(kind):
    assert scene_digests(kind) == SCENE_PINS[kind]


def test_every_case_has_pins_and_every_pin_a_case():
    # a removed case must take its pins along: a pin without a case is never checked
    assert CASES.keys() == PINS.keys()


@pytest.mark.parametrize("case", CASES)
def test_same_seed_fit_matches_its_pins(case, tmp_path):
    assert digests(case, str(tmp_path)) == PINS[case]


def test_committed_checkpoint_loads_and_queries_alike():
    fld = SplineField.load(os.path.join(DATA, "triplanes_small.ckpt"))
    want = np.load(os.path.join(DATA, "triplanes_small_out.npz"))
    assert fld.cfg.variant == "triplanes" and fld.cfg.grid_levels == (4, 8)
    for name, query in (("deform", fld.deform), ("velocity", fld.velocity)):
        got = query(fld.canonical, want["times"])
        np.testing.assert_allclose(got, want[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(want[name]).max(), err_msg=name)


def test_the_script_exits_0_at_two_blas_threads():
    # two BLAS threads may split a matmul's sums another way than one does
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    # Prints every scene's digests in the SCENE_PINS layout, then each case's
    # (all cases, or those named) in the PINS layout, each followed by the
    # keys that differ from its pins; exits 1 if a scene or a pinned case moved:
    #   PYTHONPATH=src python tests/test_golden.py [case ...]
    import tempfile

    if unknown := [c for c in sys.argv[1:] if c not in CASES]:
        sys.exit(f"no golden case {', '.join(unknown)}; the cases are {', '.join(CASES)}")
    any_moved = False
    print("SCENE_PINS = {")
    for kind in dataio.SYNTHETIC_KINDS:
        got = scene_digests(kind)
        moved = [k for k, v in got.items() if SCENE_PINS[kind][k] != v]
        any_moved |= bool(moved)
        items = ", ".join(f'"{k}": "{v}"' for k, v in got.items())
        print(f'    "{kind}": {{{items}}},' + (f"  # moved: {', '.join(moved)}" if moved else ""))
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print("PINS = {")
        for case in sys.argv[1:] or CASES:
            got = digests(case, tmp)
            moved = [k for k, v in got.items() if PINS.get(case, {}).get(k) != v]
            note = f"  # moved: {', '.join(moved)}" if case in PINS and moved else (
                "" if case in PINS else "  # not pinned")
            any_moved |= case in PINS and bool(moved)
            items = [f'"{k}": "{v}"' for k, v in got.items()]
            print(f'    "{case}": {{')
            print("        " + ", ".join(items[:3]) + ",")
            print("        " + ", ".join(items[3:]) + "}," + note)
        print("}")
    sys.exit(1 if any_moved else 0)
