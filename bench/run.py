"""Benchmark for splinefield's fit and query paths.

    python3 bench/run.py --workload fit-mlp --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. Builds the seeded fixtures in one
child process, then runs the workload alone in a fresh one with BLAS and
OpenMP pinned to one thread (bench/workload.py), prints a report and, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics; --trace 1 a traced run with the
per-layer metrics. Workloads, metrics and the baseline: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")
WORKLOADS = ("fit-mlp", "fit-grid", "query")
FIXTURE_TIMEOUT_S = 600
WORKLOAD_TIMEOUT_S = 170


def declared_units() -> tuple:
    """({name: unit} of the end-to-end metrics, same for per-layer), as
    BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               SDF_THREADS="0", PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def run_child(args: list, timeout: float) -> None:
    """Run a Python child to completion; subprocess kills it on timeout."""
    subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                   timeout=timeout, check=True, stdout=sys.stderr)


def print_report(res: dict, layer_units: dict) -> None:
    env = res["env"]
    print(f"workload={res['workload']} seed={res['seed']} seconds={res['seconds']:g} "
          f"trace={res['trace']} reference={'recorded' if res['reference'] else 'none'}")
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['threads']}")
    if "report" in res:
        for name, (value, unit, n) in res["report"].items():
            shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
            print(f"  {name:<22} {shown} {unit}  (n={n})")
    if "per_layer" in res:
        for name, value in res["per_layer"].items():
            print(f"  {name:<34} {value:.6g} {layer_units[name]}")
        print("  spans per root: calls, total ms and self ms per root operation")
        for kind, block in res["spans"].items():
            n = block["roots"] or 1
            print(f"  [{kind}] roots={block['roots']}")
            for name, (calls, secs, self_s) in sorted(block["layers"].items()):
                print(f"    {name:<32} {calls / n:10.2f} {secs * 1e3 / n:12.3f} "
                      f"{self_s * 1e3 / n:12.3f}")
    failed_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':<22} {failed_frac:.6g} ratio  "
          f"({res['failed']}/{res['attempted']})")
    for err in res["errors"]:
        print(f"  failure: {err}")


def main() -> int:
    p = argparse.ArgumentParser(description="splinefield benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "splinefield", "__init__.py")):
        print(f"error: no splinefield sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(OUT_DIR, f"result-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        run_child([os.path.join(BENCH_DIR, "fixtures.py"), "--workload", args.workload,
                   "--seed", str(args.seed)], FIXTURE_TIMEOUT_S)
        run_child([os.path.join(BENCH_DIR, "workload.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--result", result_path,
                   "--reference", os.path.join(BENCH_DIR, "reference.json")],
                  WORKLOAD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as f:
        res = json.load(f)

    end_to_end, per_layer = declared_units()
    print_report(res, per_layer)
    units = per_layer if args.trace else end_to_end
    values = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
