"""Record the correctness reference for a range of seeds.

    python3 bench/record.py --seeds 0-19 [--workload fit-mlp ...]

For each workload and seed, runs one short untraced pass of bench/workload.py
without a reference (one fit, the evaluate, every deform time and flow
frame) and stores what it produced in bench/reference.json: per-step fit
losses, the evaluate summary (EPE, mean Moran's I) and digests of the
deform and flow outputs. Seeds already recorded are kept unless --force.
"""

from __future__ import annotations

import argparse
import json
import os

import run

REFERENCE = os.path.join(run.BENCH_DIR, "reference.json")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="range such as 0-19")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--force", action="store_true")
    args = p.parse_args()

    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for wl in args.workload or run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            if str(seed) in reference.get(wl, {}) and not args.force:
                continue
            out = os.path.join(run.OUT_DIR, f"record-{wl}-seed{seed}.json")
            run.run_child([os.path.join(run.BENCH_DIR, "fixtures.py"),
                           "--workload", wl, "--seed", str(seed)], run.FIXTURE_TIMEOUT_S)
            run.run_child([os.path.join(run.BENCH_DIR, "workload.py"), "--workload", wl,
                           "--seed", str(seed), "--seconds", "0", "--record",
                           "--result", out], run.WORKLOAD_TIMEOUT_S)
            with open(out, encoding="utf-8") as f:
                res = json.load(f)
            if res["failed"]:
                raise SystemExit(f"{wl} seed {seed} failed: {res['errors']}")
            reference.setdefault(wl, {})[str(seed)] = res["observed"]
            with open(REFERENCE, "w", encoding="utf-8") as f:
                json.dump(reference, f, indent=1, sort_keys=True)
            print(f"recorded {wl} seed {seed}", flush=True)


if __name__ == "__main__":
    main()
