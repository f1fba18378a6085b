"""Pin the output digests of some seeds in ``digests.json``.

    python3 perfbench/pin.py --workload novel --seeds 1 2 3

Run from the root of a checkout whose outputs are known to be right.
Each seed's document goes through the benchmark's checks and one
untimed run of every operation; the digests of their outputs are
stored, and later benchmark runs on that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS),
                        required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    with open(checks.PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    work = run.WORK / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for seed in args.seeds:
            bench = run.Bench(args.workload, seed, work)
            bench.pins = {}
            bench.prepare()
            for op in run.OPS:
                bench.run_op(op)
            if bench.failed:
                print(f"seed {seed}: {bench.failed} checks failed, "
                      "nothing pinned", file=sys.stderr)
                return 1
            pins.setdefault(args.workload, {})[str(seed)] = bench.reference
            print(f"{args.workload} {seed}: {bench.reference}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
