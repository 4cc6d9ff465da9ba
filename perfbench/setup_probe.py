"""One timed set-up for ``setup_s``: a fresh interpreter imports pontrylie and
generates one workload's inputs, then prints the wall-clock time at which it
was ready and how long the package import took, as one JSON line.

    python3 perfbench/setup_probe.py --workload NAME --seed N --work DIR [--smoke]
"""

import argparse
import json
import time
from pathlib import Path

import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    checkout.import_cli()
    import_s = time.perf_counter() - start

    from workloads import FULL, SMOKE, Params, build

    build(args.workload, Params.draw(args.seed), SMOKE if args.smoke else FULL, Path(args.work))
    print(json.dumps({"ready": time.time(), "import_s": import_s}))


if __name__ == "__main__":
    main()
