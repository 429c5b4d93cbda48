"""One workload process of the benchmark (started by ``run.py``).

    python3 perfbench/workload.py --workload W --seed S --workdir D
        [--setup-only | --part K --seconds T --trace 0|1]

Needs ``PYTHONPATH=src``.  Sets up (``import repro`` + the first
operation, checked), prints ``READY <json>``, then measures for ``T``
seconds of operations and prints one JSON line: the measured window
(latencies, cells, seconds, peak RSS) with ``--trace 0``, per-layer
metrics with ``--trace 1``.  ``K`` tells the processes of one run apart,
so each derives its own inputs from ``S``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  -- the ``setup.import_s`` layer
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS
    bench = WORKLOADS[args.workload](args.seed, args.part, args.workdir)
    traced = bool(args.trace) and not args.setup_only
    t0 = time.perf_counter()
    try:
        bench.setup(traced=traced)
        first_op_s = time.perf_counter() - t0
        ready = {"import_s": import_s, "first_op_s": first_op_s,
                 "attempted": bench.attempted, "failed": bench.failed,
                 "errors": bench.errors[:20]}
        print("READY " + json.dumps(ready), flush=True)
        if args.setup_only:
            return 0
        if traced:
            measured = {"metrics": bench.measure_traced(args.seconds)}
        else:
            measured = {"window": bench.measure(args.seconds)}
    finally:
        bench.close()
    print(json.dumps({"attempted": bench.attempted, "failed": bench.failed,
                      "errors": bench.errors[:20], **measured}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
