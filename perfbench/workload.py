"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh interpreter per run, so no state
carries over from one run to the next. Not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--jit-root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import detect_workloads
    import serve_workload

    trace = bool(args.trace)
    if args.workload == serve_workload.NAME:
        result = serve_workload.run(args.seed, args.seconds, trace, args.jit_root)
    else:
        result = detect_workloads.run(
            detect_workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            trace,
            args.tmp,
            args.jit_root,
        )
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
