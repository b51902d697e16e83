"""One benchmark process: import ccdp, make the inputs, run one workload.

Started by ``run.py`` with the thread count pinned in its environment.
Prints one JSON object as its last stdout line.  With ``--setup-only`` it
stops after set-up and reports only the set-up time.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import workloads  # imports ccdp and numpy: part of set-up

    origin = os.path.realpath(workloads.model.__file__)
    if not origin.startswith(os.path.realpath(args.src) + os.sep):
        sys.exit(f"ccdp imported from {origin}, not from {args.src}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmpdir)
    setup_s = perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    unscaled = pace = None
    if args.trace:
        metrics = workloads.traced_run(workload)
    else:
        metrics, unscaled, pace = workloads.timed_run(workload, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "metrics": metrics,
        "unscaled": unscaled,
        "pace": pace,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "problems": workload.tally.problems,
        "scheme_z": workload.scheme_z,
        "numpy": workloads.np.__version__,
    }))


if __name__ == "__main__":
    main()
