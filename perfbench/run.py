"""ccdp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Starts the workload in a fresh
worker process pinned to one thread, checks every output, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
rescaled to a nominal machine pace (``workloads.Pace``); ``--trace 1`` the
per-layer metrics of a separate traced pass.  The line before it records
the environment: cpu count, Python and numpy versions, thread settings,
the pace probes, the timings before rescaling, failed_ratio and the Monte
Carlo z-score diagnostics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("grid-commands", "point-queries", "mc-verify")
THREAD_ENV = {"CCDP_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6          # fresh set-up processes besides the worker's own
PROBE_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 110


def _metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json asks of this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        table = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def _worker(args, tmpdir, setup_only=False):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", SRC, "--tmpdir", tmpdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(  # kills and reaps the worker on timeout
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    os.makedirs(SCRATCH, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        probes = [] if args.trace else [
            _worker(args, tmpdir, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = _worker(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(probes + [values["setup_s"]])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in _metric_units(args.trace).items()}
    z = result["scheme_z"]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "threads": THREAD_ENV,
        "pace": result["pace"],
        "unscaled": result["unscaled"],
        "failed_ratio": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "scheme_z": {"n": len(z),
                     "mean": statistics.fmean(z) if z else None,
                     "sd": statistics.pstdev(z) if len(z) > 1 else None},
    }
    return env, {"correct": result["failed"] == 0,
                 "attempted": result["attempted"],
                 "failed": result["failed"],
                 "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ccdp", "__init__.py")):
        sys.exit(f"no ccdp sources under {SRC}; run from a source checkout")
    try:
        env, result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            OSError) as exc:
        sys.exit(f"benchmark failed: {type(exc).__name__}: {exc}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
