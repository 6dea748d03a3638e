"""Benchmark of spen's oracle-call throughput; see bench/README.md.

Run from the root of a checkout:

    python3 bench/run.py --workload p2-sfo-solve --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

Each workload runs in a fresh process with BLAS pinned to one thread.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Each metric is printed as a line
``name value unit``; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output checked was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("p2-sfo-solve", "p2-sfo-study", "p2-szo-solve", "q2-sfo-solve")
# set-up is measured this many times per run, each in a fresh process; the
# last of them goes on to run the workload
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 175.0
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def _child(args, deadline, extra):
    """Run one workload process; returns its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--root",
        ROOT,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{args.workload} did not finish within {RUN_TIMEOUT_S:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(args):
    """Measure one workload; returns the result object and the run's metadata."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(args, deadline, ["--setup-only"])["setup_s"])
    out = _child(args, deadline, [])
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in out["metrics"].items()}
    if not args.trace:
        setups.append(out["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": out["ops"],
        "setup_samples_s": setups,
        "python": platform.python_version(),
        "numpy": out["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "blas_threads": 1,
        "problems": out["problems"],
    }
    return result, meta


def _report(result, meta):
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"ops {result['attempted']} count")
    print(f"ops_failed {result['failed']} count")
    for problem in meta["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(
        HERE, "out", f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "meta": meta}, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "spen", "__init__.py")):
        print(f"error: no spen sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, meta = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        _report(result, meta)
        results[name] = result
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
