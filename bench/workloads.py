"""One benchmark workload, run in a fresh process by ``bench/run.py``.

    python3 bench/workloads.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --t0 T [--setup-only] [--smoke]

The process imports ``spen`` from ``DIR/src``, parses the workload's
configuration and builds its problem (the set-up), then runs ops in a closed
loop with a single caller until ``S`` seconds have passed, at least one op.
Op ``i`` uses seed ``1000 * N + i``.  Every op's output is checked.  With
``--trace 1`` each op runs twice, untraced and then traced, and the two runs
must agree byte for byte.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout

import numpy as np

from spans import SpanRecorder, installed, layer_metrics, ledger_gaps

OPS_PER_SEED = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    """``config`` is the text ``spen`` reads with ``parse_config``.  A
    ``study`` runs it as ``spen certify``; otherwise one op is one solve,
    whose final x must lie near ``x_star``.  Family "Q2" is the
    two-constraint problem built here."""

    name: str
    config: str
    x_star: tuple[float, ...] | None = None
    study: bool = False


def _config(family, epsilon, max_outer, mode="sfo", extra=""):
    return (
        f"[problem]\nfamily = {family}\nsigma = 0.1\n{extra}"
        f"[penalty]\nepsilon = {epsilon}\nmax_outer = {max_outer}\noracle_mode = {mode}\n"
        "[run]\nreplications = 30\n"
    )


# Why each workload is here: see bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("p2-sfo-solve", _config("P2", 0.1, 5), (0.5, 0.5)),
        Workload("p2-sfo-study", _config("P2", 0.4, 5), study=True),
        Workload("p2-szo-solve", _config("P2", 0.9, 2, "szo"), (0.5, 0.5)),
        Workload("q2-sfo-solve", _config("Q2", 0.4, 5), (1 / 3, 1 / 3, 1 / 3)),
    )
}

# Reduced inputs for the benchmark's own smoke test: the same code paths at
# a fraction of a second per op.
SMOKE = {
    w.name: w
    for w in (
        Workload("p2-sfo-solve", _config("P2", 0.9, 3), (0.5, 0.5)),
        Workload("p2-sfo-study", _config("P2", 0.9, 2), study=True),
        Workload("p2-szo-solve", _config("P1", 0.9, 2, "szo", extra="n = 1\n"), (0.0,)),
        Workload("q2-sfo-solve", _config("Q2", 0.9, 3), (1 / 3, 1 / 3, 1 / 3)),
    )
}


def build_q2(spen, sigma):
    """min 0.5*||x - 1||^2 s.t. x1 + x2 + x3 = 1, x1 = x2, from x = (2, 0, -1).

    The solution is (1/3, 1/3, 1/3).  No built-in family has two
    constraints, so the problem is assembled from the public classes.
    """
    jac = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    ones = np.ones(3)

    def value(x):
        diff = np.asarray(x, dtype=float) - ones
        return 0.5 * np.sum(diff * diff, axis=-1)

    def grad(x):
        return np.asarray(x, dtype=float) - ones

    def constraints(x):
        return np.array([x[0] + x[1] + x[2] - 1.0, x[0] - x[1]]), jac

    return spen.ConstrainedProblem(
        n=3,
        q=2,
        constraints=constraints,
        oracle=spen.GaussianOracle(value=value, grad=grad, sigma=sigma),
        constants=spen.ProblemConstants(
            L_g=1.0,
            L_J=0.05,
            sigma=sigma,
            f_low=0.0,
            kappa_g=math.sqrt(27.0),
            kappa_c=6.0,
            kappa_f=13.5,
            kappa_J=float(np.linalg.norm(jac, 2)),
        ),
        true_objective=lambda x: (float(value(x)), grad(x)),
        x_init=np.array([2.0, 0.0, -1.0]),
        name="Q2",
    )


def import_spen(root):
    """Import ``spen`` from the checkout's ``src``; fail if it is absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spen", "__init__.py")):
        raise SystemExit(f"no spen sources under {src}")
    sys.path.insert(0, src)
    import spen
    import spen.cli

    if not os.path.abspath(spen.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported spen from {spen.__file__}, not from {src}")
    return spen


@dataclasses.dataclass
class Prepared:
    config: object
    problem: object


def setup(spen, text):
    config = spen.parse_config(text)
    if config.problem.family == "Q2":
        problem = build_q2(spen, config.problem.sigma)
    else:
        problem = spen.build_problem(config.problem)
    return Prepared(config, problem)


@dataclasses.dataclass
class OpResult:
    seconds: float
    calls: int
    iterations: float
    reps: int
    failed: int
    problems: list[str]
    csv: bytes
    x: np.ndarray | None


def inner_iterations(spen, prepared, records):
    """Inner iterations of the rounds in ``records``, counted from outside:
    each round's ledger increase divided by its batch cost (``m`` for SFO,
    ``2m`` for SZO, ``m`` taken from the budget at the round's ``rho``)."""
    penalty = prepared.config.penalty
    per_call = 1 if penalty.oracle_mode == "sfo" else 2
    cost: dict[float, int] = {}
    total = 0.0
    previous: dict[int, int] = {}
    for r in sorted(records, key=lambda r: (r.replication, r.outer_iter)):
        if r.rho not in cost:
            budget = spen.subproblem_budget_for_rho(
                r.rho,
                penalty.epsilon,
                prepared.problem.constants,
                penalty.oracle_mode,
                n=prepared.problem.n,
                d_tilde=penalty.d_tilde,
                d1_tilde=penalty.d1_tilde,
                d2_tilde=penalty.d2_tilde,
            )
            cost[r.rho] = per_call * budget.m
        total += (r.oracle_calls - previous.get(r.replication, 0)) / cost[r.rho]
        previous[r.replication] = r.oracle_calls
    return total


def run_solve(spen, prepared, x_star, seed, csv_path):
    t = time.perf_counter()
    result = spen.run_penalty(prepared.problem, prepared.config.penalty, spen.RandomStream(seed))
    spen.write_records(result.records, csv_path)
    seconds = time.perf_counter() - t
    problems = []
    if not result.certificate.verdict:
        problems.append(f"seed {seed}: certificate verdict FAIL")
    tol = math.sqrt(2.0 * prepared.config.penalty.epsilon)
    dist = float(np.linalg.norm(result.state.x - np.asarray(x_star)))
    if not dist <= tol:
        problems.append(
            f"seed {seed}: final x {result.state.x} is {dist:.3g} from x* (tol {tol:.3g})"
        )
    with open(csv_path, "rb") as fh:
        csv = fh.read()
    return OpResult(
        seconds=seconds,
        calls=result.state.oracle_calls,
        iterations=inner_iterations(spen, prepared, result.records),
        reps=1,
        failed=1 if problems else 0,
        problems=problems,
        csv=csv,
        x=result.state.x.copy(),
    )


def run_study(spen, prepared, seed, csv_path):
    config = dataclasses.replace(prepared.config, seed=seed, output=csv_path)
    printed = io.StringIO()
    t = time.perf_counter()
    with redirect_stdout(printed):
        code = spen.cli.dispatch("certify", config)
    seconds = time.perf_counter() - t
    out = printed.getvalue()
    records = spen.read_records(csv_path)
    # rows come sorted by (replication, outer_iter): the last row of a
    # replication holds its cumulative ledger
    final = {r.replication: r.oracle_calls for r in records}
    reps = config.replications
    missing = reps - len(final)
    passed = code == 0 and "verdict: PASS" in out
    problems = []
    if not passed:
        problems.append(f"seed {seed}: certify exited {code}: {out.strip().splitlines()[-3:]}")
    if missing or "failed replications" in out:
        problems.append(f"seed {seed}: {missing} of {reps} replications failed")
    with open(csv_path, "rb") as fh:
        csv = fh.read()
    return OpResult(
        seconds=seconds,
        calls=sum(final.values()),
        iterations=inner_iterations(spen, prepared, records),
        reps=reps,
        failed=missing if passed else reps,
        problems=problems,
        csv=csv,
        x=None,
    )


def run_op(spen, workload, prepared, seed, csv_path):
    try:
        if workload.study:
            return run_study(spen, prepared, seed, csv_path)
        return run_solve(spen, prepared, workload.x_star, seed, csv_path)
    except Exception:
        # an op that raises is a failed op; the loop goes on to the next one
        reps = prepared.config.replications if workload.study else 1
        message = f"seed {seed}: raised\n{traceback.format_exc()}"
        return OpResult(0.0, 0, 0.0, reps, reps, [message], b"", None)


def _rate(results, field):
    """Total ``field`` per second over the ops that ran."""
    seconds = sum(r.seconds for r in results)
    return sum(getattr(r, field) for r in results) / seconds if seconds > 0 else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at process launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    spen = import_spen(args.root)
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    rec = SpanRecorder() if args.trace else None
    with installed(rec) if rec else nullcontext():
        prepared = setup(spen, workload.config)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(args.root, "bench", "out", run_name)
    os.makedirs(workdir, exist_ok=True)
    plain_csv = os.path.join(workdir, "records.csv")
    traced_csv = os.path.join(workdir, "records-traced.csv")

    plain, traced, problems = [], [], []
    deadline = time.perf_counter() + args.seconds
    op = 0
    while True:
        seed = OPS_PER_SEED * args.seed + op
        res = run_op(spen, workload, prepared, seed, plain_csv)
        plain.append(res)
        problems += res.problems
        if rec is not None:
            rec.op = op
            with installed(rec):
                tres = run_op(spen, workload, prepared, seed, traced_csv)
            rec.op = -1
            traced.append(tres)
            problems += tres.problems
            if tres.csv != res.csv:
                problems.append(f"seed {seed}: traced CSV differs from the untraced CSV")
            if res.x is not None and not np.array_equal(res.x, tres.x):
                problems.append(f"seed {seed}: traced final x {tres.x} != untraced {res.x}")
        op += 1
        if time.perf_counter() >= deadline:
            break

    result = {
        "attempted": sum(r.reps for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "setup_s": setup_s,
        "numpy": np.__version__,
        "ops": op,
    }
    if rec is None:
        result["metrics"] = {
            "calls_per_s": (_rate(plain, "calls"), "1/s"),
            "iters_per_s": (_rate(plain, "iterations"), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    else:
        for op_id, gap in sorted(ledger_gaps(rec).items()):
            if op_id >= 0 and gap != 0:
                problems.append(f"op {op_id}: oracle samples minus ledger = {gap:g}")
        metrics = layer_metrics(rec)
        rate, traced_rate = _rate(plain, "iterations"), _rate(traced, "iterations")
        metrics["trace.overhead"] = (1.0 - traced_rate / rate if rate else 0.0, "ratio")
        result["metrics"] = metrics
        rec.save(os.path.join(workdir, "spans.npz"))
    result["problems"] = problems
    result["correct"] = not problems and result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
