"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``spen`` from outside: a function is
rebound in every ``spen.*`` module namespace that holds it (several modules
import by name), and a method is replaced on its class.  Each call becomes a
span with a name, start, end, parent span, the benchmark op it belongs to and
the replication id it ran under.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children, the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """Append-only span store; ``op`` and ``rep`` tag every new span."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.rep_ids = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        # span index -> tuple of numbers measured from the call's arguments
        # or result (batch size, rows, bytes, ...)
        self.values: dict[int, tuple[float, ...]] = {}
        self.op = -1
        self.rep = -1
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op_ids.append(self.op)
        self.rep_ids.append(self.rep)
        self.end.append(0)
        self.error.append(0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int, failed: bool) -> None:
        self.end[i] = self.clock()
        if failed:
            self.error[i] = 1
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` recorded as span ``name``.

        ``measure(args, kwargs, result)`` returns a tuple of numbers stored
        with the span; it runs after the span closes.
        """
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                self.close(i, failed)
            if measure is not None:
                self.values[i] = measure(args, kwargs, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Columns as numpy arrays, with ``dur`` and ``self`` in ns."""
        # copies, so that recording can go on after the call
        cols = {
            "name_id": np.array(self.name_id),
            "parent": np.array(self.parent),
            "op": np.array(self.op_ids),
            "rep": np.array(self.rep_ids),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "error": np.array(self.error),
        }
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] != NO_PARENT
        children = np.zeros_like(dur)
        np.add.at(children, cols["parent"][has_parent], dur[has_parent])
        cols["dur"] = dur
        cols["self"] = dur - children
        return cols

    def save(self, path: str) -> None:
        """Write every span, and the numbers measured with them, as ``.npz``."""
        cols = self.arrays()
        index = np.fromiter(self.values, dtype=np.int64, count=len(self.values))
        width = max((len(v) for v in self.values.values()), default=0)
        table = np.full((index.size, width), np.nan)
        for row, i in enumerate(index):
            v = self.values[int(i)]
            table[row, : len(v)] = v
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.array(self.names), value_index=index, values=table, **cols)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(args, kwargs, out):
    return (float(os.path.getsize(_arg(args, kwargs, 1, "path"))),)


# (span name, defining module, attribute, measure)
FUNCTIONS = (
    ("problems.eval_constraints", "spen.problems", "eval_constraints", None),
    ("subsolvers.prox_step", "spen.subsolvers", "prox_step", None),
    ("subsolvers.theta", "spen.subsolvers", "theta", None),
    ("subsolvers.phi", "spen.subsolvers", "phi", None),
    ("sfo.solve_nsco_sfo", "spen.sfo", "solve_nsco_sfo", lambda a, k, out: (out.R,)),
    ("sfo.batch_gradient", "spen.sfo", "batch_gradient", None),
    ("sfo.stopping_pmf", "spen.sfo", "stopping_pmf", lambda a, k, out: (out.size,)),
    ("sfo.sample_stop_index", "spen.sfo", "sample_stop_index", None),
    ("szo.solve_nsco_szo", "spen.szo", "solve_nsco_szo", lambda a, k, out: (out.R,)),
    ("szo.szo_gradient_batch", "spen.szo", "szo_gradient_batch", None),
    (
        "penalty.run_penalty",
        "spen.penalty",
        "run_penalty",
        lambda a, k, out: (out.state.oracle_calls,),
    ),
    ("penalty.steer_penalty", "spen.penalty", "steer_penalty", None),
    (
        "penalty.subproblem_budget_for_rho",
        "spen.penalty",
        "subproblem_budget_for_rho",
        lambda a, k, out: (out.iterations,),
    ),
    ("harness.build_problem", "spen.harness", "build_problem", None),
    ("harness.write_records", "spen.harness", "write_records", _file_bytes),
    ("config.parse_config", "spen.config", "parse_config", None),
    ("cli.dispatch", "spen.cli", "dispatch", None),
)

# (span name, defining module, class, method, measure)
METHODS = (
    ("problems.generator", "spen.problems", "RandomStream", "generator", None),
    (
        "problems.gradient_batch",
        "spen.problems",
        "GaussianOracle",
        "gradient_batch",
        lambda a, k, out: (float(out.shape[0]),),
    ),
    (
        "problems.value_pair_batch",
        "spen.problems",
        "GaussianOracle",
        "value_pair_batch",
        # rows, and bytes of the two (m, n) inputs the values are computed on
        lambda a, k, out: (
            float(out[0].shape[0]),
            2.0 * np.asarray(_arg(a, k, 1, "xs_a")).size * 8.0,
        ),
    ),
)


def _traced_monte_carlo(rec: SpanRecorder, original):
    """``monte_carlo`` whose replications each run as a ``harness.rep`` span
    tagged with the replication id."""
    rep_nid = rec.name_index("harness.rep")

    def monte_carlo(run_fn, *args, **kwargs):
        def run_rep(rep, stream):
            rec.rep = rep
            i = rec.open(rep_nid)
            failed = True
            try:
                out = run_fn(rep, stream)
                failed = False
            finally:
                rec.close(i, failed)
                rec.rep = -1
            return out

        return original(run_rep, *args, **kwargs)

    return rec.wrap(
        "harness.monte_carlo",
        functools.wraps(original)(monte_carlo),
        lambda a, k, out: (float(len(out.failures)),),
    )


def _spen_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "spen"]


@contextmanager
def installed(rec: SpanRecorder):
    """Route the listed ``spen`` functions and methods through ``rec`` while
    the block runs; the originals are restored on exit."""
    modules = _spen_modules()
    saved = []

    def rebind(original, traced):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, traced)

    try:
        for span, module, attr, measure in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            rebind(original, rec.wrap(span, original, measure))
        harness = sys.modules["spen.harness"]
        rebind(harness.monte_carlo, _traced_monte_carlo(rec, harness.monte_carlo))
        for span, module, cls_name, attr, measure in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, rec.wrap(span, original, measure))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec: SpanRecorder, count_op: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Counts (calls, samples, rows, bytes, rounds, ...) cover the spans of op
    ``count_op`` only, so they repeat exactly for a fixed seed.  Times are
    means over every recorded span of the name.
    """
    cols = rec.arrays()
    in_op = cols["op"] == count_op

    def mask(name):
        nid = rec._ids.get(name)
        if nid is None:
            return np.zeros(cols["dur"].size, dtype=bool)
        return cols["name_id"] == nid

    def calls(name):
        return float(np.count_nonzero(mask(name) & in_op))

    def mean_self(name, scale):
        sel = mask(name)
        return float(cols["self"][sel].mean()) / scale if sel.any() else 0.0

    def total(name, k=0):
        sel = np.flatnonzero(mask(name) & in_op)
        return float(sum(rec.values[int(i)][k] for i in sel))

    us, ms, s = 1e3, 1e6, 1e9
    out: dict[str, tuple[float, str]] = {}
    for layer in (
        "problems.generator",
        "problems.gradient_batch",
        "problems.value_pair_batch",
        "problems.eval_constraints",
        "subsolvers.prox_step",
        "subsolvers.theta",
        "subsolvers.phi",
        "penalty.steer_penalty",
    ):
        out[f"{layer}.calls"] = (calls(layer), "count")
        out[f"{layer}.us"] = (mean_self(layer, us), "us")
    out["problems.gradient_batch.samples"] = (total("problems.gradient_batch"), "count")
    out["problems.value_pair_batch.rows"] = (total("problems.value_pair_batch"), "count")
    out["problems.value_pair_batch.mb_computed"] = (
        total("problems.value_pair_batch", 1) / 1e6,
        "MB",
    )
    out["subsolvers.prox_step.errors"] = (
        float(np.count_nonzero(mask("subsolvers.prox_step") & in_op & (cols["error"] != 0))),
        "count",
    )
    out["szo.szo_gradient_batch.self_us"] = (mean_self("szo.szo_gradient_batch", us), "us")
    out["sfo.batch_gradient.self_us"] = (mean_self("sfo.batch_gradient", us), "us")
    out["sfo.solve_nsco_sfo.self_s"] = (mean_self("sfo.solve_nsco_sfo", s), "s")
    out["szo.solve_nsco_szo.self_s"] = (mean_self("szo.solve_nsco_szo", s), "s")
    out["penalty.run_penalty.self_s"] = (mean_self("penalty.run_penalty", s), "s")
    out["sfo.stopping_pmf.us"] = (mean_self("sfo.stopping_pmf", us), "us")
    out["sfo.stopping_pmf.mb_computed"] = (total("sfo.stopping_pmf") * 8.0 / 1e6, "MB")
    out["sfo.sample_stop_index.us"] = (mean_self("sfo.sample_stop_index", us), "us")

    steers = calls("penalty.steer_penalty")
    steer_ids = np.flatnonzero(mask("penalty.steer_penalty"))
    phi_in_steer = mask("subsolvers.phi") & in_op & np.isin(cols["parent"], steer_ids)
    out["penalty.steer.phi_per_call"] = (
        float(np.count_nonzero(phi_in_steer)) / steers if steers else 0.0,
        "ratio",
    )
    stops = total("sfo.solve_nsco_sfo") + total("szo.solve_nsco_szo")
    horizon = total("penalty.subproblem_budget_for_rho")
    out["penalty.budget.horizon_used"] = (stops / horizon if horizon else 0.0, "ratio")
    out["penalty.rounds"] = (calls("sfo.solve_nsco_sfo") + calls("szo.solve_nsco_szo"), "count")

    rep_s = cols["dur"][mask("harness.rep")] / s
    p50, p90 = np.percentile(rep_s, [50, 90]) if rep_s.size else (0.0, 0.0)
    out["harness.rep.s_p50"] = (float(p50), "s")
    out["harness.rep.s_p90"] = (float(p90), "s")
    out["harness.monte_carlo.failed"] = (total("harness.monte_carlo"), "count")
    out["harness.write_records.ms"] = (mean_self("harness.write_records", ms), "ms")
    out["harness.write_records.bytes"] = (total("harness.write_records"), "B")
    out["config.parse_config.ms"] = (mean_self("config.parse_config", ms), "ms")
    out["harness.build_problem.ms"] = (mean_self("harness.build_problem", ms), "ms")
    return out


def ledger_gaps(rec: SpanRecorder) -> dict[int, float]:
    """Per op: oracle samples seen at the oracle (gradient samples plus two
    per value-pair row) minus the ledger ``run_penalty`` reported.  An
    observe-only trace of a consistent ledger gives 0 for every op."""
    gaps: dict[int, float] = {}
    sign = {
        rec._ids.get("problems.gradient_batch"): 1.0,
        rec._ids.get("problems.value_pair_batch"): 2.0,
        rec._ids.get("penalty.run_penalty"): -1.0,
    }
    for i, v in rec.values.items():
        weight = sign.get(rec.name_id[i])
        if weight is not None:
            op = rec.op_ids[i]
            gaps[op] = gaps.get(op, 0.0) + weight * v[0]
    return gaps
