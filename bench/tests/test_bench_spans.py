"""Self-time arithmetic and patching of the benchmark's span recorder."""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from spans import NO_PARENT, SpanRecorder, installed, layer_metrics, ledger_gaps  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100] holds mid [10, 40] and mid2 [50, 70]; mid holds leaf [20, 25]
    rec = SpanRecorder(clock=_fake_clock([0, 10, 20, 25, 40, 50, 70, 100]))
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: leaf())
    mid2 = rec.wrap("mid2", lambda: None)

    def body():
        mid()
        mid2()

    rec.wrap("outer", body)()
    cols = rec.arrays()
    names = [rec.names[i] for i in cols["name_id"]]
    assert names == ["outer", "mid", "leaf", "mid2"]
    assert cols["parent"].tolist() == [NO_PARENT, 0, 1, 0]
    assert cols["dur"].tolist() == [100, 30, 5, 20]
    assert cols["self"].tolist() == [50, 25, 5, 20]


def test_raising_call_closes_its_span_and_is_marked():
    rec = SpanRecorder(clock=_fake_clock([0, 1, 2, 3, 4, 5]))

    def fail():
        raise ValueError("boom")

    failing = rec.wrap("fail", fail)
    ok = rec.wrap("ok", lambda: None)

    def body():
        with pytest.raises(ValueError):
            failing()
        ok()

    rec.wrap("outer", body)()
    cols = rec.arrays()
    assert cols["error"].tolist() == [0, 1, 0]
    assert cols["parent"].tolist() == [NO_PARENT, 0, 0]
    assert cols["self"].tolist() == [3, 1, 1]


def test_installed_rebinds_every_namespace_and_restores():
    import spen
    import spen.cli
    import spen.penalty
    import spen.sfo

    original = spen.sfo.batch_gradient
    generator = spen.RandomStream.generator
    rec = SpanRecorder()
    with installed(rec):
        for mod in (spen, spen.sfo, spen.penalty, spen.cli):
            assert mod.batch_gradient is not original
        assert spen.RandomStream.generator is not generator
    for mod in (spen, spen.sfo, spen.penalty, spen.cli):
        assert mod.batch_gradient is original
    assert spen.RandomStream.generator is generator


def test_traced_solve_counts_match_the_ledger():
    import spen

    problem = spen.build_problem(spen.TestProblemSpec("P2", sigma=0.1))
    config = spen.PenaltyConfig(epsilon=0.9, max_outer=3)
    plain = spen.run_penalty(problem, config, spen.RandomStream(3))
    rec = SpanRecorder()
    rec.op = 0
    with installed(rec):
        traced = spen.run_penalty(problem, config, spen.RandomStream(3))
    assert np.array_equal(plain.state.x, traced.state.x)
    assert ledger_gaps(rec) == {0: 0.0}
    metrics = layer_metrics(rec)
    assert metrics["problems.gradient_batch.samples"][0] == traced.state.oracle_calls
    assert metrics["penalty.rounds"][0] == len(traced.records)
    # one prox step per inner iteration plus one certificate step per round
    # and one for the final certificate
    iterations = metrics["problems.gradient_batch.calls"][0] - metrics["penalty.rounds"][0]
    assert metrics["subsolvers.prox_step.calls"][0] == iterations + len(traced.records) + 1
