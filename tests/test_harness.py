"""Tests for problem families, replication harness, slope fits, and CSV I/O."""

import dataclasses
import functools
import itertools
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spen.cli
import spen.penalty
from spen import harness, szo
from spen import (
    ConfigError,
    DomainError,
    GaussianOracle,
    PenaltyConfig,
    RandomStream,
    RunRecord,
    SpenError,
    TestProblemSpec,
    build_problem,
    eval_constraints,
    kkt_residuals,
    monte_carlo,
    read_records,
    slope_fit,
    stackable,
    write_records,
)
from test_penalty import _two_constraint_problem


def test_families_build_and_reference_solutions_hold():
    for family in ("P1", "P2", "P3", "ROSEN-EQ"):
        prob = build_problem(TestProblemSpec(family, sigma=0.1))
        assert prob.known_solution is not None
        sol = prob.known_solution
        stat, feas = kkt_residuals(prob, sol.x_star, sol.lambda_star)
        assert stat <= 1e-8, f"{family}: stationarity residual {stat}"
        assert feas <= 1e-8, f"{family}: feasibility residual {feas}"
        f_val, _ = prob.true_value_grad(sol.x_star)
        assert abs(f_val - sol.f_star) < 1e-8
        prob.constants.require("L_g", "L_J", "sigma", "f_low",
                               "kappa_g", "kappa_c", "kappa_f", "kappa_J")
        assert prob.x_init is not None and prob.box is not None


@pytest.mark.parametrize("family, n", [
    ("P1", 1), ("P1", 2), ("P1", 10), ("P2", None), ("P3", None), ("ROSEN-EQ", None)])
def test_declared_constants_hold_on_the_box(family, n):
    # every budget and rho_bar rests on these bounds, at every corner of the
    # box and at 2,000 seeded uniform points of it; P2's are attained at its
    # corners, hence the relative slack
    prob = build_problem(TestProblemSpec(family, n=n, sigma=0.1))
    lo, hi = prob.box
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    points = np.concatenate([corners, np.random.default_rng(0).uniform(lo, hi, (2000, prob.n))])
    k = prob.constants

    def at_most(value, bound):
        return value <= bound + 1e-12 * abs(bound)

    for x in points:
        f, grad = prob.true_value_grad(x)
        c, jac = eval_constraints(prob, x)
        assert at_most(float(np.linalg.norm(grad)), k.kappa_g), f"{family}: ||grad f({x})||"
        assert at_most(k.f_low, f) and at_most(f, k.kappa_f), f"{family}: f({x}) = {f}"
        assert at_most(float(np.linalg.norm(c)), k.kappa_c), f"{family}: ||c({x})||"
        assert at_most(float(np.linalg.norm(jac, 2)), k.kappa_J), f"{family}: ||J({x})||"


def test_every_family_in_the_table_builds_and_unknown_names_list_the_table():
    for family in harness.FAMILIES:
        assert build_problem(TestProblemSpec(family, sigma=0.1)).name == family
    with pytest.raises(ConfigError) as err:
        build_problem(TestProblemSpec("P4"))
    assert str(harness.FAMILIES) in str(err.value)


def test_one_point_values_have_the_bits_of_the_batch():
    for family in harness.FAMILIES:
        prob = build_problem(TestProblemSpec(family, sigma=0.0))
        lo, hi = prob.box
        points = lo + (hi - lo) * np.random.default_rng(0).uniform(size=(10_000, prob.n))
        batch, _ = prob.oracle.value_pair_batch(points, points[:1], None)
        one = np.array([prob.true_value_grad(x)[0] for x in points])
        assert one.tobytes() == batch.tobytes(), family


@pytest.mark.parametrize("family", ["P2", "DEBUG-BADJAC"])
def test_p2_value_in_place_has_the_bits_of_the_plain_expression(family):
    prob = build_problem(TestProblemSpec(family, sigma=0.0))
    batch = np.random.default_rng(2).uniform(-3.0, 3.0, size=(301, 2))
    # C-ordered, column-major as the estimator passes it, strided, one point
    for xs in (batch, np.asfortranarray(batch), batch[::3], batch[7]):
        diff = xs - harness._P2_TARGET
        before, want = xs.copy(), 0.5 * np.sum(diff * diff, axis=-1)
        got = prob.oracle.value(xs)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the input is never written to
        assert xs.tobytes() == before.tobytes()


def test_p1_is_unconstrained_with_exact_trig_gradient():
    prob = build_problem(TestProblemSpec("P1", n=6, sigma=0.0))
    assert (prob.n, prob.q) == (6, 1)
    x = np.linspace(-1.0, 2.0, 6)
    c, jac = eval_constraints(prob, x)
    assert np.all(c == 0.0) and np.all(jac == 0.0)
    g = prob.oracle.gradient_batch(x, 1, np.random.default_rng(0))[0]
    assert np.allclose(g, np.sin(x) + 0.1 * x, atol=1e-14)
    f, grad = prob.true_value_grad(x)
    assert abs(f - ((1.0 - np.cos(x)).sum() + 0.05 * x @ x)) < 1e-12
    assert np.allclose(grad, g, atol=1e-14)


def test_p2_geometry():
    prob = build_problem(TestProblemSpec("P2", sigma=0.0))
    assert (prob.n, prob.q) == (2, 2 - 1)
    c, jac = eval_constraints(prob, np.array([0.7, 0.1]))
    assert abs(c[0] + 0.2) < 1e-14
    assert np.array_equal(jac, np.array([[1.0, 1.0]]))
    sol = prob.known_solution
    assert np.allclose(sol.x_star, [0.5, 0.5], atol=1e-12)
    assert abs(sol.f_star - 0.25) < 1e-12


def test_p3_solution_is_feasible_stationary():
    prob = build_problem(TestProblemSpec("P3", sigma=0.1))
    assert (prob.n, prob.q) == (3, 1)
    sol = prob.known_solution
    c, _ = eval_constraints(prob, sol.x_star)
    assert abs(c[0]) < 1e-10
    assert abs(float(sol.x_star @ sol.x_star) - 1.0) < 1e-10


def test_rosen_eq_solution_on_line():
    prob = build_problem(TestProblemSpec("ROSEN-EQ", sigma=0.1))
    sol = prob.known_solution
    assert abs(sol.x_star.sum() - 1.0) < 1e-12
    # of the line's three stationary points, x_star is the one with least f:
    # no point of a fine grid on the line does better
    t = np.linspace(-3.0, 3.0, 6001)
    line_values = [prob.true_value_grad(np.array([ti, 1.0 - ti]))[0] for ti in t]
    assert sol.f_star <= min(line_values)


def test_debug_family_ships_wrong_jacobian():
    prob = build_problem(TestProblemSpec("DEBUG-BADJAC", sigma=0.0))
    x = np.array([0.3, -0.2])
    c, jac = eval_constraints(prob, x)
    h = 1e-6
    fd = np.zeros((prob.q, prob.n))
    for i in range(prob.n):
        e = np.zeros(prob.n)
        e[i] = h
        fd[:, i] = (prob.constraints(x + e)[0] - prob.constraints(x - e)[0]) / (2.0 * h)
    rel = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
    assert rel > 1e-3


def test_spec_validation():
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P9"))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P2", n=3))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P1", n=0))
    with pytest.raises(ConfigError):
        build_problem(TestProblemSpec("P1", sigma=-0.5))


def test_kkt_residuals_zero_at_solution():
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    sol = prob.known_solution
    stat, feas = kkt_residuals(prob, sol.x_star, sol.lambda_star)
    assert stat < 1e-12 and feas < 1e-12
    stat_off, feas_off = kkt_residuals(prob, np.zeros(2), np.zeros(1))
    assert stat_off > 0.1 and feas_off > 0.5


def test_monte_carlo_constant_runs():
    res = monte_carlo(lambda rep, s: {"a": 2.0, "b": -1.0}, 40, RandomStream(0))
    assert res.estimates["a"].mean == 2.0
    assert res.estimates["a"].stderr == 0.0
    assert res.estimates["b"].ci95_low == -1.0
    assert not res.failures and not res.partial and res.reps == 40


def test_monte_carlo_estimates_gaussian_mean():
    def run(rep, stream):
        return {"v": float(stream.generator().normal(3.0, 1.0))}

    res = monte_carlo(run, 400, RandomStream(1))
    est = res.estimates["v"]
    assert est.ci95_low <= 3.0 <= est.ci95_high
    assert 0.03 <= est.stderr <= 0.08


def test_monte_carlo_order_invariance(monkeypatch):
    def run(rep, stream):
        return {"v": float(stream.generator().standard_normal())}

    forward = monte_carlo(run, 50, RandomStream(2))
    rng = np.random.default_rng(0)
    perm = list(rng.permutation(50))
    shuffled = monte_carlo(run, 50, RandomStream(2), order=perm)
    assert forward.estimates["v"] == shuffled.estimates["v"]
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    in_process = monte_carlo(run, 50, RandomStream(2), order=perm)
    assert in_process.estimates == shuffled.estimates
    assert list(in_process.values) == list(shuffled.values) == list(range(50))


def test_run_study_is_independent_of_execution_order(tmp_path, monkeypatch, capsys):
    # `spen certify` run forward, then with the replications run in reverse:
    # a multiplier mean taken in execution order changes its bits here, so
    # the study must assemble its results in replication order
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[problem]\nfamily = P2\nsigma = 0.1\n[penalty]\nepsilon = 0.4\n"
                   "max_outer = 5\n[run]\nreplications = 30\nseed = 3\n")
    run_study, run_penalty, monte_carlo = (
        harness.run_study, harness.run_penalty, harness.monte_carlo)
    studies, executed_lams = [], []

    def capturing_study(*args):
        studies.append(run_study(*args))
        return studies[-1]

    def capturing_penalty(*args, **kwargs):
        result = run_penalty(*args, **kwargs)
        executed_lams.append(result.certificate.lam)
        return result

    def run_certify(name):
        out = tmp_path / f"{name}.csv"
        assert spen.cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return out.read_bytes(), [ln for ln in lines if not ln.startswith(("elapsed", "records"))]

    monkeypatch.setattr(spen.cli, "run_study", capturing_study)
    forward_csv, forward_out = run_certify("forward")
    # the reversed leg runs in this process, where execution order is exact
    # and the multipliers captured on the way are visible
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    monkeypatch.setattr(harness, "run_penalty", capturing_penalty)
    monkeypatch.setattr(harness, "monte_carlo", lambda fn, reps, stream, **kw: monte_carlo(
        fn, reps, stream, order=list(reversed(range(reps))), **kw))
    backward_csv, backward_out = run_certify("backward")

    forward, backward = studies
    assert len(executed_lams) == 30
    in_execution_order = np.mean(np.stack(executed_lams), axis=0)
    assert in_execution_order.tobytes() != backward.certificate.lam.tobytes()
    assert forward.records == backward.records
    assert forward.certificate.lam.tobytes() == backward.certificate.lam.tobytes()
    assert forward.mc.estimates == backward.mc.estimates
    assert forward_csv == backward_csv
    assert forward_out == backward_out


def test_monte_carlo_captures_failures():
    def run(rep, stream):
        if rep % 10 == 3:
            raise SpenError(f"synthetic failure at {rep}")
        return {"v": 1.0}

    res = monte_carlo(run, 40, RandomStream(3))
    assert [rep for rep, _ in res.failures] == [3, 13, 23, 33]
    assert all("synthetic failure" in msg for _, msg in res.failures)
    assert res.partial
    assert res.estimates["v"].count == 36


def test_monte_carlo_survives_numeric_failure():
    def run(rep, stream):
        if rep == 17:
            raise np.linalg.LinAlgError("eigh did not converge")
        return {"v": float(rep)}

    res = monte_carlo(run, 30, RandomStream(4))
    assert res.failures == [(17, "LinAlgError: eigh did not converge")]
    assert not res.partial
    assert res.estimates["v"].count == 29


def test_monte_carlo_survives_math_domain_error():
    def run(rep, stream):
        return {"v": math.sqrt(-1.0) if rep == 5 else float(rep)}

    res = monte_carlo(run, 30, RandomStream(5))
    assert res.failures == [(5, "ValueError: math domain error")]
    assert res.estimates["v"].count == 29


def test_monte_carlo_propagates_programming_errors():
    def run(rep, stream):
        return {"v": float(rep) + ("x" if rep == 5 else 0.0)}

    with pytest.raises(TypeError):
        monte_carlo(run, 30, RandomStream(5))
    assert multiprocessing.active_children() == []


def test_study_in_workers_matches_in_process(monkeypatch):
    # replication 7 fails inside its worker; the patched run_penalty reaches
    # the workers because they are forked after the patch
    problem = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.4, max_outer=5)
    run_penalty = harness.run_penalty

    def failing_at_7(problem, config, stream, replication=0):
        if replication == 7:
            raise SpenError("synthetic failure in replication 7")
        return run_penalty(problem, config, stream, replication=replication)

    monkeypatch.setattr(harness, "run_penalty", failing_at_7)
    pooled = harness.run_study(problem, config, 30, RandomStream(19))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    local = harness.run_study(problem, config, 30, RandomStream(19))
    assert pooled.mc.failures == local.mc.failures == [
        (7, "SpenError: synthetic failure in replication 7")
    ]
    assert pooled.records == local.records
    assert pooled.certificate.lam.tobytes() == local.certificate.lam.tobytes()
    assert pooled.mc.estimates == local.mc.estimates


class _FailingOracle(GaussianOracle):
    """The wrapped oracle's draws, except in two replications of a study on
    ``RandomStream(seed)``, told apart by their generators' spawn keys
    ``(replication, round, 1)``: replication 7 raises in round ``last``, and
    replication 11's batches in round 1 are NaN once it has left ``x_init``."""

    def __init__(self, inner, x_init, last):
        vars(self).update(vars(inner))
        self.x_init, self.last = x_init, last

    def gradient_batch(self, x, m, rng):
        key = rng.bit_generator.seed_seq.spawn_key[:2]
        if key == (7, self.last):
            raise DomainError("synthetic failure in replication 7")
        batch = super().gradient_batch(x, m, rng)
        if key == (11, 1) and not np.array_equal(x, self.x_init):
            batch[:] = np.nan
        return batch


@pytest.mark.parametrize("family, in_process", [
    ("P1", False), ("P2", False), ("P2", True), ("P3", False), ("DEBUG-BADJAC", False)])
def test_lockstep_study_matches_the_reference_bit_for_bit(family, in_process, monkeypatch):
    # a first-order study runs in lockstep groups; substituting run_penalty
    # sends it through monte_carlo, one run_penalty per replication. Both
    # give the same failures, records, iterates, gradients and certificates.
    # P3's sphere constraint has an x-dependent Jacobian; it runs one round,
    # whose horizon of 62,433 inner iterations sigma 0.03 and these bounds
    # cut to 779
    rounds = 1 if family == "P3" else 2
    prob = build_problem(TestProblemSpec(family, sigma=0.03 if family == "P3" else 0.1))
    if family == "P3":
        prob = dataclasses.replace(prob, constants=dataclasses.replace(
            prob.constants, kappa_f=0.1, kappa_c=0.05, f_low=0.0))
    prob = dataclasses.replace(prob, oracle=_FailingOracle(prob.oracle, prob.x_init, rounds))
    config = PenaltyConfig(epsilon=0.9, max_outer=rounds + 1)
    if in_process:
        monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    lockstep = harness.run_study(prob, config, 30, RandomStream(5))
    own = harness.run_penalty
    monkeypatch.setattr(harness, "run_penalty", lambda *args, **kwargs: own(*args, **kwargs))
    reference = harness.run_study(prob, config, 30, RandomStream(5))
    assert lockstep.mc.failures == reference.mc.failures == [
        (7, "DomainError: synthetic failure in replication 7"),
        (11, "DomainError: batch gradient estimate is non-finite at inner iteration 2"),
    ]
    assert lockstep.records == reference.records
    assert list(lockstep.mc.values) == list(reference.mc.values)
    for got, want in zip(lockstep.mc.values.values(), reference.mc.values.values()):
        assert got.state.x.tobytes() == want.state.x.tobytes()
        assert got.state.G.tobytes() == want.state.G.tobytes()
        assert got.state.oracle_calls == want.state.oracle_calls
        assert got.certificate.lam.tobytes() == want.certificate.lam.tobytes()
        assert got.certificate.crit_sq == want.certificate.crit_sq
        assert got.certificate.theta == want.certificate.theta
    assert lockstep.certificate.lam.tobytes() == reference.certificate.lam.tobytes()
    assert lockstep.mc.estimates == reference.mc.estimates
    assert lockstep.certificate.verdict == reference.certificate.verdict


class _GroupingOracle(GaussianOracle):
    """The wrapped oracle's gradient samples, or uniform ones of the same
    variance in a Fortran-ordered batch, which ``_batch_means`` does not stack
    (``uniform``).  ``fail = (rep, round, t, kind)`` makes replication
    ``rep``'s ``t``-th draw of that round raise (``kind`` "raise") or come out
    NaN, which the inner loop's finite check refuses."""

    def __init__(self, inner, uniform, fail):
        vars(self).update(vars(inner))
        self.uniform, self.fail, self.draws = uniform, fail, {}

    def gradient_batch(self, x, m, rng):
        key = rng.bit_generator.seed_seq.spawn_key[:2]
        t = self.draws[key] = self.draws.get(key, 0) + 1
        if self.uniform:
            g = np.asarray(self.grad(x), dtype=float)
            half = self.sigma * math.sqrt(3.0 / g.size)
            batch = np.asfortranarray(g + rng.uniform(-half, half, (m, g.size)))
        else:
            batch = super().gradient_batch(x, m, rng)
        if self.fail is not None and key + (t,) == self.fail[:3]:
            if self.fail[3] == "raise":
                raise DomainError(f"synthetic failure at draw {t}")
            batch[...] = np.nan
        return batch


# case: (family, n, rounds, noise source); P3 as in the test above. The
# "gaussian" and "uniform" cases draw through _GroupingOracle, one batch per
# replication and iteration; the "blocks" cases keep the plain GaussianOracle
# and the family's stackable callables, so that their stacks take the noise
# in blocks and call grad and constraints once per iteration
_GROUPING_CASES = {
    "P1 n=1": ("P1", 1, 2, "gaussian"), "P1 n=2": ("P1", 2, 2, "gaussian"),
    "P1 n=3": ("P1", 3, 2, "gaussian"), "P2": ("P2", None, 2, "gaussian"),
    "P3": ("P3", None, 1, "gaussian"), "DEBUG-BADJAC": ("DEBUG-BADJAC", None, 2, "gaussian"),
    "P2 uniform": ("P2", None, 2, "uniform"),
    "P1 n=1 blocks": ("P1", 1, 2, "blocks"), "P1 n=3 blocks": ("P1", 3, 2, "blocks"),
    "P1 n=10 blocks": ("P1", 10, 2, "blocks"), "P2 blocks": ("P2", None, 2, "blocks"),
    "P3 blocks": ("P3", None, 1, "blocks"),
}


def _family_problem(case):
    family, n, _, _ = _GROUPING_CASES[case]
    prob = build_problem(TestProblemSpec(family, n=n, sigma=0.03 if family == "P3" else 0.1))
    if family == "P3":
        prob = dataclasses.replace(prob, constants=dataclasses.replace(
            prob.constants, kappa_f=0.1, kappa_c=0.05, f_low=0.0))
    return prob


def _stacked_callables(prob, target=None):
    """``prob`` with its ``grad`` and ``constraints`` wrapped, still
    stackable: the wrappers count their calls on a stack of points in the
    new ``grad``'s ``stacked_calls``, and ``target = (point, callable,
    kind)`` makes that callable raise (``kind`` "raise") or answer NaN at
    ``point``, alone or as a row of a stack."""
    grad, cons = prob.oracle.grad, prob.constraints

    def hit(name, x):
        # the rows of x at the target point, if this is its callable
        if target is None or target[1] != name:
            return None
        rows = np.all(x == target[0], axis=-1)
        if not rows.any():
            return None
        if target[2] == "raise":
            raise DomainError(f"synthetic failure in {name}")
        return rows

    @stackable
    def counted_grad(x):
        if x.ndim == 2:
            counted_grad.stacked_calls += 1
        out, rows = np.array(grad(x), dtype=float), hit("grad", x)
        if rows is not None:
            out[rows] = np.nan
        return out

    @stackable
    def counted_cons(x):
        if x.ndim == 2:
            counted_grad.stacked_calls += 1
        (c, jac), rows = cons(x), hit("constraints", x)
        if rows is not None:
            c = np.array(c, dtype=float)
            c[rows] = np.nan
        return c, jac

    counted_grad.stacked_calls = 0
    oracle = GaussianOracle(prob.oracle.value, counted_grad, prob.oracle.sigma)
    return dataclasses.replace(prob, oracle=oracle, constraints=counted_cons)


@functools.cache
def _points_alone(case, rep, name):
    """The points at which replication ``rep``'s own run calls ``name`` in
    each round (with the steering before the next round), in order."""
    prob, rounds = _stacked_callables(_family_problem(case)), []
    inner = prob.oracle.grad if name == "grad" else prob.constraints

    @stackable
    def recorded(x):
        if rounds:
            rounds[-1].append(x.copy())
        return inner(x)

    if name == "grad":
        prob = dataclasses.replace(prob, oracle=GaussianOracle(
            prob.oracle.value, recorded, prob.oracle.sigma))
    else:
        prob = dataclasses.replace(prob, constraints=recorded)
    solve = spen.penalty.solve_nsco_sfo
    spen.penalty.solve_nsco_sfo = lambda *args: rounds.append([]) or solve(*args)
    try:
        _run_alone_problem(case, prob, rep)
    finally:
        spen.penalty.solve_nsco_sfo = solve
    return rounds


def _grouping_problem(case, fail=None):
    prob = _family_problem(case)
    if _GROUPING_CASES[case][3] != "blocks":
        return dataclasses.replace(prob, oracle=_GroupingOracle(
            prob.oracle, _GROUPING_CASES[case][3] == "uniform", fail))
    target = None
    if fail is not None:
        # the t-th call of that round, unless every replication makes it
        rep, k, t, kind, name = fail
        points = _points_alone(case, rep, name)
        if k <= len(points) and t <= len(points[k - 1]):
            point = points[k - 1][t - 1]
            if not np.array_equal(point, prob.x_init):
                target = (point, name, kind)
    return _stacked_callables(prob, target)


def _run_alone_problem(case, prob, rep):
    config = PenaltyConfig(epsilon=0.9, max_outer=_GROUPING_CASES[case][2] + 1)
    try:
        return spen.penalty.run_penalty(prob, config, RandomStream(5).child(rep), rep)
    except SpenError as err:
        return err


def _run_alone(case, rep, fail=None):
    return _run_alone_problem(case, _grouping_problem(case, fail), rep)


@functools.cache
def _runs_alone(case):
    return tuple(_run_alone(case, rep) for rep in range(30))


@st.composite
def _groupings(draw):
    # a case, 30 replications cut into groups in a random order, and
    # possibly one failure at a random round and inner iteration
    case = draw(st.sampled_from(sorted(_GROUPING_CASES)))
    order = draw(st.permutations(range(30)))
    cuts = sorted(draw(st.sets(st.integers(1, 29), max_size=8)))
    groups = [order[i:j] for i, j in zip([0] + cuts, cuts + [30])]
    # with blocks, the failure is the problem's own grad or constraints at
    # the point of that call
    fail = draw(st.none() | st.tuples(st.integers(0, 29), st.integers(1, _GROUPING_CASES[case][2]),
                                      st.integers(1, 12), st.sampled_from(["raise", "nan"]),
                                      st.sampled_from(["grad", "constraints"])))
    return case, groups, fail


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_groupings())
def test_lockstep_grouping_keeps_each_runs_bits(grouping):
    # however the replications are grouped, and in whatever order the groups
    # and their members run, each one's result or error is run_penalty's
    _check_grouping(*grouping)


@pytest.mark.parametrize("case, fail", [
    ("P2 blocks", (7, 1, 5, "nan", "grad")), ("P2 blocks", (7, 2, 9, "raise", "constraints")),
    ("P1 n=1 blocks", (3, 1, 6, "raise", "grad")),
    ("P1 n=10 blocks", (11, 2, 4, "nan", "constraints")),
    ("P3 blocks", (20, 1, 7, "nan", "grad")), ("P1 n=3 blocks", (0, 2, 3, "raise", "grad"))])
def test_lockstep_block_path_keeps_each_runs_bits_when_a_call_fails_mid_block(case, fail):
    # the problem's own grad or constraints fails for one replication at an
    # inner iteration inside a noise block: the stack hands every row's
    # noise to the scalar loop, and each run still has run_penalty's bits
    assert isinstance(_run_alone(case, fail[0], fail), DomainError)
    stacked = [5, 29, 0, 17, fail[0]]
    _check_grouping(case, [stacked, [rep for rep in range(30) if rep not in stacked]], fail)


def _check_grouping(case, groups, fail):
    want = list(_runs_alone(case))
    if fail is not None:
        want[fail[0]] = _run_alone(case, fail[0], fail)
    prob = _grouping_problem(case, fail)
    config = PenaltyConfig(epsilon=0.9, max_outer=_GROUPING_CASES[case][2] + 1)
    for group in groups:
        got = spen.penalty._run_lockstep(prob, config,
                                         [RandomStream(5).child(rep) for rep in group], group)
        for rep, res in zip(group, got):
            ref = want[rep]
            if isinstance(ref, Exception):
                assert (type(res), str(res)) == (type(ref), str(ref)), rep
                continue
            assert res.records == ref.records, rep
            assert res.state.x.tobytes() == ref.state.x.tobytes()
            assert res.state.G.tobytes() == ref.state.G.tobytes()
            assert res.certificate.lam.tobytes() == ref.certificate.lam.tobytes()
    if _GROUPING_CASES[case][3] == "blocks":  # some group of three or more stacked
        assert prob.oracle.grad.stacked_calls > 0


def _count_outer_loops(monkeypatch) -> list[int]:
    """The replication of each outer loop started from here on, in order."""
    starts, outer_loop = [], spen.penalty._outer_loop
    monkeypatch.setattr(spen.penalty, "_outer_loop",
                        lambda *args: starts.append(args[2]) or outer_loop(*args))
    return starts


def test_rows_the_lockstep_refuses_run_alone_with_the_same_bits(monkeypatch):
    # a constraint value of shape (1, 1) is fine for eval_constraints, which
    # flattens it, but not for the stacked checks: every round redoes its
    # first iteration in the scalar loop and ends there, each replication's
    # outer loop starts once, and the study keeps its bits
    base = build_problem(TestProblemSpec("P2", sigma=0.1))
    prob = dataclasses.replace(base, constraints=lambda x: (
        base.constraints(x)[0].reshape(1, 1), base.constraints(x)[1]))
    config = PenaltyConfig(epsilon=0.9, max_outer=3)
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    starts = _count_outer_loops(monkeypatch)
    lockstep = harness.run_study(prob, config, 30, RandomStream(4))
    assert starts == list(range(30))
    plain = harness.run_study(base, config, 30, RandomStream(4))
    assert lockstep.records == plain.records and not lockstep.mc.failures
    assert lockstep.certificate.lam.tobytes() == plain.certificate.lam.tobytes()


def test_a_failing_lockstep_replication_runs_once(monkeypatch):
    # replication 7's first draw of round 4 raises: its error is the run's
    # result, so its outer loop starts once and it draws each batch once
    class FailingAt7(GaussianOracle):
        def gradient_batch(self, x, m, rng):
            rep, k = rng.bit_generator.seed_seq.spawn_key[:2]
            draws[rep] = draws.get(rep, 0) + 1
            if (rep, k) == (7, 4):
                raise DomainError("synthetic failure in replication 7")
            return super().gradient_batch(x, m, rng)

    base, draws = build_problem(TestProblemSpec("P2", sigma=0.1)), {}
    prob = dataclasses.replace(base, oracle=FailingAt7(base.oracle.value, base.oracle.grad,
                                                       sigma=0.1))
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    starts = _count_outer_loops(monkeypatch)
    study = harness.run_study(prob, PenaltyConfig(epsilon=0.4, max_outer=5), 30, RandomStream(3))
    assert study.mc.failures == [(7, "DomainError: synthetic failure in replication 7")]
    assert starts == list(range(30))
    assert draws[7] == 1862


def test_lockstep_applies_only_to_the_librarys_own_run_penalty(monkeypatch):
    # a substitute is told by its code, whatever name holds it: rebinding
    # every attribute that holds run_penalty, as a tracer does, leaves the
    # library's code object behind
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    config = PenaltyConfig(epsilon=0.9, max_outer=3)
    groups = []
    run_lockstep = harness._run_lockstep
    monkeypatch.setattr(harness, "_run_lockstep",
                        lambda *args: groups.append(args[3]) or run_lockstep(*args))
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    harness.run_study(prob, config, 30, RandomStream(2))
    assert groups == [list(range(30))]
    own = harness.run_penalty
    traced = functools.wraps(own)(lambda *args, **kwargs: own(*args, **kwargs))
    for mod in (spen, spen.penalty, harness):
        monkeypatch.setattr(mod, "run_penalty", traced)
    harness.run_study(prob, config, 30, RandomStream(2))
    assert groups == [list(range(30))]


def _grouped_study_case(case: str):
    """``(problem, config, seed)`` of a study whose rounds no stacked kernel
    takes: the P1 n=1 zeroth-order study of CI, or Q2 (two constraint rows)."""
    if case == "Q2":
        return _two_constraint_problem(), PenaltyConfig(epsilon=0.9, max_outer=3), 5
    return (build_problem(TestProblemSpec("P1", n=1, sigma=0.1)),
            PenaltyConfig(epsilon=0.9, max_outer=2, oracle_mode="szo"), 7)


@pytest.mark.parametrize("case", ["P1 SZO", "Q2"])
def test_lockstep_groups_run_szo_and_q2_studies_with_the_reference_bits(case, monkeypatch):
    # each replication runs as its own group through the outer driver, which
    # solves each round once, never stacked; substituting run_penalty
    # gives the reference, one run_penalty per replication through monte_carlo
    prob, config, seed = _grouped_study_case(case)
    solver = "solve_nsco_szo" if config.oracle_mode == "szo" else "solve_nsco_sfo"
    groups, solves = [], []
    run_lockstep, solve = harness._run_lockstep, getattr(spen.penalty, solver)
    monkeypatch.setattr(harness, "_run_lockstep",
                        lambda *args: groups.append(args[3]) or run_lockstep(*args))
    monkeypatch.setattr(spen.penalty, solver, lambda *args: solves.append(args[1]) or solve(*args))
    monkeypatch.setattr(spen.penalty, "_solve_rows",
                        lambda *args: pytest.fail("a round was stacked"))
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    # the same bits without the draw thread, which slows P1 n=1's small batches
    monkeypatch.setattr(szo, "_spare_cpu", lambda: False)
    grouped = harness.run_study(prob, config, 30, RandomStream(seed))
    assert groups == [[rep] for rep in range(30)]
    assert len(solves) == len(grouped.records) >= 30
    own = harness.run_penalty
    monkeypatch.setattr(harness, "run_penalty", lambda *args, **kwargs: own(*args, **kwargs))
    reference = harness.run_study(prob, config, 30, RandomStream(seed))
    assert groups == [[rep] for rep in range(30)]
    assert grouped.mc.failures == reference.mc.failures == []
    assert grouped.records == reference.records
    for got, want in zip(grouped.mc.values.values(), reference.mc.values.values()):
        assert got.state.x.tobytes() == want.state.x.tobytes()
        assert got.state.G.tobytes() == want.state.G.tobytes()
        assert got.certificate.lam.tobytes() == want.certificate.lam.tobytes()
    assert grouped.mc.estimates == reference.mc.estimates
    assert grouped.certificate.lam.tobytes() == reference.certificate.lam.tobytes()


@pytest.mark.parametrize("case", ["P1 SZO", "Q2"])
def test_a_pooled_study_that_does_not_stack_takes_one_replication_per_task(case, monkeypatch):
    # on a pool of two workers a study whose rounds never stack hands out one
    # replication per task, taken as a worker finishes the last, where a
    # stacking study hands each worker one group; the bits are those of the
    # study in this process
    prob, config, seed = _grouped_study_case(case)
    monkeypatch.setattr(szo, "_spare_cpu", lambda: False)
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    alone = harness.run_study(prob, config, 30, RandomStream(seed))
    tasks = []
    monkeypatch.setattr(harness, "_worker_count", lambda reps: 2)
    monkeypatch.setattr(harness, "_pool_map", lambda task, items, workers: tasks.append(
        (items, workers)) or [task(item) for item in items])
    pooled = harness.run_study(prob, config, 30, RandomStream(seed))
    assert tasks == [([[rep] for rep in range(30)], 2)]
    assert pooled.records == alone.records and pooled.mc.estimates == alone.mc.estimates
    assert pooled.certificate.lam.tobytes() == alone.certificate.lam.tobytes()
    p2 = build_problem(TestProblemSpec("P2", sigma=0.1))
    harness.run_study(p2, PenaltyConfig(epsilon=0.9, max_outer=2), 30, RandomStream(seed))
    assert tasks[1] == ([list(range(0, 30, 2)), list(range(1, 30, 2))], 2)


class _TypeErrorAt7(GaussianOracle):
    """The wrapped oracle's draws, except that replication 7's first draw
    raises a ``TypeError``, as a programming error would."""

    def __init__(self, inner):
        vars(self).update(vars(inner))

    def gradient_batch(self, x, m, rng):
        if rng.bit_generator.seed_seq.spawn_key[0] == 7:
            raise TypeError("synthetic programming error in replication 7")
        return super().gradient_batch(x, m, rng)


@pytest.mark.parametrize("family", ["P2", "Q2"])
@pytest.mark.parametrize("in_process", [False, True])
def test_a_type_error_in_a_lockstep_group_propagates(family, in_process, monkeypatch):
    # a programming error is no replication's failure: it leaves the group,
    # stacked (P2) or solved once per replication (Q2), and run_study, and
    # no worker is left behind
    prob = (_two_constraint_problem() if family == "Q2"
            else build_problem(TestProblemSpec(family, sigma=0.1)))
    prob = dataclasses.replace(prob, oracle=_TypeErrorAt7(prob.oracle))
    if in_process:
        monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    with pytest.raises(TypeError, match="synthetic programming error in replication 7"):
        harness.run_study(prob, PenaltyConfig(epsilon=0.9, max_outer=2), 30, RandomStream(1))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("in_process", [False, True])
def test_a_study_config_that_is_not_a_penalty_config_raises_config_error(in_process,
                                                                         monkeypatch):
    prob = build_problem(TestProblemSpec("P2", sigma=0.1))
    if in_process:
        monkeypatch.setattr(harness, "_worker_count", lambda reps: 1)
    with pytest.raises(ConfigError, match="needs a PenaltyConfig"):
        harness.run_study(prob, {"epsilon": 0.4}, 30, RandomStream(0))
    assert multiprocessing.active_children() == []


def test_p3_solves_its_reference_pair_once_and_shares_it_read_only(monkeypatch):
    # the damped Newton solve runs on the first P3 build of the process only;
    # every build's known solution is read-only
    first = build_problem(TestProblemSpec("P3"))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: pytest.fail("P3's reference pair was solved again"))
    second = build_problem(TestProblemSpec("P3"))
    assert second.known_solution.x_star.tobytes() == first.known_solution.x_star.tobytes()
    for sol in (first.known_solution, second.known_solution):
        with pytest.raises(ValueError, match="read-only"):
            sol.x_star[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            sol.lambda_star[0] = 0.0


@pytest.mark.skipif(harness._worker_count(30) < 2, reason="needs two usable CPUs")
def test_each_worker_runs_on_its_own_share_of_the_cpus():
    # a worker sees only its share of the CPUs, so its zeroth-order solves
    # start a draw thread only where that share has two or more
    cpus = len(os.sched_getaffinity(0))
    workers = harness._worker_count(30)

    def run(rep, stream):
        return {"cpus": float(len(os.sched_getaffinity(0))), "spare": float(szo._spare_cpu())}

    res = monte_carlo(run, 30, RandomStream(0))
    for value in res.values.values():
        assert cpus // workers <= value["cpus"] <= -(-cpus // workers)
        assert value["spare"] == float(value["cpus"] >= 2)
    assert res.estimates["cpus"].mean * workers <= cpus + workers
    assert len(os.sched_getaffinity(0)) == cpus


@pytest.mark.skipif(harness._worker_count(30) < 2, reason="needs two usable CPUs")
def test_monte_carlo_runs_replications_in_workers():
    def run(rep, stream):
        # a worker runs any study of its own in its own process
        return {"pid": float(os.getpid()), "workers": float(harness._worker_count(30))}

    res = monte_carlo(run, 30, RandomStream(0))
    pids = {value["pid"] for value in res.values.values()}
    assert float(os.getpid()) not in pids
    assert res.estimates["workers"].mean == 1.0
    assert 1 <= len(pids) <= harness._worker_count(30)
    assert multiprocessing.active_children() == []


def test_import_loads_no_process_machinery():
    # the pool's modules are imported when a study runs, and the zeroth-order
    # draw-ahead's queue when it first starts, so start-up does not pay for them
    src = os.path.dirname(os.path.dirname(spen.cli.__file__))
    code = ("import sys, spen, spen.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'queue')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_monte_carlo_validation():
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0}, 29, RandomStream(0))
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0}, 30, RandomStream(0), order=[0, 1])
    with pytest.raises(ConfigError):
        monte_carlo(lambda rep, s: {"v": 1.0} if rep else {"w": 1.0}, 30, RandomStream(0))

    def always_fail(rep, stream):
        raise SpenError("broken")

    with pytest.raises(ConfigError, match="all 30 replications failed"):
        monte_carlo(always_fail, 30, RandomStream(0))


def test_slope_fit_exact_power_law():
    pts = [(eps, 100.0 * eps**-2.0) for eps in (0.4, 0.2, 0.1, 0.05)]
    fit = slope_fit(pts)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert abs(np.exp(fit.intercept) - 100.0) < 1e-9


def test_slope_fit_with_noise():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = [(eps, 50.0 * eps**-3.0 * float(rng.uniform(0.9, 1.1)))
               for eps in (0.4, 0.2, 0.1)]
        fit = slope_fit(pts)
        assert abs(fit.slope - 3.0) < 0.3


def test_slope_fit_validation():
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 20.0)])
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 20.0), (-0.1, 30.0)])
    with pytest.raises(ConfigError):
        slope_fit([(0.4, 10.0), (0.2, 0.0), (0.1, 30.0)])
    # points at fewer than three accuracies have no slope; numpy would fit one
    with pytest.raises(ConfigError, match="3 distinct accuracies"):
        slope_fit([(0.4, 100.0), (0.4, 120.0), (0.4, 90.0)])
    with pytest.raises(ConfigError, match="3 distinct accuracies"):
        slope_fit([(0.4, 100.0), (0.2, 120.0), (0.4, 90.0), (0.2, 95.0)])
    fit = slope_fit([(0.4, 100.0), (0.2, 400.0), (0.2, 400.0), (0.1, 1600.0)])
    assert abs(fit.slope - 2.0) < 1e-12


def _random_records(rng, count):
    # unique (replication, outer_iter) keys, as produced by real runs
    out = []
    for i in range(count):
        out.append(RunRecord(
            replication=i // 8,
            outer_iter=i % 8 + 1,
            rho=float(rng.uniform(1.0, 100.0)),
            theta=float(rng.uniform(0.0, 2.0)),
            phi=float(rng.uniform(0.0, 5.0)),
            crit_sq=None if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0)),
            oracle_calls=int(rng.integers(1, 10**7)),
        ))
    return out


def test_records_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    records = _random_records(rng, 1000)
    rng.shuffle(records)
    path = str(tmp_path / "records.csv")
    write_records(records, path)
    back = read_records(path)
    assert back == sorted(records, key=lambda r: (r.replication, r.outer_iter))


def test_records_write_is_order_independent(tmp_path):
    rng = np.random.default_rng(6)
    records = _random_records(rng, 100)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_records(records, a)
    shuffled = list(records)
    np.random.default_rng(7).shuffle(shuffled)
    write_records(shuffled, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_records_empty_and_bad_header(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_records([], path)
    assert read_records(path) == []
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(ConfigError):
        read_records(str(bad))


def test_records_field_that_is_not_a_number_names_path_and_line(tmp_path):
    path = tmp_path / "records.csv"
    write_records(_random_records(np.random.default_rng(8), 3), str(path))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = "abc"  # the second record's rho
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_records(str(path))
    assert f"{path}, line 3:" in str(err.value) and "'abc'" in str(err.value)
