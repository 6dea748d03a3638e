"""Tests for the experiment command line interface."""

import pytest

from spen import read_records
from spen.cli import main

P2_SOLVE = """
[problem]
family = P2
sigma = 0.1

[penalty]
epsilon = 0.4
max_outer = 3

[run]
seed = 3
"""

P1_FAST = """
[problem]
family = P1
n = 4
sigma = 0.1

[penalty]
epsilon = 0.5
max_outer = 3

[run]
replications = 30
seed = 1
"""

# the checks `spen validate` runs, in the order it prints them
VALIDATE_CHECKS = (
    "smoothing-bounds",
    "oracle-moments",
    "batch-averaging",
    "constraint-jacobian-fd",
)


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_runs_and_writes_records(tmp_path, capsys):
    cfg = _write(tmp_path, P2_SOLVE)
    out = str(tmp_path / "records.csv")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "family=P2 mode=sfo" in text
    assert "final: outer_rounds=" in text
    assert "single-run verdict:" in text
    records = read_records(out)
    assert records and records[0].outer_iter == 1


def test_solve_is_reproducible_byte_for_byte(tmp_path, capsys):
    cfg = _write(tmp_path, P2_SOLVE)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--config", cfg, "--out", a]) == 0
    assert main(["solve", "--config", cfg, "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_solve_seed_override_changes_run(tmp_path, capsys):
    cfg = _write(tmp_path, P2_SOLVE)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--config", cfg, "--out", a]) == 0
    assert main(["solve", "--config", cfg, "--seed", "99", "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() != open(b, "rb").read()


def test_config_errors_exit_2(tmp_path, capsys):
    bad_xi = _write(tmp_path, "[problem]\nfamily = P2\n[penalty]\nepsilon = 0.4\nxi = 1.5\n")
    assert main(["solve", "--config", bad_xi]) == 2
    err = capsys.readouterr().err
    assert "xi must lie in (0,1), got 1.5" in err

    unknown = _write(tmp_path, "[problem]\nfamily = P2\nshade = dark\n"
                               "[penalty]\nepsilon = 0.4\n", name="unknown.cfg")
    assert main(["solve", "--config", unknown]) == 2
    assert "unknown key" in capsys.readouterr().err

    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err

    assert main(["solve", "--config", _write(tmp_path, P2_SOLVE), "--seed", "-1"]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])
    capsys.readouterr()


def test_certify_aggregates_and_passes(tmp_path, capsys):
    cfg = _write(tmp_path, P1_FAST)
    out = str(tmp_path / "cert.csv")
    code = main(["certify", "--config", cfg, "--out", out])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "crit_sq: mean=" in text
    assert "theta:   mean=" in text
    assert "verdict: PASS" in text
    records = read_records(out)
    reps = {r.replication for r in records}
    assert reps == set(range(30))


def test_sweep_fits_slope(tmp_path, capsys):
    cfg = _write(tmp_path, P1_FAST + "epsilons = 0.6, 0.45, 0.3\n")
    code = main(["sweep", "--config", cfg])
    text = capsys.readouterr().out
    assert code == 0, text
    assert text.count("epsilon=") >= 3
    assert "slope_fit: slope=" in text


def test_sweep_rejects_short_grid(tmp_path, capsys):
    # before any study runs: one accuracy three times has no slope either
    for grid in ("0.4, 0.2", "0.4, 0.4, 0.4"):
        cfg = _write(tmp_path, P1_FAST + f"epsilons = {grid}\n")
        assert main(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "sweep needs >= 3 distinct accuracy levels" in captured.err
        assert "epsilon=" not in captured.out


def test_validate_passes_on_healthy_problem(tmp_path, capsys):
    cfg = _write(tmp_path, "[problem]\nfamily = P2\nsigma = 0.1\n"
                           "[penalty]\nepsilon = 0.4\n[run]\nseed = 2\n")
    assert main(["validate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"[PASS] {name}" for name in VALIDATE_CHECKS] + [
        "validate: 4/4 properties hold"
    ]


def test_validate_flags_wrong_jacobian(tmp_path, capsys):
    cfg = _write(tmp_path, "[problem]\nfamily = DEBUG-BADJAC\nsigma = 0.1\n"
                           "[penalty]\nepsilon = 0.4\n[run]\nseed = 2\n")
    assert main(["validate", "--config", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"[PASS] {name}" for name in VALIDATE_CHECKS[:3]]
    assert lines[3].startswith("[FAIL] constraint-jacobian-fd: ")
    assert "finite differences" in lines[3]
    assert lines[4:] == ["validate: 3/4 properties hold"]
