"""Tests for configuration parsing and serialization."""

import pytest

from spen import ConfigError, RunConfig, parse_config

MINIMAL = """
[problem]
family = P2

[penalty]
epsilon = 0.2
"""

FULL = """
[problem]
family = P1
n = 4
sigma = 0.5

[penalty]
epsilon = 0.25
xi = 0.4
tau = 2.0
rho0 = 1.5
max_outer = 6
oracle_mode = szo
d_tilde = 0.8
d1_tilde = 1.2
d2_tilde = 0.9
early_stop = false

[run]
replications = 50
seed = 7
output = out.csv
epsilons = 0.45, 0.3, 0.15
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem.family == "P2"
    assert cfg.problem.n is None
    assert cfg.problem.sigma == 0.1
    assert cfg.penalty.epsilon == 0.2
    assert cfg.penalty.xi == 0.5
    assert cfg.penalty.oracle_mode == "sfo"
    assert cfg.penalty.early_stop is True
    assert cfg.replications == 100
    assert cfg.seed == 0
    assert cfg.output is None
    assert cfg.epsilons == (0.4, 0.2, 0.1)


def test_parse_full():
    cfg = parse_config(FULL)
    assert cfg.problem.family == "P1"
    assert cfg.problem.n == 4
    assert cfg.problem.sigma == 0.5
    assert cfg.penalty.epsilon == 0.25
    assert cfg.penalty.xi == 0.4
    assert cfg.penalty.tau == 2.0
    assert cfg.penalty.rho0 == 1.5
    assert cfg.penalty.max_outer == 6
    assert cfg.penalty.oracle_mode == "szo"
    assert cfg.penalty.d_tilde == 0.8
    assert cfg.penalty.early_stop is False
    assert cfg.replications == 50
    assert cfg.seed == 7
    assert cfg.output == "out.csv"
    assert cfg.epsilons == (0.45, 0.3, 0.15)


def test_missing_required_fields():
    with pytest.raises(ConfigError, match="missing required field"):
        parse_config("[penalty]\nepsilon = 0.2\n")
    with pytest.raises(ConfigError, match="missing required field"):
        parse_config("[problem]\nfamily = P2\n")


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="allowed"):
        parse_config("[problem]\nfamily = P2\ncolor = blue\n[penalty]\nepsilon = 0.2\n")


def test_value_conversion_errors():
    with pytest.raises(ConfigError, match=r"\[penalty\] epsilon"):
        parse_config("[problem]\nfamily = P2\n[penalty]\nepsilon = soon\n")
    with pytest.raises(ConfigError, match="early_stop"):
        parse_config(MINIMAL + "early_stop = maybe\n")


def test_bool_spellings():
    for raw, want in (("1", True), ("true", True), ("YES", True), ("on", True),
                      ("0", False), ("False", False), ("no", False), ("off", False)):
        cfg = parse_config(f"[problem]\nfamily = P2\n[penalty]\nepsilon = 0.2\n"
                           f"early_stop = {raw}\n")
        assert cfg.penalty.early_stop is want


def test_penalty_validation_is_prefixed():
    with pytest.raises(ConfigError, match=r"\[penalty\] xi must lie in \(0,1\)"):
        parse_config("[problem]\nfamily = P2\n[penalty]\nepsilon = 0.2\nxi = 1.5\n")


def test_run_section_validation():
    with pytest.raises(ConfigError, match="replications"):
        parse_config(MINIMAL + "[run]\nreplications = 0\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(MINIMAL + "[run]\nseed = -3\n")
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config(MINIMAL + "[run]\nepsilons = 0.4, 1.2\n")
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config(MINIMAL + "[run]\nepsilons = ,\n")


def test_not_parseable_text():
    with pytest.raises(ConfigError, match="not parseable"):
        parse_config("family = P2\n")
    with pytest.raises(ConfigError, match="not parseable"):
        parse_config("[problem\nfamily = P2\n")


def test_runconfig_is_hashable_value_object():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    assert a == b and a is not b
    assert isinstance(a, RunConfig)
