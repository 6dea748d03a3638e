"""Flat sectioned key-value configuration for the experiment CLI."""

from __future__ import annotations

import configparser
import dataclasses

from .errors import ConfigError
from .harness import TestProblemSpec
from .penalty import PenaltyConfig

__all__ = ["RunConfig", "parse_config"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration.

    ``epsilons`` is the accuracy grid used by the sweep subcommand; the
    other subcommands use ``penalty.epsilon``.
    """

    problem: TestProblemSpec
    penalty: PenaltyConfig
    replications: int = 100
    seed: int = 0
    output: str | None = None
    epsilons: tuple[float, ...] = (0.4, 0.2, 0.1)

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.epsilons or any(not 0.0 < e < 1.0 for e in self.epsilons):
            raise ConfigError(
                f"epsilons must be one or more values in (0,1), got {self.epsilons}"
            )


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _path(raw: str) -> str | None:
    return raw or None


# every key a file may set, with the function that converts its text; a key
# the file omits takes the default of the dataclass field of the same name
_SECTIONS = {
    "problem": {"family": str, "n": int, "sigma": float},
    "penalty": {
        "epsilon": float,
        "xi": float,
        "tau": float,
        "rho0": float,
        "max_outer": int,
        "oracle_mode": str,
        "d_tilde": float,
        "d1_tilde": float,
        "d2_tilde": float,
        "early_stop": _bool,
    },
    "run": {"replications": int, "seed": int, "output": _path, "epsilons": _floats},
}


def _section(cp: configparser.ConfigParser, section: str, cls, **fixed):
    """Build ``cls`` from the keys ``section`` sets, prefixing its errors."""
    kinds = _SECTIONS[section]
    values = {}
    given = cp[section] if cp.has_section(section) else {}
    for key, raw in given.items():
        if key not in kinds:
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]; allowed: {', '.join(kinds)}"
            )
        try:
            values[key] = kinds[key](raw)
        except ValueError as err:
            kind = kinds[key].__name__.lstrip("_")
            raise ConfigError(f"[{section}] {key}: cannot interpret {raw!r} as {kind}") from err
    for field in dataclasses.fields(cls):
        required = field.default is dataclasses.MISSING
        if required and field.name in kinds and field.name not in values:
            raise ConfigError(f"missing required field: [{section}] {field.name}")
    try:
        return cls(**values, **fixed)
    except ConfigError as err:
        raise ConfigError(f"[{section}] {err}") from err


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Sections are ``[problem]``, ``[penalty]``, and ``[run]``; unknown
    sections or keys are rejected with their location.  ``;`` starts an
    inline comment.  ``problem.family`` and ``penalty.epsilon`` are
    required; an omitted key takes the default of its dataclass field.
    """
    cp = configparser.ConfigParser(strict=True, interpolation=None, inline_comment_prefixes=(";",))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"configuration is not parseable: {err}") from err
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(_SECTIONS)}"
            )
    problem = _section(cp, "problem", TestProblemSpec)
    penalty = _section(cp, "penalty", PenaltyConfig)
    return _section(cp, "run", RunConfig, problem=problem, penalty=penalty)
