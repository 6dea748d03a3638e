"""Flat sectioned key-value configuration for the experiment CLI."""

from __future__ import annotations

import configparser
import dataclasses

from .errors import ConfigError
from .harness import TestProblemSpec
from .penalty import PenaltyConfig

__all__ = ["RunConfig", "parse_config"]

_PROBLEM_KEYS = ("family", "n", "sigma")
_PENALTY_KEYS = (
    "epsilon",
    "xi",
    "tau",
    "rho0",
    "max_outer",
    "oracle_mode",
    "d_tilde",
    "d1_tilde",
    "d2_tilde",
    "early_stop",
)
_RUN_KEYS = ("replications", "seed", "output", "epsilons")
_SECTIONS = {"problem": _PROBLEM_KEYS, "penalty": _PENALTY_KEYS, "run": _RUN_KEYS}

DEFAULT_EPSILONS = (0.4, 0.2, 0.1)


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
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as err:
        raise ConfigError(
            f"[{section}] {key}: cannot interpret {raw!r} as {kind.__name__}"
        ) from err


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Sections are ``[problem]``, ``[penalty]``, and ``[run]``; unknown
    sections or keys are rejected with their location.  ``problem.family``
    and ``penalty.epsilon`` are required; every other field has a
    documented default.
    """
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"configuration is not parseable: {err}") from err
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(_SECTIONS)}"
            )
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {', '.join(_SECTIONS[section])}"
                )

    def get(section: str, key: str, kind, default):
        if cp.has_option(section, key):
            return _convert(section, key, cp.get(section, key), kind)
        return default

    if not cp.has_option("problem", "family"):
        raise ConfigError("missing required field: [problem] family")
    if not cp.has_option("penalty", "epsilon"):
        raise ConfigError("missing required field: [penalty] epsilon")

    problem = TestProblemSpec(
        family=cp.get("problem", "family").strip(),
        n=get("problem", "n", int, None),
        sigma=get("problem", "sigma", float, 0.1),
    )
    mode = get("penalty", "oracle_mode", str, "sfo").strip()
    try:
        penalty = PenaltyConfig(
            epsilon=_convert("penalty", "epsilon", cp.get("penalty", "epsilon"), float),
            xi=get("penalty", "xi", float, 0.5),
            tau=get("penalty", "tau", float, 1.0),
            rho0=get("penalty", "rho0", float, 1.0),
            max_outer=get("penalty", "max_outer", int, 8),
            oracle_mode=mode,
            d_tilde=get("penalty", "d_tilde", float, 1.0),
            d1_tilde=get("penalty", "d1_tilde", float, 1.0),
            d2_tilde=get("penalty", "d2_tilde", float, 1.0),
            early_stop=get("penalty", "early_stop", bool, True),
        )
    except ConfigError as err:
        raise ConfigError(f"[penalty] {err}") from err
    replications = get("run", "replications", int, 100)
    if replications < 1:
        raise ConfigError(f"[run] replications must be >= 1, got {replications}")
    seed = get("run", "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"[run] seed must be >= 0, got {seed}")
    output = get("run", "output", str, None)
    if output is not None:
        output = output.strip() or None
    if cp.has_option("run", "epsilons"):
        raw = cp.get("run", "epsilons")
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError("[run] epsilons: needs at least one value")
        epsilons = tuple(_convert("run", "epsilons", p, float) for p in parts)
        if any(e <= 0.0 or e >= 1.0 for e in epsilons):
            raise ConfigError("[run] epsilons: every value must lie in (0,1)")
    else:
        epsilons = DEFAULT_EPSILONS
    return RunConfig(
        problem=problem,
        penalty=penalty,
        replications=replications,
        seed=seed,
        output=output,
        epsilons=epsilons,
    )

