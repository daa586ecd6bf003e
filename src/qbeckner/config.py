"""Experiment configuration: JSON schema, fixtures, and model construction."""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

from . import linalg as la
from .errors import ConfigError, UnknownFixture
from .semigroup import DbcLindbladian, JumpTerm, build_from_jumps, depolarizing, random_dbc

DEFAULT_P_GRID = [1.05, 1.1, 1.25, 1.5, 1.75, 2.0]
DEFAULT_Q_GRID = [1.2, 1.5, 1.8]
DEFAULT_SEEDS = {"master": 7, "starts": 0}
ALL_TASKS = ["constants", "decay", "mixing", "transport", "ricci", "verify"]
GENERATOR_KEYS = {"depolarizing": {"kind", "gamma"}, "jumps": {"kind", "list"},
                  "random_dbc": {"kind", "pairs", "diag", "seed"}}


@dataclass
class ExperimentConfig:
    dimension: int = 2
    sigma: Dict = field(default_factory=lambda: {"eigenvalues": [0.75, 0.25]})
    generator: Dict = field(default_factory=lambda: {"kind": "depolarizing", "gamma": 1.0})
    p_grid: List[float] = field(default_factory=lambda: list(DEFAULT_P_GRID))
    q_grid: List[float] = field(default_factory=lambda: list(DEFAULT_Q_GRID))
    seeds: Dict = field(default_factory=lambda: dict(DEFAULT_SEEDS))
    tasks: List[str] = field(default_factory=lambda: ["constants"])
    num_starts: int = 32
    transport_steps: int = 20
    transport_tol: float = 1e-7
    ricci_samples: int = 16
    epsilons: List[float] = field(default_factory=lambda: [0.1, 0.01])

    def seed(self, key: str) -> int:
        """The configured seed, or its default where the config omits it."""
        return int(self.seeds.get(key, DEFAULT_SEEDS[key]))

    def to_dict(self) -> Dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_FIELDS = set(ExperimentConfig().to_dict().keys())


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int or float within the float range: json reads 1e999 as inf, NaN as nan."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _check_types(cfg: ExperimentConfig) -> None:
    """ConfigError for a value of the wrong JSON type, before any range check."""
    for key in ("dimension", "num_starts", "transport_steps", "ricci_samples"):
        if not _is_int(getattr(cfg, key)):
            raise ConfigError(f"{key} must be an integer, not {getattr(cfg, key)!r}")
    for key in ("seeds", "sigma", "generator"):
        if not isinstance(getattr(cfg, key), dict):
            raise ConfigError(f"{key} must be an object, not {getattr(cfg, key)!r}")
    if not isinstance(cfg.tasks, list):
        raise ConfigError(f"tasks must be a list, not {cfg.tasks!r}")
    for key in ("p_grid", "q_grid", "epsilons"):
        grid = getattr(cfg, key)
        if not isinstance(grid, list) or not all(_is_number(x) for x in grid):
            raise ConfigError(f"{key} must be a list of numbers, not {grid!r}")
    if not _is_number(cfg.transport_tol):
        raise ConfigError(f"transport_tol must be a number, not {cfg.transport_tol!r}")


def _check_keys(what: str, obj: Dict, allowed) -> None:
    """ConfigError naming the keys of obj outside allowed: a misspelled key
    would otherwise leave its default in force without notice."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def config_from_dict(data: Dict) -> ExperimentConfig:
    _check_keys("config keys", data, _FIELDS)
    cfg = ExperimentConfig(**data)
    _check_types(cfg)
    if cfg.dimension < 1:
        raise ConfigError("dimension must be >= 1")
    _check_keys("seeds keys", cfg.seeds, DEFAULT_SEEDS)
    for t in cfg.tasks:
        if t not in ALL_TASKS:
            raise ConfigError(f"unknown task {t!r} (choose from {ALL_TASKS})")
    for key in ("p_grid", "epsilons"):  # an empty q_grid only drops the dual-Beckner rows
        if not getattr(cfg, key):
            raise ConfigError(f"{key} must not be empty")
    for p in cfg.p_grid:
        if not 1.0 < p <= 2.0:
            raise ConfigError(f"p_grid entry {p} outside (1, 2]")
    for q in cfg.q_grid:
        if not 1.0 <= q < 2.0:
            raise ConfigError(f"q_grid entry {q} outside [1, 2)")
    for key in ("num_starts", "transport_steps", "ricci_samples"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if not cfg.transport_tol > 0.0:
        raise ConfigError("transport_tol must be positive")
    for eps in cfg.epsilons:
        if not 0.0 < eps < 2.0:
            raise ConfigError(f"epsilons entry {eps} outside (0, 2)")
    for key, seed in cfg.seeds.items():
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError(f"seeds.{key} must be an integer >= 0, not {seed!r}")
    build_sigma(cfg)
    _check_generator(cfg)
    return cfg


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)


def _matrix(obj, d: int, name: str) -> np.ndarray:
    """A d x d matrix from its JSON form, or ConfigError."""
    try:
        M = la.matrix_from_json(obj)
    except (TypeError, ValueError, IndexError, KeyError):
        M = None
    if M is None or M.shape != (d, d):
        raise ConfigError(f"{name} must be a {d}x{d} matrix of [re, im] pairs")
    return M


def build_sigma(cfg: ExperimentConfig) -> np.ndarray:
    spec = cfg.sigma
    _check_keys("sigma keys", spec, ("eigenvalues", "basis"))
    try:
        eigs = np.asarray(spec.get("eigenvalues", []), dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"sigma eigenvalues must be numbers, not {spec['eigenvalues']!r}")
    if eigs.shape != (cfg.dimension,):
        raise ConfigError(
            f"sigma has {eigs.size} eigenvalues for dimension {cfg.dimension}")
    total = float(eigs.sum())  # sigma is not renormalized
    slack = 4 * (cfg.dimension - 1) * np.finfo(float).eps  # d - 1 additions: none at d = 1
    if not (abs(total - 1.0) <= slack and np.min(eigs) > 0):
        raise ConfigError("sigma eigenvalues must be positive and sum to 1 to round-off "
                          f"(sum {total!r})")
    sigma = np.diag(eigs.astype(complex))
    if "basis" in spec and spec["basis"] is not None:
        U = _matrix(spec["basis"], cfg.dimension, "sigma basis")
        if not la.frob(U @ U.conj().T - np.eye(cfg.dimension)) <= 1e-10:
            raise ConfigError("sigma basis must be unitary")
        sigma = U @ sigma @ U.conj().T
    return sigma


def _check_generator(cfg: ExperimentConfig) -> None:
    """ConfigError unless the generator spec is a known kind with only that
    kind's keys and usable values: a positive gamma, integer counts and
    seed >= 0, and jump entries with a d x d matrix V and a number omega."""
    spec = cfg.generator
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in GENERATOR_KEYS):
        raise ConfigError(f"unknown generator kind {kind!r}")
    _check_keys(f"{kind} generator keys", spec, GENERATOR_KEYS[kind])
    gamma = spec.get("gamma", 1.0)
    if kind == "depolarizing" and not (_is_number(gamma) and gamma > 0):
        raise ConfigError(f"generator gamma must be a positive number, not {gamma!r}")
    for key in ("pairs", "diag", "seed") if kind == "random_dbc" else ():
        if key in spec and not (_is_int(spec[key]) and spec[key] >= 0):
            raise ConfigError(f"generator {key} must be an integer >= 0, not {spec[key]!r}")
    entries = spec.get("list", []) if kind == "jumps" else []
    if not isinstance(entries, list):
        raise ConfigError(f"generator list must be a list, not {entries!r}")
    for j in entries:
        if not (isinstance(j, dict) and _is_number(j.get("omega"))):
            raise ConfigError(f"jump {j!r} needs a matrix V and a number omega")
        _matrix(j.get("V"), cfg.dimension, "jump V")


def build_generator(cfg: ExperimentConfig) -> DbcLindbladian:
    sigma = build_sigma(cfg)
    _check_generator(cfg)
    spec = cfg.generator
    kind = spec["kind"]
    if kind == "depolarizing":
        return depolarizing(sigma, float(spec.get("gamma", 1.0)))
    if kind == "jumps":
        jumps = [JumpTerm(la.matrix_from_json(j["V"]), float(j["omega"]))
                 for j in spec.get("list", [])]
        return build_from_jumps(sigma, jumps)
    return random_dbc(sigma, int(spec.get("pairs", cfg.dimension)),
                      int(spec.get("diag", 1)), int(spec.get("seed", 0)))


# Canonical configurations used by the acceptance suite, by name
FIXTURES = {
    "depol2": dict(dimension=2, sigma={"eigenvalues": [0.75, 0.25]},
                   generator={"kind": "depolarizing", "gamma": 1.0}, tasks=ALL_TASKS),
    "depol3": dict(dimension=3, sigma={"eigenvalues": [0.5, 1.0 / 3.0, 1.0 / 6.0]},
                   generator={"kind": "depolarizing", "gamma": 1.0}, tasks=ALL_TASKS),
    "random_dbc_seeded": dict(dimension=3, sigma={"eigenvalues": [0.5, 0.3, 0.2]},
                              generator={"kind": "random_dbc", "pairs": 3, "diag": 1,
                                         "seed": 42}, tasks=["constants", "verify"]),
    # the flat qubit depolarizing semigroup realizes the symmetric
    # two-point chain (theta = 1/2) through the classical reduction
    "classical_embed": dict(dimension=2, sigma={"eigenvalues": [0.5, 0.5]},
                            generator={"kind": "depolarizing", "gamma": 1.0},
                            tasks=["constants"]),
}


def fixtures(name: str) -> ExperimentConfig:
    """The fixture of that name, a fresh copy."""
    if name not in FIXTURES:
        raise UnknownFixture(f"no fixture named {name!r}; the fixtures are {', '.join(FIXTURES)}")
    return ExperimentConfig(**copy.deepcopy(FIXTURES[name]))
