"""Functional inequalities, transport metrics and entropic curvature for
finite-dimensional quantum Markov semigroups with detailed balance."""

from .config import ExperimentConfig, build_generator, fixtures
from .semigroup import (
    DbcLindbladian,
    JumpTerm,
    build_from_jumps,
    depolarizing,
    evolve,
    random_dbc,
)

__all__ = [
    "DbcLindbladian",
    "ExperimentConfig",
    "JumpTerm",
    "build_from_jumps",
    "build_generator",
    "depolarizing",
    "evolve",
    "fixtures",
    "random_dbc",
]

__version__ = "0.1.0"
