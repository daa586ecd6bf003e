"""Every public top-level function or class under src/qbeckner has a caller
there: a name that only tests use belongs in tests/oracles.py."""

import ast
import pathlib

import qbeckner

SRC = pathlib.Path(qbeckner.__file__).parent

# Public names that no library code calls, each kept on purpose.
ALLOWED = {
    # the benchmark's tracer patches them to count their calls
    ("entropy", "q_variance"),
    ("transport", "geodesic_shoot"),
    # paper results that are to be run by the verify suite
    ("constants", "stability_factor"),
    ("constants", "moment_concentration_check"),
    ("constants", "certified_uniform_alpha"),
    ("ricci", "dynamic_checks"),
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _uncalled():
    """Public top-level definitions whose name no other top-level definition
    and no module code uses, as a bare name or an attribute. Imports are not
    uses, so neither is a re-export from __init__, and a definition's uses
    of its own name do not count."""
    public, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    public.add((path.stem, own))
            referenced.update(n for n in _names(stmt) if n != own)
    return {(mod, name) for mod, name in public if name not in referenced}


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - ALLOWED) == []


def test_allowlist_is_current():
    # a name that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED - _uncalled()) == []
