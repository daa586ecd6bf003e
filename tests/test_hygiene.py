"""Every public top-level function or class under src/qbeckner, and every
public method or property of a public class, has a caller there: a name that
only tests use belongs in tests/oracles.py."""

import ast
import pathlib

import qbeckner

SRC = pathlib.Path(qbeckner.__file__).parent

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"

# Public names that no library code calls, each kept on purpose: those the
# benchmark's tracer patches to count their calls (LIBRARY_SPANS of
# perfbench/tracing.py), and paper results that are to be run by the verify
# suite.
TRACED = {
    ("entropy", "q_variance"),
    ("transport", "geodesic_shoot"),
    ("ricci", "hessian_form"),
    ("linalg", "partial_dd_tensor"),
    ("constants", "estimate_constant"),
}
AWAITING_VERIFY = {
    ("constants", "stability_factor"),
    ("constants", "moment_concentration_check"),
    ("constants", "certified_uniform_alpha"),
    ("ricci", "dynamic_checks"),
}
ALLOWED = TRACED | AWAITING_VERIFY


def _uses(node):
    """(bare names, attribute names) that occur in node."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def _uncalled():
    """Public top-level definitions whose name no other top-level definition
    and no module code uses, as a bare name or an attribute, and public
    methods of public classes, named "Class.method", whose name nothing
    else uses as an attribute: a local variable of the same name is not a
    call. Imports are not uses, so neither is a re-export from __init__,
    and a definition's uses of its own name do not count."""
    tops, methods, names, attrs = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = None
            parts = [(stmt, None)]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    tops.add((path.stem, own))
            if isinstance(stmt, ast.ClassDef):
                parts = [(n, n.name if isinstance(n, ast.FunctionDef) else None)
                         for n in ast.iter_child_nodes(stmt)]
                if not own.startswith("_"):
                    methods.update((path.stem, own, m) for _, m in parts
                                   if m and not m.startswith("_"))
            for node, method in parts:
                n, a = _uses(node)
                names |= n - {own, method}
                attrs |= a - {own, method}
    return ({(mod, name) for mod, name in tops if name not in names | attrs}
            | {(mod, f"{cls}.{m}") for mod, cls, m in methods if m not in attrs})


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - ALLOWED) == []


def test_allowlist_is_current():
    # a name that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED - _uncalled()) == []


def _library_spans():
    """(module, attribute) of every LIBRARY_SPANS entry of the tracer, read
    from its source with ast, so the benchmark's code is not imported."""
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id == "LIBRARY_SPANS":
            return {(mod.removeprefix("qbeckner."), attr)
                    for _, mod, attr in ast.literal_eval(stmt.value)}
    raise AssertionError(f"no LIBRARY_SPANS in {TRACING}")


def test_traced_names_are_patched_by_the_tracer():
    # a name kept for the tracer must be one the tracer patches
    assert sorted(TRACED - _library_spans()) == []
