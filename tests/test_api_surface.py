"""The public surface is only what the toolkit itself uses.

Every name a vpkit module exports in __all__ must be referenced as code (a
name, an attribute or a module imported from, never a string) somewhere in
src/vpkit outside its own definition, or in demos/; and every error class
must be raised or caught somewhere in src/vpkit. A public name reached only
by its own unit tests fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vpkit"

# __version__ is package metadata. mode_reconstruct is the independent linear
# oracle that ROADMAP item 1 turns into a battery criterion.
EXEMPT = {"__version__", "mode_reconstruct"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _references(node, skip=None):
    """Names referenced as code under node, not descending into a def or
    class named skip."""
    found = set()
    stack = [node]
    while stack:
        item = stack.pop()
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and item.name == skip
        ):
            continue
        if isinstance(item, ast.Name):
            found.add(item.id)
        elif isinstance(item, ast.Attribute):
            found.add(item.attr)
        elif isinstance(item, ast.ImportFrom) and item.module:
            found.update(item.module.split("."))
        stack.extend(ast.iter_child_nodes(item))
    return found


SOURCES = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
REFERENCES = {module: _references(tree) for module, tree in SOURCES.items()}
DEMO_REFERENCES = set().union(
    *(_references(_tree(path)) for path in (ROOT / "demos").glob("*.py"))
)
EXPORTS = [
    (module, name)
    for module, tree in SOURCES.items()
    for name in _exports(tree)
    if name not in EXEMPT
]


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_every_export_has_a_caller(module, name):
    used = DEMO_REFERENCES | _references(SOURCES[module], skip=name)
    used = used.union(*(refs for other, refs in REFERENCES.items() if other != module))
    assert name in used, f"vpkit.{module}.{name} is exported but nothing in src/ or demos/ uses it"


def _handled(tree):
    """Names raised (raise X / raise X(...)) or caught (except X / (X, Y))."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found |= _references(exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found |= _references(node.type)
    return found


ERRORS = [node.name for node in SOURCES["errors"].body if isinstance(node, ast.ClassDef)]
HANDLED = set().union(*(_handled(tree) for tree in SOURCES.values()))


@pytest.mark.parametrize("name", ERRORS)
def test_every_error_class_is_raised_or_caught(name):
    assert name in HANDLED, f"vpkit.errors.{name} is neither raised nor caught in src/"
