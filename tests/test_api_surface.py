"""The public surface is only what the toolkit itself uses.

Every name a vpkit module exports in __all__ must be referenced as code (a
name, an attribute or a module imported from, never a string) somewhere in
src/vpkit outside its own definition, or in demos/; and every error class
must be raised or caught somewhere in src/vpkit. A public name reached only
by its own unit tests fails here.
"""

import ast
import pickle
from pathlib import Path

import pytest

from vpkit import errors

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


# constructor arguments of the error classes that take more than a message
ERROR_ARGS = {
    "ParseError": (3, "dt", "not a number"),
    "ValidationError": (["a", "b"],),
    "ResolutionExceeded": ("edge band", 0.25, 7.5),
}


@pytest.mark.parametrize("name", ERRORS)
def test_every_error_survives_a_pickle_round_trip(name):
    # the forked child of kinetic._side_by_side sends its exception back as a pickle
    error = getattr(errors, name)(*ERROR_ARGS.get(name, ("message",)))
    copy = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


# ---------------------------------------------------------------------------
# Every settable value has a caller that sets it.
#
# A default-valued parameter of a public function or method, or a field of a
# public dataclass, is a knob. A knob that no call in src/, demos/ or
# perfbench/ sets always takes one value, and should be a constant. A call
# sets a parameter when it passes it by keyword, passes enough positional
# arguments to reach it, or uses * / ** (which may reach any of them); calls
# are matched to definitions by name, and cls(...) inside a class body is a
# call of that class. dataclasses.replace(obj, name=...) sets field name.

# (owner, parameter) -> why it stays settable with no caller setting it
KNOB_ALLOWLIST = {
    ("EchoKernelSpec", "trunc"): "the tests' trunc-doubling certificate sets it",
    ("run_battery", "cache"): "the tests share one product cache across calls",
    **{(f"criterion_{n}", "cache"): "reached through CRITERIA as fn(cache); the tests "
       "share one product cache" for n in range(1, 13)},
    ("main", "argv"): "the entry point: the console script calls main(), which parses sys.argv",
    ("power_law", "amplitude"): "called as getattr(model, kind)(*args) with the keys of "
    "Interaction.KINDS in config._resolve",
    ("power_law", "sign"): "called as getattr(model, kind)(*args) with the keys of "
    "Interaction.KINDS in config._resolve",
    ("PropertyReport", "items"): "state filled after construction",
    ("PropertyReport", "observed"): "state filled after construction",
}

CALLER_TREES = [
    _tree(path)
    for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
]


def _decorators(node):
    return set().union(*(_references(d) for d in node.decorator_list))


def _init_fields(cls):
    """Fields of a dataclass body that __init__ takes, in order."""
    fields = []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in _references(item.annotation):
            continue
        value = item.value
        if (isinstance(value, ast.Call) and "field" in _references(value.func)
                and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False for kw in value.keywords)):
            continue
        fields.append(item.target.id)
    return fields


def _knobs():
    """name -> [(parameter list the positional arguments fill, knob names)]
    for every public definition of that name, and the dataclass names."""
    table, dataclasses = {}, set()

    def function(node, owner=None):
        if node.name.startswith("_") or _decorators(node) & {"property", "cached_property"}:
            return
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if owner is not None and "staticmethod" not in _decorators(node):
            positional = positional[1:]  # self or cls
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if defaulted:
            table.setdefault(node.name, []).append((positional, defaulted))

    for tree in SOURCES.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if "dataclass" in _decorators(node):
                    fields = _init_fields(node)
                    table.setdefault(node.name, []).append((fields, fields))
                    dataclasses.add(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        function(item, owner=node.name)
    return table, dataclasses


def _calls():
    """(callee name, positional count, keyword names, starred) per call site."""
    found = []

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name == "cls" and cls_name is not None:
                    name = cls_name
                starred = any(isinstance(a, ast.Starred) for a in child.args) or any(
                    kw.arg is None for kw in child.keywords)
                keywords = {kw.arg for kw in child.keywords if kw.arg is not None}
                if name is not None:
                    found.append((name, len(child.args), keywords, starred))
            visit(child, cls_name)

    for tree in CALLER_TREES:
        visit(tree, None)
    return found


def _unset_knobs():
    knobs, dataclasses = _knobs()
    fields_by_name = {}
    for owner in dataclasses:
        for _, names in knobs[owner]:
            for name in names:
                fields_by_name.setdefault(name, set()).add(owner)
    unset = {(owner, name) for owner, defs in knobs.items() for _, names in defs for name in names}
    for callee, n_positional, keywords, starred in _calls():
        if callee == "replace":
            unset -= {(owner, name) for name in keywords for owner in fields_by_name.get(name, ())}
            continue
        for positional, names in knobs.get(callee, ()):
            for name in names:
                if starred or name in keywords or name in positional[:n_positional]:
                    unset.discard((callee, name))
    return unset


def test_every_knob_is_set_by_a_caller():
    unset = sorted(_unset_knobs() - set(KNOB_ALLOWLIST))
    assert not unset, (
        "settable values that no call in src/, demos/ or perfbench/ sets (make each a "
        f"constant, or allowlist it with a reason): {unset}"
    )


def test_knob_allowlist_names_real_unset_knobs():
    stale = sorted(set(KNOB_ALLOWLIST) - _unset_knobs())
    assert not stale, f"allowlisted knobs that are gone or now set by a caller: {stale}"
