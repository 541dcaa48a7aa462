"""No public name, and no parameter default, exists only for the tests.

A public function, class, method or property that only tests reference is
dead weight: the tests then check a helper nothing else runs.  References
are names, attribute names, imported names and identifier-valued strings
(the benchmark's tracer patches functions by name) in ``src/quasiflow``,
``scripts`` and ``perfbench``; a definition is not a reference to itself.

Likewise a defaulted parameter that no call there passes is a knob with one
value, which should be a constant, and a name a package module imports but
never uses is an import to delete.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quasiflow"
CALLERS = ("src/quasiflow", "scripts", "perfbench")

# name -> why only tests may call it
TEST_ONLY = {
    "evaluate_physical": (
        "the only physical-space evaluation of a rank-6 hull; the tests use "
        "it as their group-invariance oracle"
    ),
}


def _public_definitions():
    """(file, qualified name) of module-level functions and classes and their methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path.name, f"{node.name}.{sub.name}"


def _referenced(*dirs):
    names = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    names.add(node.value)
    return names


def _test_only():
    outside = _referenced(*CALLERS)
    tests = _referenced("tests")
    return {
        (path, qual) for path, qual in _public_definitions()
        if qual.rpartition(".")[2] not in outside
        and qual.rpartition(".")[2] in tests
    }


def test_no_public_name_is_called_only_by_tests():
    offenders = sorted(
        f"{path}: {qual}" for path, qual in _test_only()
        if qual.rpartition(".")[2] not in TEST_ONLY
    )
    assert offenders == []


def test_every_exception_is_still_test_only():
    # an exception that gained a caller elsewhere no longer needs its entry
    found = {qual.rpartition(".")[2] for _, qual in _test_only()}
    assert set(TEST_ONLY) <= found


# (function, parameter) -> why only tests may pass it
KNOB_TEST_ONLY = {}


def _defaulted_parameters():
    """(file, function, parameter, position) of every defaulted parameter.

    The position counts the arguments a call writes before it, so a method's
    ``self`` is not counted; a keyword-only parameter has position None.
    ``__init__`` is called by its class's name.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args, offset = node.args, int(id(node) in methods)
            name = methods[id(node)] if node.name == "__init__" else node.name
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield path.name, name, arg.arg, i - offset
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.name, name, arg.arg, None


def _calls_and_values():
    """Calls by callee name, and the names used otherwise: loaded as a value
    (not called), imported under an alias, or written as a string outside
    ``__all__``."""
    calls, values = {}, set()
    for d in CALLERS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text())
            excluded = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    excluded.add(id(node.func))
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__" for t in node.targets):
                    excluded.update(id(c) for c in ast.walk(node.value))
            for node in ast.walk(tree):
                if id(node) in excluded:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    values.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    values.add(node.attr)
                elif isinstance(node, ast.alias) and node.asname:
                    values.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    values.add(node.value)
    return calls, values


def _unpassed_knobs():
    """(file, function, parameter) of defaults no call passes.

    A function used otherwise than by a plain call, or called with ``*`` or
    ``**`` anywhere, is skipped: its callers cannot be read off the calls.
    """
    calls, values = _calls_and_values()
    found = set()
    for path, func, param, pos in _defaulted_parameters():
        sites = calls.get(func, [])
        if func in values or any(
                isinstance(a, ast.Starred) for c in sites for a in c.args) or any(
                k.arg is None for c in sites for k in c.keywords):
            continue
        if not any(any(k.arg == param for k in c.keywords)
                   or (pos is not None and len(c.args) > pos) for c in sites):
            found.add((path, func, param))
    return found


def test_every_default_is_passed_by_some_caller():
    offenders = sorted(
        f"{path}: {func}({param})" for path, func, param in _unpassed_knobs()
        if (func, param) not in KNOB_TEST_ONLY
    )
    assert offenders == []


def test_every_knob_exception_is_still_unpassed():
    found = {(func, param) for _, func, param in _unpassed_knobs()}
    assert set(KNOB_TEST_ONLY) <= found


def _used_names(node, shadowed=frozenset()):
    """Names read or written in ``node``, leaving out a name inside the body
    of a function that takes a parameter of that name."""
    if isinstance(node, ast.Name):
        return set() if node.id in shadowed else {node.id}
    inner = shadowed
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        inner = shadowed | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    names = set()
    for name, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                names |= _used_names(child, inner if name == "body" else shadowed)
    return names


def _unused_imports():
    """(file, name) of names a package module imports and never uses.

    ``__init__.py`` imports to re-export, and ``from __future__ import
    annotations`` is a compiler directive, so neither counts.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.add((path.name, name))
    return found


def test_every_imported_name_is_used():
    assert sorted(f"{path}: {name}" for path, name in _unused_imports()) == []
