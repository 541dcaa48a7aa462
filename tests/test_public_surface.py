"""No public name in the package is referenced only by the tests.

A public function, class, method or property that only tests reference is
dead weight: the tests then check a helper nothing else runs.  References
are names, attribute names, imported names and identifier-valued strings
(the benchmark's tracer patches functions by name) in ``src/quasiflow``,
``scripts`` and ``perfbench``; a definition is not a reference to itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quasiflow"

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
    outside = _referenced("src/quasiflow", "scripts", "perfbench")
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
