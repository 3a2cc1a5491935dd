"""Every name ``advrisk`` exports has a caller outside the tests.

A caller is a load of the name, or of an attribute of that name, in
``src/advrisk/`` outside the name's own definition, in ``scripts/``, in
``benchmark/`` or in the acceptance gate; a helper only other tests call
is deleted instead of exported.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "advrisk"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _loads(node: ast.AST, skip_definition_of: str | None = None):
    """Names loaded under ``node`` (``x`` and ``x``'s attribute ``x.y`` give
    ``x`` and ``y``), leaving out the body of a definition named
    ``skip_definition_of``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and child.name == skip_definition_of):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr
        yield from _loads(child, skip_definition_of)


def _caller_files() -> list[pathlib.Path]:
    files = sorted(PACKAGE.glob("*.py"))
    files.remove(PACKAGE / "__init__.py")
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "benchmark").rglob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


_TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in _caller_files()]


@pytest.mark.parametrize("name", _exported())
def test_every_exported_name_has_a_caller_outside_the_tests(name):
    assert any(name in _loads(tree, name) for tree in _TREES), (
        f"advrisk.{name} is loaded nowhere outside the tests and its own definition")
