"""No module of the package or of its tests imports a name it never uses.

No linter ships with the project, so this is the unused-import check
(pyflakes F401) written against the ``ast`` module.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spapprox"


def unused_imports(path: Path) -> list[str]:
    """Imported names the module never reads.

    ``__future__`` imports, names listed in ``__all__`` and imports whose
    statement or name line carries ``# noqa: F401`` are exempt.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno))
            if name not in used and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads  # noqa: F401  kept importable\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,\n"
        ")\n"
        "__all__ = ['escape']\n"
        "print(os.path.sep, compile)\n"
    )
    assert unused_imports(module) == ["module.py:2: math"]
