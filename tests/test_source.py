"""Guards on the package source itself, read with ``ast``, not imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsim"


def _names(node) -> set[str]:
    """Every name ``node`` reads: bare names, attribute names and
    imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unused_definitions(src: Path) -> list[str]:
    """``module.name`` of each top-level function or class of the modules
    in ``src`` that no other top-level statement of those modules reads."""
    statements = []  # (module, statement, names it reads)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, stmt, _names(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in names for _, other, names in statements
                       if other is not stmt):
                unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_top_level_definition_in_src_is_used_in_src():
    """A function or class that only tests call belongs in the tests."""
    assert unused_definitions(SRC) == []


def test_the_guard_flags_a_definition_read_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def alone(n):\n    return alone(n - 1) if n else used()\n\n"
        "class Kept:\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import Kept as K\n", encoding="utf-8")
    assert unused_definitions(tmp_path) == ["a.alone"]
