"""Every name a module imports is used: a scan of the package (bar its
re-exporting __init__.py), of the tests and of the demos. No linter is
installed, so this test is the check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    yield f"{path.relative_to(ROOT)}:{node.lineno}: {name}"


def test_every_imported_name_is_used():
    files = [p for p in sorted((ROOT / "src" / "compatgnn").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    unused = [line for path in files for line in unused_imports(path)]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
