"""Every name a module imports is used: a scan of the package (bar its
re-exporting __init__.py), of the tests and of the demos. Every private
module-level function or class of the package has a caller in the
package, and every public one a reader in the repo. No linter is installed, so these
tests are the check."""

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


def _references(tree):
    """(name, line) of every name the module reads, imports or reads as
    an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_private_helper_has_a_caller():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted((ROOT / "src" / "compatgnn").glob("*.py"))}
    refs = {p: list(_references(tree)) for p, tree in trees.items()}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (p == path and line in own)
                       for p, found in refs.items() for name, line in found):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not dead, "private helpers nothing in src/ calls:\n" + "\n".join(dead)


def test_every_public_function_has_a_reader():
    """Each public module-level def or class of the package is named
    outside its own body in src/, tests/, demos/ or perfbench/; the
    package's re-exporting __init__.py is no reader."""
    package = ROOT / "src" / "compatgnn"
    files = [p for d in ("src", "tests", "demos", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in files}
    refs = {p: list(_references(tree)) for p, tree in trees.items()
            if p != package / "__init__.py"}
    orphans = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in trees[path].body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (p == path and line in own)
                       for p, found in refs.items() for name, line in found):
                orphans.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not orphans, "public names nothing reads:\n" + "\n".join(orphans)
