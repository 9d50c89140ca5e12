"""Every name a module imports is used: a scan of the package (bar its
re-exporting __init__.py), of the tests and of the demos. Every private
module-level function or class of the package has a caller in the
package, and every public one a reader in the repo. No linter is installed, so these
tests are the check."""

import ast
import importlib.util
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


def _tracer_spans():
    """perfbench/spans.py, loaded as test_bench's tracer check loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_autodiff_op_has_a_package_caller_or_a_tracer():
    """Each public function of compatgnn.autodiff is read by another
    module of the package (the re-exporting __init__.py is no reader), or
    the benchmark's tracer wraps it by name (perfbench/spans.py's
    AUTODIFF_OPS or FUNCTIONS): an op only the tests run is dead code.
    Classes are left out: every op returns a Tensor."""
    spans = _tracer_spans()
    traced = set(spans.AUTODIFF_OPS) | {name for home, name, _ in spans.FUNCTIONS
                                        if home.__name__ == "compatgnn.autodiff"}
    package = ROOT / "src" / "compatgnn"
    home = package / "autodiff.py"
    read = {name for p in sorted(package.glob("*.py"))
            if p not in (home, package / "__init__.py")
            for name, _ in _references(ast.parse(p.read_text(encoding="utf-8")))}
    dead = [f"{home.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for node in ast.parse(home.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in read and node.name not in traced]
    assert not dead, "autodiff ops neither the package nor the tracer reads:\n" + "\n".join(dead)


def _private_imports(path):
    """Absolute imports of path whose module or imported names have a
    part starting with an underscore: another package's private API."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [alias.name for alias in node.names]
        else:
            continue
        if any(part.startswith("_") for name in names for part in name.split(".")):
            yield f"{path.relative_to(ROOT)}:{node.lineno}: {', '.join(names)}"


def test_the_package_imports_no_private_name_of_another_package():
    found = [line for path in sorted((ROOT / "src" / "compatgnn").glob("*.py"))
             for line in _private_imports(path)]
    assert not found, "private names imported from another package:\n" + "\n".join(found)
