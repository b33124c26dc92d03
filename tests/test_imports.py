"""Every module-level import in the package, the tests and the benchmark is
used: a deletion must take the imports only it needed with it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in ROOT.glob("src/wfcodec/*.py") if p.name != "__init__.py"]
    + list(ROOT.glob("tests/*.py"))
    + list(ROOT.glob("perfbench/*.py"))
)


def _bound_names(node):
    """Names a module-level import statement binds, ``__future__`` excluded."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def test_module_imports_are_used():
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = {
            name
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node)
        }
        if names - used:
            unused[str(path.relative_to(ROOT))] = sorted(names - used)
    assert not unused, f"unused imports: {unused}"
