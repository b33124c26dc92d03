"""Every module-level import in the package, the tests and the benchmark is
used: a deletion must take the imports only it needed with it. The package
imports its own modules at module level only."""

import ast
from pathlib import Path

import pytest

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


def _private_definitions(tree):
    """Module-level private names a module defines: functions, classes and
    assignment targets, each with the statement that defines it."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [
                n.id for t in nodes for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def test_private_names_are_used_in_src():
    """Every module-level private name in the package is read somewhere in
    ``src/`` outside its own definition: a helper that only tests (or
    nothing) call is dead code."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in ROOT.glob("src/wfcodec/*.py")}
    defined = {
        (path, name, stmt) for path, tree in trees.items()
        for name, stmt in _private_definitions(tree)
    }
    # Each read is (name, the module-level statement that contains it).
    reads = set()
    for tree in trees.values():
        for stmt in tree.body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.add((n.id, stmt))
                elif isinstance(n, ast.Attribute):
                    reads.add((n.attr, stmt))
    unused = sorted(
        f"{path.name}:{name}" for path, name, stmt in defined
        if not any(read == name and where is not stmt for read, where in reads)
    )
    assert not unused, f"private names nothing in src/ reads: {unused}"


def test_no_relative_import_inside_a_function():
    """The package imports its own modules at module level, where the
    unused-import rule above sees them and a cycle fails at import time, not
    on the first call that reaches a function-level ``from .x import ...``."""
    nested = set()
    for path in ROOT.glob("src/wfcodec/*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.name}:{n.lineno}" for n in ast.walk(func)
                    if isinstance(n, ast.ImportFrom) and n.level > 0
                )
    assert not nested, f"relative imports inside functions: {sorted(nested)}"


def test_kernel_views_are_bounds_checked():
    """The package builds strided views with ``sliding_window_view`` and
    slicing, never ``as_strided``, which reads past its array unchecked."""
    found = set()
    for path in ROOT.glob("src/wfcodec/*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            names = [a.name.split(".")[-1] for a in getattr(n, "names", [])
                     if isinstance(a, ast.alias)]
            names += [getattr(n, "id", None), getattr(n, "attr", None)]
            if "as_strided" in names:
                found.add(f"{path.name}:{n.lineno}")
    assert not found, f"as_strided in the package: {sorted(found)}"


# What starts a thread or sets the BLAS's thread count.
_THREAD_NAMES = ("ThreadPoolExecutor", "Thread")
_BLAS_SETTER = "set_num_threads"


def _thread_uses(source: str) -> list[int]:
    """Lines of ``source`` that name a thread class, or an OpenBLAS thread
    setter in a name or a string."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        names = [a.name.split(".")[-1] for a in getattr(n, "names", [])
                 if isinstance(a, ast.alias)]
        names += [getattr(n, "id", None), getattr(n, "attr", None)]
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.append(n.value)
        if any(
            name in _THREAD_NAMES or _BLAS_SETTER in name for name in names if name
        ):
            lines.append(n.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "from concurrent.futures import ThreadPoolExecutor",
    "import threading\nthreading.Thread(target=print).start()",
    "from threading import Thread",
    "getattr(lib, 'scipy_openblas_set_num_threads64_')",
    "lib.openblas_set_num_threads(1)",
])
def test_thread_guard_sees(source):
    assert _thread_uses(source)


def test_threads_live_in_one_module():
    """Only ``wfcodec.blas`` makes threads or sets the BLAS thread count:
    every other module takes ``W``, the shared pool and the BLAS pin from
    it, so no kernel can start threads of its own or change the BLAS's."""
    found = {
        f"{path.name}:{line}"
        for path in ROOT.glob("src/wfcodec/*.py") if path.name != "blas.py"
        for line in _thread_uses(path.read_text())
    }
    assert not found, f"threads or BLAS setters outside wfcodec.blas: {sorted(found)}"


# Calls that run a GEMM in the BLAS, besides the ``@`` operator.
_GEMM_CALLS = ("matmul", "dot", "tensordot", "vdot", "inner")


def _is_blas_pin(with_node) -> bool:
    return any(
        isinstance(item.context_expr, ast.Call)
        and "one_blas_thread" in (
            getattr(item.context_expr.func, "attr", None),
            getattr(item.context_expr.func, "id", None),
        )
        for item in with_node.items
    )


def _unpinned_gemms(source: str) -> list[int]:
    """Lines of ``source`` with a GEMM that no enclosing
    ``with ...one_blas_thread()`` block holds."""
    lines = []

    def visit(node, pinned: bool) -> None:
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            gemm = True
        else:
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            gemm = (getattr(func, "attr", None) or getattr(func, "id", None)) in _GEMM_CALLS
        if gemm and not pinned:
            lines.append(node.lineno)
        if isinstance(node, (ast.With, ast.AsyncWith)) and _is_blas_pin(node):
            for item in node.items:
                visit(item, pinned)
            for stmt in node.body:
                visit(stmt, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, pinned)

    visit(ast.parse(source), False)
    return lines


@pytest.mark.parametrize("source", [
    "np.matmul(a, b)",
    "a @ b",
    "a @= b",
    "x.dot(y)",
    "np.tensordot(a, b)",
    "np.vdot(a, b)",
    "np.inner(a, b)",
    "with blas.one_blas_thread():\n    pass\nnp.matmul(a, b)",
    "with open(path):\n    a @ b",
    "with one_blas_thread(np.matmul(a, b)):\n    pass",
    "def f():\n    return a @ b\nwith one_blas_thread():\n    f()",
])
def test_gemm_guard_sees(source):
    assert _unpinned_gemms(source)


def test_gemms_run_inside_the_blas_pin():
    """Every GEMM in the package runs inside ``blas.one_blas_thread``: a
    multi-threaded BLAS partitions a GEMM by its thread count, so a GEMM
    outside the pin would make output bits depend on that count."""
    found = {
        f"{path.name}:{line}"
        for path in ROOT.glob("src/wfcodec/*.py")
        for line in _unpinned_gemms(path.read_text())
    }
    assert not found, f"GEMMs outside one_blas_thread: {sorted(found)}"
