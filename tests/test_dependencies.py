"""The library imports only what README and CI declare: NumPy, plus an
optional ``cloudpickle`` that every importer guards.

Every ``src/`` file is parsed (nothing is imported), so a dependency
hidden in a function body — imported only when one rarely used method
runs — is caught as well as a module-level one.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Third-party modules the library may import.  ``cloudpickle`` is
#: optional: its importers fall back to ``pickle`` without it.
DECLARED = {"numpy"}
OPTIONAL = {"cloudpickle"}


#: Handlers that turn a missing module into a fallback.
_IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}


def _catches_import_error(handler):
    return handler.type is not None and any(
        getattr(node, "id", getattr(node, "attr", None)) in _IMPORT_ERRORS
        for node in ast.walk(handler.type)
    )


def _imports(tree):
    """``(top-level module, guarded)`` for every import in ``tree``;
    guarded means inside the body of a ``try`` that catches
    ``ImportError`` or ``ModuleNotFoundError``."""
    guarded_nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            _catches_import_error(handler) for handler in node.handlers
        ):
            for stmt in node.body:
                guarded_nodes.update(id(n) for n in ast.walk(stmt))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            yield name.split(".")[0], id(node) in guarded_nodes


def _third_party():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, guarded in _imports(tree):
            if module in sys.stdlib_module_names or module == "repro":
                continue
            found.setdefault(module, []).append(
                (str(path.relative_to(SRC)), guarded)
            )
    return found


def test_only_declared_dependencies_imported():
    found = _third_party()
    undeclared = {
        module: sorted(path for path, _ in sites)
        for module, sites in found.items()
        if module not in DECLARED | OPTIONAL
    }
    assert not undeclared, f"undeclared imports: {undeclared}"
    assert "numpy" in found


def test_optional_dependencies_guarded():
    unguarded = {
        module: sorted(path for path, guarded in sites if not guarded)
        for module, sites in _third_party().items()
        if module in OPTIONAL
    }
    assert not any(unguarded.values()), f"unguarded imports: {unguarded}"


def _scan(source):
    return sorted(_imports(ast.parse(textwrap.dedent(source))))


class TestScanner:
    """The scanner finds what the guard above relies on it to find."""

    def test_function_local_import_found(self):
        assert _scan("""
            def rarely_used():
                import scipy.sparse
        """) == [("scipy", False)]

    def test_from_import_reports_top_level_package(self):
        assert _scan("from scipy.sparse import csr_matrix") == [
            ("scipy", False)
        ]

    def test_relative_import_skipped(self):
        assert _scan("from . import sibling\nfrom .pkg import name") == []

    @pytest.mark.parametrize("handler", [
        "ImportError", "ModuleNotFoundError", "(ImportError, OSError)",
    ])
    def test_import_error_handler_guards(self, handler):
        assert _scan(f"""
            try:
                import cloudpickle
            except {handler}:
                cloudpickle = None
        """) == [("cloudpickle", True)]

    def test_other_handlers_do_not_guard(self):
        assert _scan("""
            try:
                import cloudpickle
            except ValueError:
                pass
        """) == [("cloudpickle", False)]

    def test_fallback_branch_is_not_guarded(self):
        """Only the ``try`` body is guarded; the import a handler falls
        back to must exist."""
        assert _scan("""
            try:
                import cloudpickle as pickler
            except ImportError:
                import dill as pickler
        """) == [("cloudpickle", True), ("dill", False)]


@pytest.mark.parametrize("blocked", ["scipy", "cloudpickle"])
def test_every_module_imports_without(blocked):
    """Every ``repro`` module imports with ``blocked`` unimportable: scipy
    is not a dependency, and cloudpickle's importers fall back."""
    script = textwrap.dedent(f"""
        import importlib, pkgutil, sys
        sys.modules[{blocked!r}] = None
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
