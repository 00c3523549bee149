"""API hygiene: every public module, class, and function is documented.

A release-quality library documents its public surface; this test walks
the package and fails on any public item without a docstring, and on
any module that fails to import.  It also holds the runtime imports to
what ``pyproject.toml`` declares, fails on any imported name a module
never uses, and pins the environment variables the package reads.
"""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not inspect.getdoc(obj):
            undocumented.append(name)
        elif inspect.isclass(obj):
            for m_name, member in vars(obj).items():
                if m_name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not inspect.getdoc(member):
                    undocumented.append(f"{name}.{m_name}")
    assert not undocumented, (
        f"{module_name}: undocumented public items: {undocumented}"
    )


def test_package_exports_resolve():
    """Every name in each package's __all__ must exist."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"


def test_pipeline_imports_only_declared_dependencies():
    """The pipeline imports numpy and the standard library, nothing else.

    ``pyproject.toml`` declares numpy as the one runtime dependency; the
    graph IR keeps its own edge index instead of a graph library.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.experiments.runner, repro.serve.sim\n"
        "import repro.analysis, repro.passes\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "new -= set(sys.stdlib_module_names)\n"
        "print(sorted(m for m in new if not m.startswith('_')))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "['numpy', 'repro']"


def _unused_imports(path):
    """Names a module imports but never references.

    A name counts as referenced when it appears as an identifier, or
    inside a string that parses as an expression (string annotations,
    ``__all__`` entries).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


def test_no_unused_imports():
    """Every name a non-package module imports is referenced in it.

    Package ``__init__`` modules are exempt: their imports are the
    package's re-exported surface.
    """
    root = pathlib.Path(repro.__file__).parent
    unused = {
        str(path.relative_to(root)): names
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for names in [_unused_imports(path)]
        if names
    }
    assert not unused, f"unused imports: {unused}"


#: Every environment variable the package reads.  A new knob must be
#: added here, where review sees it.
ENVIRONMENT_KNOBS = {
    "REPRO_DSE_CACHE",
    "REPRO_MAX_SEARCH_NODES",
    "REPRO_MAX_SEARCH_SECONDS",
    "REPRO_OBS",
}


def test_environment_knobs_are_pinned():
    """The ``REPRO_*`` names in the package's source are exactly the
    pinned set."""
    root = pathlib.Path(repro.__file__).parent
    pattern = re.compile(r"^REPRO_[A-Z0-9_]+$")
    found = {
        node.value
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and pattern.match(node.value)
    }
    assert found == ENVIRONMENT_KNOBS
