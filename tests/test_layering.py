"""Layering ratchet: only ``repro.experiments`` imports ``repro.experiments``.

Every import statement in every other package and top-level module of
``src/repro`` (module level or inside a function) is parsed with ``ast``;
none may name an experiments module, and no exception is allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_LAYERS = (
    "memsim", "engine", "fleet", "core", "topology", "learn", "workloads", "perf",
    "oslib", "__init__.py", "store.py", "faults.py", "obs.py", "units.py",
)


def _absolute(module, level, rel):
    """The absolute module a (possibly relative) ``from`` import names."""
    if not level:
        return module or ""
    package = ["repro", *Path(rel).parent.parts]
    base = package[: len(package) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _experiments_imports(source, rel):
    """``{module: names}`` of every experiments import in the source of
    ``src/repro/<rel>``."""
    found = {}
    for node in ast.walk(ast.parse(source, filename=rel)):
        if isinstance(node, ast.Import):
            targets = [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node.module, node.level, rel)
            names = tuple(alias.name for alias in node.names)
            # ``from repro import experiments`` imports the package itself.
            if module == "repro" and "experiments" in names:
                targets = [("repro.experiments", names)]
            else:
                targets = [(module, names)]
        else:
            continue
        for module, names in targets:
            if module == "repro.experiments" or module.startswith("repro.experiments."):
                found.setdefault(module, set()).update(names)
    return found


def _violations():
    out = set()
    for layer in LOWER_LAYERS:
        root = SRC / layer
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for module, names in _experiments_imports(path.read_text(), rel).items():
                out.add((rel, module, tuple(sorted(names))))
    return out


def test_lower_layers_do_not_import_experiments():
    found = _violations()
    assert not found, f"lower layers import repro.experiments: {sorted(found)}"


def test_lower_layers_cover_everything_but_experiments():
    entries = {
        p.name for p in SRC.iterdir()
        if p.name != "__pycache__" and (p.is_dir() or p.suffix == ".py")
    }
    assert set(LOWER_LAYERS) == entries - {"experiments"}


@pytest.mark.parametrize(
    "source, module",
    [
        ("import repro.experiments.common", "repro.experiments.common"),
        ("from repro.experiments import cli", "repro.experiments"),
        ("from repro import experiments", "repro.experiments"),
        ("def f():\n    from ..experiments.common import run_spec\n", "repro.experiments.common"),
        ("from . import app", None),
        ("import repro.experimental", None),
    ],
)
def test_detects_every_import_form(source, module):
    found = _experiments_imports(source, "engine/probe.py")
    assert list(found) == ([module] if module else [])
