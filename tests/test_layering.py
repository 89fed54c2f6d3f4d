"""Layering ratchet: the lower layers never import ``repro.experiments``.

Every import statement in the lower-layer packages (module level or inside
a function) is parsed with ``ast``. The two imports listed in
``ALLOWED`` predate the rule and are scheduled for removal; the list may
only shrink, so a removed import must also leave the list.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_LAYERS = ("memsim", "engine", "fleet", "core", "topology", "learn")

#: (file under src/repro, imported experiments module, imported names).
ALLOWED = {
    (
        "fleet/backend.py",
        "repro.experiments.common",
        ("RunOutcome", "deploy_app", "derive_seed", "get_canonical", "outcome_for_app"),
    ),
    ("learn/dataset.py", "repro.experiments.common", ("fan_out", "get_canonical", "get_machine")),
}


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
        for path in sorted((SRC / layer).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for module, names in _experiments_imports(path.read_text(), rel).items():
                out.add((rel, module, tuple(sorted(names))))
    return out


def test_lower_layers_do_not_import_experiments():
    new = _violations() - ALLOWED
    assert not new, f"lower layers import repro.experiments: {sorted(new)}"


def test_allowed_exceptions_still_exist():
    stale = ALLOWED - _violations()
    assert not stale, f"remove these from ALLOWED, the imports are gone: {sorted(stale)}"


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
