"""The demo scripts use only names the package provides.

Each ``demos/*.py`` is parsed, not run: every name imported from
``trapnoise`` (or a submodule) and every attribute taken from the
imported package or module must exist.
"""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _missing_names(source: str) -> list[str]:
    tree = ast.parse(source)
    modules = {}  # local alias -> imported trapnoise module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "trapnoise":
                    # "import trapnoise.x" binds trapnoise, "... as y" binds x
                    bound = alias.name if alias.asname else "trapnoise"
                    module = importlib.import_module(bound)
                    modules[alias.asname or "trapnoise"] = module
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] != "trapnoise":
                continue
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)
        ):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    assert _missing_names(demo.read_text()) == []


def test_checker_flags_a_missing_name():
    source = (
        "import trapnoise as tn\n"
        "from trapnoise.spectra import no_such_estimator\n"
        "tn.no_such_function()\n"
    )
    assert _missing_names(source) == [
        "trapnoise.spectra.no_such_estimator",
        "tn.no_such_function",
    ]


MODULES = ["trapnoise"] + [
    f"trapnoise.{path.stem}"
    for path in sorted((ROOT / "src/trapnoise").glob("*.py"))
    if path.stem != "__init__"
]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    # every name in __all__ and every name the package imports resolves
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    if name == "trapnoise":
        missing += _missing_names(Path(module.__file__).read_text().replace(
            "from .", "from trapnoise."
        ))
    assert missing == []
