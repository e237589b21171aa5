"""The demo scripts use only names the package provides.

Each ``demos/*.py`` is parsed, not run: every name imported from
``trapnoise`` (or a submodule) and every attribute taken from the
imported package or module must exist, and every keyword passed to a
trapnoise callable must be one its signature accepts.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _callee(func: ast.expr, modules: dict, names: dict):
    """The trapnoise object a call's ``func`` names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = modules.get(func.value.id)
        return getattr(module, func.attr, None) if module else None
    return None


def _bad_keywords(call: ast.Call, modules: dict, names: dict) -> list[str]:
    """``f(kw=)`` for each keyword of ``call`` that the trapnoise callable
    it names does not accept; nothing for a callable taking ``**kwargs``."""
    target = _callee(call.func, modules, names)
    if target is None:
        return []
    params = inspect.signature(target).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return []
    accepted = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
    return [
        f"{ast.unparse(call.func)}({kw.arg}=)"
        for kw in call.keywords
        if kw.arg is not None and kw.arg not in accepted
    ]


def _missing_names(source: str) -> list[str]:
    tree = ast.parse(source)
    modules = {}  # local alias -> imported trapnoise module
    names = {}  # local name -> object imported from a trapnoise module
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
            for alias in node.names:
                if hasattr(module, alias.name):
                    names[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            missing += _bad_keywords(node, modules, names)
        elif (
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
        "from trapnoise.runner import run_spectrum_config\n"
        "tn.no_such_function()\n"
        "tn.effective_cutoff(cfg, regime='auto')\n"
        "run_spectrum_config(cfg, estimator='sampled_fft', workers=1)\n"
        "tn.run(spec, 'out', workers=1, events_csv=True)\n"
    )
    assert _missing_names(source) == [
        "trapnoise.spectra.no_such_estimator",
        "tn.effective_cutoff(regime=)",
        "run_spectrum_config(estimator=)",
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
