"""Tests on the shape of the public API."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import epkit

TOLERANCE_NAMES = {"tol", "nil_tol", "rtol", "eps_mp"}

# The only tolerances a caller may set: the CLI's --tol reaches detect_ep's and
# block_compose's, and nilpotency_index shares detect_ep's threshold.  Every
# other threshold is a module constant.
ALLOWED = {
    ("epkit.ep_core", "detect_ep", "nil_tol"),
    ("epkit.ep_core", "nilpotency_index", "nil_tol"),
    ("epkit.compose", "block_compose", "tol"),
}


def test_only_listed_functions_take_a_tolerance():
    found = set()
    for info in pkgutil.iter_modules(epkit.__path__, "epkit."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found |= {
                    (info.name, name, param)
                    for param in inspect.signature(obj).parameters
                    if param in TOLERANCE_NAMES
                }
    assert found == ALLOWED


def _reexports() -> list[tuple[str, str]]:
    """(submodule, name) for every name epkit/__init__.py imports from a submodule."""
    tree = ast.parse(Path(epkit.__file__).read_text(encoding="utf-8"))
    return [
        (f"epkit.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


def test_reexports_are_public_in_their_submodule():
    stale = []
    for module_name, name in _reexports():
        module = importlib.import_module(module_name)
        public = getattr(module, "__all__", None)
        if public is None:  # without __all__, every name without a leading underscore is public
            public = [n for n in vars(module) if not n.startswith("_")]
        if name not in public:
            stale.append(f"{module_name}.{name}")
    assert stale == []


def test_every_all_entry_resolves():
    unresolved = []
    for info in pkgutil.iter_modules(epkit.__path__, "epkit."):
        module = importlib.import_module(info.name)
        unresolved += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert unresolved == []
