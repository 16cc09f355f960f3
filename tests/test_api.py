"""Tests on the shape of the public API."""

import importlib
import inspect
import pkgutil

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
