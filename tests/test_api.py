"""Tests on the shape of the public API."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import epkit
from epkit import cmatrix, compose, ep_core, jordan, models, perturb
from epkit.errors import ParameterError

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


# Each module's __all__, in order; None for a module without one.  A change to
# the public surface edits this list in plain view.
PUBLIC = {
    "epkit.cli": None,
    "epkit.cmatrix": [
        "DEFAULT_RTOL", "as_matrix", "as_square", "as_vector", "frobenius_norm", "spectral_norm",
        "kernel_vector", "matrix_to_json", "matrix_from_json", "vector_to_json",
    ],
    "epkit.compose": [
        "CompositeSystem", "block_compose", "compose_many", "genericity_product", "composite_response",
        "response_upper_bound",
    ],
    "epkit.ep_core": [
        "DEFAULT_EPS_MP", "EpReport", "SplittingPrediction", "default_nil_tol", "traceless_part",
        "nilpotency_index", "detect_ep", "response_strength", "greens_function", "splitting_bound",
        "machine_precision_bound", "predicted_splitting",
    ],
    "epkit.errors": None,
    "epkit.jordan": ["JordanChain", "jordan_chain", "response_from_chain", "coupling_amplitude"],
    "epkit.models": [
        "pt_dimer", "pt_trimer", "single_entry_coupling", "dimer_trimer_system", "LoadedSystem", "load_system",
    ],
    "epkit.perturb": [
        "SlopeFit", "child_seed", "random_generic", "random_preserving", "max_splitting", "sweep", "fit_slope",
        "records_to_csv", "log_grid",
    ],
}

# The fields of each public dataclass, in order.
FIELDS = {
    ep_core.EpReport: ["dim", "order", "ep_eigenvalue", "nilpotent", "response_strength", "nil_tol", "top_power"],
    compose.CompositeSystem: ["h", "k", "ep_eigenvalue", "rep_a", "rep_b"],
    models.LoadedSystem: ["h", "n_a"],
    jordan.JordanChain: ["vectors", "chain_residuals", "normalization_residual", "orthogonality_residuals"],
    perturb.SlopeFit: ["slope", "intercept", "window", "residual"],
    ep_core.SplittingPrediction: ["n", "radicand", "predicted_eigenvalues"],
}


def test_module_surfaces_are_pinned():
    found = {
        info.name: getattr(importlib.import_module(info.name), "__all__", None)
        for info in pkgutil.iter_modules(epkit.__path__, "epkit.")
    }
    assert found == PUBLIC


def test_dataclass_fields_are_pinned():
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in FIELDS} == FIELDS


def _dimer_report():
    return ep_core.detect_ep(models.pt_dimer(1.0, 1.5))


#: (a public call given one number that float() or complex() cannot read, or one sequence that is not
#: iterable, the parameter it names)
UNREADABLE = {
    "predicted_splitting eps": (lambda: ep_core.predicted_splitting(_dimer_report(), np.eye(2), None), "eps"),
    "greens_function None": (lambda: ep_core.greens_function(_dimer_report(), None), "energy"),
    "greens_function str": (lambda: ep_core.greens_function(_dimer_report(), "abc"), "energy"),
    "detect_ep nil_tol overflow": (lambda: ep_core.detect_ep(models.pt_dimer(1.0, 1.5), 10**400), "nil_tol"),
    "log_grid eps_min": (lambda: perturb.log_grid(None, 1e-2, 5), "eps_min"),
    "log_grid eps_max": (lambda: perturb.log_grid(1e-12, "abc", 5), "eps_max"),
    "max_splitting eps": (lambda: perturb.max_splitting(np.eye(2), 1.0, np.eye(2), None), "eps"),
    "sweep ep_eigenvalue": (lambda: perturb.sweep(np.eye(2), None, "generic", [1e-3, 1e-2], 2, 1), "ep_eigenvalue"),
    "sweep eps_grid": (lambda: perturb.sweep(np.eye(2), 1.0, "generic", [1e-3, None], 2, 1), "eps_grid"),
    "sweep eps_grid None": (lambda: perturb.sweep(np.eye(2), 1.0, "generic", None, 2, 1), "eps_grid"),
    "records_to_csv eps_grid number": (lambda: perturb.records_to_csv(1e-3, [[1.0]]), "eps_grid"),
    "fit_slope window": (lambda: perturb.fit_slope([1e-3, 1e-2, 1e-1], np.ones((3, 2)), (None, 1)), "window"),
    "pt_dimer omega0": (lambda: models.pt_dimer(None, 1.0), "omega0"),
    "pt_trimer omega0": (lambda: models.pt_trimer("abc", 1.0), "omega0"),
    "single_entry_coupling k": (lambda: models.single_entry_coupling(None, 3, 2), "k"),
    "compose_many hams None": (lambda: compose.compose_many(None, []), "hams"),
    "compose_many couplings None": (
        lambda: compose.compose_many([models.pt_dimer(1.0, 1.5)] * 2, None), "couplings"
    ),
    "response_upper_bound xi_a": (lambda: compose.response_upper_bound(None, 1.0, np.ones((3, 2))), "xi_a"),
    "spectral_norm str": (lambda: cmatrix.spectral_norm("abc"), "matrix"),
    "spectral_norm overflow": (lambda: cmatrix.spectral_norm(10**400), "matrix"),
    "detect_ep str": (lambda: ep_core.detect_ep("abc"), "H"),
    "detect_ep overflow": (lambda: ep_core.detect_ep([[10**400]]), "H"),
    "response_upper_bound k": (lambda: compose.response_upper_bound(1.0, 1.0, "abc"), "K"),
    "max_splitting h": (lambda: perturb.max_splitting("abc", 0, "abc", 1.0), "H"),
    "coupling_amplitude psi_ep_a": (
        lambda: jordan.coupling_amplitude(jordan.jordan_chain(_dimer_report()), "abc", np.eye(2)), "psi_ep_a"
    ),
    "default_nil_tol None": (lambda: ep_core.default_nil_tol(None), "dim"),
    "default_nil_tol str": (lambda: ep_core.default_nil_tol("x"), "dim"),
}


@pytest.mark.parametrize("call, name", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_an_unreadable_number_raises_parameter_error(call, name):
    # each raised a bare TypeError, ValueError or OverflowError from float(), complex(), np.asarray or a comparison
    with pytest.raises(ParameterError, match=name):
        call()


def test_a_numeric_string_reads_as_float_reads_it():
    assert perturb.log_grid("1e-12", 1e-2, 5) == perturb.log_grid(1e-12, 1e-2, 5)
    assert models.single_entry_coupling("1+2j", 3, 2)[0, 0] == 1 + 2j


@pytest.mark.parametrize("module", [cmatrix, ep_core, compose, jordan], ids=lambda m: m.__name__)
def test_certification_products_go_through_ndarray_dot(module):
    # the @ operator and np.matmul pay the matmul gufunc's dispatch on every small product, and run numpy's own
    # loop on strides BLAS cannot take; ndarray.dot reaches the same BLAS call and copies such an operand first
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr == "matmul"
        or isinstance(node, ast.Name) and node.id == "matmul"
    ]
    assert found == []
