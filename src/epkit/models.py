"""Built-in parity-time-symmetric dimer and trimer models.

The constructors lock the gain/loss coefficient to the coupling strength so
the returned Hamiltonian sits exactly at its exceptional point: order 2 with
response strength 2*g_a for the dimer, order 3 with 4*g_b^2 for the trimer.
Detuned variants with a free gain/loss coefficient exist for perturbation
studies but carry no exceptional point certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .compose import CompositeSystem, block_compose
from .errors import ParameterError, ParseError

__all__ = [
    "pt_dimer",
    "pt_dimer_detuned",
    "pt_trimer",
    "pt_trimer_detuned",
    "single_entry_coupling",
    "dimer_trimer_system",
    "LoadedSystem",
    "load_system",
]


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def pt_dimer_detuned(omega0: float, g_a: float, alpha_a: float) -> np.ndarray:
    """Dimer with independent gain/loss alpha_a; at an EP only when alpha_a == g_a."""
    g = _check_positive("g_a", g_a)
    a = _check_positive("alpha_a", alpha_a)
    w = float(omega0)
    return np.array([[w + 1j * a, g], [g, w - 1j * a]], dtype=complex)


def pt_dimer(omega0: float, g_a: float) -> np.ndarray:
    """Two-site gain/loss dimer locked at its order-2 exceptional point."""
    g = _check_positive("g_a", g_a)
    return pt_dimer_detuned(omega0, g, g)


def pt_trimer_detuned(omega0: float, g_b: float, alpha_b: float) -> np.ndarray:
    """Trimer with independent gain/loss alpha_b; at an EP only when alpha_b == sqrt(2)*g_b."""
    g = _check_positive("g_b", g_b)
    a = _check_positive("alpha_b", alpha_b)
    w = float(omega0)
    return np.array(
        [
            [w + 1j * a, g, 0.0],
            [g, w, g],
            [0.0, g, w - 1j * a],
        ],
        dtype=complex,
    )


def pt_trimer(omega0: float, g_b: float) -> np.ndarray:
    """Three-site gain/loss trimer locked at its order-3 exceptional point."""
    g = _check_positive("g_b", g_b)
    return pt_trimer_detuned(omega0, g, math.sqrt(2.0) * g)


def single_entry_coupling(k: complex, n_b: int, n_a: int, row: int = 1, col: int = 1) -> np.ndarray:
    """n_b x n_a coupling matrix with a single entry k at 1-based (row, col)."""
    if n_b < 1 or n_a < 1:
        raise ParameterError(f"coupling dimensions must be positive, got {n_b} x {n_a}")
    if not (1 <= row <= n_b and 1 <= col <= n_a):
        raise ParameterError(f"entry position ({row}, {col}) outside a {n_b} x {n_a} matrix")
    m = np.zeros((n_b, n_a), dtype=complex)
    m[row - 1, col - 1] = complex(k)
    return m


def dimer_trimer_system(omega0: float = 1.0, g_a: float = 1.5, g_b: float = 1.3,
                        k: complex = 1.0) -> CompositeSystem:
    """Dimer unidirectionally coupled into the trimer through their gain sites.

    For k != 0 the composite hosts an order-5 exceptional point with response
    strength sqrt(8) * |k| * g_a * g_b**2.
    """
    return block_compose(
        pt_dimer(omega0, g_a),
        pt_trimer(omega0, g_b),
        single_entry_coupling(k, 3, 2, 1, 1),
    )


@dataclass(frozen=True)
class LoadedSystem:
    """Hamiltonian parsed from an input file, plus block metadata when known."""

    h: np.ndarray
    kind: str
    n_a: int | None = None

    def __post_init__(self):
        self.h.setflags(write=False)


def _scalar_from_json(value, where: str) -> complex:
    if isinstance(value, (list, tuple)):
        return cmatrix._entry_to_complex(value, where)
    return complex(cmatrix._finite_number(value, where))


def load_system(obj) -> LoadedSystem:
    """Parse a matrix JSON object or a named-model object.

    Named models: {"model": "dimer", "omega0": w, "g_a": g},
    {"model": "trimer", "omega0": w, "g_b": g} and
    {"model": "dimer_trimer", "omega0": w, "g_a": ga, "g_b": gb, "k": [re, im]}.
    """
    if not isinstance(obj, dict):
        raise ParseError("system JSON must be an object")
    if "model" not in obj:
        return LoadedSystem(h=cmatrix.matrix_from_json(obj), kind="matrix")
    name = obj["model"]

    def number(key: str) -> float:
        return cmatrix._finite_number(obj[key], key)

    try:
        if name == "dimer":
            return LoadedSystem(h=pt_dimer(number("omega0"), number("g_a")), kind=name)
        if name == "trimer":
            return LoadedSystem(h=pt_trimer(number("omega0"), number("g_b")), kind=name)
        if name == "dimer_trimer":
            k = _scalar_from_json(obj["k"], "k")
            system = dimer_trimer_system(number("omega0"), number("g_a"), number("g_b"), k)
            return LoadedSystem(h=np.asarray(system.h), kind=name, n_a=system.n_a)
    except KeyError as exc:
        raise ParseError(f"model '{name}' is missing parameter {exc}") from exc
    except ParameterError as exc:
        raise ParseError(f"invalid parameter for model '{name}': {exc}") from exc
    raise ParseError(f"unknown model '{name}'")
