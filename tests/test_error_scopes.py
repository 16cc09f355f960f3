"""Error-scope hygiene of the certification entry points.

Each public entry point opens one np.errstate scope in which an overflow or an
invalid operation gives inf or NaN silently, and the code that can make one
raises NumericalError.  So an overflow-prone input raises NumericalError and
no RuntimeWarning, whatever the caller's floating-point error state is, and
np.geterr() is restored on return and on raise.
"""

import warnings

import numpy as np
import pytest

import helpers
from epkit import compose, ep_core, jordan
from epkit.errors import NumericalError
from epkit.models import dimer_trimer_system, pt_dimer, pt_trimer


def _huge_coupling_system(k=1e300):
    # ||C||_F of C = N_b^2 K N_a leaves the double range although H itself is finite; at k = 1e308 C does too
    return compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.full((3, 2), k))


def _overflowing_chain_report():
    # a unitary similarity of J_40 scaled by 1e4: certified with xi = 1e156, whose squared rows overflow
    q, _ = np.linalg.qr(helpers.complex_uniform(helpers.philox(3), (40, 40)))
    return ep_core.detect_ep(1e4 * (q @ np.diag(np.ones(39, dtype=complex), 1) @ q.conj().T))


def _trimer_report():
    return ep_core.detect_ep(pt_trimer(1.0, 1.3))


#: (entry point, overflow-prone argument, a well-behaved argument)
CASES = {
    "detect_ep": (ep_core.detect_ep, lambda: pt_trimer(1.0, 1e120), lambda: pt_trimer(1.0, 1.3)),
    "detect_ep trace": (ep_core.detect_ep, lambda: np.diag([1.5e308, 1.5e308]), lambda: pt_dimer(1.0, 1.5)),
    "nilpotency_index": (ep_core.nilpotency_index, lambda: pt_trimer(0.0, 1e120), lambda: pt_trimer(0.0, 1.3)),
    "traceless_part": (ep_core.traceless_part, lambda: np.diag([1.5e308, 1.5e308]), lambda: pt_trimer(1.0, 1.3)),
    "jordan_chain": (jordan.jordan_chain, _overflowing_chain_report, lambda: ep_core.detect_ep(pt_trimer(1.0, 1.3))),
    "block_compose": (
        lambda h_b: compose.block_compose(pt_dimer(1.0, 1.5), h_b, np.ones((3, 2))),
        lambda: pt_trimer(1.0, 1e120),
        lambda: pt_trimer(1.0, 1.3),
    ),
    "compose_many": (
        lambda h_c: compose.compose_many([pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7), h_c],
                                         [np.ones((2, 2)), np.ones((2, 4))]),
        lambda: pt_dimer(1.0, 1e200),
        lambda: pt_dimer(1.0, 0.9),
    ),
    "CompositeSystem.report": (
        lambda k: compose.compose_many([pt_dimer(1.0, 1.5), pt_dimer(1.0, 0.7), pt_dimer(1.0, 0.9)],
                                       [np.ones((2, 2)), k]).report,
        lambda: np.full((2, 4), 1e300),
        lambda: np.ones((2, 4)),
    ),
    "genericity_product": (compose.genericity_product, lambda: _huge_coupling_system(1e308),
                           lambda: compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.ones((3, 2)))),
    "composite_response": (compose.composite_response, _huge_coupling_system,
                           lambda: compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), np.ones((3, 2)))),
    "greens_function": (
        lambda args: ep_core.greens_function(*args),
        lambda: (dimer_trimer_system().report, 1 + 1e-70j),  # N^4 / delta^5 leaves the double range
        lambda: (_trimer_report(), 2.0),
    ),
    "predicted_splitting": (
        lambda h1: ep_core.predicted_splitting(_trimer_report(), h1, 1e10),
        lambda: np.full((3, 3), 1e300),  # the radicand eps * tr(N^2 H1) leaves the double range
        lambda: np.ones((3, 3)),
    ),
}

#: the caller's floating-point error state: numpy's default, and one that turns every overflow into an exception
CALLER_STATES = {"default": {}, "raise": {"over": "raise", "invalid": "raise"}}


@pytest.mark.parametrize("state", CALLER_STATES.values(), ids=CALLER_STATES.keys())
@pytest.mark.parametrize("name", CASES.keys())
def test_overflow_raises_numerical_error_without_a_warning_and_restores_the_error_state(name, state):
    call, overflowing, _ = CASES[name]
    argument = overflowing()
    with np.errstate(**state), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        with pytest.raises(NumericalError):
            call(argument)
        assert np.geterr() == before


@pytest.mark.parametrize("state", CALLER_STATES.values(), ids=CALLER_STATES.keys())
@pytest.mark.parametrize("name", CASES.keys())
def test_a_return_restores_the_error_state(name, state):
    call, _, well_behaved = CASES[name]
    argument = well_behaved()
    with np.errstate(**state), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        call(argument)
        assert np.geterr() == before
