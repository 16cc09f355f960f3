"""The same matrix gives the same answer whatever its memory layout.

Every product on the certification path is an ndarray.dot, which hands C- and
F-ordered operands to BLAS as they are and copies an operand of any other
stride first, so a strided view answers as its contiguous copy does, bit for
bit.  Each test gives a C-ordered array, an F-ordered array and a strided view
of the same values, and compares the outputs byte for byte.
"""

import numpy as np
import pytest

import helpers
from epkit import cmatrix, compose, ep_core, jordan
from epkit.models import pt_dimer, pt_trimer, single_entry_coupling

LAYOUTS = ("C", "F", "strided")


def _in_layout(m: np.ndarray, layout: str) -> np.ndarray:
    """m as a C-ordered array, an F-ordered array, or a view of every other row and column of a larger array."""
    if layout == "C":
        return np.ascontiguousarray(m)
    if layout == "F":
        return np.asfortranarray(m)
    big = np.full((2 * m.shape[0], 2 * m.shape[1]), np.nan, dtype=complex)
    view = big[::2, ::2]
    view[...] = m
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


def _bytes(*values) -> bytes:
    return b"".join(np.ascontiguousarray(np.asarray(v, dtype=complex)).tobytes() for v in values)


def _report_bytes(report: ep_core.EpReport) -> bytes:
    return repr((report.dim, report.order)).encode() + _bytes(
        report.ep_eigenvalue, report.response_strength or 0.0, report.nilpotent,
        0.0 if report.top_power is None else report.top_power,
    )


def _same_across_layouts(answer, *arrays: np.ndarray) -> None:
    """answer(*arrays) is the same bytes with the arrays F-ordered or strided as with them C-ordered."""
    found = {layout: answer(*(_in_layout(m, layout) for m in arrays)) for layout in LAYOUTS}
    assert found["F"] == found["C"]
    assert found["strided"] == found["C"]


@pytest.mark.parametrize("seed", range(8))
def test_detect_ep_answers_alike_in_every_layout(seed):
    rng = helpers.philox(seed)
    k = helpers.complex_uniform(rng, (3, 2))
    blocks = [helpers.transformed_jordan_block(rng, dim) for dim in range(2, 11)]
    composite = compose.block_compose(pt_dimer(1.0, 1.5), pt_trimer(1.0, 1.3), k).h
    for h in [*blocks, composite]:
        _same_across_layouts(lambda h: _report_bytes(ep_core.detect_ep(h)), h)


def test_block_compose_and_coupling_amplitude_answer_alike_in_every_layout_of_k():
    rng = helpers.philox(317)
    for i in range(300):
        g_a, g_b = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        k = helpers.complex_uniform(rng, (3, 2)) if i % 2 else single_entry_coupling(rng.uniform(0.1, 10.0), 3, 2)
        h_a, h_b = pt_dimer(1.0, g_a), pt_trimer(1.0, g_b)
        chain_b = jordan.jordan_chain(ep_core.detect_ep(h_b))
        psi_a = cmatrix.kernel_vector(ep_core.detect_ep(h_a).nilpotent)

        def answer(k):
            system = compose.block_compose(h_a, h_b, k)
            return (_report_bytes(system.report) + _bytes(system.h, system.k, compose.genericity_product(system),
                                                          jordan.coupling_amplitude(chain_b, psi_a, k)))

        _same_across_layouts(answer, k)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_compose_many_answers_alike_in_every_layout_of_its_couplings(depth):
    rng = helpers.philox(400 + depth)
    for _ in range(20):
        hams = [pt_dimer(1.0, rng.uniform(0.5, 2.0)) for _ in range(depth)]
        ks = [helpers.complex_uniform(rng, (2, 2 * j)) for j in range(1, depth)]

        def answer(*ks):
            system = compose.compose_many(hams, ks)
            return _report_bytes(system.report) + _report_bytes(system.rep_a) + _bytes(system.h, system.ep_eigenvalue)

        _same_across_layouts(answer, *ks)


@pytest.mark.parametrize("seed", range(8))
def test_predicted_splitting_answers_alike_in_every_layout_of_h1(seed):
    rng = helpers.philox(500 + seed)
    for dim in range(2, 9):
        report = ep_core.detect_ep(helpers.transformed_jordan_block(rng, dim))
        h1 = helpers.complex_uniform(rng, (dim, dim))

        def answer(h1):
            prediction = ep_core.predicted_splitting(report, h1, 1e-6)
            return _bytes(prediction.radicand, prediction.predicted_eigenvalues)

        _same_across_layouts(answer, h1)
