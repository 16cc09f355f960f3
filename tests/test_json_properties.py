"""Property tests for the JSON wire format and the system loader."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import cmatrix, models
from epkit.errors import EpkitError, ParseError

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_complex = st.builds(complex, finite_floats, finite_floats)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=6,
)


def _wire(obj):
    """What a reader sees after the object has been written to a file."""
    return json.loads(json.dumps(obj))


@st.composite
def complex_arrays(draw, ndim):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    entries = draw(st.lists(finite_complex, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(entries, dtype=complex).reshape(shape)


matrices_on_wire = complex_arrays(2).map(lambda a: _wire(cmatrix.matrix_to_json(a)))
moderate = st.floats(0.1, 10.0)
valid_models = st.one_of(
    st.fixed_dictionaries({"model": st.just("dimer"), "omega0": moderate, "g_a": moderate}),
    st.fixed_dictionaries({"model": st.just("trimer"), "omega0": moderate, "g_b": moderate}),
    st.fixed_dictionaries(
        {
            "model": st.just("dimer_trimer"),
            "omega0": moderate,
            "g_a": moderate,
            "g_b": moderate,
            "k": st.lists(moderate, min_size=2, max_size=2) | moderate,
        }
    ),
)


def _paths(obj, prefix=()):
    """Paths to every node below the root of a JSON value."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return []
    paths = []
    for key, child in children:
        paths.append(prefix + (key,))
        paths += _paths(child, prefix + (key,))
    return paths


@st.composite
def corrupted(draw, valid):
    """A valid object with one or two nodes replaced by arbitrary JSON or removed."""
    obj = draw(valid)
    for _ in range(draw(st.integers(1, 2))):
        paths = _paths(obj)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_scalars | json_values)
    return obj


relaxed = settings(deadline=None)
# Enough draws that a single bad leaf inside a valid object turns up in every run.
thorough = settings(deadline=None, max_examples=200)


@relaxed
@given(complex_arrays(2))
def test_matrix_json_roundtrip_is_exact(a):
    back = cmatrix.matrix_from_json(_wire(cmatrix.matrix_to_json(a)))
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


@relaxed
@given(complex_arrays(1))
def test_vector_json_roundtrip_is_exact(v):
    payload = _wire(cmatrix.vector_to_json(v))
    assert payload["dim"] == len(v)
    assert np.array([complex(re, im) for re, im in payload["entries"]]).tobytes() == v.tobytes()


@thorough
@given(json_values | corrupted(matrices_on_wire))
def test_matrix_from_json_raises_only_parse_error(obj):
    try:
        cmatrix.matrix_from_json(obj)
    except ParseError:
        pass


@thorough
@given(json_values | corrupted(valid_models) | corrupted(matrices_on_wire))
def test_load_system_raises_only_parse_error(obj):
    try:
        models.load_system(obj)
    except ParseError:
        pass
    except EpkitError:
        # Well-formed dimer_trimer parameters still go through block_compose,
        # which may decline to certify extreme values (exit 3 or 4, not 2).
        assert obj["model"] == "dimer_trimer"
