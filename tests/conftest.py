import numpy as np
import pytest
from hypothesis import strategies as st

from chshlab.linalg import HERMITICITY_TOL, MAX_ENTRY_MODULUS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_axes(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


# around MAX_ENTRY_MODULUS on both sides, and moduli past float max from
# finite parts (abs() of such a Python complex raises OverflowError)
_EDGE_PARTS = [
    MAX_ENTRY_MODULUS,
    np.nextafter(MAX_ENTRY_MODULUS, 0.0),
    np.nextafter(MAX_ENTRY_MODULUS, np.inf),
    MAX_ENTRY_MODULUS / np.sqrt(2),
    np.finfo(float).max,
]
_any_part = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(),  # NaN, ±inf and the subnormals included
    st.sampled_from(_EDGE_PARTS + [-x for x in _EDGE_PARTS] + [0.0, -0.0]),
)


@st.composite
def any_2x2(draw):
    """A 2x2 input for eig_hermitian: complex entries anywhere (non-finite,
    near MAX_ENTRY_MODULUS, asymmetric), a Hermitian matrix plus an
    asymmetry around HERMITICITY_TOL, or a real one, as a complex or float
    array or as nested Python lists."""
    kind = draw(st.sampled_from(["entries", "near-hermitian", "real"]))
    if kind == "real":
        m = np.array(draw(st.lists(_any_part, min_size=4, max_size=4))).reshape(2, 2)
    elif kind == "entries":
        parts = draw(st.lists(_any_part, min_size=8, max_size=8))
        m = np.array([complex(x, y) for x, y in zip(parts[:4], parts[4:])]).reshape(2, 2)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        h = random_hermitian(rng, 2) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        noise = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        m = h + draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])) * HERMITICITY_TOL * noise
    return m.tolist() if draw(st.booleans()) else m
