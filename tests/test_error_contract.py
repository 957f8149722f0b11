"""Junk input to the library is refused with a ChshLabError.

errors.py makes ChshLabError the base of every error chshlab raises.  The
property below feeds values that are not valid input (strings, bytes,
bools, also among floats, None, NaN, ±inf, complex numbers, arrays of the
wrong shape, lists and arrays nested in a list of floats) to every
reader of numbers: the axis readers, the matrix readers behind
`eig_hermitian`, `kron`, `pauli_coords` and `BinaryPovm.from_effect`,
the four observable slots of ChshSetting,
`check_state` and its callers, `state_from_vector`, `from_pauli_coords`,
the Born-table readers, the integer arguments of `sample_estimate` and
`max_chsh_over_unitaries`, and Spectrum.projector, with warnings as
errors, and asserts that each is refused with a ChshLabError: never
accepted, never another exception, never a warning.  Its "parsed" junk
is a valid input written so that numpy would read it as that input:
numeric strings or bytes, or bools for 0 and 1.  Numbers are junk too
where their shape or values are: an axis not of shape (3,), a matrix
for `pauli_coords` that is not 2x2, a state vector that is not 1-D or
not of unit norm, Pauli coordinates not of shape (4,), and a Born table
with a negative entry or a slice that does not sum to 1.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chshlab import (
    BinaryPovm,
    CanonicalAngles,
    ChshLabError,
    ChshSetting,
    born_table,
    check_state,
    chsh_from_table,
    chsh_value,
    correlators_from_table,
    eig_hermitian,
    max_chsh_over_unitaries,
    noisy_family_povms,
    noisy_pauli_povm,
    sample_estimate,
    state_from_vector,
)
from chshlab.linalg import SX, SZ, as_matrix, kron
from chshlab.measurement import from_pauli_coords, pauli_coords, unit_axis

# entries numpy would store or parse, none of them a finite real number
_bad_entry = st.one_of(
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
_real_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=3), elements=st.floats(-2.0, 2.0)
)


def _with_bad_entry(draw, valid, shape, bad=_bad_entry):
    """valid, a flat list, with one entry made bad, as nested lists or an
    object array of the given shape."""
    entries = list(valid)
    entries[draw(st.integers(0, len(entries) - 1))] = draw(bad)
    if draw(st.booleans()):
        return np.array(entries, dtype=object).reshape(shape)
    return np.array(entries, dtype=object).reshape(shape).tolist()


@st.composite
def _junk_axis(draw):
    kind = draw(st.sampled_from(["scalar", "entry", "bools", "mixed", "nested", "shape"]))
    if kind == "scalar":
        return draw(st.one_of(_bad_entry, st.booleans(), st.floats()))
    if kind == "entry":
        return _with_bad_entry(draw, [0.0, 0.0, 1.0], (3,))
    if kind == "bools":
        bools = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        return draw(st.sampled_from([bools, np.array(bools), np.array(bools, dtype=object)]))
    if kind == "mixed":
        # a bool among floats, which numpy promotes to 0.0 or 1.0
        entries = draw(st.sampled_from([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]]))
        entries[draw(st.integers(0, 2))] = draw(st.sampled_from([True, False, np.True_, np.False_]))
        return draw(st.sampled_from([list, tuple]))(entries)
    if kind == "nested":
        # a list or tuple holding a list or an array, which numpy would
        # flatten or read as a number
        return draw(
            st.sampled_from(
                [
                    [[True, 0.0, 0.0]],
                    ([0.0], [0.0], [True]),
                    [0.0, 0.0, np.array(True)],
                    [[0.0, 0.0, 1.0]],
                    ([0.0, 0.0, 1.0],),
                    [[0.6], [0.0], [0.8]],
                    [np.array(0.0), 0.0, 1.0],
                    (0.0, 0.0, np.array([1.0])),
                    [0.6, np.float64(0.0), np.array(0.8, dtype=object)],
                ]
            )
        )
    return draw(_real_arrays.filter(lambda a: a.shape != (3,)))


def _is_table(t):
    """t's entries are at least -1e-9 and each (x, y) slice sums to 1 within 1e-9."""
    with np.errstate(over="ignore"):
        return t.min() >= -1e-9 and np.abs(t.sum(axis=(2, 3)) - 1.0).max() <= 1e-9


@st.composite
def _junk_table(draw):
    kind = draw(st.sampled_from(["scalar", "entry", "bools", "shape", "values"]))
    if kind == "scalar":
        return draw(st.one_of(_bad_entry, st.booleans(), st.floats()))
    if kind == "entry":
        return _with_bad_entry(draw, [0.25] * 16, (2, 2, 2, 2))
    if kind == "bools":
        return np.zeros((2, 2, 2, 2), dtype=bool)
    if kind == "values":
        # finite real tables that are not probabilities: a slice with the
        # entries 3 and -2, one that sums to 0.9, entries up to float max
        fixed = np.zeros((2, 2, 2, 2))
        fixed[..., 0, 0] = 1.0
        fixed[1, 0, 0, :] = (3.0, -2.0)
        short = np.full((2, 2, 2, 2), 0.25)
        short[0, 1, 1, 1] = 0.15
        drawn = hnp.arrays(np.float64, (2, 2, 2, 2), elements=st.floats(-1e308, 1e308)).filter(
            lambda t: not _is_table(t)
        )
        return draw(st.one_of(st.sampled_from([fixed, short, np.full((2, 2, 2, 2), 1e308)]), drawn))
    return draw(_real_arrays.filter(lambda a: a.shape != (2, 2, 2, 2)))


# entries that no number conversion accepts, or that numpy would parse or
# read as a number (a numeric string, bytes, a bool)
_non_number_entry = st.sampled_from(
    ["x", "", "σz", "1", "-1", "0", b"x", b"1", True, False, np.True_, np.False_, None, {}, object(), [1.0, 0.0]]
)
# entries of an observable that are not numbers or convert to a
# non-finite one; unlike _bad_entry, no complex number, which is a valid
# entry
_bad_observable_entry = st.one_of(_non_number_entry, st.sampled_from([np.nan, -np.inf]))


@st.composite
def _parsed(draw, valid, shape):
    """valid, a flat list of 0s and 1s, written so that numpy would read
    it as those numbers: every entry a numeric string or bytes, one entry
    a bool, or every entry a bool; as nested lists, an ndarray or an
    object array of the given shape."""
    kind = draw(st.sampled_from(["str", "bytes", "bool", "bools"]))
    if kind in ("str", "bytes"):
        entries = [str(x) if kind == "str" else str(x).encode() for x in valid]
        a = np.array(entries)
    elif kind == "bool":
        entries = list(valid)
        k = draw(st.integers(0, len(entries) - 1))
        entries[k] = draw(st.sampled_from([bool, np.bool_]))(entries[k])
        a = np.array(entries, dtype=object)
    else:
        a = np.array(valid, dtype=bool)
    form = draw(st.sampled_from(["list", "array", "object"]))
    a = a.reshape(shape)
    if form == "list":
        return a.tolist()
    return a.astype(object) if form == "object" else a


@st.composite
def _junk_observable(draw):
    kind = draw(st.sampled_from(["scalar", "entry", "parsed", "ragged", "shape"]))
    if kind == "scalar":
        return draw(st.one_of(_bad_entry, st.booleans(), st.floats(), st.sampled_from([{}, object()])))
    if kind == "entry":
        return _with_bad_entry(draw, [1.0, 0.0, 0.0, -1.0], (2, 2), _bad_observable_entry)
    if kind == "parsed":
        # matrices numpy reads as σz or I: strings, bytes, bools, and a bool
        # among integers or complex numbers, which numpy promotes
        return draw(
            st.sampled_from(
                [
                    [["1", "0"], ["0", "-1"]],
                    np.array([["1", "0"], ["0", "-1"]]),
                    [[b"1", b"0"], [b"0", b"1"]],
                    [[1, 0], [0, True]],
                    [[1j, 0], [0, True]],
                    [[np.True_, 0.0], [0.0, 1.0]],
                    [np.array([True, False]), [0, 1]],
                    np.eye(2, dtype=bool),
                    np.eye(2, dtype=bool).astype(object),
                    np.array([[1, 0], [0, "1"]], dtype=object),
                ]
            )
        )
    if kind == "ragged":
        return draw(st.sampled_from([[[1.0, 0.0], [0.0]], [[1.0], [0.0, -1.0]], [[1.0, 0.0], 0.0]]))
    return draw(_real_arrays.filter(lambda a: a.shape != (2, 2)))


# valid inputs of 0s and 1s for the readers of matrices, states and
# coordinates: the projector |0><0|, the state |00><00|, the vector |00>,
# E+ = |0><0| in Pauli coordinates, and a table of certain outcomes
_PROJECTOR = ([1, 0, 0, 0], (2, 2))
_STATE = ([1] + [0] * 15, (4, 4))
_VECTOR = ([1, 0, 0, 0], (4,))
_COORDS = ([1, 0, 0, 1], (4,))
_TABLE = ([1, 0, 0, 0] * 4, (2, 2, 2, 2))
_POVMS = noisy_family_povms(0.9)
_RHO = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
_ANGLES = CanonicalAngles(theta=1.0, phi=1.0)
# the targets that read an array of numbers: (function, valid input,
# shape, entries that make it junk).  Those that check finiteness also
# refuse NaN and ±inf; the real readers also refuse complex entries
_NUMBER_READERS = {
    "as_matrix": (as_matrix, *_PROJECTOR, _non_number_entry),
    "eig_hermitian": (eig_hermitian, *_PROJECTOR, _bad_observable_entry),
    "kron": (lambda m: kron(SZ, m), *_PROJECTOR, _non_number_entry),
    "pauli_coords": (pauli_coords, *_PROJECTOR, _non_number_entry),
    "from_effect": (BinaryPovm.from_effect, *_PROJECTOR, _bad_observable_entry),
    "check_state": (check_state, *_STATE, _bad_observable_entry),
    "chsh_value": (lambda rho: chsh_value(ChshSetting(SZ, SX, SZ, SX), rho), *_STATE, _bad_observable_entry),
    "born_table": (lambda rho: born_table(*_POVMS, rho), *_STATE, _bad_observable_entry),
    "sample_estimate": (lambda rho: sample_estimate(_POVMS, rho, 10, 0), *_STATE, _bad_observable_entry),
    "state_from_vector": (state_from_vector, *_VECTOR, _bad_observable_entry),
    "from_pauli_coords": (from_pauli_coords, *_COORDS, st.one_of(_bad_observable_entry, st.just(1j))),
    "table": (correlators_from_table, *_TABLE, st.one_of(_bad_observable_entry, st.just(1j))),
}
# integer arguments given as bools, or as other non-integers
_junk_integer = st.sampled_from([True, False, np.True_, np.False_, 1.0, "1", None, np.array(True)])
_INTEGER_READERS = {
    "shots_per_pair": lambda n: sample_estimate(_POVMS, _RHO, n, 0),
    "seed": lambda n: sample_estimate(_POVMS, _RHO, 10, n),
    "restarts": lambda n: max_chsh_over_unitaries(0.3, _ANGLES, restarts=n),
    "unitary-seed": lambda n: max_chsh_over_unitaries(0.3, _ANGLES, restarts=1, seed=n),
}

_junk_index = st.one_of(
    _bad_entry,
    st.booleans(),
    st.floats(),
    st.integers().filter(lambda i: not -2 <= i < 2),
    _real_arrays,
)
_full_spectrum = eig_hermitian((SZ + SX) / np.sqrt(2))
# arrays of finite reals whose shape or values a reader refuses
_JUNK_REALS = {
    "pauli_coords-shape": (
        pauli_coords,
        st.one_of(st.just(np.eye(3)), _real_arrays.filter(lambda a: a.shape != (2, 2))),
    ),
    "from_pauli_coords-shape": (
        from_pauli_coords,
        st.one_of(st.just(np.eye(2)), _real_arrays.filter(lambda a: a.shape != (4,))),
    ),
    # not 1-D, or 1-D with a squared norm off 1
    "state_from_vector-shape": (
        state_from_vector,
        st.one_of(
            st.sampled_from([np.eye(2), [2.0, 0.0, 0.0, 0.0], [1.0, 1e-4, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]]),
            _real_arrays.filter(lambda a: a.ndim != 1 or not abs(float((a * a).sum()) - 1.0) <= 1e-9),
        ),
    ),
}
_values_only = eig_hermitian((SZ + SX) / np.sqrt(2), vectors=False)


@st.composite
def _junk_call(draw):
    """(name, function, argument) for a call the library must refuse."""
    target = draw(
        st.sampled_from(
            [
                "unit_axis",
                "noisy_pauli_povm",
                "correlators",
                "chsh",
                "ChshSetting",
                "projector",
                "values-only",
                *_NUMBER_READERS,
                *_INTEGER_READERS,
                *_JUNK_REALS,
            ]
        )
    )
    if target in _JUNK_REALS:
        fn, junk = _JUNK_REALS[target]
        return target, fn, draw(junk)
    if target in _NUMBER_READERS:
        fn, valid, shape, bad = _NUMBER_READERS[target]
        if draw(st.booleans()):
            return target, fn, draw(_parsed(valid, shape))
        return target, fn, _with_bad_entry(draw, valid, shape, bad)
    if target in _INTEGER_READERS:
        return target, _INTEGER_READERS[target], draw(_junk_integer)
    if target == "unit_axis":
        return target, unit_axis, draw(_junk_axis())
    if target == "noisy_pauli_povm":
        return target, lambda axis: noisy_pauli_povm(axis, 0.5), draw(_junk_axis())
    if target == "correlators":
        return target, correlators_from_table, draw(_junk_table())
    if target == "chsh":
        return target, chsh_from_table, draw(_junk_table())
    if target == "ChshSetting":
        slot = draw(st.integers(0, 3))

        def setting(m):
            observables = [SZ, SX, SZ, SX]
            observables[slot] = m
            return ChshSetting(*observables)

        return target, setting, draw(_junk_observable())
    if target == "projector":
        return target, _full_spectrum.projector, draw(_junk_index)
    # an eigenvalue-only spectrum has no projector at any index
    return target, _values_only.projector, draw(st.one_of(st.integers(-2, 1), _junk_index))


@settings(max_examples=600, deadline=None)
@given(_junk_call())
def test_junk_is_refused_with_a_chshlab_error(call):
    _name, fn, arg = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChshLabError):
            fn(arg)


@pytest.mark.parametrize("target", [*_NUMBER_READERS, *_INTEGER_READERS])
def test_valid_twins_are_accepted(target):
    """Each target accepts the valid input its junk is made from."""
    if target in _INTEGER_READERS:
        _INTEGER_READERS[target](1)
    else:
        fn, valid, shape, _ = _NUMBER_READERS[target]
        fn(np.array(valid, dtype=float).reshape(shape))


@pytest.mark.parametrize(
    "fn",
    [unit_axis, lambda axis: noisy_pauli_povm(axis, 0.5).coords[1:] / 0.5],
    ids=["unit_axis", "noisy_pauli_povm"],
)
@pytest.mark.parametrize(
    "axis",
    [[0, 0, 1], np.array([0, 0, 1], dtype=np.int8), np.array([0.0, 0.0, 1.0], dtype=np.float32), np.array([0, 0, 1], dtype=object)],
    ids=["ints", "int8", "float32", "object"],
)
def test_real_axes_of_other_dtypes_are_converted(fn, axis):
    assert fn(axis).tolist() == [0.0, 0.0, 1.0]


_CONVERTED = {
    "as_matrix": (as_matrix, _PROJECTOR),
    "eig_hermitian": (lambda m: eig_hermitian(m).eigenvalues, _PROJECTOR),
    "kron": (lambda m: kron(SZ, m), _PROJECTOR),
    "pauli_coords": (pauli_coords, _PROJECTOR),
    "from_effect": (lambda m: BinaryPovm.from_effect(m).coords, _PROJECTOR),
    "ChshSetting": (lambda m: ChshSetting(m, SX, SZ, SX).coords, _PROJECTOR),
    "check_state": (check_state, _STATE),
    "chsh_value": (lambda rho: chsh_value(ChshSetting(SZ, SX, SZ, SX), rho), _STATE),
    "state_from_vector": (state_from_vector, _VECTOR),
    "from_pauli_coords": (from_pauli_coords, _COORDS),
}


@pytest.mark.parametrize("target", list(_CONVERTED))
@pytest.mark.parametrize(
    "form",
    [
        list,
        lambda v: np.array(v, dtype=np.int8),
        lambda v: np.array(v, dtype=np.uint8),
        lambda v: np.array(v, dtype=np.float32),
        lambda v: np.array(v, dtype=object),
    ],
    ids=["ints", "int8", "uint8", "float32", "object"],
)
def test_matrices_and_states_of_other_dtypes_are_converted(target, form):
    """Every reader of numbers gives, for real numbers of another dtype,
    the result of their float64 twin, bit for bit."""
    fn, (valid, shape) = _CONVERTED[target]
    want = np.asarray(fn(np.array(valid, dtype=float).reshape(shape)))
    got = np.asarray(fn(form(np.array(valid).reshape(shape).tolist())))
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
def test_table_of_counts_is_read_as_floats(dtype):
    # unsigned differences would wrap around to 255
    table = np.zeros((2, 2, 2, 2), dtype=dtype)
    table[:, :, 0, 1] = 1
    corr = correlators_from_table(table)
    assert corr.dtype == np.float64 and corr.tolist() == [[-1.0, -1.0], [-1.0, -1.0]]
    assert chsh_from_table(table) == 2.0
