"""Junk input to the library is refused with a ChshLabError.

errors.py makes ChshLabError the base of every error chshlab raises.  The
property below feeds values that are not valid input (strings, bytes,
bools, also among floats, None, NaN, ±inf, complex numbers, arrays of the
wrong shape, lists and arrays nested in a list of floats) to the axis
readers, the Born-table readers, Spectrum.projector and the four
observable slots of ChshSetting, with warnings as errors, and asserts
that each is refused with a ChshLabError: never accepted, never another
exception, never a warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chshlab import (
    ChshLabError,
    ChshSetting,
    chsh_from_table,
    correlators_from_table,
    eig_hermitian,
    noisy_pauli_povm,
)
from chshlab.linalg import SX, SZ
from chshlab.measurement import unit_axis

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
    return draw(_real_arrays.filter(lambda a: a.size != 3))


@st.composite
def _junk_table(draw):
    kind = draw(st.sampled_from(["scalar", "entry", "bools", "shape"]))
    if kind == "scalar":
        return draw(st.one_of(_bad_entry, st.booleans(), st.floats()))
    if kind == "entry":
        return _with_bad_entry(draw, [0.25] * 16, (2, 2, 2, 2))
    if kind == "bools":
        return np.zeros((2, 2, 2, 2), dtype=bool)
    return draw(_real_arrays.filter(lambda a: a.shape != (2, 2, 2, 2)))


# entries of an observable that no number conversion accepts, that
# convert to a non-finite number, or that numpy would parse or read as a
# number (a numeric string, bytes, a bool); unlike _bad_entry, no complex
# number, which is a valid entry
_bad_observable_entry = st.sampled_from(
    ["x", "", "σz", "1", "-1", "0", b"x", b"1", True, False, np.True_, None, {}, object(), [1.0, 0.0], np.nan, -np.inf]
)


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


_junk_index = st.one_of(
    _bad_entry,
    st.booleans(),
    st.floats(),
    st.integers().filter(lambda i: not -2 <= i < 2),
    _real_arrays,
)
_full_spectrum = eig_hermitian((SZ + SX) / np.sqrt(2))
_values_only = eig_hermitian((SZ + SX) / np.sqrt(2), vectors=False)


@st.composite
def _junk_call(draw):
    """(name, function, argument) for a call the library must refuse."""
    target = draw(
        st.sampled_from(["unit_axis", "noisy_pauli_povm", "correlators", "chsh", "ChshSetting", "projector", "values-only"])
    )
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


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
def test_table_of_counts_is_read_as_floats(dtype):
    # unsigned differences would wrap around to 255
    table = np.zeros((2, 2, 2, 2), dtype=dtype)
    table[:, :, 0, 1] = 1
    corr = correlators_from_table(table)
    assert corr.dtype == np.float64 and corr.tolist() == [[-1.0, -1.0], [-1.0, -1.0]]
    assert chsh_from_table(table) == 2.0
