"""Kronecker products and the eigensolver.

eig_hermitian wraps numpy.linalg.eigh, or numpy.linalg.eigvalsh for an
eigenvalue-only solve of any size but 2x2, so comparing it with numpy
checks the wrapper (validation, hermitizing, ascending order); the
eigenpair-residual and reconstruction tests check the eigenvectors
without any solver.  An eigenvalue-only 2x2 solve is in closed form:
TestClosedForm2x2 checks it against numpy and against 60-digit decimal
values within a few ulps, and is_psd's verdict on it against exact
rational arithmetic.  Its input checks run on the four entries too:
TestTwoByTwoChecks holds them to _hermitian_part's refusals.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import linalg
from chshlab.compat import _busch_total
from chshlab.linalg import (
    HERMITICITY_TOL,
    I2,
    MAX_ENTRY_MODULUS,
    PSD_TOL,
    SX,
    SY,
    SZ,
    eig_hermitian,
    is_psd,
    kron,
)
from chshlab.errors import ChshLabError, NonUnitAxisError, NotHermitianError, OutOfRangeError
from chshlab.measurement import BinaryPovm, unit_axis

from conftest import any_2x2, random_hermitian

B0 = (SZ + SX) / np.sqrt(2)
B1 = (SZ - SX) / np.sqrt(2)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_sigma_y_pair(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = -1
        expected[1, 2] = 1
        expected[2, 1] = 1
        expected[3, 0] = -1
        assert np.allclose(kron(SY, SY), expected)

    def test_mixed_product_rule(self, rng):
        for _ in range(25):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            assert np.max(np.abs(left - right)) <= 1e-10

    def test_trace_multiplicativity(self, rng):
        for _ in range(25):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10


class TestEigHermitian:
    def test_pauli_spectrum(self):
        spec = eig_hermitian(SZ)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_product_spectrum(self):
        spec = eig_hermitian(kron(SY, SY))
        assert np.allclose(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])

    def test_chsh_operator_spectrum(self):
        s = kron(SZ, B0 + B1) + kron(SX, B0 - B1)
        expected = np.linalg.eigvalsh(s)  # brute-force oracle
        spec = eig_hermitian(s)
        assert np.max(np.abs(spec.eigenvalues - expected)) <= 1e-9
        r = 2 * np.sqrt(2)
        assert np.allclose(spec.eigenvalues, [-r, 0.0, 0.0, r], atol=1e-9)

    def test_matches_numpy_on_random_sizes(self, rng):
        for n in range(2, 17):
            h = random_hermitian(rng, n)
            spec = eig_hermitian(h)
            assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-9

    def test_eigenpair_residuals(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            res = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-9

    def test_reconstruction(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - h)) <= 1e-9

    def test_trace_matches_eigenvalue_sum(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            assert abs(spec.eigenvalues.sum() - np.trace(h).real) <= 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # eigh would return NaN eigenvalues without complaint
        m = SZ.copy()
        m[0, 0] = bad
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)

    def test_tolerates_roundoff_asymmetry(self):
        m = SZ.copy()
        m[0, 1] = 1e-12
        spec = eig_hermitian(m)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-10)


def test_operator_norm_is_gone():
    """Δ reads the cached solve of J; the Gram-matrix norm had no other caller."""
    import chshlab
    import chshlab.linalg

    assert not hasattr(chshlab, "operator_norm")
    assert not hasattr(chshlab.linalg, "operator_norm")


def test_is_psd_and_an_exactly_hermitian_effect(rng):
    assert is_psd(I2)
    assert not is_psd(-I2)
    # an effect off Hermitian within HERMITICITY_TOL: from_effect keeps
    # (M + M†)/2, which is Hermitian bit for bit
    h = random_hermitian(rng, 2)
    m = (I2 + 0.5 * h / np.linalg.norm(h, 2)) / 2
    m = m + 1e-11 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    sym = BinaryPovm.from_effect(m).effect_plus
    assert np.max(np.abs(sym - sym.conj().T)) == 0.0


# ------------------------------------------------- the lean path pinned to numpy

_entry = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _complex_matrix(draw, rows, cols):
    n, m = draw(rows), draw(cols)
    re = draw(st.lists(_entry, min_size=n * m, max_size=n * m))
    im = draw(st.lists(_entry, min_size=n * m, max_size=n * m))
    return (np.array(re) + 1j * np.array(im)).reshape(n, m)


@st.composite
def _near_hermitian(draw, sizes=st.integers(1, 6)):
    """A Hermitian matrix plus an asymmetry inside HERMITICITY_TOL."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(rng, n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    noise = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return h + (HERMITICITY_TOL / 4) * noise


def _hermitian(m) -> np.ndarray:
    """(M + M†)/2, Hermitian bit for bit, for a test that reads a closed
    form or a verdict: eig_hermitian and is_psd refuse an M off Hermitian
    beyond HERMITICITY_TOL."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeanPathMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(
        _complex_matrix(st.integers(1, 4), st.integers(1, 4)),
        _complex_matrix(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_kron_is_numpy_kron(self, a, b):
        assert _same_bits(kron(a, b), np.kron(a, b))

    @settings(max_examples=200, deadline=None)
    @given(_near_hermitian())
    def test_eig_hermitian_is_eigh_of_hermitian_part(self, m):
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        for spec in (eig_hermitian(m), eig_hermitian(m, vectors=True)):
            assert _same_bits(spec.eigenvalues, vals)
            assert _same_bits(spec.eigenvectors, vecs)

    @settings(max_examples=200, deadline=None)
    @given(_near_hermitian(st.sampled_from([1, 3, 4, 5, 6])))
    def test_eigenvalue_only_is_eigvalsh_of_hermitian_part(self, m):
        # a 2x2 is solved in closed form: TestClosedForm2x2
        spec = eig_hermitian(m, vectors=False)
        assert _same_bits(spec.eigenvalues, np.linalg.eigvalsh((m + m.conj().T) / 2))
        assert spec.eigenvectors is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_entry, min_size=6, max_size=6))
    def test_busch_total_is_numpy_norm(self, entries):
        a, b = np.array(entries[:3]), np.array(entries[3:])
        total = _busch_total(a, b)
        assert type(total) is float
        assert total == np.linalg.norm(a + b) + np.linalg.norm(a - b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        st.lists(st.floats(-1e-6, 1e-6), min_size=3, max_size=3),
    )
    def test_unit_axis_norm_is_numpy_norm(self, entries, jitter):
        # a near-unit vector, drawn to land on both sides of UNIT_AXIS_TOL;
        # the refusal quotes the norm, so both branches show its bits
        v = np.array(entries)
        for w in (v / np.linalg.norm(v) + np.array(jitter), v):
            norm = float(np.linalg.norm(w))
            try:
                assert _same_bits(unit_axis(w), w)
            except NonUnitAxisError as exc:
                assert str(exc).startswith(f"axis norm {norm!r} deviates from 1")
            else:
                assert abs(norm - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 3, 4, 5]).flatmap(lambda n: _complex_matrix(st.just(n), st.just(n))))
    def test_is_psd_is_eigvalsh_at_psd_tol(self, m):
        # a 2x2 is decided in closed form: TestClosedForm2x2.  A matrix off
        # Hermitian beyond HERMITICITY_TOL is refused as eig_hermitian
        # refuses it; its Hermitian part is decided
        h = _hermitian(m)
        assert is_psd(h) == bool(np.linalg.eigvalsh(h)[0] >= -PSD_TOL)
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            assert _refusal(is_psd, m) == _refusal(eig_hermitian, m) is not None


EPS = np.finfo(float).eps
# the gap between floats never falls below the smallest subnormal, so an
# eigenvalue below the float range (t ~ |z|²/|p - s| for a tiny z) can be
# no nearer than that to its exact value
ULP_FLOOR = np.finfo(float).smallest_subnormal
# nonzero entries stay far above the subnormal range, where halving a
# float is no longer exact and no relative bound holds
_normal_entry = _entry.filter(lambda x: x == 0.0 or abs(x) >= 1e-200)


@st.composite
def _two_by_two(draw):
    """A 2x2 complex matrix, Hermitian or not, at a scale from 1e-8 to 1e8:
    drawn entries (zeros and repeats included), a random one, a rank-one
    v v† whose lower eigenvalue is zero up to the rounding of its entries,
    or a random one whose off-diagonal is 1e-4 to 1e-12 of its diagonal."""
    scale = draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]))
    kind = draw(st.sampled_from(["entries", "random", "rank-one", "near-diagonal"]))
    if kind == "entries":
        re = draw(st.lists(_normal_entry, min_size=4, max_size=4))
        im = draw(st.lists(_normal_entry, min_size=4, max_size=4))
        return scale * (np.array(re) + 1j * np.array(im)).reshape(2, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    if kind == "near-diagonal":
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[[0, 1], [1, 0]] *= 10.0 ** -draw(st.integers(4, 12))
        return scale * m
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return scale * np.outer(v, v.conj())


def _psd_exactly(h, tol) -> bool:
    """λ_min(H) ≥ -tol for the 2x2 Hermitian H with these float entries, in
    exact rational arithmetic: H + tol·I ≥ 0 iff its trace and determinant
    are ≥ 0."""
    p, s, x, y, t = (Fraction(float(v)) for v in (h[0, 0].real, h[1, 1].real, h[0, 1].real, h[0, 1].imag, tol))
    return p + s + 2 * t >= 0 and (p + t) * (s + t) - x * x - y * y >= 0


class TestClosedForm2x2:
    """An eigenvalue-only 2x2 solve, each effect's PSD check, reads the
    spectrum off the Hermitian part's four entries instead of calling LAPACK."""

    @settings(max_examples=300, deadline=None)
    @given(_entry, _entry)
    def test_diagonal_comes_back_exactly(self, p, s):
        spec = eig_hermitian(np.array([[p, 0.0], [0.0, s]], dtype=complex), vectors=False)
        assert spec.eigenvalues.tolist() == sorted([p, s])
        assert spec.eigenvectors is None

    @settings(max_examples=500, deadline=None)
    @given(_two_by_two())
    def test_ascending_and_within_ulps_of_eigvalsh(self, m):
        h = _hermitian(m)
        vals = eig_hermitian(h, vectors=False).eigenvalues
        ref = np.linalg.eigvalsh(h)
        assert vals.shape == (2,) and vals.dtype == np.float64
        assert vals[0] <= vals[1]
        assert np.max(np.abs(vals - ref)) <= 8 * EPS * np.max(np.abs(ref))

    @settings(max_examples=500, deadline=None)
    @given(_two_by_two())
    def test_each_eigenvalue_within_ulps_of_exact(self, m):
        # min(p, s) - t and max(p, s) + t lose nothing to cancellation, so
        # each is accurate to a few ulps of its own size and of t; the
        # mean ∓ radius of the textbook formula is not, for a biased
        # effect (p near 0, s near 1) with a tiny off-diagonal.  Exact:
        # 60 digits from H's float entries, t = |z|²/(hypot(d, |z|) + d).
        # An eigenvalue below the float range is at best rounded to the
        # nearest subnormal or zero: 8 ulps there are 8 ULP_FLOOR.
        h = _hermitian(m)
        vals = eig_hermitian(h, vectors=False).eigenvalues
        with localcontext() as ctx:
            ctx.prec = 60
            p, s, x, y = (Decimal(float(v)) for v in (h[0, 0].real, h[1, 1].real, h[0, 1].real, h[0, 1].imag))
            d, w2 = abs(p - s) / 2, x * x + y * y
            t = w2 / ((d * d + w2).sqrt() + d) if w2 else Decimal(0)
            for got, want in zip(vals.tolist(), (min(p, s) - t, max(p, s) + t)):
                assert abs(Decimal(got) - want) <= Decimal(8 * EPS) * (abs(want) + t) + 8 * Decimal(ULP_FLOOR)

    @settings(max_examples=500, deadline=None)
    @given(_two_by_two())
    def test_is_psd_is_exact_outside_the_roundoff_band(self, m):
        # within 8 eps·‖H‖ of the threshold neither the closed form nor
        # LAPACK decides exactly; outside it is_psd must agree with the
        # rational criterion on H's float entries
        h = _hermitian(m)
        band = 8 * EPS * float(np.max(np.abs(np.linalg.eigvalsh(h))))
        verdict = _psd_exactly(h, PSD_TOL + band)
        if verdict == _psd_exactly(h, PSD_TOL - band):
            assert is_psd(h) == verdict

    @pytest.mark.parametrize(
        "m, expected",
        [
            ([[1, 1], [1, 1]], [0.0, 2.0]),
            ([[1, 0], [0, -1]], [-1.0, 1.0]),
            ([[1, 1], [1, -1]], [-np.sqrt(2), np.sqrt(2)]),
            ([[-1, 1j], [-1j, -1]], [-2.0, 0.0]),
            ([[0, 1], [1, 0]], [-1.0, 1.0]),
            ([[1, 1], [-1, 1]], [1.0, 1.0]),  # anti-Hermitian off-diagonal: Hermitian part diag(1, 1)
            ([[-1, -1], [-1, 1]], [-np.sqrt(2), np.sqrt(2)]),
        ],
    )
    def test_at_max_entry_modulus(self, m, expected):
        # no OverflowError and no warning (warnings are errors in this
        # suite); the spectrum of a 2x2 with bounded entries cannot
        # overflow, since its norm is at most twice the largest modulus
        h = _hermitian(MAX_ENTRY_MODULUS * np.array(m, dtype=complex))
        expected = MAX_ENTRY_MODULUS * np.array(expected)
        vals = eig_hermitian(h, vectors=False).eigenvalues
        assert np.isfinite(vals).all()
        assert np.max(np.abs(vals - expected)) <= 8 * EPS * np.max(np.abs(expected))
        assert is_psd(h) == (expected[0] >= 0)


def _closed_form_2x2(m) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian part of a bounded 2x2 m by
    the closed form eig_hermitian uses, read off the numpy array."""
    a = np.asarray(m, dtype=complex)
    p, q, r, s = (complex(v) for v in a.ravel())
    lo, hi = sorted([p.real, s.real])
    y = math.hypot((q.real + r.real) / 4, (q.imag - r.imag) / 4)
    if y == 0.0:
        return np.array([lo, hi])
    x = (hi - lo) / 4
    t = 2.0 * y * (y / (math.hypot(x, y) + x))
    return np.array([lo - t, hi + t])


def _refusal(fn, *args, **kwargs):
    """(class, message, defect) of the NotHermitianError fn raises, or None."""
    try:
        fn(*args, **kwargs)
    except NotHermitianError as exc:
        return type(exc), str(exc), exc.defect
    return None


class TestTwoByTwoChecks:
    """An eigenvalue-only 2x2 solve runs _hermitian_part's checks on its
    four entries: it refuses exactly what _hermitian_part refuses, with the
    same class, message and defect, and otherwise returns the closed form."""

    @settings(max_examples=1500, deadline=None)
    @given(any_2x2())
    def test_refuses_as_hermitian_part_else_closed_form(self, m):
        # no drawn input makes numpy or abs() warn: warnings are errors in
        # this suite
        refusal = _refusal(linalg._hermitian_part, m)
        assert _refusal(eig_hermitian, m, vectors=False) == refusal
        assert _refusal(is_psd, m) == refusal
        if refusal is None:
            spec = eig_hermitian(m, vectors=False)
            assert _same_bits(spec.eigenvalues, _closed_form_2x2(m))
            assert spec.eigenvectors is None
            assert is_psd(m) == bool(_closed_form_2x2(m)[0] >= -PSD_TOL)
        if refusal is None or refusal[2] is not None:
            # finite and bounded, refused at most for its defect: its
            # Hermitian part, finite at any bounded modulus, reaches the
            # closed form with every entry kind drawn, extreme or subnormal
            h = _hermitian(m)
            spec = eig_hermitian(h, vectors=False)
            assert _same_bits(spec.eigenvalues, _closed_form_2x2(h))
            assert spec.eigenvectors is None
            assert is_psd(h) == bool(_closed_form_2x2(h)[0] >= -PSD_TOL)

    def test_modulus_past_float_max(self):
        # finite parts whose modulus overflows: abs() of the Python complex
        # raises OverflowError, and the entry is refused as numpy refuses it
        m = np.array([[1.7e308 + 1.7e308j, 0], [0, 1]])
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(m, vectors=False)
        assert str(exc.value) == f"matrix entry of modulus inf would overflow M + M† (limit {MAX_ENTRY_MODULUS:.3e})"
        assert _refusal(eig_hermitian, m, vectors=False) == _refusal(linalg._hermitian_part, m)


class TestSpectrumProjector:
    def test_eigenvalue_only_spectrum_has_no_projector(self):
        with pytest.raises(OutOfRangeError) as exc:
            eig_hermitian(SZ, vectors=False).projector(0)
        assert str(exc.value) == "an eigenvalue-only spectrum (vectors=False) has no projectors"

    @pytest.mark.parametrize("index", [2, -3, 10**30])
    def test_index_past_the_spectrum(self, index):
        with pytest.raises(OutOfRangeError) as exc:
            eig_hermitian(SZ).projector(index)
        assert str(exc.value) == f"eigenvalue index {index} outside the spectrum of 2"

    @pytest.mark.parametrize("index", [True, 1.0, "0", None, np.array([0])])
    def test_index_not_an_integer(self, index):
        with pytest.raises(OutOfRangeError) as exc:
            eig_hermitian(SZ).projector(index)
        assert str(exc.value) == f"eigenvalue index must be an integer, got {index!r}"

    @pytest.mark.parametrize("index", [0, 1, -1, -2, np.int64(1)])
    def test_in_range_index(self, index):
        spec = eig_hermitian(SZ)
        v = spec.eigenvectors[:, int(index)].reshape(-1, 1)
        assert np.array_equal(spec.projector(index), v @ v.conj().T)


class TestErrorParity:
    """Each refusal keeps its exception class and message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1), (1, 0)])
    @pytest.mark.parametrize("fn", [eig_hermitian, is_psd])
    def test_non_finite_entry(self, fn, where, bad):
        # refused before any arithmetic, so numpy has no inf to warn about
        # (warnings are errors in this suite)
        m = SZ.copy()
        m[where] = bad
        with pytest.raises(NotHermitianError) as exc:
            fn(m)
        assert str(exc.value) == "matrix has a non-finite entry"
        assert exc.value.defect is None  # only the Hermiticity refusal carries one

    @pytest.mark.parametrize(
        "m",
        [
            np.full((2, 2), 1e308),
            np.array([[0.0, 1e308], [-1e308, 0.0]]),  # anti-Hermitian: |M - M†| overflows
            np.array([[0.25, 1e308 + 1e308j], [1e308 - 1e308j, 0.25]]),  # Hermitian: M + M† overflows
            # finite parts whose modulus is not: abs() returns inf without a warning
            np.array([[0.25, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.25]]),
        ],
        ids=["constant", "anti-hermitian", "hermitian", "modulus-inf"],
    )
    @pytest.mark.parametrize(
        "fn",
        [BinaryPovm.from_effect, is_psd, eig_hermitian, lambda m: eig_hermitian(m, vectors=False)],
        ids=["from_effect", "is_psd", "eig_hermitian", "eigenvalues-only"],
    )
    def test_overflow_refused(self, fn, m):
        # refused before any arithmetic: numpy used to warn and return NaN
        with pytest.raises(NotHermitianError) as exc:
            fn(m)
        top = np.abs(m).max()
        assert str(exc.value) == (
            f"matrix entry of modulus {top:.3e} would overflow M + M† (limit 8.988e+307)"
        )

    @pytest.mark.parametrize(
        "fn",
        [eig_hermitian, lambda m: eig_hermitian(m, vectors=False), is_psd],
        ids=["eig_hermitian", "eigenvalues-only", "is_psd"],
    )
    def test_spectrum_overflow_refused(self, fn):
        # every entry is within the limit, but the top eigenvalue, 4 × 0.99 ×
        # MAX_ENTRY_MODULUS, is past float max: LAPACK returns inf for it
        # without a warning
        m = np.full((4, 4), 0.99 * MAX_ENTRY_MODULUS)
        with pytest.raises(NotHermitianError) as exc:
            fn(m)
        assert str(exc.value) == "matrix spectrum overflows the float range"
        assert exc.value.defect is None

    def test_overflow_limit_is_inclusive(self):
        # at the limit, M + M† and |M - M†| are still finite (warnings are errors)
        h = np.array([[0.0, MAX_ENTRY_MODULUS], [MAX_ENTRY_MODULUS, 0.0]])
        for vectors in (True, False):  # LAPACK and the closed form
            vals = eig_hermitian(h, vectors=vectors).eigenvalues
            assert np.allclose(vals, [-MAX_ENTRY_MODULUS, MAX_ENTRY_MODULUS], rtol=4 * EPS, atol=0.0)
        m = np.array([[0.0, MAX_ENTRY_MODULUS], [-MAX_ENTRY_MODULUS, 0.0]])
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(m)
        assert str(exc.value) == "matrix deviates from Hermitian by 1.798e+308 (tol 1.0e-10)"
        above = np.nextafter(MAX_ENTRY_MODULUS, np.inf)
        with pytest.raises(NotHermitianError, match="would overflow"):
            is_psd(np.array([[above, 0.0], [0.0, 0.0]]))

    def test_non_finite_before_overflow(self):
        m = np.array([[np.nan, 1e308], [1e308, 0.0]])
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(m)
        assert str(exc.value) == "matrix has a non-finite entry"

    def test_non_square(self):
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(np.zeros((2, 3)))
        assert str(exc.value) == "matrix deviates from Hermitian by inf (tol 1.0e-10)"
        assert exc.value.defect == np.inf

    @pytest.mark.parametrize("shape", [(1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize(
        "fn",
        [is_psd, eig_hermitian, lambda m: eig_hermitian(m, vectors=False), BinaryPovm.from_effect],
        ids=["is_psd", "eig_hermitian", "eigenvalues-only", "from_effect"],
    )
    def test_non_square_every_reader(self, fn, shape):
        # (M + M†)/2 would broadcast a 1×n M to n×n
        with pytest.raises(NotHermitianError) as exc:
            fn(np.zeros(shape))
        assert str(exc.value) == "matrix deviates from Hermitian by inf (tol 1.0e-10)"

    @pytest.mark.parametrize("fn", [is_psd, eig_hermitian, BinaryPovm.from_effect])
    def test_empty_matrix(self, fn):
        with pytest.raises(NotHermitianError) as exc:
            fn(np.zeros((0, 0)))
        assert str(exc.value) == "matrix of shape (0, 0) is empty"

    @pytest.mark.parametrize("m", [np.eye(3) / 2, np.eye(4) / 2, np.array([[0.5]])], ids=["3x3", "4x4", "1x1"])
    def test_effect_of_wrong_size(self, m):
        with pytest.raises(NotHermitianError) as exc:
            BinaryPovm.from_effect(m)
        assert str(exc.value) == f"qubit POVM effect must be 2x2, got shape {m.shape}"
        assert isinstance(exc.value, ChshLabError) and isinstance(exc.value, ValueError)

    def test_not_a_matrix(self):
        for fn in (eig_hermitian, is_psd, lambda m: kron(m, I2)):
            with pytest.raises(ValueError) as exc:
                fn(np.zeros(3))
            assert str(exc.value) == "expected a 2-D matrix, got shape (3,)"

    @pytest.mark.parametrize(
        "m, message",
        [
            ([1.0, -1.0], "expected a 2-D matrix, got shape (2,)"),
            ("abc", "expected a 2-D matrix of numbers, got str"),
            ([[1.0, 2.0], [3.0]], "expected a 2-D matrix of numbers, got list"),
            # numpy would parse these as σz or read the bools as 1 and 0
            ([["1", "0"], ["0", "-1"]], "expected a 2-D matrix of numbers, got list"),
            ([[True, False], [False, False]], "expected a 2-D matrix of numbers, got list"),
            ([[1.0, 0.0], [0.0, np.False_]], "expected a 2-D matrix of numbers, got list"),
            (np.eye(2, dtype=bool), "expected a 2-D matrix of numbers, got ndarray"),
            (np.array([[b"1", b"0"], [b"0", b"1"]]), "expected a 2-D matrix of numbers, got ndarray"),
        ],
        ids=["1-d", "string", "ragged", "numeric-strings", "bools", "bool-among-floats", "bool-array", "bytes-array"],
    )
    @pytest.mark.parametrize(
        "fn",
        [eig_hermitian, is_psd, BinaryPovm.from_effect, lambda m: kron(m, I2)],
        ids=["eig_hermitian", "is_psd", "from_effect", "kron"],
    )
    def test_not_a_matrix_is_a_chshlab_error(self, fn, m, message):
        # numpy's own ValueErrors used to escape the package's error base
        with pytest.raises(NotHermitianError) as exc:
            fn(m)
        assert str(exc.value) == message
        assert exc.value.defect is None

    def test_asymmetry_above_tol(self):
        m = SZ.copy()
        m[0, 1] = 1e-9
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(m)
        assert str(exc.value) == "matrix deviates from Hermitian by 1.000e-09 (tol 1.0e-10)"
        assert exc.value.defect == 1e-9
        # is_psd refuses it as eig_hermitian does: it used to decide the
        # Hermitian part of any square matrix
        assert _refusal(is_psd, m) == _refusal(eig_hermitian, m)
