"""Kernel accuracy tests against independent oracles (mpmath, exact
rationals, quadrature, brute-force enumeration)."""

import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from equilab import EquivalenceMargin, binom_onesided_pvalues, binom_tost_pvalue
from equilab.special import (_ERX, _HIGH_WORD, _ONE_OVER_035, _PA, _PP, _QA, _QQ, _RA, _RB,
                             _SA, _SB, SLICE_ELEMENTS, _acklam_quantile, _lentz, _lentz_array,
                             binomial_interval_prob, binomial_pmf_vector, binomial_tail_vectors,
                             erfc, log_gamma, normal_cdf, normal_quantile, reg_inc_beta,
                             reg_inc_beta_pair)

mpmath.mp.dps = 40


class TestLogGamma:
    def test_exact_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_against_mpmath_grid(self):
        # absolute 1e-12 where float spacing allows; relative 1e-13 else
        for x in [1e-3, 0.02, 0.5, 1.5, 7.0, 20.0, 123.456, 5e3, 1e6]:
            ref = float(mpmath.loggamma(mpmath.mpf(x)).real)
            err = abs(log_gamma(x) - ref)
            assert err <= max(1e-12, 1e-13 * abs(ref)), f"x={x}: err={err}"

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestRegIncBeta:
    def test_uniform_is_identity(self):
        assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-12)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_quadrature_oracle(self):
        # adaptive quadrature of the Beta(3.5, 47.5) density
        a, b = 3.5, 47.5
        norm = math.exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b))
        density = lambda u: norm * u ** (a - 1) * (1 - u) ** (b - 1)
        ref, est_err = integrate.quad(density, 0.0, 0.25, epsabs=1e-12, epsrel=1e-12)
        assert est_err < 1e-10
        value = reg_inc_beta(a, b, 0.25)
        assert value == pytest.approx(ref, rel=1e-10)
        assert value == pytest.approx(0.9997825023932758, rel=1e-12)

    def test_against_mpmath_wide_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = 10 ** rng.uniform(-1, 3.7)
            b = 10 ** rng.uniform(-1, 3.7)
            x = rng.uniform(0.001, 0.999)
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
            got = reg_inc_beta(a, b, x)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-300), (a, b, x)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.05, 500), b=st.floats(0.05, 500),
           x=st.floats(0.001, 0.999))
    def test_symmetry_identity(self, a, b, x):
        # x kept away from the endpoints: rounding of 1 - x is amplified
        # there by the unbounded Beta density when a shape is below 1
        assert reg_inc_beta(a, b, x) == pytest.approx(
            1.0 - reg_inc_beta(b, a, 1.0 - x), abs=1e-10)
        assert reg_inc_beta(a, b, 0.0) == 0.0
        assert reg_inc_beta(a, b, 1.0) == 1.0

    def test_binomial_duality_exhaustive(self):
        # I_x(a, b) = P(Bin(a+b-1, x) >= a) for integer shapes, m <= 60
        for m in range(1, 61):
            for a in range(1, m + 1):
                b = m - a + 1
                for x in (0.2, 0.5, 0.75):
                    tail = math.fsum(math.comb(m, y) * x ** y * (1 - x) ** (m - y)
                                     for y in range(a, m + 1))
                    assert reg_inc_beta(a, b, x) == pytest.approx(tail, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)


def assert_pair_relative(lower, upper, a, b, x, rel=1e-10):
    """Both members against scipy's betainc/betaincc in relative terms;
    an element where scipy's deep tail is off (as at n = 7526,
    x = 0.91015625, s = 7510, where it is 11 % low) is judged by mpmath."""
    a, b, x, lower, upper = np.broadcast_arrays(a, b, x, lower, upper)
    for got, ref, upper_side in ((lower, special.betainc(a, b, x), False),
                                 (upper, special.betaincc(a, b, x), True)):
        keep = ref > 1e-300
        err = np.zeros(ref.shape)
        err[keep] = np.abs(got[keep] - ref[keep]) / ref[keep]
        for i in np.flatnonzero(err > rel):
            exact = mpmath.betainc(a[i], b[i], 0, x[i], regularized=True)
            exact = 1 - exact if upper_side else exact
            assert abs(got[i] - exact) <= rel * exact, (a[i], b[i], x[i], got[i], exact)


class TestIncBetaPairKernel:
    """The array kernel's pair (I, 1 - I) against scipy, each member in
    relative terms, at the scalar kernel's 1e-10 tolerance."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10_000), p=st.floats(0.05, 50.0), q=st.floats(0.05, 50.0),
           x=st.floats(0.001, 0.999))
    # a small first shape: I is close to 1 on the continued fraction's side,
    # so 1 - I carries the relative error of the front factor's log Gamma terms
    @example(n=949, p=0.05078125, q=50.0, x=0.001)
    @example(n=9949, p=0.0508, q=50.0, x=1e-4)
    def test_posterior_shapes_whole_support(self, n, p, q, x):
        counts = np.arange(n + 1)
        a, b = p + counts, q + n - counts
        assert_pair_relative(*reg_inc_beta_pair(a, b, x), a, b, x)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10_000), x=st.floats(0.001, 0.999))
    def test_binomial_tail_shapes_whole_support(self, n, x):
        # I_x(s, n-s+1) = P(T >= s): the shapes of the interval form
        s = np.arange(1, n + 1)
        assert_pair_relative(*reg_inc_beta_pair(s, n - s + 1, x), s, n - s + 1, x)

    def test_deep_tail_where_scipy_is_off(self):
        n, x = 7526, 0.91015625
        s = np.arange(7505, 7521)
        assert_pair_relative(*reg_inc_beta_pair(s, n - s + 1, x), s, n - s + 1, x)

    def test_grid_of_x_and_endpoints(self):
        x = np.array([0.0, 1e-6, 0.3, 0.5, 0.9, 1.0])
        lower, upper = reg_inc_beta_pair(40.0, 60.5, x)
        assert (lower[0], upper[0], lower[-1], upper[-1]) == (0.0, 1.0, 1.0, 0.0)
        assert_pair_relative(lower, upper, 40.0, 60.5, x)

    def test_scalar_is_a_one_element_call(self):
        lower, upper = reg_inc_beta_pair(3.5, 47.5, 0.25)
        assert reg_inc_beta(3.5, 47.5, 0.25) == lower
        assert np.ndim(lower) == np.ndim(upper) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta_pair([1.0, 0.0], 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta_pair(1.0, 1.0, [0.5, -0.1])


def _converging_side(a: float, b: float, u: float) -> float:
    """An x on the continued fraction's converging side, x < (a+1)/(a+b+2)."""
    return u * (a + 1.0) / (a + b + 2.0)


class TestLentzArrayPath:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.5, 1e4), st.floats(0.5, 1e4),
                              st.floats(0.0, 1.0, exclude_max=True)),
                    min_size=1, max_size=12))
    @example([(0.5, 0.5, 0.0), (1e4, 1e4, 0.999999), (0.5, 1e4, 0.5), (1e4, 0.5, 0.999999)])
    def test_equals_float_path_bitwise(self, elements):
        a, b = (np.array(column) for column in list(zip(*elements))[:2])
        x = np.array([_converging_side(*element) for element in elements])
        got = _lentz_array(a, b, x)
        for i, (ai, bi, xi) in enumerate(zip(a.tolist(), b.tolist(), x.tolist())):
            assert got[i].hex() == _lentz(ai, bi, xi).hex(), (ai, bi, xi)

    def test_guarded_start_equals_float_path(self):
        # 1 - (a+b) x / (a+1) is exactly 0 at a = 1, b = 3, x = 1/2
        a, b, x = np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([0.5, 0.2])
        got = _lentz_array(a, b, x)
        assert [v.hex() for v in got.tolist()] == [
            _lentz(*args).hex() for args in zip(a.tolist(), b.tolist(), x.tolist())]

    def test_empty_array(self):
        empty = np.empty(0)
        assert _lentz_array(empty, empty, empty).shape == (0,)

    def test_non_convergence_raises(self):
        with pytest.raises(RuntimeError):
            _lentz_array(np.array([5.0]), np.array([50.0]), np.array([0.05]), max_iter=1)
        with pytest.raises(RuntimeError):
            _lentz(5.0, 50.0, 0.05, max_iter=1)


class TestBinomialIntervalProb:
    def test_tiny_and_central_values_against_mpmath(self):
        # far-tail rejection probabilities keep 1e-12 relative accuracy
        thetas = [0.001, 0.01, 0.05, 0.3, 0.5, 0.62, 0.95, 0.99, 0.999]
        for n, lo, hi in [(20, 8, 12), (20, 0, 5), (20, 15, 20), (20, 10, 10), (300, 100, 200)]:
            got = binomial_interval_prob(n, lo, hi, thetas)
            for value, theta in zip(got, thetas):
                t = mpmath.mpf(theta)
                ref = mpmath.fsum(mpmath.binomial(n, k) * t ** k * (1 - t) ** (n - k)
                                  for k in range(lo, hi + 1))
                assert abs(value - ref) <= 1e-12 * ref, (n, lo, hi, theta)

    def test_empty_interval_is_zero(self):
        assert binomial_interval_prob(10, 6, 5, [0.2, 0.5]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 50, 300, 10_000])
    def test_region_arrays_equal_scalar_calls_bitwise(self, n):
        # empty regions, regions touching 0 and n, lo = hi and the full support
        regions = [(0, n), (0, 0), (n, n), (1, n - 1), (n // 3, 2 * n // 3), (n // 2, n // 2),
                   (0, n // 4), (3 * n // 4, n), (n // 2 + 1, n // 2), (n, 0)]
        thetas = np.concatenate(([1e-300, 1e-9, 1e-6 / 3], np.linspace(0.01, 0.99, 41),
                                 [1.0 - 1e-6 / 3, 1.0 - 1e-9]))
        lo, hi = (np.array(bounds) for bounds in zip(*regions))
        together = binomial_interval_prob(n, lo, hi, thetas)
        assert together.shape == (len(regions), thetas.size)
        for row, (c, d) in zip(together, regions):
            alone = binomial_interval_prob(n, c, d, thetas)
            assert alone.shape == thetas.shape
            assert [v.hex() for v in row.tolist()] == [v.hex() for v in alone.tolist()], (c, d)

    def test_region_arrays_of_one_keep_the_region_axis(self):
        assert binomial_interval_prob(20, [5], [9], [0.3, 0.4]).shape == (1, 2)
        assert binomial_interval_prob(20, [5, 2], [9, 1], 0.3).shape == (2,)


ERFC_SPECIALS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.0 ** -57,
                 0.25, 0.84375, -0.84375, 1.25, -1.25, 2.8571414947509766, 6.0, -6.0,
                 26.5, 27.2, 28.0, -28.0]


class TestErfcKernel:
    def test_within_4_ulp_of_libm(self):
        rng = np.random.default_rng(20260)
        x = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                            rng.uniform(-40.0, 40.0, 100_000),
                            rng.uniform(-3.0, 3.0, 100_000), ERFC_SPECIALS])
        got = erfc(x)
        want = np.array([math.erfc(v) for v in x])
        ulps = np.abs(got - want) / np.spacing(want)
        assert ulps.max() <= 4.0
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_nan(self):
        assert np.isnan(erfc(math.nan))
        assert np.isnan(erfc(np.array([0.5, math.nan, -math.nan]))[1:]).all()

    def test_normal_cdf_leaves_its_input_unchanged(self):
        # each slice is negated and scaled into scratch and halved in the
        # output: same operations, same order, so the bits are the
        # expression form's
        z = np.linspace(-40.0, 10.0, 501)
        kept = z.copy()
        cdf = normal_cdf(z)
        assert np.array_equal(z, kept)
        assert np.array_equal(cdf, 0.5 * erfc(-kept / math.sqrt(2.0)))

    def test_normal_cdf_relative_to_ndtr(self):
        z = np.concatenate([np.linspace(-37.0, 8.0, 90_001),
                            np.random.default_rng(7).uniform(-37.0, 8.0, 50_000)])
        ref = special.ndtr(z)
        keep = ref > 1e-300
        rel = np.abs(normal_cdf(z)[keep] - ref[keep]) / ref[keep]
        assert rel.max() <= 1e-12

    def test_scalar_and_array_bit_identical(self):
        z = np.concatenate([np.random.default_rng(11).normal(0.0, 6.0, 3000),
                            np.linspace(-40.0, 40.0, 801), ERFC_SPECIALS])
        scalar = np.array([normal_cdf(float(v)) for v in z])
        np.testing.assert_array_equal(normal_cdf(z), scalar)
        np.testing.assert_array_equal(normal_cdf(z.reshape(-1, 1)).ravel(), scalar)
        assert all(type(normal_cdf(v)) is float for v in (0.3, np.float64(-2.0), 7))

    def test_normal_cdf_peak_memory_is_about_its_output(self):
        # slice by slice: the result is the only array as large as the input
        z = np.random.default_rng(5).standard_normal(1_000_000)
        kept = z.copy()
        normal_cdf(z[:10])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cdf = normal_cdf(z)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cdf.nbytes
        assert np.array_equal(z, kept)


# The masked port that erfc replaced, kept verbatim as the reference for its
# bits: every branch on every element of its mask, both forms through np.where.
def _ref_poly(s, coefs):
    """sum_i coefs[i] s^i grouped as the C library groups it: the pairs
    c_2i + s c_2i+1 weighted by s^0, s^2, s^4, s^6 (s^4 s^2), s^8 (s^4 s^4),
    added in order, so the roundings match."""
    s2 = s * s
    s4 = s2 * s2
    powers = (s2, s4) if len(coefs) <= 6 else (s2, s4, s4 * s2, s4 * s4)
    total = coefs[0] + s * coefs[1]
    for power, i in zip(powers, range(2, len(coefs), 2)):
        term = coefs[i] + s * coefs[i + 1] if i + 1 < len(coefs) else coefs[i]
        total = total + power * term
    return total


def _ref_erfc_small(x):
    """|x| < 0.84375: erfc = 1 - x - x P(x^2)/Q(x^2)."""
    z = x * x
    xy = x * (_ref_poly(z, _PP) / _ref_poly(z, _QQ))
    return np.where(x < 0.25, 1.0 - (x + xy), 0.5 - (xy + (x - 0.5)))


def _ref_erfc_mid(x):
    """0.84375 <= |x| < 1.25: erfc = 1 - erx - P(s)/Q(s), s = |x| - 1."""
    s = np.abs(x) - 1.0
    pq = _ref_poly(s, _PA) / _ref_poly(s, _QA)
    return np.where(x >= 0.0, (1.0 - _ERX) - pq, 1.0 + (_ERX + pq))


def _ref_erfc_tail(r_coefs, s_coefs, x):
    """1.25 <= |x| < 28: erfc(|x|) = exp(-x^2 - 0.5625 + R/S) / |x| in
    1/x^2, with x^2 split at the high word of |x| so that the large exp
    argument is exact; 2 - erfc(|x|) for negative x."""
    a = np.abs(x)
    s = 1.0 / (a * a)
    z = (a.view(np.uint64) & _HIGH_WORD).view(np.float64)
    q = np.exp(-z * z - 0.5625) * np.exp((z - a) * (z + a)
                                         + _ref_poly(s, r_coefs) / _ref_poly(s, s_coefs)) / a
    return np.where(x > 0.0, q, 2.0 - q)


_REF_ERFC_BRANCHES = ((0.0, 0.84375, _ref_erfc_small), (0.84375, 1.25, _ref_erfc_mid),
                      (1.25, _ONE_OVER_035, functools.partial(_ref_erfc_tail, _RA, _SA)),
                      (_ONE_OVER_035, 28.0, functools.partial(_ref_erfc_tail, _RB, _SB)))


def _ref_erfc_slice(x: np.ndarray, out: np.ndarray) -> None:
    """fdlibm's erfc on one slice, written into ``out``."""
    ax = np.abs(x)
    out[:] = 1.0 - np.sign(x)  # 0 / 2 for |x| >= 28 and +-inf, nan for nan
    for lo, hi, branch in _REF_ERFC_BRANCHES:
        idx = np.flatnonzero((ax >= lo) & (ax < hi))
        if idx.size:
            out[idx] = branch(x[idx])


def ref_erfc(x):
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, SLICE_ELEMENTS):
        part = slice(start, start + SLICE_ELEMENTS)
        _ref_erfc_slice(flat[part], out[part])
    return out.reshape(x.shape)


def ref_normal_cdf(z):
    x = np.array(z, dtype=float)
    np.negative(x, out=x)
    x /= math.sqrt(2.0)
    cdf = ref_erfc(x)
    cdf *= 0.5
    return float(cdf) if cdf.ndim == 0 else cdf


def assert_same_bits(got, want):
    """Equal float64 bit patterns, shapes and types; NaN compared by position."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# |x| intervals of the kernel's ten groups (branch, then x < 0.25 or x < 0
# against the rest), each well inside its edges
_ERFC_GROUPS = ((-0.84, 0.24), (0.26, 0.84), (-1.24, -0.85), (0.85, 1.24),
                (-2.85, -1.26), (1.26, 2.85), (-27.9, -2.86), (2.86, 27.9),
                (-1e3, -28.0), (28.0, 1e3))


def _edge_points():
    edges = [0.25, 0.84375, 1.25, _ONE_OVER_035, 28.0]
    points = [np.nextafter(e, toward) for e in edges for toward in (0.0, e, math.inf)]
    return np.array(points + [-p for p in points] + ERFC_SPECIALS + [math.nan, -math.nan])


def _one_group_slices(rng):
    """One full slice per group, then all groups mixed, so every slice
    holds all ten."""
    groups = [rng.uniform(lo, hi, SLICE_ELEMENTS) for lo, hi in _ERFC_GROUPS]
    groups[8][::97] = -math.inf
    groups[8][1::97] = math.nan
    groups[9][::89] = math.inf
    mixed = rng.permutation(np.concatenate(groups))
    return np.concatenate(groups + [mixed])


class TestErfcAgainstMaskedPort:
    """erfc and normal_cdf keep the bits of the masked port above."""

    @pytest.mark.parametrize("scale", [0.3, 0.7, 1.5, 3.0, 6.0, 12.0])
    def test_seeded_normals(self, scale):
        x = np.random.default_rng(int(scale * 10)).normal(0.0, scale, 3 * SLICE_ELEMENTS + 7)
        assert_same_bits(erfc(x), ref_erfc(x))
        assert_same_bits(normal_cdf(x), ref_normal_cdf(x))

    def test_edges_neighbours_and_specials(self):
        x = _edge_points()
        assert_same_bits(erfc(x), ref_erfc(x))
        assert_same_bits(normal_cdf(x), ref_normal_cdf(x))
        assert_same_bits(normal_cdf(x * math.sqrt(2.0)), ref_normal_cdf(x * math.sqrt(2.0)))
        for v in x:
            assert_same_bits(erfc(v), ref_erfc(v))
            assert_same_bits(normal_cdf(v), ref_normal_cdf(v))

    def test_one_group_and_ten_group_slices(self):
        x = _one_group_slices(np.random.default_rng(17))
        assert_same_bits(erfc(x), ref_erfc(x))
        assert_same_bits(normal_cdf(-math.sqrt(2.0) * x), ref_normal_cdf(-math.sqrt(2.0) * x))

    @pytest.mark.parametrize("size", [0, 1, SLICE_ELEMENTS - 1, SLICE_ELEMENTS,
                                      SLICE_ELEMENTS + 1, 3 * SLICE_ELEMENTS + 7])
    def test_lengths(self, size):
        x = np.random.default_rng(size).normal(0.0, 4.0, size)
        assert_same_bits(erfc(x), ref_erfc(x))
        assert_same_bits(normal_cdf(x), ref_normal_cdf(x))

    def test_layouts_and_integers(self):
        z = np.random.default_rng(23).normal(0.0, 5.0, 3 * 4099)
        inputs = [z.reshape(3, 4099), np.asfortranarray(z.reshape(4099, 3)), z[::3],
                  np.arange(-40, 41), np.arange(-40, 41).reshape(9, 9)]
        for x in inputs:
            kept = np.array(x, copy=True)
            assert_same_bits(erfc(x), ref_erfc(x))
            assert_same_bits(normal_cdf(x), ref_normal_cdf(x))
            assert np.array_equal(x, kept)


class TestNormalCdfOut:
    """normal_cdf(z, out=z) overwrites z with the bits of a fresh, separate
    call; any other ``out`` is refused, never copied or written."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (SLICE_ELEMENTS - 1,), (SLICE_ELEMENTS,),
                                       (SLICE_ELEMENTS + 1,), (3 * SLICE_ELEMENTS + 7,),
                                       (7, 4099), ()])
    def test_same_bits_in_place_and_separate(self, shape):
        z = np.random.default_rng(sum(shape) + 3).normal(0.0, 6.0, shape)
        flat = z.reshape(-1)
        edges = _edge_points() * math.sqrt(2.0)  # with the specials and NaN
        flat[:edges.size] = edges[:flat.size]
        kept = z.copy()
        want = np.asarray(normal_cdf(z))
        assert np.array_equal(z, kept, equal_nan=True)  # only out=z writes z
        assert normal_cdf(z, out=z) is z
        assert_same_bits(z, want)

    @pytest.mark.parametrize("make_out", [
        lambda z: np.zeros(z.shape),
        lambda z: np.zeros(z.shape, dtype=np.float32),
        lambda z: np.zeros(z.size + 1),
        lambda z: np.zeros(z.size).reshape(2, -1),
        lambda z: np.zeros((z.size, 2))[:, 0],
        lambda z: np.zeros(z.size).tolist(),
        lambda z: np.broadcast_to(0.0, z.shape),
    ], ids=["separate", "float32", "longer", "2-d", "strided", "list", "read-only"])
    def test_refuses_other_outs(self, make_out):
        z = np.linspace(-3.0, 3.0, 10)
        out = make_out(z)
        kept = np.array(out, copy=True)
        with pytest.raises(ValueError, match="out must be z itself"):
            normal_cdf(z, out=out)
        assert np.array_equal(np.asarray(out), kept)
        assert np.array_equal(z, np.linspace(-3.0, 3.0, 10))

    def test_refuses_partial_overlap_and_fortran_order(self):
        buffer = np.linspace(-3.0, 3.0, 11)
        with pytest.raises(ValueError, match="out must be z itself"):
            normal_cdf(buffer[:-1], out=buffer[1:])
        assert np.array_equal(buffer, np.linspace(-3.0, 3.0, 11))
        z = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            normal_cdf(z, out=z)
        assert np.array_equal(z, np.arange(12.0).reshape(3, 4))

    @pytest.mark.parametrize("make_z", [
        lambda: np.linspace(-3.0, 3.0, 10, dtype=np.float32),
        lambda: np.linspace(-3.0, 3.0, 20)[::2],
        lambda: np.broadcast_to(np.linspace(-3.0, 3.0, 10), (2, 10)),
    ], ids=["float32", "strided", "read-only"])
    def test_refuses_z_it_cannot_overwrite(self, make_z):
        z = make_z()
        kept = z.copy()
        with pytest.raises(ValueError, match="out must be z itself"):
            normal_cdf(z, out=z)
        assert np.array_equal(z, kept)


class TestNormal:
    def test_cdf_center_and_symmetry(self):
        assert normal_cdf(0.0) == 0.5
        for z in (0.1, 1.0, 3.7):
            assert normal_cdf(-z) + normal_cdf(z) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_against_erf_reference(self):
        for z in np.linspace(-8, 8, 33):
            ref = float(mpmath.ncdf(z))
            assert abs(normal_cdf(z) - ref) <= 1e-15

    def test_cdf_vectorized(self):
        z = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(normal_cdf(z),
                                   [normal_cdf(v) for v in z], rtol=0, atol=0)

    def test_quantile_bisection_oracle(self):
        # bisection on normal_cdf, tolerance 1e-9
        u = 0.975
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        assert normal_quantile(u) == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert normal_quantile(u) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_roundtrip(self):
        for u in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-9]:
            assert abs(normal_cdf(normal_quantile(u)) - u) <= 1e-12

    def test_quantile_of_cdf_identity(self):
        # near u = 1 the spacing of representable u itself limits the
        # roundtrip: one ulp of u moves z by ulp/pdf(z), ~1.8e-8 at z = 6
        for z in np.linspace(-6, 6, 49):
            u = normal_cdf(z)
            pdf = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            info_limit = 2.0 * math.ulp(u) / pdf
            assert normal_quantile(u) == pytest.approx(z, abs=max(1e-9, info_limit))

    def test_quantile_domain(self):
        for u in (0.0, 1.0, -0.1, 1.1, np.array([0.2, 0.0, 0.7]), np.array([0.2, 1.0, 0.7])):
            with pytest.raises(ValueError):
                normal_quantile(u)

    def test_quantile_array_equals_elementwise_calls(self):
        # both Acklam regions, both tails and the Newton steps, element by element
        rng = np.random.default_rng(11)
        u = np.concatenate((rng.random(400), 10.0 ** -rng.uniform(2, 300, 100),
                            1.0 - 10.0 ** -rng.uniform(2, 15, 100), [0.02425, 0.97575]))
        for quantile in (normal_quantile, _acklam_quantile):
            got = quantile(u.reshape(2, -1))
            assert got.shape == (2, u.size // 2)
            each = np.array([quantile(np.float64(v)) for v in u])
            assert np.array_equal(got.ravel(), each)
            assert type(quantile(0.3)) is float and type(quantile(np.float64(0.3))) is float


class TestBinomial:
    def test_cdf_exact_rational(self):
        ref = Fraction(sum(math.comb(10, s) for s in range(6)), 2 ** 10)
        assert ref == Fraction(319, 512)
        assert binomial_tail_vectors(10, 0.5)[0][5] == pytest.approx(float(ref), rel=1e-12)

    def test_pmf_normalization(self):
        total = math.fsum(binomial_pmf_vector(50, 0.25))
        assert total == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(binomial_pmf_vector(50, 0.25).sum(), 1.0, atol=1e-13)

    def test_cdf_sf_complement(self):
        cdf, sf = binomial_tail_vectors(40, 0.3)
        for s in range(0, 40, 5):
            assert cdf[s] + sf[s + 1] == pytest.approx(1.0, abs=1e-12)

    def test_cdf_relative_accuracy_deep_tail(self):
        # shorter-tail summation keeps relative accuracy in the far tail
        ref = Fraction(0)
        for s in range(4):
            ref += Fraction(math.comb(60, s)) * Fraction(3, 4) ** s * Fraction(1, 4) ** (60 - s)
        assert binomial_tail_vectors(60, 0.75)[0][3] == pytest.approx(float(ref), rel=1e-12)

    def test_large_n_log_space(self):
        n = 10_000
        pmf = binomial_pmf_vector(n, 0.3)[3000]
        assert 0.0 < pmf < 1.0
        assert binomial_tail_vectors(n, 0.3)[0][3000] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("n", [1, 37, 10_000])
    def test_theta_sequence_rows_equal_scalar_calls(self, n):
        thetas = (0.25, 0.5, 0.9)
        pmf = binomial_pmf_vector(n, thetas)
        cdf, sf = binomial_tail_vectors(n, thetas)
        assert pmf.shape == cdf.shape == sf.shape == (3, n + 1)
        for row, theta in enumerate(thetas):
            assert np.array_equal(pmf[row], binomial_pmf_vector(n, theta))
            scalar_cdf, scalar_sf = binomial_tail_vectors(n, theta)
            assert np.array_equal(cdf[row], scalar_cdf)
            assert np.array_equal(sf[row], scalar_sf)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_pmf_vector(0, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf_vector(10, 1.0)
        with pytest.raises(ValueError):
            binomial_pmf_vector(10, (0.5, 0.0))
        with pytest.raises(ValueError):
            binom_onesided_pvalues(10, 11, EquivalenceMargin(0.25, 0.75))


def assert_relative(got, ref, rel=5e-12):
    """Relative error at most ``rel`` wherever the reference exceeds 1e-300."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    keep = ref > 1e-300
    err = np.abs(got[keep] - ref[keep]) / ref[keep]
    assert err.max() <= rel, f"worst relative error {err.max():.3g}"


def exact_binomial(n: int, theta: float):
    """The PMF of Bin(n, theta) and both tails, P(T <= s) and P(T >= s), in
    40-digit arithmetic from the ratio of consecutive terms."""
    t = mpmath.mpf(theta)
    pmf = [(1 - t) ** n]
    for k in range(n):
        pmf.append(pmf[-1] * (n - k) / (k + 1) * t / (1 - t))
    cdf, sf = [], []
    for terms, sums in ((pmf, cdf), (pmf[::-1], sf)):
        total = mpmath.mpf(0)
        for term in terms:
            total += term
            sums.append(float(total))
    return np.array([float(v) for v in pmf]), np.array(cdf), np.array(sf[::-1])


class TestExactBinomialReference:
    """The PMF, both tails and the kernel on the binomial shapes at n = 1e4
    against exact sums, where scipy itself is about 1.4e-12 off."""

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.7311])
    def test_pmf_tails_and_kernel(self, theta):
        n = 10_000
        pmf, cdf, sf = exact_binomial(n, theta)
        got_pmf = binomial_pmf_vector(n, theta)
        got_cdf, got_sf = binomial_tail_vectors(n, theta)
        assert_relative(got_pmf, pmf, rel=1e-12)
        assert abs(math.fsum(got_pmf) - 1.0) <= 1e-13
        assert_relative(got_cdf, cdf, rel=1e-12)
        assert_relative(got_sf, sf, rel=1e-12)
        s = np.arange(1, n + 1)
        at_least, below = reg_inc_beta_pair(s, n - s + 1, theta)
        assert_relative(at_least, sf[1:], rel=1e-12)
        assert_relative(below, cdf[:-1], rel=1e-12)


class TestTinyShapes:
    """The kernel against I_x(a, 1) = x^a and I_x(a, 2) = x^a (1 + a(1 - x))
    for shapes from 1e-300 up, and free of warnings at subnormal shapes."""

    @pytest.mark.parametrize("a", [1e-300, 1e-15, 0.5])
    @pytest.mark.parametrize("x", [0.25, 0.8])
    @pytest.mark.parametrize("b", [1, 2])
    def test_closed_forms(self, a, b, x):
        big_a, big_x = mpmath.mpf(a), mpmath.mpf(x)
        extra = big_a * (1 - big_x) * big_x ** big_a if b == 2 else 0
        lower = big_x ** big_a + extra
        upper = -(mpmath.expm1(big_a * mpmath.log(big_x)) + extra)
        got_lower, got_upper = reg_inc_beta_pair(a, b, x)
        assert abs(got_lower - lower) <= 1e-13 * lower
        if x < (a + 1.0) / (a + b + 2.0) and upper < 1e-3:
            # I close to 1 on the continued fraction's side: its complement
            # keeps only absolute accuracy
            assert abs(got_upper - upper) <= 1e-13
        else:
            assert abs(got_upper - upper) <= 1e-13 * upper

    @pytest.mark.parametrize("a, b, x", [(0.0036, 0.0046, 5e-324), (0.0037, 54.5, 5e-324),
                                         (0.02, 31.3, 1e-310), (0.5, 1.5, 5e-324)])
    def test_subnormal_x(self, a, b, x):
        # (a + b) x rounds in the subnormal range; x^a does not
        exact = mpmath.betainc(a, b, 0, mpmath.mpf(x), regularized=True)
        lower, upper = reg_inc_beta_pair(a, b, x)
        assert abs(lower - exact) <= 1e-13 * exact
        assert abs(upper - (1 - exact)) <= 1e-13 * (1 - exact)

    def test_subnormal_shapes_raise_no_warning(self):
        lower, upper = reg_inc_beta_pair(5e-324, 5e-324, 0.5)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        # 1 - I_x(a, 2) = -a (log x + 1 - x) to first order in a
        assert reg_inc_beta_pair(1e-300, 2, 0.3)[1] == pytest.approx(
            -(math.log(0.3) + 0.7) * 1e-300, rel=1e-13)


class TestBinomialTailAccuracy:
    """Both tails and the TOST p-value against scipy in relative terms,
    including the far tails near the margin centre."""

    margin = EquivalenceMargin(0.25, 0.75)

    @pytest.mark.parametrize("n", [50, 1000, 10_000])
    def test_tail_vectors_whole_support(self, n):
        counts = np.arange(n + 1)
        for theta in (0.25, 0.5, 0.75):
            cdf, sf = binomial_tail_vectors(n, theta)
            assert_relative(cdf, stats.binom.cdf(counts, n, theta))
            assert_relative(sf, stats.binom.sf(counts - 1, n, theta))

    # every count at n <= 1000; every 97th at n = 1e4, where each scalar
    # call builds O(n) vectors (the whole support is checked above)
    @pytest.mark.parametrize("n, step", [(50, 1), (1000, 1), (10_000, 97)])
    def test_scalar_tails_and_tost_pvalue(self, n, step):
        counts = np.arange(0, n + 1, step)
        upper_ref = stats.binom.sf(counts - 1, n, self.margin.theta1)
        lower_ref = stats.binom.cdf(counts, n, self.margin.theta2)
        pvalues = [binom_onesided_pvalues(n, int(s), self.margin) for s in counts]
        assert_relative([upper.value for upper, _ in pvalues], upper_ref)
        assert_relative([lower.value for _, lower in pvalues], lower_ref)
        ref = np.maximum(upper_ref, lower_ref)
        assert_relative([binom_tost_pvalue(n, int(s), self.margin).value for s in counts], ref)
