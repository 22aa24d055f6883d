"""Numeric kernel: regularized incomplete beta, binomial interval
probabilities, erfc and the normal CDF and quantile, the binomial PMF and
tail vectors, and the Gauss-Legendre rules of the quadratures.

Everything here is self-contained (stdlib ``math`` plus numpy).  One
saddle-point density, :func:`_beta_front` (C. Loader's form of
x^a (1-x)^b / B(a, b), which never forms terms of size n log n), gives both
the binomial PMF and the incomplete beta's front factor, about 6e-13
relative at n = 1e4.  The binomial PMF is one vector over the support;
each binomial tail is its cumulative sum from its own small end, so both
keep their relative accuracy over the whole support, and one count is an
index into them.  The incomplete beta is one kernel,
:func:`reg_inc_beta_pair`: the modified Lentz continued fraction with a
per-element symmetry switch, returning (I, 1 - I) with the member on the
continued fraction's side computed directly and clamped to [0, 1]; scalar
:func:`reg_inc_beta` is a one-element call.  The float and array loops
share one definition of the step numerators, bit for bit.  A call of at
most ``FLOAT_LOOP_ELEMENTS`` elements (24, the measured crossover) runs the
float loop element by element.  A larger call runs the array loop at about
20 numpy calls a step: the numerators of a block of steps at once, d and c
updated in place as one (2, N) state with one guard test a half-step, and
each element's h recorded when it converges, the live elements compacted
once a quarter have converged.  On it, :func:`binomial_interval_prob` gives
P_theta(C <= T <= D) over a whole grid of theta for one region or an array
of regions, one kernel call for every region of a curve: P(T >= s) =
I_theta(s, n-s+1) and its complement at each s = C and D+1, taking per
theta the form whose operands are small, so tiny powers and type-II masses
keep their relative accuracy.  erfc is a numpy port of fdlibm's rational
approximations (the algorithm of the C library ``erfc``), evaluated in
place over a copy of its input, the result, in slices of at most
``SLICE_ELEMENTS`` with one scratch of 9 slice-sized rows: each slice is
sorted once by branch and sign (a radix sort on 8-bit codes), and each
branch runs in place over its contiguous run, so every element computes
only its own expression; the normal CDF scales and halves inside the same
slice loop, so the result is the only array as large as the input.
Scalars and arrays take the same path.  All functions are pure and safe to
call from concurrent workers.
"""

import functools
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_NO_CONVERGENCE = ("incomplete beta continued fraction did not converge for {} element(s),"
                   " the first at a={!r}, b={!r}, x={!r}")

# elements per erfc slice; also bounds the FDR simulation's replication
# blocks.  erfc on the 1e6 values z / sqrt 2, z standard normal, takes
# 38-61 ms in slices of 8192, 32-49 ms in slices of 16384 and 29-39 ms in
# slices of 65536 (best of 7, six runs, shared 2-CPU Xeon): past 16384 the
# gain is small, and the scratch of 9 slice-sized rows grows with the slice.
SLICE_ELEMENTS = 16384


def _beta_front(a, b, x):
    """x^a (1 - x)^b / B(a, b) elementwise over broadcast arrays, a, b > 0 and
    0 <= x <= 1, in C. Loader's saddle-point form ("Fast and accurate
    computation of binomial probabilities", 2000), with n = a + b:

        sqrt(ab / (2 pi n)) exp(r(n) - r(a) - r(b) - bd0(a, nx) - bd0(b, n(1-x)))

    Stirling's remainder r(z) = lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2
    and the deviance bd0(k, m) = k log(k/m) + m - k >= 0 form no term of size
    n log n.  r takes five terms of its series from z = 15 up, ``math.lgamma``
    below, once per element of the un-broadcast shapes; bd0(k, 0) = +inf.
    """
    n = a + b
    z = np.stack(np.broadcast_arrays(n, a, b))
    large = np.maximum(z, 15.0)
    w = large ** -2
    r = (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w * (1.0 / 1680 - w / 1188)))) / large
    small = z < 15.0
    r[small] = [math.lgamma(v) - (v - 0.5) * math.log(v) + v - _HALF_LOG_2PI
                for v in z[small].tolist()]
    exponent = r[0] - r[1] - r[2]
    with np.errstate(divide="ignore", over="ignore"):  # k/m at m = 0 or subnormal
        for k, p in ((a, x), (b, 1.0 - x)):
            m = n * p
            gap, ratio = k - m, k / m
            # log(k/m): log1p of the gap within a factor 2, the log of the
            # ratio beyond, and from log p where n p is subnormal, so rounded
            # (m = 0 gives +inf)
            log_ratio = np.where((ratio >= 0.5) & (ratio <= 2.0), np.log1p(gap / m), np.log(ratio))
            if (m < 1e-300).any():
                log_ratio = np.where(m < 1e-300, np.log(k) - np.log(n) - np.log(p), log_ratio)
            # where k/m underflows, k log(k/m) is below the rounding of m - k
            exponent = exponent - (k * np.maximum(log_ratio, -746.0) - gap)
    return np.sqrt(a / n * b / (2.0 * math.pi)) * np.exp(exponent)


_TINY = 1e-300  # the divisor guard of the modified Lentz method
# The array loop computes its numerators for up to LENTZ_BLOCK_STEPS steps at
# once, in blocks of at most LENTZ_BLOCK_ELEMENTS: larger blocks save little
# time and raise the kernel's transient memory (the traced peak of a call on
# 602 elements is 307 KB with blocks of 8192 elements, 132 KB with 1024).
LENTZ_BLOCK_STEPS = 8
LENTZ_BLOCK_ELEMENTS = 1024
# Calls of at most FLOAT_LOOP_ELEMENTS elements run the float loop element by
# element: on the binomial benchmark's kernel calls (2-CPU Xeon, Python 3.11,
# numpy 2.4) it is the faster route up to about 24 elements (22: 271 against
# 382 us a call) and the slower one from 32 (514 against 418 us).
FLOAT_LOOP_ELEMENTS = 24
LENTZ_EPS = 2.3e-16  # delta within one ulp of 1 (1 - 2**-53, 1 + 2**-52) counts as converged


def _guard(t: float) -> float:
    """t + (tiny - t), about tiny, where |t| < tiny, else t: keeps a
    divisor of the continued fraction off zero."""
    return t + (_TINY - t) if abs(t) < _TINY else t


def _numerators(m, a, b, x, qab, qap, qam):
    """The m-th even and odd numerators of the continued fraction: on floats
    for one step, or with ``m`` a column of steps against 1-d arrays, one
    row per step; the same bits either way."""
    m2 = 2 * m
    even = m * (b - m) * x / ((qam + m2) * (a + m2))
    odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
    return even, odd


def _lentz(a: float, b: float, x: float, max_iter: int = 1000) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method;
    I. J. Thompson and A. R. Barnett, J. Comput. Phys. 64, 1986) on floats.

    Converges quickly only for x < (a+1)/(a+b+2); callers must apply the
    symmetry switch first.  :func:`_lentz_array` runs the same steps
    elementwise.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = h = 1.0 / _guard(1.0 - qab * x / qap)
    for m in range(1, max_iter + 1):
        even, odd = _numerators(m, a, b, x, qab, qap, qam)
        d = 1.0 / _guard(1.0 + even * d)
        c = _guard(1.0 + even / c)
        h *= d * c
        d = 1.0 / _guard(1.0 + odd * d)
        c = _guard(1.0 + odd / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < LENTZ_EPS:
            return h
    raise RuntimeError(_NO_CONVERGENCE.format(1, a, b, x))


def _guard_in_place(t: np.ndarray) -> None:
    """:func:`_guard` on every element of ``t``, in place: one test when every
    t is at least tiny, as the continued fraction's divisors nearly always
    are.  NaN passes through, as it does in :func:`_guard`."""
    if not np.fmin.reduce(t, axis=None) >= _TINY:
        near_zero = np.abs(t) < _TINY
        np.add(t, _TINY - t, out=t, where=near_zero)


def _lentz_array(a, b, x, max_iter: int = 1000) -> np.ndarray:
    """:func:`_lentz`'s steps elementwise on 1-d arrays, bit for bit.

    The numerators come in blocks of steps, one row per step
    (:func:`_numerators`).  d and c are one (2, N) state: each half-step
    writes the next state into a spare, which then takes its place, with
    one guard test for both.  An element that converges has its h recorded
    and its state set to NaN, which no later convergence or guard test
    counts; at the end of a block in which a quarter of the elements have
    converged, the rest are compacted.
    """
    out = np.empty_like(x)
    if not x.size:
        return out
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    place = np.arange(x.size)  # each element's index in ``out``
    start = 1.0 - qab * x / qap
    _guard_in_place(start)
    h = 1.0 / start
    state = np.stack((h, np.ones_like(x)))  # d, c
    m = 1
    while x.size:
        going = np.ones(x.size, dtype=bool)
        final = np.empty_like(x)  # each element's h at its first convergence
        spare, delta = np.empty_like(state), np.empty_like(x)
        now, after = (state, *state), (spare, *spare)
        converged = 0
        while 4 * converged < x.size:
            if m > max_iter:
                first = np.flatnonzero(going)[0]
                raise RuntimeError(_NO_CONVERGENCE.format(
                    x.size - converged, float(a[first]), float(b[first]), float(x[first])))
            rows = min(LENTZ_BLOCK_STEPS, max(LENTZ_BLOCK_ELEMENTS // x.size, 1),
                       max_iter + 1 - m)
            evens, odds = _numerators(np.arange(m, m + rows, dtype=float)[:, None],
                                      a, b, x, qab, qap, qam)
            m += rows
            for even, odd in zip(evens, odds):
                for num in (even, odd):
                    pair, d, c = after
                    np.multiply(num, now[1], out=d)
                    np.divide(num, now[2], out=c)
                    pair += 1.0
                    _guard_in_place(pair)
                    np.divide(1.0, d, out=d)
                    np.multiply(d, c, out=delta)
                    h *= delta
                    now, after = after, now
                dist = np.abs(np.subtract(delta, 1.0, out=delta), out=delta)
                if np.fmin.reduce(dist) < LENTZ_EPS:
                    done = dist < LENTZ_EPS
                    np.copyto(final, h, where=done)
                    np.copyto(now[0], np.nan, where=done)
                    going[done] = False
                    converged += np.count_nonzero(done)
                    if converged == x.size:
                        break
        out[place] = final  # final for the converged; the rest write again later
        keep = np.flatnonzero(going)
        place, a, b, x, qab, qap, qam, h = (
            v.take(keep) for v in (place, a, b, x, qab, qap, qam, h))
        state = now[0].take(keep, axis=1)
    return out


def reg_inc_beta_pair(a, b, x):
    """(I_x(a, b), 1 - I_x(a, b)) elementwise over broadcast arrays.

    I_x(a, b) is the CDF of a Beta(a, b) random variable at x.  Each element
    takes the continued fraction on the side of the symmetry switch
    x < (a+1)/(a+b+2) where it converges fast, which yields the member on
    that side directly and the other one as its complement; so whichever
    member is small keeps its relative accuracy (about 1e-12 up to shapes
    of ~1e4, the front factor from :func:`_beta_front`, whose Stirling
    remainders are evaluated once per element of the un-broadcast shapes).
    Where the member on the continued fraction's side is close to 1 (a
    shape far below 1), its complement keeps only absolute accuracy; that
    member is clamped to [0, 1] first, so neither member leaves [0, 1].
    A call of at most ``FLOAT_LOOP_ELEMENTS`` elements runs :func:`_lentz`
    on each, a larger one :func:`_lentz_array`, with the same bits.  Scalar
    arguments give numpy float members.

    Raises
    ------
    ValueError
        If a shape is not positive or an x lies outside [0, 1].
    RuntimeError
        If the continued fraction does not converge in 1000 steps.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    if not ((a > 0.0).all() and (b > 0.0).all()):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    swap = x >= (a + 1.0) / (a + b + 2.0)  # also every x == 1
    p, q, y = (np.where(swap, u, v) for u, v in ((b, a), (a, b), (1.0 - x, x)))
    if swap.size <= FLOAT_LOOP_ELEMENTS:
        cont_frac = np.array([_lentz(*args) for args in zip(*(v.ravel().tolist()
                                                             for v in (p, q, y)))])
    else:
        cont_frac = _lentz_array(p.ravel(), q.ravel(), y.ravel())
    # the member on the continued fraction's side, within [0, 1] against rounding
    small = np.clip(_beta_front(a, b, x) * cont_frac.reshape(swap.shape) / p, 0.0, 1.0)
    big = 1.0 - small
    return np.where(swap, big, small)[()], np.where(swap, small, big)[()]


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), a one-element call of
    :func:`reg_inc_beta_pair`.

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float
        Evaluation point in [0, 1].
    """
    return float(reg_inc_beta_pair(a, b, x)[0])


# fdlibm s_erf.c coefficients, by interval of |x|: [0, 0.84375) in x^2,
# [0.84375, 1.25) in |x| - 1, [1.25, 1/0.35) and [1/0.35, 28) in 1/x^2
_ERX = 8.45062911510467529297e-01
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
       5.08130628187576562776e-03, 1.32494738004321644526e-04, -3.96022827877536812320e-06)
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
       7.18286544141962662868e-02, 1.26171219808761642112e-01, 1.36370839120290507362e-02,
       1.19844998467991074170e-02)
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
       -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
       4.34565877475229228821e+02, 6.45387271733267880336e+02, 4.29008140027567833386e+02,
       1.08635005541779435134e+02, 6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
       -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
       1.53672958608443695994e+03, 3.19985821950859553908e+03, 2.55305040643316442583e+03,
       4.74528541206955367215e+02, -2.24409524465858183362e+01)
_ONE_OVER_035 = 2.8571414947509766  # 1/0.35 cut at the high word 0x4006DB6D
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)


_ERFC_EDGES = (0.84375, 1.25, _ONE_OVER_035, 28.0)


def _poly(s, powers, coefs, out, tmp):
    """sum_i coefs[i] s^i into ``out``, grouped as the C library groups it:
    the pairs c_2i + s c_2i+1 weighted by 1 and the given powers s^2, s^4,
    s^6, s^8, added in order, so the roundings match; ``tmp`` is scratch."""
    np.multiply(s, coefs[1], out=out)
    out += coefs[0]
    for power, i in zip(powers, range(2, len(coefs), 2)):
        if i + 1 < len(coefs):
            np.multiply(s, coefs[i + 1], out=tmp)
            tmp += coefs[i]
            tmp *= power
        else:
            np.multiply(power, coefs[i], out=tmp)
        out += tmp
    return out


def _rational(s, p_coefs, q_coefs, work):
    """P(s)/Q(s) into ``work[0]``, the powers s^2, s^4 = s^2 s^2,
    s^6 = s^4 s^2 and s^8 = s^4 s^4 that either uses computed once."""
    num, den, tmp, *powers = work
    powers = powers[:(max(len(p_coefs), len(q_coefs)) - 1) // 2]
    s2, s4, *higher = powers
    np.multiply(s, s, out=s2)
    np.multiply(s2, s2, out=s4)
    for power, factor in zip(higher, (s2, s4)):
        np.multiply(s4, factor, out=power)
    _poly(s, powers, p_coefs, num, tmp)
    num /= _poly(s, powers, q_coefs, den, tmp)
    return num


# Each branch overwrites its run of the sorted slice with erfc: the elements
# with x < 0.25 (below |x| = 0.84375) or x < 0 (above) come before ``split``,
# and ``work`` holds 8 scratch rows of the run's length.
def _erfc_small(x, split, work):
    """|x| < 0.84375: erfc = 1 - x - x P(x^2)/Q(x^2), as 1 - (x + xy) for
    x < 0.25 and 0.5 - (xy + (x - 0.5)) above."""
    z = np.multiply(x, x, out=work[0])
    xy = _rational(z, _PP, _QQ, work[1:])
    xy *= x
    low, high = xy[:split], xy[split:]
    low += x[:split]
    np.subtract(1.0, low, out=x[:split])
    high += np.subtract(x[split:], 0.5, out=z[split:])
    np.subtract(0.5, high, out=x[split:])


def _erfc_mid(x, split, work):
    """0.84375 <= |x| < 1.25: erfc = 1 - erx - P(s)/Q(s), s = |x| - 1, as
    1 + (erx + P/Q) for negative x and (1 - erx) - P/Q for positive."""
    s = np.abs(x, out=x)
    s -= 1.0
    pq = _rational(s, _PA, _QA, work)
    neg = pq[:split]
    neg += _ERX
    np.add(neg, 1.0, out=x[:split])
    np.subtract(1.0 - _ERX, pq[split:], out=x[split:])


def _erfc_tail(r_coefs, s_coefs, x, split, work):
    """1.25 <= |x| < 28: erfc(|x|) = exp(-z^2 - 0.5625) exp((z - |x|)(z + |x|)
    + R/S) / |x|, R/S in s = 1/x^2 and z = |x| cut to its high word so that
    the large exp argument is exact; 2 - erfc(|x|) for negative x."""
    a = np.abs(x, out=x)
    s = np.multiply(a, a, out=work[0])
    np.divide(1.0, s, out=s)
    second = _rational(s, r_coefs, s_coefs, work[1:])
    z, first, total = work[0], work[2], work[3]  # s and the rational's scratch are free
    np.bitwise_and(a.view(np.uint64), _HIGH_WORD, out=z.view(np.uint64))
    np.negative(z, out=first)
    first *= z
    first -= 0.5625
    np.add(z, a, out=total)
    z -= a
    z *= total
    second += z
    first = np.exp(first, out=first)
    first *= np.exp(second, out=second)
    np.divide(first, a, out=x)
    np.subtract(2.0, x[:split], out=x[:split])


def _erfc_huge(x, split, work):
    """|x| >= 28, +-inf and NaN: 1 - sign(x), so 0, 2 or NaN."""
    np.subtract(1.0, np.sign(x, out=x), out=x)


_ERFC_BRANCHES = (_erfc_small, _erfc_mid, functools.partial(_erfc_tail, _RA, _SA),
                  functools.partial(_erfc_tail, _RB, _SB), _erfc_huge)


def _erfc_slice(x: np.ndarray, work: np.ndarray) -> None:
    """fdlibm's erfc on one slice, in place: the elements sorted by branch
    and sign, each branch run once over its run of the sorted copy in
    ``work[0]``, then scattered back into ``x``.  ``work`` has 9 rows of at
    least x.size."""
    n = x.size
    ax = np.abs(x, out=work[1, :n])
    # each element's code is 2 (the edges |x| is not below) + (x >= 0.25):
    # NaN and +-inf are below no edge, so they join |x| >= 28
    code = np.full(n, len(_ERFC_EDGES), dtype=np.uint8)
    for edge in _ERFC_EDGES:
        code -= ax < edge
    code <<= 1
    code += x >= 0.25
    order = np.argsort(code, kind="stable")  # a radix sort on 8-bit keys
    bounds = [0, *np.bincount(code, minlength=2 * len(_ERFC_BRANCHES)).cumsum().tolist()]
    # mode "clip" (the indices are in range) takes into the row unbuffered
    sorted_x = np.take(x, order, out=work[0, :n], mode="clip")
    for k, branch in enumerate(_ERFC_BRANCHES):
        lo, split, hi = bounds[2 * k:2 * k + 3]
        if hi > lo:
            branch(sorted_x[lo:hi], split - lo, work[1:, :hi - lo])
    x[order] = sorted_x


def _erfc_slices(x: np.ndarray, cdf: bool) -> np.ndarray:
    """Overwrite the writeable C-contiguous float64 array ``x`` with
    erfc(x), or when ``cdf`` with the normal CDF 0.5 erfc(-x / sqrt 2), one
    slice of ``SLICE_ELEMENTS`` at a time, and return it: besides x only a
    scratch of 9 slice-sized rows is allocated."""
    flat = x.reshape(-1)
    # the sorted slice, then 8 scratch rows for a branch
    work = np.empty((9, min(flat.size, SLICE_ELEMENTS)))
    for start in range(0, flat.size, SLICE_ELEMENTS):
        part = flat[start:start + SLICE_ELEMENTS]
        if cdf:
            np.negative(part, out=part)
            part /= _SQRT2
        _erfc_slice(part, work)
        if cdf:
            part *= 0.5
    return x


def erfc(x):
    """Complementary error function, elementwise, as a float array.

    A numpy port of fdlibm's ``s_erf.c`` rational approximations, the
    algorithm of the C library ``erfc``: within 4 ulp of ``math.erfc``
    (bit-equal wherever numpy's ``exp`` is), in relative terms down to the
    underflow near x = 27.  Evaluated in slices of ``SLICE_ELEMENTS`` over a
    copy of x, the result; each slice is sorted once by branch and sign,
    and each element runs only its own branch and form, in place.
    """
    return _erfc_slices(np.array(x, dtype=float, order="C"), cdf=False)


def normal_cdf(z, out=None):
    """Standard normal CDF 0.5 erfc(-z / sqrt 2) through :func:`erfc`'s
    slice loop: each slice is negated, scaled, evaluated and halved in
    place, over a copy of z that becomes the result, or over z itself when
    it is passed as ``out``.

    Elementwise on arrays; a float for a scalar, from the same kernel, so
    scalar and array values are bit-identical.  Relative error stays below
    1e-12 over the whole lower tail down to the underflow near z = -37.
    ``out`` may only be z itself, a writeable C-contiguous float64 array,
    which is then overwritten with the same bits and returned; any other
    ``out`` raises ValueError rather than being copied.
    """
    if out is None:
        cdf = _erfc_slices(np.array(z, dtype=float, order="C"), cdf=True)
        return float(cdf) if cdf.ndim == 0 else cdf
    if not (out is z and isinstance(z, np.ndarray) and z.dtype == np.float64
            and z.flags.c_contiguous and z.flags.writeable):
        raise ValueError("out must be z itself, a writeable C-contiguous float64 array")
    return _erfc_slices(z, cdf=True)


# Acklam's rational approximation for the initial quantile guess.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _acklam_quantile(u):
    """Acklam's rational approximation of the normal quantile for u in
    (0, 1), relative error below 1.2e-9, in his Horner order; elementwise,
    a float for a scalar."""
    u = np.asarray(u, dtype=float)
    p_low = 0.02425
    q = np.sqrt(-2.0 * np.where(u < 0.5, np.log(u), np.log1p(-u)))
    tail = np.polyval(_C, q) / np.polyval(_D + (1.0,), q)
    q = u - 0.5
    r = q * q
    central = np.polyval(_A, r) * q / np.polyval(_B + (1.0,), r)
    z = np.where(u < p_low, tail, np.where(u <= 1.0 - p_low, central, -tail))
    return float(z) if z.ndim == 0 else z


def normal_quantile(u):
    """Standard normal quantile (inverse CDF) for u in (0, 1), elementwise;
    a float for a scalar.

    Acklam's approximation refined by two Newton steps against
    :func:`normal_cdf`, giving |normal_cdf(q(u)) - u| well below 1e-12.
    """
    u = np.asarray(u, dtype=float)
    if not ((u > 0.0) & (u < 1.0)).all():
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {u}")
    z = np.asarray(_acklam_quantile(u))
    for _ in range(2):
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        z = z - np.divide(normal_cdf(z) - u, pdf, out=np.zeros_like(z), where=pdf > 0.0)
    return float(z) if z.ndim == 0 else z


@functools.cache
def gauss_legendre(nodes: int):
    """Read-only Gauss-Legendre nodes of [-1, 1] and weights, built once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _check_binomial_args(n: int, theta: float) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")


def binomial_pmf_vector(n: int, theta) -> np.ndarray:
    """PMF of Bin(n, theta) over the whole support s = 0..n: (1 - theta)^n,
    :func:`_beta_front` (s, n - s, theta) n / (s (n - s)) for 0 < s < n, theta^n.

    ``theta`` may also be a sequence, giving one row per theta; each row
    holds the bits a scalar theta gives.
    """
    thetas = np.ravel(theta).tolist()
    for t in thetas:
        _check_binomial_args(n, t)
    s = np.arange(1.0, n)
    pmf = np.empty((len(thetas), n + 1))
    pmf[:, 1:n] = _beta_front(s, n - s, np.array(thetas)[:, None]) * (n / (s * (n - s)))
    pmf[:, 0], pmf[:, n] = np.exp(n * np.array([(math.log1p(-t), math.log(t)) for t in thetas]).T)
    return pmf if np.ndim(theta) else pmf[0]


def binomial_tail_vectors(n: int, theta):
    """Both tails of T ~ Bin(n, theta) over the whole support s = 0..n.

    Returns (cdf, sf) with cdf[s] = P(T <= s) and sf[s] = P(T >= s): a
    forward and a reverse cumulative sum of the PMF vector, so each tail
    adds up from its own small end and keeps its relative accuracy.  A
    sequence of theta gives one row of each per theta, as
    :func:`binomial_pmf_vector` does.
    """
    pmf = binomial_pmf_vector(n, theta)
    cdf = np.minimum(np.cumsum(pmf, axis=-1), 1.0)
    sf = np.minimum(np.cumsum(pmf[..., ::-1], axis=-1)[..., ::-1], 1.0)
    # whole-support sums are exactly 1, so the one-sided p-values at s = 0
    # and s = n are exactly 1
    cdf[..., n] = sf[..., 0] = 1.0
    return cdf, sf


def binomial_interval_prob(n: int, lo, hi, theta) -> np.ndarray:
    """P_theta(lo <= T <= hi) for T ~ Bin(n, theta) at each theta of an array.

    ``lo`` and ``hi`` are one region's bounds, or equal-length 1-d arrays of
    R regions' bounds, which give an (R,) + theta.shape array.  Every bound
    s = lo and s = hi + 1 in 1..n of a non-empty region goes into one
    :func:`reg_inc_beta_pair` call, P(T >= s) = I_theta(s, n - s + 1) as a
    column against theta, so a curve's regions cost one kernel call and
    O(grid) kernel work each, whatever n is; bounds outside 1..n take the
    constant tails and an empty region (lo > hi) is 0.  Each theta takes the
    form whose operands are small: P(T >= lo) - P(T >= hi+1) left of the
    interval, P(T <= hi) - P(T <= lo-1) right of it, and
    1 - P(T <= lo-1) - P(T >= hi+1) near the centre, so a tiny probability
    keeps its relative accuracy and a type-II mass is computed directly.
    """
    theta = np.asarray(theta, dtype=float)
    one_region = np.ndim(lo) == 0
    lo, hi = np.ravel(lo), np.ravel(hi)
    regions = lo.size
    bounds = np.concatenate((lo, hi + 1))
    empty = lo > hi
    # P(T >= s) and P(T <= s - 1) per bound, constant outside 1..n
    at_least = np.zeros((bounds.size,) + theta.shape)
    at_least[bounds <= 0] = 1.0
    below = 1.0 - at_least
    live = (bounds >= 1) & (bounds <= n) & np.tile(~empty, 2)
    if live.any():
        s = bounds[live].reshape((-1,) + (1,) * theta.ndim)
        at_least[live], below[live] = reg_inc_beta_pair(s, n - s + 1, theta)
    at_least_lo, above = at_least[:regions], at_least[regions:]
    under_lo, at_most_hi = below[:regions], below[regions:]
    prob = np.where(at_least_lo <= 0.5, at_least_lo - above,
                    np.where(at_most_hi <= 0.5, at_most_hi - under_lo,
                             1.0 - under_lo - above))
    prob = np.maximum(prob, 0.0)
    prob[empty] = 0.0
    return prob[0] if one_region else prob
