"""The error function on numpy arrays, evaluated in the array's own dtype.

:func:`erf` is the only erf in the package: ``cdf_gate`` (whose backward
reuses the forward's erf values) and ``graphlu.phi`` both call it.

float32 uses two polynomial branches, evaluated in float32 with ``+``,
``-`` and ``*`` only. There is no transcendental call, so the bits do not
depend on which SIMD math kernels numpy picked on the host:

    |x| < 1:          erf(x) = x + x * p(x^2)                 p of degree 6
    1 <= |x| <= 3.92: erf(x) = sign(x) * (1 - r(|x| - 2.5))   r of degree 12

``r`` approximates erfc on [1, 3.92]. |x| is clamped to 3.92, beyond which
float32 erf rounds to +-1 (erfc(3.92) < 2**-25), so +-inf give exactly +-1.
The result is exactly odd, ``erf(-0.0) == -0.0``, and NaN stays NaN. Against
scipy's double erf the largest error is 1.48 ulp of the float32 result over
every finite non-negative float32 (at x = 1.0293), so the stated bound is
1.5 ulp; ``tests/test_erf.py`` checks it on every 64th bit pattern in
[0, 4.5] (largest 1.34) and, run as a script, on all of them. The
coefficients come from weighted least-squares minimax (Lawson) fits in
float64, rounded to float32.

float64 is a port of the cephes ``ndtr.c`` tables (Cody's rational Chebyshev
forms): ``x T(x^2) / U(x^2)`` for |x| < 1 and ``1 - exp(-x^2) P(|x|) /
Q(|x|)`` with x's sign for 1 <= |x| < 6, +-1 beyond. It is within 1 ulp of
scipy's erf, which evaluates the same tables; the two differ only where
numpy's ``exp`` rounds differently from the C library's or, for x < -1,
where cephes forms ``1 - (2 - erfc(|x|))`` and this port negates instead.

Both dtypes run in blocks of :data:`_BLOCK` elements through block-sized
scratch arrays, so a call allocates nothing the size of its input.
"""

from __future__ import annotations

import numpy as np

# A block costs 50 ufunc calls in float32 and 65 in float64, each clamp one
# ndarray.clip pass: 32768 ran 15 % faster than 16384 on a 2-core x86 host.
_BLOCK = 32768


def _consts(dtype, values) -> tuple[np.ndarray, ...]:
    # 0-d arrays: a ufunc takes them faster than Python or numpy scalars,
    # which matters for the many small arrays of a batch-1 forward.
    return tuple(np.array(v, dtype=dtype) for v in values)


# float32 coefficients, highest degree first.
_SMALL32 = _consts(np.float32, (
    7.853979e-05, -8.010232e-04, 5.1883324e-03, -2.6853815e-02,
    1.12835854e-01, -3.7612626e-01, 1.2837917e-01,
))
_LARGE32 = _consts(np.float32, (
    9.055162e-06, -2.1097725e-05, -6.148299e-05, 2.791936e-04,
    -2.8738639e-04, -5.709103e-04, 2.8190517e-03, -6.1028195e-03,
    8.614926e-03, -8.35337e-03, 5.446716e-03, -2.1780687e-03, 4.0693e-04,
))
_CENTER32, _CLAMP32 = _consts(np.float32, (2.5, 3.92))

# cephes ndtr.c, highest degree first; U and Q have an implicit leading 1.
_T = _consts(np.float64, (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
))
_U = _consts(np.float64, (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
))
_P = _consts(np.float64, (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
))
_Q = _consts(np.float64, (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
))


def erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erf of a float32 or float64 array into ``out``, a C-contiguous array
    of x's shape and dtype (``out`` may be ``x``). Returns ``out``."""
    if x.dtype == np.float32:
        kernel = _erf32
    elif x.dtype == np.float64:
        kernel = _erf64
    else:
        raise TypeError(f"erf: float32 or float64 input, got {x.dtype}")
    if not (isinstance(out, np.ndarray) and out.flags.c_contiguous
            and out.dtype == x.dtype and out.shape == x.shape):
        raise ValueError("erf: out must be a C-contiguous array of x's shape and dtype")
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    n = flat_x.size
    scratch = np.empty((4, min(n, _BLOCK)), dtype=x.dtype)
    for lo in range(0, n, _BLOCK):
        k = min(_BLOCK, n - lo)
        kernel(flat_x[lo:lo + k], flat_out[lo:lo + k], *(s[:k] for s in scratch))
    return out


def _polevl(coef, v: np.ndarray, out: np.ndarray, monic: bool = False) -> None:
    """Horner's rule in v's dtype, highest degree first; ``monic`` prepends
    an implicit leading 1 (cephes ``p1evl``)."""
    if monic:
        np.add(v, coef[0], out=out)
    else:
        np.multiply(v, coef[0], out=out)
        np.add(out, coef[1], out=out)
    for c in coef[1 if monic else 2:]:
        np.multiply(out, v, out=out)
        np.add(out, c, out=out)


def _blend(out, small, large, ind) -> None:
    """``out = small`` where |x| < 1 and ``sign(x) * large`` elsewhere, for
    ``ind = trunc(clip(x, -1, 1))``: sign(x) where |x| >= 1, else +-0. Both
    branches are finite and ``large`` is positive, so the products with the
    indicator select exactly, signed zeros included. On 16K-element blocks
    ``np.copyto(..., where=)`` plus ``np.copysign`` took longer than both
    float32 polynomials together."""
    np.multiply(large, ind, out=large)
    np.multiply(ind, ind, out=ind)
    np.subtract(1, ind, out=ind)
    np.multiply(small, ind, out=small)
    np.add(small, large, out=out)


def _erf32(x, out, a, b, c, d) -> None:
    x.clip(-1, 1, out=a)
    np.multiply(a, a, out=b)
    _polevl(_SMALL32, b, out=c)
    np.multiply(c, a, out=c)
    np.add(c, a, out=c)  # x + x p(x^2)
    np.abs(x, out=b)
    b.clip(1, _CLAMP32, out=b)
    np.subtract(b, _CENTER32, out=b)
    _polevl(_LARGE32, b, out=d)
    np.subtract(1, d, out=d)  # 1 - r(|x| - 2.5)
    np.trunc(a, out=a)
    _blend(out, c, d, a)


def _erf64(x, out, a, b, c, d) -> None:
    x.clip(-6.0, 6.0, out=a)
    np.multiply(a, a, out=b)
    _polevl(_T, b, out=c)
    np.multiply(a, c, out=c)
    _polevl(_U, b, out=d, monic=True)
    np.divide(c, d, out=c)  # x T(x^2) / U(x^2)
    np.negative(b, out=b)
    np.exp(b, out=b)
    np.abs(a, out=a)
    _polevl(_P, a, out=d)
    np.multiply(b, d, out=b)
    _polevl(_Q, a, out=d, monic=True)
    np.divide(b, d, out=b)
    np.subtract(1.0, b, out=b)  # 1 - exp(-x^2) P(|x|) / Q(|x|)
    x.clip(-1, 1, out=a)
    np.trunc(a, out=a)
    _blend(out, c, b, a)
