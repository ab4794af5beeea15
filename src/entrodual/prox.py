"""Proximal maps for the dual regularizer and the box projection.

The regularizer R(s) = nu ||s||_q^q is separable, so its prox reduces to the
scalar problem min_s (t - s)^2 / (2 gamma) + nu |s|^q.  For q > 1 the
stationarity equation

    t = s + gamma q nu |s|^(q-1) sign(s)

is solved by bisection on the magnitude of s; the sign factor matters for
t < 0.  q = 1 is the soft-thresholding kink, handled in closed form.  For
q = inf the regularizer degenerates to the hard ball constraint and the prox
is the box projection.
"""

import math

import numpy as np

BISECT_MAX_ITER = 200
BISECT_TOL = 1e-12  # the bracket width at which the bisection stops


def _check_prox_params(gamma, nu, q_exponent):
    """Raise unless gamma > 0, nu >= 0 and q >= 1."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    if q_exponent < 1.0:
        raise ValueError("q must be at least 1")


def _bisect_magnitudes(target, coef, q):
    # bisects every magnitude at once until all brackets are within BISECT_TOL
    lo = np.zeros_like(target)
    hi = target.copy()
    iters = 0
    while float(np.max(hi - lo, initial=0.0)) > BISECT_TOL:
        if iters >= BISECT_MAX_ITER:
            raise RuntimeError(
                f"prox bisection failed to reach tol={BISECT_TOL} within "
                f"{BISECT_MAX_ITER} iterations"
            )
        mid = 0.5 * (lo + hi)
        below = mid + coef * mid ** (q - 1.0) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        iters += 1
    return 0.5 * (lo + hi)


def prox_R(s, gamma, nu, q_exponent, out=None):
    """Prox of gamma R at s for R(s) = nu ||s||_q^q, elementwise.

    The dual regularizer acts on the s block only.  Closed forms cover
    nu = 0, q = 1 (soft threshold), q = 2, and q = inf (box projection);
    other exponents bisect the magnitude equation r + gamma q nu r^(q-1) = |t|
    to ``BISECT_TOL``.  The result is written into ``out`` when given (``out``
    may be ``s`` itself), else into a new array.
    """
    _check_prox_params(gamma, nu, q_exponent)
    if math.isinf(q_exponent):
        return project_box(s, out)
    if nu == 0.0:
        return np.positive(s, out=out)
    if q_exponent == 1.0:
        shrunk = np.maximum(np.abs(s) - gamma * nu, 0.0)
    elif q_exponent == 2.0:
        return np.divide(s, 1.0 + 2.0 * gamma * nu, out=out)
    else:
        shrunk = _bisect_magnitudes(np.abs(s), gamma * q_exponent * nu, q_exponent)
    return np.multiply(np.sign(s), shrunk, out=out)


def project_box(s, out=None):
    """Euclidean projection onto the unit box [-1, 1]^k, into ``out`` when given
    (two ufuncs: ``np.clip``'s Python dispatch costs more on short arrays)."""
    out = np.maximum(np.asarray(s, dtype=float), -1.0, out=out)
    return np.minimum(out, 1.0, out=out)
