"""Proximal maps for the dual regularizer and the box projection.

The regularizer R acts on the s block, and its exponent q is the conjugate
of the instance's p, read from ``inst.q_exponent``.  At p = 2 (q = 2) it is
the penalty R(s) = nu ||s||_2^2, whose prox is the rescaling
s / (1 + 2 gamma nu).  At p = 1 (q = inf) it is the hard constraint
||s||_inf <= 1, whose prox is the box projection; the box is proved there,
and no evaluation re-tests a point it made.  ``ProblemInstance`` admits no
other p, so no other q reaches these maps.
"""

import numpy as np


def prox_R(s, gamma, nu, inst, out=None):
    """Prox of gamma R at s, elementwise, for the instance's q: the box
    projection at q = inf, the rescaling s / (1 + 2 gamma nu) of
    R(s) = nu ||s||_2^2 at q = 2.  The result is written into ``out`` when
    given (``out`` may be ``s`` itself), else into a new array.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    if inst.q_exponent == 2.0:
        return np.divide(s, 1.0 + 2.0 * gamma * nu, out=out)
    return project_box(s, out)


def project_box(s, out=None):
    """Euclidean projection onto the unit box [-1, 1]^k, into ``out`` when given
    (two ufuncs: ``np.clip``'s Python dispatch costs more on short arrays)."""
    out = np.maximum(np.asarray(s, dtype=float), -1.0, out=out)
    return np.minimum(out, 1.0, out=out)
