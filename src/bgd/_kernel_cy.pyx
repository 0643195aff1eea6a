# cython: boundscheck=False, wraparound=False, cdivision=True
"""Cython row reduction kernel over prime fields.

Hot path for the balanced-tensor quotient computations: dense exact
Gaussian elimination on int64 matrices mod a small prime.
"""

import numpy as np
cimport numpy as cnp  # noqa: E999

BACKEND_NAME = "cython"


def rref_mod(object mat, long p):
    """Reduced row echelon form of ``mat`` over F_p.

    Returns ``(r, pivots)`` with only the nonzero rows kept; ``mat`` is
    consumed.  Entries must already lie in ``[0, p)``.
    """
    cdef cnp.ndarray[cnp.int64_t, ndim=2, mode="c"] m = \
        np.ascontiguousarray(mat, dtype=np.int64) % p
    cdef long nrows = m.shape[0]
    cdef long ncols = m.shape[1]
    cdef long r = 0, c, i, j, piv, lead, f, tmp
    cdef list pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(c, ncols):
                tmp = m[r, j]
                m[r, j] = m[piv, j]
                m[piv, j] = tmp
        lead = m[r, c]
        if lead != 1:
            f = pow(lead, p - 2, p)
            for j in range(c, ncols):
                m[r, j] = (m[r, j] * f) % p
        for i in range(nrows):
            if i == r:
                continue
            f = m[i, c]
            if f == 0:
                continue
            for j in range(c, ncols):
                tmp = (m[i, j] - f * m[r, j]) % p
                if tmp < 0:
                    tmp += p
                m[i, j] = tmp
        pivots.append(c)
        r += 1
    return np.asarray(m[:r]).copy(), pivots
