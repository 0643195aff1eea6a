"""Pure-numpy row reduction kernel over prime fields.

``rref_mod`` takes an int64 matrix and returns the reduced row echelon
form over F_p together with the pivot columns.
"""

import numpy as np

BACKEND_NAME = "numpy"


def rref_mod(m: np.ndarray, p: int):
    """Reduced row echelon form of ``m`` over F_p.

    Returns ``(r, pivots)`` where ``r`` holds only the nonzero rows and
    ``pivots`` is the list of pivot column indices.  ``m`` is consumed.
    """
    m = np.ascontiguousarray(m, dtype=np.int64) % p
    nrows, ncols = m.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        sub = m[r:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        lead = int(m[r, c])
        if lead != 1:
            m[r] = (m[r] * pow(lead, p - 2, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r].copy(), pivots
