"""Exact determinants over the integers.

Fraction-free (Bareiss) elimination keeps all intermediate entries
integral, so determinants of integer matrices come out exact with no
rounding and no coefficient blowup beyond what minors force.  The basis
solves in basisconv do not use it: they check their transition matrices
unitriangular and substitute.  It stays as an independent
unimodularity oracle for those matrices.
"""


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    h = len(m)
    if h == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(h - 1):
        if m[k][k] == 0:
            for r in range(k + 1, h):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, h):
            for j in range(k + 1, h):
                # exact division is guaranteed by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[h - 1][h - 1]
