"""Linear algebra oracles used only by the tests.

``smith_quotient`` computes ``ker(A)/im(B)`` through an explicit kernel
basis (column-tracking Smith reduction) and an exact rational solve, a
route independent of the library's elimination kernel.
"""

from fractions import Fraction

from neroncalc.errors import DimensionMismatch
from neroncalc.linalg import FiniteAbelianGroup, smith_diagonal


def _row_sub(row_i, row_t, q):
    for j, v in enumerate(row_t):
        if v:
            row_i[j] -= q * v


def _snf_with_column_basis(A: list[list[int]]):
    """Reduce ``A`` with row and column operations, tracking column ops.

    Returns ``(rank, C)`` where ``C`` is the unimodular matrix of accumulated
    column operations; the last ``n - rank`` columns of ``C`` are a basis of
    the saturated kernel lattice of ``A``.
    """
    M = [list(r) for r in A]
    m = len(M)
    n = len(M[0]) if m else 0
    C = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_swap(a, b):
        if a == b:
            return
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in C:
            row[a], row[b] = row[b], row[a]

    def col_sub(a, b, q):
        # column a -= q * column b
        for row in M:
            row[a] -= q * row[b]
        for row in C:
            row[a] -= q * row[b]

    t = 0
    while t < m and t < n:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        col_swap(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    if q:
                        _row_sub(M[i], M[t], q)
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        dirty = True
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    if q:
                        col_sub(j, t, q)
                    if M[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1
    return t, C


def kernel_basis(A: list[list[int]]) -> list[list[int]]:
    """Columns spanning the saturated kernel lattice of ``A`` in ``Z^n``.

    >>> kernel_basis([[1, 1]])
    [[-1], [1]]
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rank, C = _snf_with_column_basis(A)
    return [[C[i][j] for j in range(rank, n)] for i in range(n)]


def _solve_integer(K: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Solve ``K X = B`` exactly; ``K`` has full column rank.

    Raises :class:`DimensionMismatch` if no rational solution exists and
    ``ValueError`` if the solution is not integral.
    """
    n = len(K)
    k = len(K[0]) if n else 0
    b = len(B[0]) if B and B[0] is not None else 0
    aug = [[Fraction(K[i][j]) for j in range(k)] + [Fraction(B[i][j]) for j in range(b)]
           for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r != k:
        raise DimensionMismatch("kernel basis is rank deficient")
    for i in range(r, n):
        if any(aug[i][k:]):
            raise DimensionMismatch("columns do not lie in the kernel lattice")
    X = [[None] * b for _ in range(k)]
    for row, c in enumerate(pivots):
        for j in range(b):
            v = aug[row][k + j]
            if v.denominator != 1:
                raise ValueError("non-integral coordinates in kernel basis")
            X[c][j] = int(v)
    return X


def smith_quotient(A: list[list[int]], B: list[list[int]]):
    """Invariant factors and free rank of ``ker(A)/im(B)``.

    ``A`` is an ``a x n`` map out of ``Z^n`` (an empty or all-zero ``A``
    means the full lattice ``Z^n``) and ``B`` an ``n x b`` map into ``Z^n``
    whose image must lie in ``ker(A)``.

    >>> smith_quotient([], [[2, 0], [0, 6]])
    (FiniteAbelianGroup(factors=(2, 6)), 0)
    >>> smith_quotient([[1, 1, 1]], [[-2, 1], [1, -2], [1, 1]])
    (FiniteAbelianGroup(factors=(3,)), 0)
    """
    if not B or not B[0]:
        raise DimensionMismatch("B must have at least one column; pad with zeros")
    n = len(B)
    if A and any(len(row) != n for row in A):
        raise DimensionMismatch("A has %d columns, B has %d rows" % (len(A[0]), n))
    # A o B must vanish.
    for row in A:
        for j in range(len(B[0])):
            if sum(row[i] * B[i][j] for i in range(n)):
                raise DimensionMismatch("image of B is not contained in ker(A)")
    if A and any(any(row) for row in A):
        K = kernel_basis(A)
        k = len(K[0]) if K else 0
        if k == 0:
            return FiniteAbelianGroup(), 0
        X = _solve_integer(K, B)
    else:
        k = n
        X = B
    diag = smith_diagonal(X)
    torsion = FiniteAbelianGroup.from_factors(d for d in diag if d > 1)
    return torsion, k - len(diag)
