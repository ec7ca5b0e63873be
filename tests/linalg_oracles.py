"""Dense linear algebra used only by the tests.

Two helpers hand dense data to the library:

- :func:`smith_diagonal` adapts a dense matrix to the library's sparse
  elimination kernel;
- :func:`intersection_matrix` writes out a curve's intersection matrix,
  solving each diagonal entry from the fiber relation on its own.

:func:`smith_quotient` computes ``ker(A)/im(B)`` through an explicit kernel
basis and an exact rational solve, and reads the invariant factors off its
own column-tracking reduction.  It calls no library kernel, so it is an
independent check of :func:`~neroncalc.invariants.component_group`.
"""

from fractions import Fraction

from neroncalc.linalg import FiniteAbelianGroup, smith_diagonal_sparse


class DimensionMismatch(Exception):
    """Matrix shapes are incompatible."""


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense matrix, by the library's kernel.

    >>> smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    [2, 6, 12]
    """
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged matrix")
    return smith_diagonal_sparse(
        {i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(rows)}
    )


def intersection_matrix(curve) -> list[list[int]]:
    """Dense intersection matrix of ``curve`` in vertex order.

    Off the diagonal it counts edges; each diagonal entry is solved from the
    fiber relation ``N_v E_v^2 + sum_w N_w (E_v . E_w) = 0``.
    """
    pos = {vid: i for i, (vid, _, _) in enumerate(curve.vertices)}
    M = [[0] * len(pos) for _ in pos]
    for a, b in curve.edges:
        M[pos[a]][pos[b]] += 1
        M[pos[b]][pos[a]] += 1
    for i, (vid, n, _) in enumerate(curve.vertices):
        incident = sum(m * k for (_, m, _), k in zip(curve.vertices, M[i]))
        self_int, r = divmod(-incident, n)
        if r:
            raise ValueError("N=%d of %r does not divide %d" % (n, vid, incident))
        M[i][i] = self_int
    return M


def _row_sub(row_i, row_t, q):
    for j, v in enumerate(row_t):
        if v:
            row_i[j] -= q * v


def _snf_with_column_basis(A: list[list[int]]):
    """Reduce ``A`` to diagonal form with row and column operations,
    tracking the column operations.

    Returns ``(diag, C)``: ``diag`` holds the absolute values of the
    ``rank`` nonzero diagonal entries, which need not form a divisibility
    chain but give the same group, and ``C`` is the unimodular matrix of
    accumulated column operations; its last ``n - rank`` columns are a
    basis of the saturated kernel lattice of ``A``.
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
        # Reduce the pivot's column and row; a surviving remainder is smaller
        # than the pivot, so the step restarts from the smallest entry.
        for i in range(t + 1, m):
            q = M[i][t] // M[t][t]
            if q:
                _row_sub(M[i], M[t], q)
        for j in range(t + 1, n):
            q = M[t][j] // M[t][t]
            if q:
                col_sub(j, t, q)
        if not any(M[i][t] for i in range(t + 1, m)) and not any(M[t][t + 1:]):
            t += 1
    return [abs(M[i][i]) for i in range(t)], C


def kernel_basis(A: list[list[int]]) -> list[list[int]]:
    """Columns spanning the saturated kernel lattice of ``A`` in ``Z^n``.

    >>> kernel_basis([[1, 1]])
    [[-1], [1]]
    """
    m = len(A)
    n = len(A[0]) if m else 0
    diag, C = _snf_with_column_basis(A)
    rank = len(diag)
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
    diag, _ = _snf_with_column_basis(X)
    return FiniteAbelianGroup.from_factors(diag), k - len(diag)
