"""Exact integer linear algebra: the sparse Smith kernel and finite abelian groups.

Matrices are sparse ``{row: {col: value}}`` dicts of Python ints, so all
arithmetic is arbitrary precision.  There is one elimination kernel,
:func:`smith_diagonal_sparse`: it takes unit pivots from a heap ordered by
Markowitz cost and, when no unit is left, pivots on the smallest entry with
Euclid steps in the same sparse loop.  Its nonzero invariant factors, read
as a :class:`FiniteAbelianGroup`, give the torsion of a cokernel.  On a
dual graph its heap work is about O((V + E) log V) steps, but a step costs
what its entries' digits cost, and those grow up to the digits of the
component group.

>>> FiniteAbelianGroup.from_factors(smith_diagonal_sparse({0: {0: 2}, 1: {1: 6}}))
FiniteAbelianGroup(factors=(2, 6))
"""

from __future__ import annotations

import heapq
from math import gcd, prod

from .errors import PreconditionError
from .record import Record


def prime_to_part(n: int, p: int) -> int:
    """Largest divisor of ``n`` coprime to ``p``: every prime of ``p`` is
    stripped, so ``p == 1`` strips nothing and ``p = 4`` acts as ``p = 2``."""
    if n == 0:
        raise PreconditionError("prime_to_part of 0 is undefined")
    n = abs(n)
    while (k := gcd(n, p)) > 1:
        n //= k
    return n


class FiniteAbelianGroup(Record):
    """Finite abelian group in invariant factor form ``Z/d1 x ... x Z/dr``.

    The factors satisfy ``d1 | d2 | ... | dr`` with every ``di >= 2``; the
    trivial group stores an empty tuple.

    >>> FiniteAbelianGroup.from_factors([6, 2]).factors
    (2, 6)
    >>> FiniteAbelianGroup.from_factors([4, 6]).factors   # repaired via gcd/lcm
    (2, 12)
    >>> FiniteAbelianGroup((4, 6))
    Traceback (most recent call last):
        ...
    neroncalc.errors.PreconditionError: invariant factors must form a divisibility chain: [4, 6]
    """

    factors: tuple[int, ...]

    def __init__(self, factors: tuple[int, ...] = ()):
        super().__init__(factors)
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise PreconditionError(
                    "invariant factors must form a divisibility chain: %r" % list(factors)
                )
        if any(d < 2 for d in factors):
            raise PreconditionError("invariant factors must be >= 2")

    @classmethod
    def from_factors(cls, factors) -> "FiniteAbelianGroup":
        """Build from any list of cyclic orders (1s dropped, order fixed)."""
        cleaned = sorted(abs(d) for d in factors if abs(d) != 1)
        if any(d == 0 for d in cleaned):
            raise PreconditionError("0 is not a finite cyclic order")
        # Repair the divisibility chain with pairwise gcd/lcm exchanges.
        again = True
        while again:
            again = False
            for i in range(len(cleaned) - 1):
                a, b = cleaned[i], cleaned[i + 1]
                if b % a:
                    g = gcd(a, b)
                    cleaned[i], cleaned[i + 1] = g, a * b // g
                    again = True
        return cls(tuple(d for d in cleaned if d != 1))

    @property
    def order(self) -> int:
        return prod(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " x ".join("C%d" % d for d in self.factors)


def smith_diagonal_sparse(rows: dict[int, dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix (destroys ``rows``).

    ``rows`` maps a row index to ``{column index: nonzero entry}``; indices
    need not be contiguous.  The result lists the invariant factors in
    divisibility order, one per unit of rank, 1s included.

    Units first: every ``+-1`` entry is a candidate pivot, kept in a heap
    keyed by ``(1, cost)`` with the Markowitz cost ``len(row) * len(column)``.
    Keys go stale as the matrix changes, so a popped entry is checked again:
    one whose absolute value changed is dropped, one whose cost changed is
    pushed back with the new cost.  When no unit is left, the heap is rebuilt
    from every live entry keyed by ``(|v|, cost)``, and from then on every
    entry an elimination step changes is pushed as well.  The pivot is then
    the live entry of smallest absolute value, ties broken by cost.

    A pivot ``v`` takes Euclid steps.  Row operations reduce its column,
    leaving each entry's remainder modulo ``v``; once the column is clear,
    column operations, which touch only the pivot row, reduce its row the
    same way.  If a remainder survives, the attempt fails and the next
    pivot is chosen afresh; it is smaller than every entry that was live,
    so a run of failed attempts is finite.  Otherwise the pivot leaves the
    matrix with its row and column and contributes ``|v|``, and the unit
    entries of every row it touched are pushed.  There is no dense
    reduction.  On the intersection matrix of a dual graph nearly every
    pivot is a unit, so the heap work is about O((V + E) log V) steps.
    The entries grow as the elimination goes, though, up to about the size
    of ``|Phi|``, so a step costs more on graphs with a large component
    group: a 10^4-vertex ladder (two paths joined rung by rung, ``|Phi|``
    of 2,860 digits) takes about 0.3 s.  Around a hub vertex the pivots
    left without units divide their rows and columns, so each leaves at
    its first attempt.  :func:`~neroncalc.invariants.component_group`
    folds the chains of a dual graph before it calls this kernel.

    >>> smith_diagonal_sparse({0: {0: 2, 3: 1}, 2: {0: 4, 3: 2}, 7: {1: 6}})
    [1, 6]
    >>> smith_diagonal_sparse({0: {0: 10, 3: 3}, 1: {3: 35}})
    [1, 350]
    """
    rows = {i: r for i, r in rows.items() if r}
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(1, len(r) * len(cols[j]), i, j)
            for i, r in rows.items() for j, v in r.items() if v in (1, -1)]
    heapq.heapify(heap)
    euclid = False  # set when the units run out: the heap then holds every entry
    diag: list[int] = []  # |pivot| of every pivot that is not a unit
    rank = 0
    while heap or not euclid:
        if not heap:
            euclid = True
            heap = [(abs(v), len(r) * len(cols[j]), i, j)
                    for i, r in rows.items() for j, v in r.items()]
            heapq.heapify(heap)
            continue
        size, cost, pi, pj = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or abs(prow.get(pj, 0)) != size:
            continue
        now = len(prow) * len(cols[pj])
        if now != cost:
            heapq.heappush(heap, (size, now, pi, pj))
            continue
        pivot = prow.pop(pj)
        col = cols.pop(pj)
        col.discard(pi)
        left = {pi}  # rows keeping an entry in column pj
        touched = []
        for i in col:
            row = rows[i]
            q, r = divmod(row.pop(pj), pivot)
            for j, v in prow.items():
                new = row.get(j, 0) - q * v
                if new:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if r:
                row[pj] = r
                left.add(i)
            if row:
                touched.append(i)
            else:
                del rows[i]
        changed = {pj, *prow} if euclid else ()
        for j in prow:
            cols[j].discard(pi)
        if size > 1 and len(left) == 1:
            # The column is clear, so column operations reduce the pivot row
            # modulo the pivot without touching another row.
            prow = {j: r for j, v in prow.items() if (r := v % pivot)}
        if size == 1 or len(left) == 1 and not prow:
            del rows[pi]
            rank += 1
            if size > 1:
                diag.append(size)
        else:  # a remainder survives: the pivot row stays for another attempt
            prow[pj] = pivot
            rows[pi] = prow
            cols[pj] = left
            for j in prow:
                cols[j].add(pi)
            touched.append(pi)
        for i in touched:
            row = rows[i]
            for j, v in row.items():
                if v in (1, -1) or j in changed:
                    heapq.heappush(heap, (abs(v), len(row) * len(cols[j]), i, j))
    factors = FiniteAbelianGroup.from_factors(diag).factors
    return [1] * (rank - len(factors)) + list(factors)
