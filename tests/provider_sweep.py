"""Reduction providers for the tests of the three provider series.

:func:`law_providers` runs over cycles, ``I_n*`` with ``I_2n`` at degree 2,
stars, ``II`` with its reduction curves, an ``e = 3`` base with a loop and
bananas of toric rank 2 and 3, at each residue characteristic ``p`` in
:data:`P_VALUES` (1 stands for characteristic 0).  Most of them have ``p``
prime to ``e``, where the tame degrees are periodic modulo ``e p``.
"""

from fractions import Fraction
from math import gcd

from neroncalc.curves import SncdCurve
from neroncalc.kodaira import good_elliptic, kodaira_curve
from neroncalc.zeta import JumpSet, ReductionProvider

P_VALUES = (1, 2, 3, 5, 7, 11, 13)


def _tame(curves: dict, p: int) -> dict:
    """The curves at the degrees prime to ``p``: a provider takes no other."""
    return {a: c for a, c in curves.items() if gcd(a, p) == 1}


def star(q: int, p: int = 1) -> SncdCurve:
    """The ``y^q`` star: a centre of multiplicity ``q`` meeting ``q`` reduced
    rational arms, with ``e = q`` and genus ``(q - 1)(q - 2)/2``."""
    arms = [("a%d" % i, 1, 0) for i in range(q)]
    return SncdCurve([("c", q, 0)] + arms, [(a, "c") for a, _, _ in arms], p)


def star_provider(q: int, p: int = 1, jumps=None) -> ReductionProvider:
    """The star with its degree-``q`` reduction, one smooth component."""
    top = SncdCurve([("o", 1, (q - 1) * (q - 2) // 2)], [], p)
    return ReductionProvider(star(q, p), _tame({q: top}, p), jumps)


def looped_provider(p: int = 1) -> ReductionProvider:
    """An ``e = 3``, genus-5 base with ``b1 = 1``: two multiplicity-3
    components joined twice, each with a tail 2-1 and a tail 1, and a one-loop
    genus-5 curve at degree 3.  Its residue 2 has ``t = 1`` and ``alpha !=
    gcd(alpha, e)``."""
    base = SncdCurve(
        [("c1", 3, 0), ("c2", 3, 0), ("a1", 2, 0), ("a2", 2, 0),
         ("b1", 1, 0), ("b2", 1, 0), ("t1", 1, 0), ("t2", 1, 0)],
        [("c1", "c2"), ("c1", "c2"), ("c1", "a1"), ("a1", "b1"), ("c1", "t1"),
         ("c2", "a2"), ("a2", "b2"), ("c2", "t2")], p)
    top = SncdCurve([("c", 1, 4), ("v", 1, 0)], [("c", "v"), ("c", "v")], p)
    return ReductionProvider(base, _tame({3: top}, p), JumpSet([(Fraction(1, 3), 1)]))


def kodaira_II_provider(p: int = 1) -> ReductionProvider:
    """``II`` with ``IV``, ``I0*`` and ``I0`` at degrees 2, 3 and 6."""
    curves = {2: kodaira_curve("IV", p), 3: kodaira_curve("I0*", p), 6: good_elliptic(p)}
    return ReductionProvider(
        kodaira_curve("II", p), _tame(curves, p), JumpSet([(Fraction(1, 6), 1)]))


def kodaira_In_star_provider(n: int, p: int = 1) -> ReductionProvider:
    """``I_n*`` with ``I_2n`` at degree 2: a block with ``a = 2`` and ``t = 1``."""
    return ReductionProvider(
        kodaira_curve("I%d*" % n, p), _tame({2: kodaira_curve("I%d" % (2 * n), p)}, p),
        JumpSet([(Fraction(1, 2), 1)]))


def banana(t: int, p: int = 1) -> SncdCurve:
    """Two reduced rational components joined by ``t + 1`` edges: genus and
    toric rank ``t``, ``e = 1``."""
    return SncdCurve([("u", 1, 0), ("v", 1, 0)], [("u", "v")] * (t + 1), p)


def banana_provider(t: int, p: int = 1) -> ReductionProvider:
    """The banana with the jump 0 of multiplicity ``t``: its torus class
    ``(L - 1)^t`` has ``t + 1`` terms."""
    return ReductionProvider(banana(t, p), {}, JumpSet([(Fraction(0), t)]))


def law_providers() -> list[tuple[str, object]]:
    """``(name, make)`` pairs over the families above at every ``p``."""
    out = []
    for p in P_VALUES:
        for n in (1, 4):
            out.append(("I%d_p%d" % (n, p), lambda n=n, p=p: ReductionProvider(
                kodaira_curve("I%d" % n, p), {}, JumpSet([]))))
        for n in (1, 3):
            out.append(("I%dstar_p%d" % (n, p), lambda n=n, p=p: kodaira_In_star_provider(n, p)))
        for q in (3, 5, 7):
            if p == 1 or q % p:
                genus = (q - 1) * (q - 2) // 2
                jumps = JumpSet((Fraction(k, q), 1) for k in range(1, min(q, genus + 1)))
                out.append(("star%d_p%d" % (q, p),
                            lambda q=q, p=p, jumps=jumps: star_provider(q, p, jumps)))
        out.append(("II_p%d" % p, lambda p=p: kodaira_II_provider(p)))
        out.append(("looped_p%d" % p, lambda p=p: looped_provider(p)))
        for t in (2, 3):
            out.append(("banana%d_p%d" % (t, p), lambda t=t, p=p: banana_provider(t, p)))
    return out
