"""Normal crossings dual graphs of the Kodaira fiber types, plus two
genus-2 degenerations used throughout the test suite.

Types whose minimal model is not normal crossings (I1, II, III, IV) are
given in blown-up form, which is why e.g. type II appears as a star with
central multiplicity 6.
"""

from __future__ import annotations

from .curves import SncdCurve, Vertex
from .errors import PreconditionError


def good_elliptic(p: int = 1) -> SncdCurve:
    """Smooth genus-1 fiber (type I0)."""
    return SncdCurve([Vertex("o", 1, 1)], [], p)


def kodaira_In(n: int, p: int = 1) -> SncdCurve:
    """Cycle of ``n`` rational curves of multiplicity 1 (``n >= 2``).

    ``n = 0`` is :func:`good_elliptic`; ``n = 1`` is returned in blown-up
    form (the nodal cubic is not normal crossings).
    """
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n == 0:
        return good_elliptic(p)
    if n == 1:
        return SncdCurve(
            [Vertex("c", 1, 0), Vertex("e", 2, 0)],
            [("c", "e"), ("c", "e")],
            p,
        )
    vs = [Vertex("v%d" % i, 1, 0) for i in range(n)]
    es = [("v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)]
    return SncdCurve(vs, es, p)


def kodaira_Instar(n: int, p: int = 1) -> SncdCurve:
    """Chain of ``n + 1`` double components with two reduced tails at each end."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n == 0:
        vs = [Vertex("c", 2, 0)] + [Vertex("l%d" % i, 1, 0) for i in range(4)]
        return SncdCurve(vs, [("c", "l%d" % i) for i in range(4)], p)
    vs = [Vertex("c%d" % i, 2, 0) for i in range(n + 1)]
    vs += [Vertex(l, 1, 0) for l in ("l1", "l2", "l3", "l4")]
    es = [("c%d" % i, "c%d" % (i + 1)) for i in range(n)]
    es += [("c0", "l1"), ("c0", "l2"), ("c%d" % n, "l3"), ("c%d" % n, "l4")]
    return SncdCurve(vs, es, p)


def _star(center: tuple[int, str], arms: list[list[int]], p: int) -> SncdCurve:
    n, cid = center
    vs = [Vertex(cid, n, 0)]
    es = []
    for i, arm in enumerate(arms):
        prev = cid
        for j, mult in enumerate(arm):
            vid = "a%d_%d" % (i, j)
            vs.append(Vertex(vid, mult, 0))
            es.append((prev, vid))
            prev = vid
    return SncdCurve(vs, es, p)


_STARS = {
    "II": ((6, "c"), [[3], [2], [1]]),
    "III": ((4, "c"), [[1], [1], [2]]),
    "IV": ((3, "c"), [[1], [1], [1]]),
    "IV*": ((3, "c"), [[2, 1], [2, 1], [2, 1]]),
    "III*": ((4, "c"), [[3, 2, 1], [3, 2, 1], [2]]),
    "II*": ((6, "c"), [[5, 4, 3, 2, 1], [4, 2], [3]]),
}


def kodaira_curve(name: str, p: int = 1) -> SncdCurve:
    """Fixture by Kodaira symbol: ``I0``..``In``, ``II``, ``I2*``, ``IV*``, ...

    >>> kodaira_curve("I0*").multiplicity("c")
    2
    """
    name = name.strip()
    if name in _STARS:
        center, arms = _STARS[name]
        return _star(center, arms, p)
    if name.startswith("I") and name.endswith("*") and name[1:-1].isdigit():
        return kodaira_Instar(int(name[1:-1]), p)
    if name.startswith("I") and name[1:].isdigit():
        return kodaira_In(int(name[1:]), p)
    raise PreconditionError("unknown Kodaira symbol %r" % name)


def genus2_additive(p: int = 1) -> SncdCurve:
    """Genus-2 tree with two multiplicity-6 centers sharing a reduced bridge.

    Additive: the graph is a tree and every component is rational.
    """
    vs = [
        Vertex("c1", 6, 0), Vertex("a1", 3, 0), Vertex("b1", 2, 0),
        Vertex("c2", 6, 0), Vertex("a2", 3, 0), Vertex("b2", 2, 0),
        Vertex("m", 1, 0),
    ]
    es = [("c1", "a1"), ("c1", "b1"), ("c1", "m"),
          ("c2", "a2"), ("c2", "b2"), ("c2", "m")]
    return SncdCurve(vs, es, p)


def genus2_semistable(p: int = 1) -> SncdCurve:
    """Two genus-1 components of multiplicity one crossing in a point."""
    return SncdCurve([Vertex("u", 1, 1), Vertex("v", 1, 1)], [("u", "v")], p)


#: Names shipped in the on-disk fixture library.
FIXTURE_NAMES = (
    ["I0", "I1"]
    + ["I%d" % n for n in range(2, 7)]
    + ["II", "III", "IV", "I0*"]
    + ["I%d*" % n for n in range(1, 5)]
    + ["IV*", "III*", "II*"]
)


def fixture_curve(name: str, p: int = 1) -> SncdCurve:
    """Any shipped fixture, Kodaira or genus-2, by name."""
    if name == "g2_additive":
        return genus2_additive(p)
    if name == "g2_semistable":
        return genus2_semistable(p)
    return kodaira_curve(name, p)


ALL_FIXTURES = tuple(FIXTURE_NAMES) + ("g2_additive", "g2_semistable")
