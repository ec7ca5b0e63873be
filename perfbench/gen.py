"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments: curve documents are
built as plain dicts and serialized with a fixed key order, without calling
into neroncalc, so the program under test only ever receives the generated
documents.  Randomness comes from ``random.Random`` seeded with a string,
which is stable across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

KODAIRA_SEEDS = ("II", "III", "IV", "I0star", "IVstar", "IIIstar", "IIstar",
                 "I1star", "I2star", "g2_additive", "g2_semistable")


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def dump(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(", ", ": "))


def curve_doc(vertices, edges, p: int = 1) -> dict:
    """``vertices`` are ``(id, N, g)`` triples, ``edges`` id pairs."""
    return {
        "p": p,
        "vertices": [{"id": i, "N": n, "g": g} for i, n, g in vertices],
        "edges": [[a, b] for a, b in edges],
    }


def cycle_doc(n: int, p: int = 1) -> dict:
    """The Kodaira cycle ``I_n``: ``n`` reduced rational curves in a ring."""
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)] + [(ids[0], ids[-1])]
    return curve_doc([(i, 1, 0) for i in ids], edges, p)


def transformed_cycle_doc(base: dict, d: int) -> dict:
    """Degree-``d`` tame transform of a reduced cycle, labelled as the
    transform labels it: every edge ``(a, b)`` (sorted) becomes the path
    ``b - a|b|idx|1 - ... - a|b|idx|d-1 - a`` of reduced rational curves."""
    if any(v["N"] != 1 for v in base["vertices"]):
        raise ValueError("only reduced cycles have this closed form")
    vertices = [(v["id"], 1, v["g"]) for v in base["vertices"]]
    edges = []
    for idx, (a, b) in enumerate(base["edges"]):
        a, b = min(a, b), max(a, b)
        ids = ["%s|%s|%d|%d" % (a, b, idx, k + 1) for k in range(d - 1)]
        vertices += [(i, 1, 0) for i in ids]
        path = [b] + ids + [a]
        edges += list(zip(path, path[1:]))
    return curve_doc(vertices, edges, base["p"])


def blowup_closure(base: dict, target: int, subseed, cap: int) -> dict:
    """Blow ``base`` up at seeded points until it has ``target`` vertices.

    A blow-up of the intersection point of ``a`` and ``b`` inserts a vertex
    of multiplicity ``N_a + N_b``; a blow-up of a smooth point of ``v`` hangs
    a vertex of multiplicity ``N_v`` off it.  Intersection blow-ups are only
    taken while the new multiplicity stays at most ``cap``.  Genus, component
    group and characteristic polynomial are unchanged by construction.
    """
    rng = rng_for("blowup", subseed)
    verts = [(v["id"], v["N"], v["g"]) for v in base["vertices"]]
    mult = {i: n for i, n, _ in verts}
    edges = [tuple(e) for e in base["edges"]]
    k = 0
    while len(verts) < target:
        nid = "x%d" % k
        k += 1
        if edges and rng.random() < 0.5:
            pos = rng.randrange(len(edges))
            a, b = edges[pos]
            n = mult[a] + mult[b]
            if n <= cap:
                edges[pos] = (a, nid)
                edges.append((nid, b))
                verts.append((nid, n, 0))
                mult[nid] = n
                continue
        v = verts[rng.randrange(len(verts))][0]
        edges.append((v, nid))
        verts.append((nid, mult[v], 0))
        mult[nid] = mult[v]
    return curve_doc(verts, edges, base["p"])


def star_doc(q: int) -> dict:
    """The ``y^q`` star: a centre of multiplicity ``q`` meeting ``q`` reduced
    rational arms.  Genus ``(q-1)(q-2)/2``, ``e = q``, ``Phi = (Z/q)^(q-2)``."""
    arms = ["a%02d" % i for i in range(q)]
    return curve_doc([("c", q, 0)] + [(a, 1, 0) for a in arms],
                     [(a, "c") for a in arms])


def star_genus(q: int) -> int:
    return (q - 1) * (q - 2) // 2


def star_top_doc(q: int) -> dict:
    """Degree-``q`` reduction of the star: one smooth component."""
    return curve_doc([("o", 1, star_genus(q))], [])


def star_jumps(q: int, subseed) -> list[tuple[Fraction, int]]:
    """Seeded jump multiset on ``{1/q, ..., (q-1)/q}`` of total multiplicity
    at most the genus."""
    rng = rng_for("jumps", q, subseed)
    total = rng.randint(star_genus(q) // 2, star_genus(q))
    counts: dict[int, int] = {}
    for _ in range(total):
        k = rng.randrange(1, q)
        counts[k] = counts.get(k, 0) + 1
    return [(Fraction(k, q), m) for k, m in sorted(counts.items())]


def provider_doc(base: str, curves: dict, jumps, p: int = 1) -> dict:
    doc = {"p": p, "base": base, "curves": {str(a): f for a, f in curves.items()}}
    if jumps is not None:
        doc["jumps"] = [{"j": str(j), "m": m} for j, m in jumps]
    return doc


def small_curve(fixtures: dict, subseed) -> tuple[str, dict]:
    """A seeded curve of at most 12 vertices and multiplicities at most 12,
    blown up from a fixture that has room for it."""
    rng = rng_for("small", subseed)
    names = sorted(n for n, doc in fixtures.items()
                   if len(doc["vertices"]) <= 10
                   and max(v["N"] for v in doc["vertices"]) <= 6)
    name = names[rng.randrange(len(names))]
    base = fixtures[name]
    target = rng.randint(len(base["vertices"]) + 1, 12)
    return name, blowup_closure(base, target, ("small", subseed), cap=12)


def factored_product(subseed, pool) -> dict[int, int]:
    """Seeded exponents ``{a: e_a}`` of ``prod (t^a - 1)^e_a`` with four
    bases drawn from ``pool`` and ``sum e_a = 0``, so the value at ``t = 1``
    is finite and nonzero."""
    rng = rng_for("product", subseed)
    out: dict[int, int] = {}
    for _ in range(4):
        a = rng.choice(pool)
        out[a] = out.get(a, 0) + rng.choice((1, 2, -1, -2))
    out = {a: e for a, e in out.items() if e}
    out[1] = out.get(1, 0) - sum(out.values())
    return {a: e for a, e in sorted(out.items()) if e}


def polynomial_product(subseed, pool) -> dict[int, int]:
    """Seeded ``prod (t^a - 1)^e_a`` with three bases drawn from ``pool``
    and positive exponents."""
    rng = rng_for("polyproduct", subseed)
    out: dict[int, int] = {}
    for _ in range(3):
        a = rng.choice(pool)
        out[a] = out.get(a, 0) + rng.randint(1, 2)
    return dict(sorted(out.items()))


def tame_degrees(e: int, lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, hi + 1) if gcd(d, e) == 1]


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(2, lo), hi + 1)
            if all(n % k for k in range(2, int(n ** 0.5) + 1))]
