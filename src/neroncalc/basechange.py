"""The combinatorial transform realizing tame base change on dual graphs.

For ``d`` prime both to the residue characteristic and to the stabilization
index of the model, base change to the degree-``d`` extension followed by
normalization and minimal resolution acts on the combinatorial data alone:
every vertex keeps its genus, its multiplicity gets divided by
``gcd(N, d)``, and every edge is replaced by the Hirzebruch-Jung chain of
its local data.  The output is *not* contracted; callers wanting the
minimal model apply :func:`~neroncalc.curves.contract_minus_one`.
"""

from __future__ import annotations

from math import gcd

from .curves import _MULTIPLE, SncdCurve, serialize_curve
from .errors import InternalError, PreconditionError
from .hj import LocalPointData, local_point_data
from .invariants import char_poly, component_group, stabilization_index
from .record import Record


class EdgeRecord(Record):
    endpoints: tuple[str, str]
    old_multiplicities: tuple[int, int]
    local: LocalPointData
    inserted: tuple[str, ...]


class BaseChangeTrace(Record):
    input_curve: SncdCurve
    d: int
    vertex_records: tuple[tuple[str, int, int, int], ...]  # id, old N, gcd, new N
    edge_records: tuple[EdgeRecord, ...]

    @property
    def input_digest(self) -> str:
        """SHA-256 of the serialized input curve, made only when asked for."""
        import hashlib

        return hashlib.sha256(serialize_curve(self.input_curve).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "input_sha256": self.input_digest,
            "d": self.d,
            "vertices": [
                {"id": i, "N": n, "gcd": g, "N_new": m}
                for i, n, g, m in self.vertex_records
            ],
            "edges": [
                {
                    "endpoints": list(r.endpoints),
                    "N": list(r.old_multiplicities),
                    "points_above": r.local.num_points,
                    "quotient_order": r.local.d2,
                    "inserted": list(r.inserted),
                }
                for r in self.edge_records
            ],
        }


def _check_preconditions(curve: SncdCurve, d: int) -> None:
    if d < 1:
        raise PreconditionError("degree must be positive")
    if gcd(d, curve.p) != 1:
        raise PreconditionError(
            "gcd(d, p) = %d != 1" % gcd(d, curve.p)
        )
    e = stabilization_index(curve)
    if gcd(d, e) != 1:
        raise PreconditionError(
            "gcd(d, e) = %d != 1 with e = %d" % (gcd(d, e), e)
        )
    index = curve.multiplicity_gcd()
    if index != 1:
        raise PreconditionError(_MULTIPLE % index)


def transform(curve: SncdCurve, d: int) -> tuple[SncdCurve, BaseChangeTrace]:
    """Dual graph of the resolved degree-``d`` base change.

    Vertices keep identity and genus with ``N -> N/gcd(N, d)``; each edge is
    replaced by its Hirzebruch-Jung chain, oriented so that the chain entry
    adjacent to the second endpoint carries ``mu_1``.
    """
    _check_preconditions(curve, d)
    new_vertices = []  # (id, N, g) triples
    vrecords = []
    for vid, n, g in zip(curve.ids, curve.N, curve.g):
        k = gcd(n, d)
        new_vertices.append((vid, n // k, g))
        vrecords.append((vid, n, k, n // k))
    new_edges: list[tuple[str, str]] = []
    erecords = []
    for idx, (a, b) in enumerate(curve.edges):
        na, nb = curve.multiplicity(a), curve.multiplicity(b)
        local = local_point_data(na, nb, d)  # gcd(d, p) = 1 was checked above
        if local.num_points != 1:
            raise InternalError(
                "edge (%s, %s) splits into %d points under d=%d"
                % (a, b, local.num_points, d)
            )
        if local.chain is None:
            new_edges.append((a, b))
            erecords.append(EdgeRecord((a, b), (na, nb), local, ()))
            continue
        interior = local.chain.mu[1:-1]
        ids = ["%s|%s|%d|%d" % (a, b, idx, k + 1) for k in range(len(interior))]
        for vid, mult in zip(ids, interior):
            new_vertices.append((vid, mult, 0))
        # chain ends: mu[0] sits on b's side, mu[-1] on a's side
        path = [b] + ids + [a]
        for u, w in zip(path, path[1:]):
            new_edges.append((u, w))
        erecords.append(EdgeRecord((a, b), (na, nb), local, tuple(ids)))
    out = SncdCurve(new_vertices, new_edges, curve.p)
    return out, BaseChangeTrace(curve, d, tuple(vrecords), tuple(erecords))


class BaseChangeLaws(Record):
    """The three base change laws at degree ``d``, read from one transform.

    ``|Phi|`` grows by ``d^{b1}``, the stabilization index becomes
    ``e / gcd(e, d)``, and the characteristic polynomial of the output is
    the input's under the root-power map ``z -> z^d``.
    """

    d: int
    phi_before: int
    phi_after: int
    factor: int
    index_predicted: int
    index_measured: int
    charpoly_commutes: bool

    def to_dict(self) -> dict:
        return {
            "component_growth": {
                "before": self.phi_before,
                "after": self.phi_after,
                "factor": self.factor,
                "pass": self.phi_after == self.factor * self.phi_before,
            },
            "index_division": {
                "predicted": self.index_predicted,
                "measured": self.index_measured,
                "pass": self.index_predicted == self.index_measured,
            },
            "charpoly_commutation": {"pass": self.charpoly_commutes},
        }

    @property
    def ok(self) -> bool:
        return all(law["pass"] for law in self.to_dict().values())


def base_change_laws(curve: SncdCurve, d: int) -> BaseChangeLaws:
    """Run :func:`transform` once and read the three laws off its output;
    raises :class:`PreconditionError` where the transform does."""
    before = component_group(curve).order
    out, _ = transform(curve, d)
    e = stabilization_index(curve)
    return BaseChangeLaws(
        d=d,
        phi_before=before,
        phi_after=component_group(out).order,
        factor=d ** curve.b1(),
        index_predicted=e // gcd(e, d),
        index_measured=stabilization_index(out),
        charpoly_commutes=char_poly(out) == char_poly(curve).power_d(d),
    )
