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

from .curves import _MULTIPLE, SncdCurve, _fiber_pass, _shown_number, serialize_curve
from .errors import InternalError, PreconditionError
from .hj import LocalPointData, local_point_data
from .invariants import char_poly, component_group, stabilization_index
from .record import Record


class EdgeRecord(Record):
    local: LocalPointData
    inserted: tuple[str, ...]


class BaseChangeTrace(Record):
    """One :class:`EdgeRecord` per edge of ``input_curve``, in its edge order."""

    input_curve: SncdCurve
    d: int
    edge_records: tuple[EdgeRecord, ...]

    @property
    def input_digest(self) -> str:
        """SHA-256 of the serialized input curve, made only when asked for."""
        import hashlib

        return hashlib.sha256(serialize_curve(self.input_curve).encode()).hexdigest()

    def to_dict(self) -> dict:
        curve, d = self.input_curve, self.d
        return {
            "input_sha256": self.input_digest,
            "d": d,
            "vertices": [
                {"id": i, "N": n, "gcd": gcd(n, d), "N_new": n // gcd(n, d)}
                for i, n in zip(curve.ids, curve.N)
            ],
            "edges": [
                {
                    "endpoints": list(edge),
                    "N": [r.local.m1, r.local.m2],
                    "points_above": r.local.num_points,
                    "quotient_order": r.local.d2,
                    "inserted": list(r.inserted),
                }
                for edge, r in zip(curve.edges, self.edge_records)
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
            "gcd(d, e) = %s != 1 with e = %s" % (_shown_number(gcd(d, e)), _shown_number(e))
        )
    index = _fiber_pass(curve).index
    if index != 1:
        raise PreconditionError(_MULTIPLE % _shown_number(index))


def transform(curve: SncdCurve, d: int) -> tuple[SncdCurve, BaseChangeTrace]:
    """Dual graph of the resolved degree-``d`` base change.

    Vertices keep identity and genus with ``N -> N/gcd(N, d)``; each edge is
    replaced by its Hirzebruch-Jung chain, oriented so that the chain entry
    adjacent to the second endpoint carries ``mu_1``.
    """
    _check_preconditions(curve, d)
    new_vertices = [(vid, n // gcd(n, d), g) for vid, n, g in curve.vertices]
    new_edges: list[tuple[str, str]] = []
    erecords = []
    for idx, (a, b) in enumerate(curve.edges):
        # gcd(d, p) = 1 was checked above
        local = local_point_data(curve.multiplicity(a), curve.multiplicity(b), d)
        if local.num_points != 1:
            raise InternalError(
                "edge (%s, %s) splits into %d points under d=%d"
                % (a, b, local.num_points, d)
            )
        interior = local.chain.mu[1:-1] if local.chain else ()
        ids = ["%s|%s|%d|%d" % (a, b, idx, k + 1) for k in range(len(interior))]
        new_vertices += [(vid, mult, 0) for vid, mult in zip(ids, interior)]
        # mu[0] sits on b's side, mu[-1] on a's side; a chainless (b, a) is stored as (a, b)
        path = [b] + ids + [a]
        new_edges += zip(path, path[1:])
        erecords.append(EdgeRecord(local, tuple(ids)))
    out = SncdCurve(new_vertices, new_edges, curve.p)
    return out, BaseChangeTrace(curve, d, tuple(erecords))


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
        factor=d ** _fiber_pass(curve).b1,
        index_predicted=e // gcd(e, d),
        index_measured=stabilization_index(out),
        charpoly_commutes=char_poly(out) == char_poly(curve).power_d(d),
    )
