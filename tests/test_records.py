"""The :class:`~neroncalc.record.Record` contract, checked against frozen
dataclass twins built from each record class's fields.

Every record class must behave like ``@dataclass(frozen=True)`` with the
same fields: the same repr and hash, equality only within its own class,
and no attribute can be set or deleted.  Instances come from real outputs.
"""

import dataclasses
import inspect
import os

import pytest

import neroncalc
from neroncalc.basechange import base_change_laws, transform
from neroncalc.conductors import (
    EllipticData,
    KodairaType,
    RamificationFiltration,
    filtration_base_change,
    wild_defect,
)
from neroncalc.cyclo import CycloProduct
from neroncalc.curves import geometry, load_curve, validate
from neroncalc.invariants import invariant_report, trace_identities
from neroncalc.kodaira import kodaira_curve
from neroncalc.record import Record
from neroncalc.zeta import load_provider

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

RECORDS = {
    "BaseChangeLaws", "BaseChangeTrace", "CurveGeometry", "CycloProduct",
    "EdgeRecord", "EllipticData", "FiniteAbelianGroup", "HJChain",
    "InvariantReport", "JumpSet", "KodairaType", "LocalPointData",
    "RamificationFiltration", "SncdCurve", "TraceReport", "ValidationReport",
    "Vertex", "WildDefectReport",
}
# The classes that check or normalize their input in their own ``__init__``;
# every other record is built by ``Record.__init__`` alone.
CHECKING = {
    "CycloProduct", "EllipticData", "FiniteAbelianGroup", "HJChain", "JumpSet",
    "KodairaType", "RamificationFiltration", "SncdCurve",
}


def fields(cls) -> tuple[str, ...]:
    return tuple(vars(cls)["__annotations__"])


def twin_of(cls):
    """A frozen dataclass with ``cls``'s name and fields, built on demand."""
    return dataclasses.make_dataclass(cls.__name__, fields(cls), frozen=True)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a dict field makes both unhashable
        return type(exc)


def sample_records() -> list[Record]:
    """Record instances of every class, taken from real outputs."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        if name.startswith("provider"):
            out.append(load_provider(path).jumps)
            continue
        curve = load_curve(path)
        report = invariant_report(curve)
        out += [curve, *curve.vertices, validate(curve), report, report.phi,
                report.char_poly, report.zeta]
    for symbol in ("II", "I5"):
        curve = kodaira_curve(symbol)
        geo = geometry(curve)
        _, trace = transform(curve, 5)
        out += [geo, trace_identities(curve), trace, base_change_laws(curve, 5)]
        for edge in trace.edge_records:
            out += [edge, edge.local] + ([edge.local.chain] if edge.local.chain else [])
    for data in (EllipticData(KodairaType.parse("II"), 6, "good", p=2),
                 EllipticData(KodairaType.parse("I3*"), 9, "multiplicative", delta_wild=1,
                              p=2)):
        out += [data, data.kodaira, wild_defect(data)]
    filt = RamificationFiltration((8, 4, 4, 2), (3, 2, 2, 1))
    out += [filt, filtration_base_change(filt, 3)]
    return out


SAMPLES = sample_records()


def test_record_classes_are_exactly_the_known_ones():
    assert {cls.__name__ for cls in Record.__subclasses__()} == RECORDS
    assert {type(r).__name__ for r in SAMPLES} == RECORDS  # every class sampled


def required(cls) -> tuple[str, ...]:
    """The fields a call must give: all, unless the class's own
    ``__init__`` gives some a default."""
    if "__init__" not in vars(cls):
        return fields(cls)
    params = inspect.signature(cls).parameters
    return tuple(f for f in fields(cls) if params[f].default is inspect.Parameter.empty)


CLASSES = pytest.mark.parametrize(
    "cls", sorted(Record.__subclasses__(), key=lambda c: c.__name__), ids=lambda c: c.__name__)


@CLASSES
def test_record_matches_its_dataclass_twin(cls):
    twin = twin_of(cls)
    samples = [r for r in SAMPLES if type(r) is cls]
    assert samples
    for rec in samples:
        values = [getattr(rec, f) for f in fields(cls)]
        other = twin(*values)
        if cls is not CycloProduct:  # it keeps its own repr
            assert repr(rec) == repr(other)
        assert hash_or_error(rec) == hash_or_error(other)
        same = cls(**dict(zip(fields(cls), values)))
        assert same is not rec and same == rec and not same != rec
        assert rec != other and other != rec
        assert rec.__eq__(other) is NotImplemented
        for name in fields(cls) + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert [getattr(rec, f) for f in fields(cls)] == values


def test_records_compare_unequal_across_classes():
    a = neroncalc.FiniteAbelianGroup((2,))
    assert a != CycloProduct({2: 1}) and a != twin_of(type(a))((2,))
    assert neroncalc.ValidationReport("I", 2) != KodairaType("I", 2)  # equal field tuples
    assert len({neroncalc.Vertex("a", 1, 0), neroncalc.Vertex("a", 1, 0)}) == 1


def test_only_the_checking_classes_write_an_init():
    assert {cls.__name__ for cls in Record.__subclasses__()
            if "__init__" in vars(cls)} == CHECKING


@CLASSES
def test_record_builds_from_positions_and_keywords(cls):
    """Any split of the fields into positions and keywords, the keywords in
    any order, builds an equal record whose attributes begin with the
    fields in field order."""
    for rec in (r for r in SAMPLES if type(r) is cls):
        values = [getattr(rec, f) for f in fields(cls)]
        assert list(vars(rec))[:len(values)] == list(fields(cls))
        for k in range(len(values) + 1):
            keywords = dict(reversed(list(zip(fields(cls)[k:], values[k:]))))
            same = cls(*values[:k], **keywords)
            assert same == rec and list(vars(same))[:len(values)] == list(fields(cls))


@CLASSES
def test_record_refuses_a_field_not_given_exactly_once(cls):
    rec = next(r for r in SAMPLES if type(r) is cls)
    named = {f: getattr(rec, f) for f in fields(cls)}
    values = list(named.values())
    calls = [
        ((*values, values[0]), {}),                     # one positional too many
        (values, {"extra": 1}),                         # unknown keyword
        (values, {fields(cls)[0]: values[0]}),          # given both ways
        (values[:1], named),                            # ... the rest by keyword
    ]
    calls += [((), {g: v for g, v in named.items() if g != f}) for f in required(cls)]
    for args, kwargs in calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        if cls.__name__ not in CHECKING:
            assert str(info.value).startswith(cls.__name__ + "() takes each of ")


def test_record_type_error_names_fields_and_arguments():
    with pytest.raises(TypeError) as info:
        neroncalc.Vertex("a", 1, N=1)
    assert str(info.value) == ("Vertex() takes each of ('id', 'N', 'g') once; "
                               "got 2 positional, keywords ('N',)")
