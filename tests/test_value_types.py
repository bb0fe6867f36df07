"""The value-type contract every frozen type in the package keeps: equality and
hashing by fields within one class, frozen fields, the Name(field=value, ...)
repr, keyword construction, and pickle/copy round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from slopecalc import (
    AnalysisReport,
    BoundaryCurve,
    BoundaryData,
    BranchCurve,
    BranchedSurface,
    GcsFamily,
    KEvidence,
    MulticurveCoordinates,
    SectorRecord,
    SeifertTriple,
    Slope,
    VerticalAnnulus,
)

TRIPLE = SeifertTriple(invariants=(Slope(1, 3), Slope(1, 6), Slope(-1, 2)))
TRIPLE_REPR = "SeifertTriple(invariants=(Slope(1, 3), Slope(1, 6), Slope(-1, 2)))"

# (type, constructor keywords in field order, a field and a value that changes it, repr)
CASES = [
    (Slope, dict(numerator=1, denominator=2), ("numerator", 3), "Slope(1, 2)"),
    (BoundaryData, dict(k1=1, k2=2, k3=3), ("k3", 4), "BoundaryData(k1=1, k2=2, k3=3)"),
    (
        MulticurveCoordinates,
        dict(n12=1, n13=1, n23=0, b1=0, b2=1, b3=1),
        ("b3", 2),
        "MulticurveCoordinates(n12=1, n13=1, n23=0, b1=0, b2=1, b3=1)",
    ),
    (
        SeifertTriple,
        dict(invariants=TRIPLE.invariants),
        ("invariants", (Slope(1, 3), Slope(1, 5), Slope(-1, 2))),
        TRIPLE_REPR,
    ),
    (
        GcsFamily,
        dict(base=TRIPLE, duals=(Slope(1, 2), Slope(1, 5)), r1=1, r2=0, step=Fraction(1, 3)),
        ("step", Fraction(1, 6)),
        f"GcsFamily(base={TRIPLE_REPR}, duals=(Slope(1, 2), Slope(1, 5)), r1=1, r2=0, "
        "step=Fraction(1, 3))",
    ),
    (
        KEvidence,
        dict(k=Fraction(0), k1=1, k2=0, s_k=Slope(-2, 5), determinant=1, edge=True, coprime=True),
        ("coprime", False),
        "KEvidence(k=Fraction(0, 1), k1=1, k2=0, s_k=Slope(-2, 5), determinant=1, edge=True, "
        "coprime=True)",
    ),
    (
        AnalysisReport,
        dict(
            triple=TRIPLE, normalized=TRIPLE, euler=Fraction(0), torus_bundle=True,
            limit=Slope(-1, 2), family=None, rows=(), verdict="v", note=None,
        ),
        ("note", "n"),
        f"AnalysisReport(triple={TRIPLE_REPR}, normalized={TRIPLE_REPR}, "
        "euler=Fraction(0, 1), torus_bundle=True, limit=Slope(-1, 2), family=None, rows=(), "
        "verdict='v', note=None)",
    ),
    (
        SectorRecord,
        dict(id="A", cusped_euler=-1, boundary=True),
        ("boundary", False),
        "SectorRecord(id='A', cusped_euler=-1, boundary=True)",
    ),
    (
        BranchCurve,
        dict(out1="A", out2="B", inward="C"),
        ("inward", "A"),
        "BranchCurve(out1='A', out2='B', inward='C')",
    ),
    (
        BoundaryCurve,
        dict(sector="A", role="in"),
        ("role", "out1"),
        "BoundaryCurve(sector='A', role='in')",
    ),
    (
        VerticalAnnulus,
        dict(id="V", degree=0, boundary_classes=("essential", "essential")),
        ("degree", 1),
        "VerticalAnnulus(id='V', degree=0, boundary_classes=('essential', 'essential'))",
    ),
    (
        BranchedSurface,
        dict(
            sectors=(SectorRecord("A"),), branch_curves=(BranchCurve("A", "A", "A"),),
            boundary_curves=(), vertical_annuli=(),
        ),
        ("branch_curves", ()),
        "BranchedSurface(sectors=(SectorRecord(id='A', cusped_euler=0, boundary=False),), "
        "branch_curves=(BranchCurve(out1='A', out2='A', inward='A'),), boundary_curves=(), "
        "vertical_annuli=())",
    ),
]

contract = pytest.mark.parametrize(
    "cls, fields, change, text", CASES, ids=[case[0].__name__ for case in CASES]
)


@contract
def test_equal_fields_give_equal_values_and_hashes(cls, fields, change, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    name, value = change
    assert cls(**{**fields, name: value}) != by_keyword


@contract
def test_never_equal_to_another_class_with_the_same_fields(cls, fields, change, text):
    twin = type(cls.__name__, (cls,), {})
    value = cls(**fields)
    assert twin(**fields) != value
    assert value != twin(**fields)
    assert value != tuple(fields.values())


@contract
def test_fields_are_frozen(cls, fields, change, text):
    value = cls(**fields)
    name, new = change
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@contract
def test_repr_names_every_field(cls, fields, change, text):
    assert repr(cls(**fields)) == text


@contract
def test_pickle_and_copy_round_trip(cls, fields, change, text):
    value = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value
        assert hash(twin) == hash(value)
