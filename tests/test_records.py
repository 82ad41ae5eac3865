"""The record classes' contract: construction, equality, hashing, immutability,
repr and validation of the seven result and value records."""

import copy
import pickle
from fractions import Fraction

import pytest

from plk import (
    CriterionReport,
    DecomposableFamily,
    InputError,
    Multivector,
    SupportSpace,
    TwoColumnShape,
    Witness,
    support_space,
    verify_square_decomposition,
)
from plk.young import DimensionIdentity, SquareDecompositionReport

E12 = Multivector.basis(4, (1, 2))
E13 = Multivector.basis(4, (1, 3))
E1 = Multivector.basis(4, (1,))
E2 = Multivector.basis(4, (2,))

# each record's fields, in constructor order
FIELDS = {
    Witness: ("equation", "component", "value", "text"),
    CriterionReport: (
        "criterion", "verdict", "equations_checked", "witness", "probabilistic", "seed"
    ),
    TwoColumnShape: ("first_col", "second_col"),
    DimensionIdentity: ("name", "lhs", "rhs"),
    SquareDecompositionReport: ("n", "s", "dims", "identities"),
    SupportSpace: ("dim", "basis"),
    DecomposableFamily: ("members",),
}

WITNESS = Witness((1, 2), (3,), Fraction(-1, 2), "eq")
FAILED = CriterionReport("classical", False, 3, WITNESS, True, 7)
PASSED = CriterionReport("classical", True, 10)
SHAPE = TwoColumnShape(3, 1)
IDENTITY = DimensionIdentity("x", 1, 2)
SQUARE = SquareDecompositionReport(2, 1, ((TwoColumnShape(1, 1), 3),), (IDENTITY,))
SPACE = SupportSpace(4, (E1, E2))
FAMILY = DecomposableFamily([E12, E13])

# (record, the same fields passed by keyword, a record differing in one field)
CASES = [
    (
        WITNESS,
        dict(equation=(1, 2), component=(3,), value=Fraction(-1, 2), text="eq"),
        Witness((1, 2), (3,), Fraction(1, 2), "eq"),
    ),
    (
        FAILED,
        dict(
            criterion="classical",
            verdict=False,
            equations_checked=3,
            witness=WITNESS,
            probabilistic=True,
            seed=7,
        ),
        CriterionReport("classical", False, 3, WITNESS, True, 8),
    ),
    (
        PASSED,
        dict(criterion="classical", verdict=True, equations_checked=10),
        CriterionReport("classical", True, 11),
    ),
    (SHAPE, dict(first_col=3, second_col=1), TwoColumnShape(3, 0)),
    (IDENTITY, dict(name="x", lhs=1, rhs=2), DimensionIdentity("x", 1, 1)),
    (
        SQUARE,
        dict(n=2, s=1, dims=((TwoColumnShape(1, 1), 3),), identities=(IDENTITY,)),
        SquareDecompositionReport(3, 1, ((TwoColumnShape(1, 1), 3),), (IDENTITY,)),
    ),
    (SPACE, dict(dim=4, basis=(E1, E2)), SupportSpace(4, (E1,))),
    (FAMILY, dict(members=(E12, E13)), DecomposableFamily([E12])),
]
IDS = [type(r).__name__ + ("" if r is not PASSED else "-defaults") for r, _, _ in CASES]


@pytest.mark.parametrize("record, fields, other", CASES, ids=IDS)
def test_keyword_construction_equals_positional(record, fields, other):
    assert tuple(fields) == FIELDS[type(record)][: len(fields)]
    twin = type(record)(**fields)
    assert twin == record and not twin != record
    assert twin is not record
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("record, fields, other", CASES, ids=IDS)
def test_one_differing_field_is_unequal(record, fields, other):
    assert record != other and not record == other
    assert record != tuple(fields.values())
    assert record != None  # noqa: E711


@pytest.mark.parametrize("record, fields, other", CASES, ids=IDS)
def test_assignment_and_deletion_raise(record, fields, other):
    name = next(iter(fields))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before


@pytest.mark.parametrize("record, fields, other", CASES, ids=IDS)
def test_copies_and_pickles_equal_the_original(record, fields, other):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert (PASSED.witness, PASSED.probabilistic, PASSED.seed) == (None, False, None)
    assert CriterionReport("oracle", True, 4) == CriterionReport("oracle", True, 4, None, False, None)


def test_equal_fields_of_another_class_are_unequal():
    # SupportSpace does not validate its basis, so its fields can match a shape's
    assert SupportSpace(3, 1) != TwoColumnShape(3, 1)
    assert TwoColumnShape(3, 1) != SupportSpace(3, 1)

    class Shape(TwoColumnShape):
        pass

    assert Shape(3, 1) != SHAPE and SHAPE != Shape(3, 1)


def test_hash_is_the_field_tuple_hash():
    for record in (WITNESS, FAILED, PASSED, SHAPE, IDENTITY, SQUARE, SupportSpace(3, ())):
        fields = tuple(getattr(record, name) for name in FIELDS[type(record)])
        assert hash(record) == hash(fields)
    assert hash(TwoColumnShape(3, 1)) == hash(SHAPE)
    assert len({SHAPE, TwoColumnShape(3, 1), TwoColumnShape(3, 0)}) == 2


def test_records_holding_multivectors_are_unhashable():
    # Multivector is unhashable (a mutable dict inside)
    with pytest.raises(TypeError):
        hash(FAMILY)
    with pytest.raises(TypeError):
        hash(SPACE)


def test_repr_is_the_dataclass_form():
    assert repr(WITNESS) == (
        "Witness(equation=(1, 2), component=(3,), value=Fraction(-1, 2), text='eq')"
    )
    assert repr(FAILED) == (
        "CriterionReport(criterion='classical', verdict=False, equations_checked=3, "
        "witness=Witness(equation=(1, 2), component=(3,), value=Fraction(-1, 2), "
        "text='eq'), probabilistic=True, seed=7)"
    )
    assert repr(PASSED) == (
        "CriterionReport(criterion='classical', verdict=True, equations_checked=10, "
        "witness=None, probabilistic=False, seed=None)"
    )
    assert repr(SHAPE) == "TwoColumnShape(first_col=3, second_col=1)"
    assert repr(IDENTITY) == "DimensionIdentity(name='x', lhs=1, rhs=2)"
    assert repr(SQUARE) == (
        "SquareDecompositionReport(n=2, s=1, dims=((TwoColumnShape(first_col=1, "
        "second_col=1), 3),), identities=(DimensionIdentity(name='x', lhs=1, rhs=2),))"
    )
    assert repr(verify_square_decomposition(3, 1)).startswith(
        "SquareDecompositionReport(n=3, s=1, dims=((TwoColumnShape(first_col=1, second_col=1), 6), "
    )
    assert repr(SPACE) == (
        "SupportSpace(dim=4, basis=(<e_{1} (vector, dim=4, grade=1)>, "
        "<e_{2} (vector, dim=4, grade=1)>))"
    )
    assert repr(support_space(E12)) == repr(SPACE)
    assert repr(FAMILY) == (
        "DecomposableFamily(members=(<e_{1,2} (vector, dim=4, grade=2)>, "
        "<e_{1,3} (vector, dim=4, grade=2)>))"
    )


def test_str_and_properties_survive():
    assert str(WITNESS) == "eq"
    assert str(SHAPE) == "Y[3,1]"
    assert not IDENTITY.ok and DimensionIdentity("y", 2, 2).ok
    assert not SQUARE.passed and verify_square_decomposition(4, 2).passed
    assert SPACE.rank == 2 and [v.terms for v in SPACE.basis] == [{1: 1}, {2: 1}]
    assert (FAMILY.dim, FAMILY.grade) == (4, 2)


def test_report_verdict_must_match_its_witness():
    with pytest.raises(ValueError, match="witness must be present"):
        CriterionReport("classical", True, 3, WITNESS)
    with pytest.raises(ValueError, match="witness must be present"):
        CriterionReport("classical", False, 3)
    with pytest.raises(ValueError, match="witness must be present"):
        CriterionReport(criterion="classical", verdict=False, equations_checked=3, witness=None)


@pytest.mark.parametrize("heights", [(1, 2), (2, -1), (-1, -1), (2.0, 1), (2, True), ("2", 1)])
def test_shape_heights_are_validated(heights):
    with pytest.raises(InputError, match="column heights"):
        TwoColumnShape(*heights)


def test_family_is_validated_and_stored_as_a_tuple():
    with pytest.raises(InputError, match="nonempty"):
        DecomposableFamily([])
    with pytest.raises(InputError, match="nonempty"):
        DecomposableFamily(())
    with pytest.raises(InputError, match="is zero"):
        DecomposableFamily([Multivector(4, 2)])
    with pytest.raises(InputError, match="sum of members 0 and 1"):
        DecomposableFamily([E12, Multivector.basis(4, (3, 4))])
    members = [E12, E13]
    family = DecomposableFamily(members)
    assert type(family.members) is tuple and family.members == (E12, E13)
    members.append(E12)
    assert len(family.members) == 2
    assert DecomposableFamily(members=iter([E12])).members == (E12,)
