"""JSON multivector format: round trips, normalization, and input errors."""

import json
from fractions import Fraction

import pytest

from plk import InputError, Multivector
from plk.serialize import dumps, emit_multivector, loads, parse_multivector

from util import rand_mv, seeded


def test_basic_parse():
    m = loads(
        '{"dim": 4, "grade": 2, "dual": false,'
        ' "terms": [{"indices": [1, 2], "coeff": 1},'
        '           {"indices": [3, 4], "coeff": "-2/6"}]}'
    )
    assert m.dim == 4 and m.grade == 2 and not m.dual
    assert m.coeff((1, 2)) == 1
    assert m.coeff((3, 4)) == Fraction(-1, 3)


def test_dual_flag_defaults_false():
    m = loads('{"dim": 3, "grade": 1, "terms": [{"indices": [2], "coeff": "4"}]}')
    assert not m.dual
    d = loads('{"dim": 3, "grade": 1, "dual": true, "terms": [{"indices": [2], "coeff": 4}]}')
    assert d.dual


def test_round_trip_parse_emit():
    rng = seeded(301)
    for _ in range(25):
        n = rng.randint(2, 8)
        s = rng.randint(0, n)
        m = rand_mv(rng, n, s, rational=bool(rng.getrandbits(1)))
        assert parse_multivector(emit_multivector(m)) == m


def test_emit_normalizes():
    m = Multivector.from_terms(4, 2, [((1, 2), Fraction(4, 2)), ((1, 3), Fraction(1, 3))])
    obj = emit_multivector(m)
    assert obj["terms"] == [
        {"indices": [1, 2], "coeff": 2},
        {"indices": [1, 3], "coeff": "1/3"},
    ]
    # terms sorted by index tuple, integers as JSON numbers
    assert json.loads(dumps(m)) == obj


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("not json", "malformed JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"grade": 2, "terms": []}', "missing field 'dim'"),
        ('{"dim": 4, "grade": "2", "terms": []}', "must be an integer"),
        ('{"dim": 4, "grade": 2, "dual": 1, "terms": []}', "'dual' must be a boolean"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [1], "coeff": 1}]}', "expected 2 indices"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [2, 1], "coeff": 1}]}', "strictly increasing"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 5], "coeff": 1}]}', "[1, 4]"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": 1.5}]}', "coeff"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": "1/0"}]}', "1/0"),
        ('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": "x"}]}', "malformed coefficient"),
        (
            '{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": 1},'
            ' {"indices": [1, 2], "coeff": 2}]}',
            "duplicate index set",
        ),
        # a grade above the dim is refused after the dim, grade and term checks
        ('{"dim": 4, "grade": 7, "terms": []}', "field 'grade' (7) exceeds field 'dim' (4)"),
        ('{"dim": 0, "grade": 7}', "dim must be"),
        ('{"dim": 4, "grade": -1}', "grade must be"),
        ('{"dim": 4, "grade": 5, "terms": [{"indices": [1, 2, 3, 4, 5], "coeff": 1}]}', "[1, 4]"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InputError) as exc:
        loads(text)
    assert fragment in str(exc.value)


# A trailing newline, non-ASCII digits, a space and a digit separator are all
# malformed: a coefficient string is ASCII digits and nothing else.
@pytest.mark.parametrize("coeff", ["5\n", "\u0663", "1/\u0663", " 5", "1_000"])
def test_malformed_coefficient_strings(coeff):
    obj = {"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": coeff}]}
    with pytest.raises(InputError, match="malformed coefficient"):
        parse_multivector(obj)


def test_error_names_offending_term():
    with pytest.raises(InputError) as exc:
        loads('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": 1}, {"indices": [1, 9], "coeff": 1}]}')
    assert "term 1" in str(exc.value) and "[1, 9]" in str(exc.value)


def test_zero_multivector_round_trip():
    z = Multivector.zero(5, 3)
    assert parse_multivector(emit_multivector(z)) == z


def test_grade_above_dim_is_not_written():
    # A wedge chain may build such a zero; a file holds none, either way.
    z = Multivector.zero(4, 7)
    for emit in (emit_multivector, dumps):
        with pytest.raises(InputError, match=r"field 'grade' \(7\) exceeds field 'dim' \(4\)"):
            emit(z)
