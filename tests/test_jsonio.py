import json
from fractions import Fraction

import pytest

from superspan import field, jsonio
from superspan.orbit import ProjPoint


def test_rational_strings_canonical():
    assert jsonio.encode_rational(Fraction(6, 4)) == "3/2"
    assert jsonio.encode_rational(Fraction(-6, 4)) == "-3/2"
    assert jsonio.encode_rational(Fraction(8, 2)) == "4"
    assert jsonio.decode_rational("3/2") == Fraction(3, 2)
    assert jsonio.decode_rational(5) == Fraction(5)
    assert jsonio.decode_rational("-7") == Fraction(-7)


def test_field_round_trip():
    for desc in (field.rational_field(),
                 field.cyclotomic_field(5),
                 field.number_field([1, 3, Fraction(5, 2), 0, Fraction(5, 2), 3, 1])):
        assert jsonio.decode_field(jsonio.encode_field(desc)) == desc


def test_field_spec_strings():
    assert jsonio.parse_field_spec("rational") == field.rational_field()
    assert jsonio.parse_field_spec("cyclotomic:5") == field.cyclotomic_field(5)
    spec = "numberfield:1,3,5/2,0,5/2,3,1"
    assert jsonio.parse_field_spec(spec).degree == 6
    with pytest.raises(ValueError):
        jsonio.parse_field_spec("padic:7")


def test_point_round_trip():
    P = ProjPoint.rational([1, 2, Fraction(-3, 7)])
    doc = jsonio.encode_point(P)
    assert doc["coords"][2] == ["-3/7"]
    assert jsonio.decode_point(doc) == P

    C5 = field.cyclotomic_field(5)
    Q = ProjPoint(C5, [C5.one(), C5.gen() ** 3])
    assert jsonio.decode_point(jsonio.encode_point(Q)) == Q


def test_point_bare_array():
    P = jsonio.decode_point([1, "2", "-3"])
    assert P == ProjPoint.rational([1, 2, -3])


def test_report_schema():
    from superspan.detect import enumerate_exceptional
    report = enumerate_exceptional(ProjPoint.rational([1, 2, -3]), 2, 2, 3)
    doc = jsonio.encode_report(report)
    assert set(doc) == {"input", "tuples", "subspaces", "diagnostics"}
    assert {"filtered", "confirmed", "skipped"} <= set(doc["diagnostics"])
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
