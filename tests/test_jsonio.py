import json

import numpy as np
import pytest

from bgd.bialgebroid import check_left_bialgebroid
from bgd.cli import main
from bgd.fixtures import FIXTURES
from bgd.jsonio import (
    SpecError,
    dumps_canonical,
    export_spec,
    load_spec,
    parse_spec,
)
from bgd.linalg import Field

SMALL = ["base-trivial", "primitive-f2", "group-f3", "monoid-non-hopf",
         "rank1-dual-numbers", "abelian-n"]


@pytest.mark.parametrize("name", SMALL)
def test_export_parse_round_trip(name):
    b = FIXTURES[name]()
    c = parse_spec(export_spec(b))
    f = b.field
    assert c.A.dim == b.A.dim and c.U.dim == b.U.dim
    assert f.equal(c.U.mul, b.U.mul)
    assert f.equal(c.A.mul, b.A.mul)
    assert f.equal(c.s_map, b.s_map)
    assert f.equal(c.t_map, b.t_map)
    assert f.equal(c.delta, b.delta)
    assert f.equal(c.counit, b.counit)
    assert c.U.labels == b.U.labels
    assert check_left_bialgebroid(c).ok


def test_canonical_dump_is_deterministic():
    b1 = FIXTURES["group-f3"]()
    b2 = FIXTURES["group-f3"]()
    s1 = dumps_canonical(export_spec(b1))
    s2 = dumps_canonical(export_spec(b2))
    assert s1 == s2
    assert s1.endswith("\n")
    # keys come out sorted, so reserializing the parsed document is stable
    doc = json.loads(s1)
    assert dumps_canonical(doc) == s1


def test_scalars_are_strings():
    doc = export_spec(FIXTURES["group-f3"]())
    assert all(isinstance(x, str) for x in doc["algebras"]["U"]["unit"])
    assert all(isinstance(row[0], str) for row in doc["bialgebroid"]["s"])
    for i, j, k, c in doc["algebras"]["A"]["mul"]:
        assert isinstance(c, str)


def _doc():
    return export_spec(FIXTURES["primitive-f2"]())


def _expect_error(doc, where):
    with pytest.raises(SpecError) as exc:
        parse_spec(doc)
    assert exc.value.where == where
    assert where in str(exc.value)


def test_missing_field_key():
    doc = _doc()
    del doc["field"]
    _expect_error(doc, "document")


def test_unknown_field_kind():
    doc = _doc()
    doc["field"]["kind"] = "galois"
    _expect_error(doc, "field.kind")


def test_bad_characteristic():
    doc = _doc()
    doc["field"]["p"] = "two"
    _expect_error(doc, "field.p")


def test_bad_dimension():
    doc = _doc()
    doc["algebras"]["A"]["dim"] = 0
    _expect_error(doc, "algebras.A.dim")


def test_bad_scalar_in_unit():
    doc = _doc()
    doc["algebras"]["U"]["unit"][0] = "1/x"
    _expect_error(doc, "algebras.U.unit[0]")


def test_first_bad_scalar_in_row_major_order():
    # a string already parsed is not parsed again, and a bad one raises at
    # its first place in row-major order, before later rows are checked
    doc = _doc()
    rows = doc["bialgebroid"]["delta"]
    rows[1][0] = rows[2][0] = "1/x"
    rows[1][1] = "2/x"
    rows[3] = rows[3][:-1]
    _expect_error(doc, "bialgebroid.delta[1][0]")


def test_mul_index_out_of_range():
    doc = _doc()
    doc["algebras"]["U"]["mul"][0][0] = 99
    _expect_error(doc, "algebras.U.mul[0]")


def test_wrong_matrix_shape():
    doc = _doc()
    doc["bialgebroid"]["s"] = doc["bialgebroid"]["s"][:-1]
    _expect_error(doc, "bialgebroid.s")


def test_wrong_row_length():
    doc = _doc()
    doc["bialgebroid"]["counit"][0] = doc["bialgebroid"]["counit"][0][:-1]
    _expect_error(doc, "bialgebroid.counit[0]")


def test_wrong_label_count():
    doc = _doc()
    doc["algebras"]["A"]["labels"].append("extra")
    _expect_error(doc, "algebras.A.labels")


def test_unknown_algebra_name():
    doc = _doc()
    doc["bialgebroid"]["total"] = "V"
    _expect_error(doc, "bialgebroid")


def test_load_missing_file(tmp_path):
    with pytest.raises(SpecError) as exc:
        load_spec(str(tmp_path / "nope.json"))
    assert exc.value.where == "document"


def test_load_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpecError) as exc:
        load_spec(str(p))
    assert "malformed JSON" in str(exc.value)


def test_load_non_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    _expect_error_load(p)


def _expect_error_load(p):
    with pytest.raises(SpecError) as exc:
        load_spec(str(p))
    assert exc.value.where == "document"


def test_load_round_trip_file(tmp_path):
    b = FIXTURES["rank1-dual-numbers"]()
    p = tmp_path / "env.json"
    p.write_text(dumps_canonical(export_spec(b)))
    c = load_spec(str(p))
    assert b.field.equal(c.delta, b.delta)
    assert c.name == b.name


def test_rational_field_round_trip():
    from fractions import Fraction

    from bgd.algebra import AlgebraPresentation
    from bgd.bialgebroid import LeftBialgebroid
    from bgd.linalg import Field

    f = Field.rationals()
    a = AlgebraPresentation.from_triples(f, 1, [(0, 0, 0, 1)], [1], ["1"])
    eye = f.eye(1)
    half = np.array([[Fraction(1, 2)]], dtype=object)
    b = LeftBialgebroid(a, a, eye, eye, eye, eye, name="point")
    doc = export_spec(b)
    assert doc["field"] == {"kind": "rationals"}
    c = parse_spec(doc)
    assert f.equal(c.U.mul, b.U.mul)
    doc["bialgebroid"]["counit"] = [["1/2"]]
    c2 = parse_spec(doc)
    assert c2.counit[0, 0] == Fraction(1, 2)


@pytest.mark.parametrize("text, want", [
    ("2", 2), ("-1", 4), ("7", 2), ("1.5", 4), ("3/2", 4), ("-0.5", 2), ("1.0", 1),
    ("1e1", 0), ("-4/6", 1)])
def test_scalar_parse_over_f5(text, want):
    # a decimal is the fraction it denotes: "1.5" is 3/2, not 1
    assert Field.prime(5).parse(text) == want


@pytest.mark.parametrize("text", ["0.2", "1/5", "0.4"])
def test_scalar_with_p_in_denominator_fails_over_f5(text):
    with pytest.raises(ZeroDivisionError):
        Field.prime(5).parse(text)


def test_decimal_scalar_in_spec():
    doc = _doc()  # over F_2
    doc["algebras"]["U"]["unit"][0] = "3.0"
    assert parse_spec(doc).U.unit[0] == 1
    # 0.5 = 1/2 has no value in F_2; it used to parse as 0
    doc["algebras"]["U"]["unit"][0] = "0.5"
    _expect_error(doc, "algebras.U.unit[0]")


@pytest.mark.parametrize("path, value, where", [
    (("algebras", "U", "mul", 1, 1), True, "algebras.U.mul[1]"),
    (("algebras", "A", "dim"), True, "algebras.A.dim"),
    (("field", "p"), True, "field.p"),
    (("algebras", "U", "labels", 0), True, "algebras.U.labels"),
    (("name",), True, "name"),
    (("bialgebroid", "base"), [], "bialgebroid"),
    (("algebras",), [1], "algebras"),
    (("algebras", "U", "mul"), 5, "algebras.U.mul"),
    (("field",), 5, "field"),
    (("algebras",), {"U": 3}, "algebras.U"),
    (("bialgebroid",), 7, "bialgebroid"),
])
def test_json_type_mismatch_is_usage_error(path, value, where, tmp_path, capsys):
    # JSON true is a Python bool, an int subclass: e_0 e_true and a base of
    # dimension true used to load as e_0 e_1 and dimension 1; a label or
    # name true crashed the first report that printed it, a list as an
    # algebra name crashed the lookup, and a list or number where an object
    # or a list belongs escaped as AttributeError or TypeError
    doc = _doc()  # primitive-f2: U.mul[1] is [0, 1, 1, "1"], A.dim is 1
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    _expect_error(doc, where)
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 2
    assert where in capsys.readouterr().err
