import json
import time

import pytest
from test_algebra import triangular_envelope
from test_lib_golden import _corrupt

from bgd.cli import main
from bgd.fixtures import FIXTURES
from bgd.hopf import alpha_left, alpha_right, is_right_hopf, translate_right_mat
from bgd.jsonio import dumps_canonical, export_spec, parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_preset_passes(capsys):
    code, out, _ = run(capsys, "check", "--preset", "group-f3")
    assert code == 0
    assert "pass" in out


def test_check_spec_file(tmp_path, capsys):
    p = tmp_path / "b.json"
    p.write_text(dumps_canonical(export_spec(FIXTURES["primitive-f2"]())))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0


def test_maschke_failure_exit_code(capsys):
    code, out, _ = run(capsys, "maschke", "--preset", "primitive-f2")
    assert code == 1
    assert "FAIL" in out


def test_maschke_success(capsys):
    code, out, _ = run(capsys, "maschke", "--preset", "group-f3")
    assert code == 0


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--preset", "no-such-preset")
    assert code == 2
    assert "unknown preset" in err


def test_missing_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2


def test_unreadable_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "malformed" in err


def test_bad_element_is_usage_error(capsys):
    code, _, err = run(capsys, "translate", "--preset", "group-f3",
                       "--element", "1,2,3")
    assert code == 2
    assert "--element" in err


def test_example_round_trips(capsys):
    code, out, _ = run(capsys, "example", "--preset", "abelian-n")
    assert code == 0
    doc = json.loads(out)
    b = parse_spec(doc)
    assert b.U.dim == FIXTURES["abelian-n"]().U.dim


def test_example_is_deterministic(capsys):
    _, out1, _ = run(capsys, "example", "--preset", "crossed")
    _, out2, _ = run(capsys, "example", "--preset", "crossed")
    assert out1 == out2


def test_json_format_document(capsys):
    code, out, _ = run(capsys, "integrals", "--preset", "group-f3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "integrals"
    assert doc["data"]["side"] == "left"
    assert doc["data"]["dimension"] == 1
    assert any(i["check_id"] == "integrals.free-rank-one" and
               i["status"] == "pass" for i in doc["items"])
    # canonical serialization: reserializing yields the same bytes
    assert dumps_canonical(doc) == out


def test_integrals_right_side(capsys):
    code, out, _ = run(capsys, "integrals", "--preset", "group-f3",
                       "--side", "right", "--format", "json")
    assert code == 0
    assert json.loads(out)["data"]["side"] == "right"


def test_translate_with_element(capsys):
    b = FIXTURES["rank1-dual-numbers"]()
    gen = b._cache["lr_gens"][0]
    coords = ",".join(b.field.format(x) for x in gen)
    code, out, _ = run(capsys, "translate", "--preset", "rank1-dual-numbers",
                       "--element", coords, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["left_translation"]
    assert doc["data"]["right_translation"]


def test_translate_skips_on_non_hopf(capsys):
    code, out, _ = run(capsys, "translate", "--preset", "monoid-non-hopf",
                       "--format", "json")
    assert code == 0  # skipped checks are not failures
    doc = json.loads(out)
    assert all(i["status"] == "skipped" for i in doc["items"])


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--preset", "primitive-f2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["dimension"] == FIXTURES["primitive-f2"]().U.dim
    assert any(i["check_id"] == "dual.pairing-maps-inverse" and
               i["status"] == "pass" for i in doc["items"])


def test_fundamental_command(capsys):
    code, _, _ = run(capsys, "fundamental", "--preset", "base-trivial")
    assert code == 0


def test_fundamental_on_non_hopf_is_not_usage_error(capsys):
    # a valid spec whose comodule Hopf-Galois map is not bijective
    code, out, _ = run(capsys, "fundamental", "--preset", "monoid-non-hopf",
                       "--format", "json")
    assert code != 2
    items = {i["check_id"]: i for i in json.loads(out)["items"]}
    assert items["fundamental.mixed-roundtrip"]["status"] == "skipped"


def test_translate_coop_spec_file(tmp_path, capsys):
    # the co-opposite is Hopf on both sides; its tch4 once failed
    p = tmp_path / "coop.json"
    b = FIXTURES["rank1-dual-numbers"]().coop()
    p.write_text(dumps_canonical(export_spec(b)))
    code, out, _ = run(capsys, "translate", str(p))
    assert code == 0, out


def _statuses(out):
    return {i["check_id"]: i["status"] for i in json.loads(out)["items"]}


def test_translate_skips_noncommuting_middle_leg(tmp_path, capsys):
    # valid and Hopf on both sides, but the sch5/tch5 triple quotient does
    # not exist over this noncommutative base
    p = tmp_path / "env.json"
    p.write_text(dumps_canonical(export_spec(triangular_envelope())))
    code, out, _ = run(capsys, "translate", str(p), "--format", "json")
    assert code in (0, 1)
    items = _statuses(out)
    assert items["sch5"] == items["tch5"] == "skipped"


def test_check_skips_missing_triple_quotient(tmp_path, capsys):
    # with t corrupted, the two actions on the middle leg of U (x)_A U (x)_A U
    # do not commute: coassociativity is a skip, not an escaped DescentError
    p = tmp_path / "crossed-bad-t.json"
    p.write_text(dumps_canonical(export_spec(_corrupt("crossed", "t", 6))))
    code, out, _ = run(capsys, "check", str(p), "--format", "json")
    assert code == 1
    assert _statuses(out)["coproduct.coassociative"] == "skipped"


@pytest.mark.parametrize("side", ["left", "right"])
def test_dual_without_dual_basis_is_a_skip(tmp_path, capsys, side):
    # with s corrupted, U is not finitely generated projective over s(A); the
    # co-opposite's U^* is the same dual, over t(A)
    b = _corrupt("trunc-2-2", "s", 9)
    p = tmp_path / "bad-s.json"
    p.write_text(dumps_canonical(export_spec(b if side == "left" else b.coop())))
    code, out, _ = run(capsys, "dual", str(p), "--side", side, "--format", "json")
    assert code == 0
    over = "s(A)" if side == "left" else "t(A)"
    assert json.loads(out)["items"] == [{
        "check_id": "dual.coproduct", "status": "skipped",
        "witness": f"U is not finitely generated projective over {over}"}]


def _flipped_spec():
    """A spec whose coproduct breaks the Takeuchi property, so that neither
    alpha_l nor alpha_r descends to the balanced tensors."""
    doc = export_spec(FIXTURES["rank1-dual-numbers"]())
    delta = doc["bialgebroid"]["delta"]
    delta[1][1] = "1" if delta[1][1] == "0" else "0"
    return doc


def test_translate_skips_ill_defined_alpha(tmp_path, capsys):
    p = tmp_path / "flipped.json"
    p.write_text(dumps_canonical(_flipped_spec()))
    assert run(capsys, "check", str(p))[0] == 1
    code, out, _ = run(capsys, "translate", str(p), "--format", "json")
    assert code in (0, 1)
    items = _statuses(out)
    assert items["translate.left"] == items["translate.right"] == "skipped"


def test_right_hopf_errors_name_alpha_r(tmp_path, capsys):
    # alpha_r is computed as alpha_l of the co-opposite; its errors name
    # alpha_r of the subject, not alpha_l of U_coop
    doc = _flipped_spec()
    b = parse_spec(doc)
    for right in (alpha_right, is_right_hopf, translate_right_mat):
        with pytest.raises(ValueError, match=r"^alpha_r of U\(dual-numbers-p2\) is not"):
            right(b)
    with pytest.raises(ValueError, match=r"^alpha_l of U\(dual-numbers-p2\) is not"):
        alpha_left(b)
    p = tmp_path / "flipped.json"
    p.write_text(dumps_canonical(doc))
    code, _, err = run(capsys, "maschke", str(p))
    assert code == 2
    assert "alpha_r of U(dual-numbers-p2) is not well defined" in err
    assert "_coop" not in err


def test_frobenius_disagrees_on_non_hopf(capsys):
    code, out, _ = run(capsys, "frobenius", "--preset", "monoid-non-hopf",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    by_id = {i["check_id"]: i["status"] for i in doc["items"]}
    assert by_id["frobenius.system-verified"] == "pass"
    assert by_id["frobenius.conditions-agree"] == "fail"


def test_quasi_frobenius_command(capsys):
    code, _, _ = run(capsys, "quasi-frobenius", "--preset", "group-f3")
    assert code == 0


def test_frobenius_on_enveloping(capsys):
    code, out, _ = run(capsys, "frobenius", "--preset", "rank1-dual-numbers",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["frobenius"] is True
    assert doc["data"]["t0"]


def test_huge_prime_in_spec_is_usage_error_at_once(tmp_path, capsys):
    # trial division of 2^61 - 1 once hung the parser
    doc = export_spec(FIXTURES["primitive-f2"]())
    doc["field"]["p"] = 2**61 - 1
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "field.p" in err
    assert time.perf_counter() - start < 1.0


def test_decimal_element_is_the_fraction_it_denotes(capsys):
    # over F_3, 0.5 = 1/2 = 2
    runs = [run(capsys, "translate", "--preset", "group-f3", "--element", e,
                "--format", "json") for e in ("0.5,0", "2,0")]
    assert runs[0][0] == 0 and runs[0] == runs[1]


def test_decimal_with_p_in_denominator_is_usage_error(tmp_path, capsys):
    # over F_2, 0.5 = 1/2 has no value; it used to be read as 0
    code, _, err = run(capsys, "translate", "--preset", "primitive-f2",
                       "--element", "0.5,1")
    assert code == 2 and "--element" in err
    doc = export_spec(FIXTURES["primitive-f2"]())
    doc["bialgebroid"]["counit"][0][0] = "0.5"
    p = tmp_path / "half.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "bialgebroid.counit[0][0]" in err
