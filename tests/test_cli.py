"""End-to-end checks of the JSON command line surface."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fuchskit.cli
import fuchskit.cyclic
from fuchskit.algebra import ExactMatrix, Polynomial
from fuchskit.cli import build_parser, main
from fuchskit.connection import LogConnection
from fuchskit.frobenius import annihilator_from_solutions
from fuchskit.operator import MAX_DIGITS, MAX_NESTING, POWER_BITS, as_polynomial
from fuchskit.sampling import random_operator, second_order_with_exponents

APPARENT_OP = json.dumps(annihilator_from_solutions([[1], [0, 0, 1]]).to_json())
TWO_POINT = json.dumps(second_order_with_exponents(
    (0, 1), (Fraction(1, 2), Fraction(1, 3))).to_json())
NEGATIVE_POLE = json.dumps(second_order_with_exponents(
    (0, Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 3))).to_json())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def check_exit_contract(argv):
    """main in-process: exit 0 or 1 with a fuchskit/1 document, or exit 2
    (usage), and never an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        doc = json.loads(out.getvalue())
        assert doc["schema"] == "fuchskit/1"
        assert ("error" in doc) == (code == 1)


TWO_POINT_FAMILY = json.dumps({"operators": [json.loads(TWO_POINT)] * 2})
# a member with a coefficient of 5000 digits, past the text form's bound
DIGITS_FAMILY = json.dumps({"operators": [{"order": 1, "real_points": ["0"],
                                            "coeffs": [["9" * (MAX_DIGITS + 700)]]}]})


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestExitCodes:
    def test_dimensions_ok(self, capsys):
        code, doc = invoke(capsys, "dimensions", "--m", "2", "--n", "2")
        assert code == 0
        assert doc["e"] == 0 and doc["c"] == 0
        assert doc["schema"] == "fuchskit/1"

    def test_dimensions_too_few_points(self, capsys):
        code, doc = invoke(capsys, "dimensions", "--m", "2", "--n", "1")
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
        assert "two finite" in doc["error"]["message"]

    def test_unknown_subcommand(self, capsys):
        assert main(["frobulate"]) == 2

    def test_retired_subcommand_is_a_usage_error(self, capsys):
        # hodge-params printed a weight formula that the paper does not state
        assert main(["hodge-params", "--m", "2", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_unknown_flag_rejected(self, capsys):
        assert main(["dimensions", "--m", "2", "--n", "2", "--wat"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["apparent", "--input", APPARENT_OP]) == 2

    def test_missing_input_file(self, capsys):
        assert main(["validate", "--input", "/no/such/file.json"]) == 2

    def test_invalid_inline_json(self, capsys):
        assert main(["validate", "--input", "{broken"]) == 2

    @pytest.mark.parametrize("argv", [
        ["dimensions", "--m", "3", "--n", "3"],
        ["apparent", "--input", APPARENT_OP, "--point", "0"],
        ["exponents", "--input", APPARENT_OP],
    ])
    @pytest.mark.parametrize("flag", [
        ["--rtol", "1e-8"],
        ["--atol", "nan"],
        ["--truncation", "5"],
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys,
                                                            argv, flag):
        assert main(argv + flag) == 2

    @pytest.mark.parametrize("flag", [["--base", "abc"], ["--radius", "abc"]])
    def test_malformed_number_is_a_usage_error(self, capsys, flag):
        # a --base that is not a complex literal exited 1 with a ValueError
        assert main(["monodromy", "--input", TWO_POINT, "--point", "0", *flag]) == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # a JSON true is neither an order nor a coefficient
        ["exponents", "--input", '{"order": true, "real_points": ["0", "1"], '
                                 '"coeffs": [[true, "1"]]}'],
        ["exponents", "--input", '{"order": 1, "real_points": ["0", "1"], '
                                 '"coeffs": [[true, "1"]]}'],
        ["constraints", "--m", "2", "--points", "[true, 1]"],
        # multiplicities are integers, never rounded
        ["vandermonde", "--points", "[0, 1, 2]", "--plan", "[1.9, 2.2, 1]"],
        ["vandermonde", "--points", "[0, 1]", "--plan", "[true, 1]"],
    ])
    def test_non_number_is_an_error_document(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] in ("DomainError", "AlgebraError")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["oracle", "--input", APPARENT_OP, "--point", "0",
         "--truncation", "1000000"],
        ["vandermonde", "--points", "[0]", "--plan", "[1000]"],
        # exponents 0 and 1/2 at 0: no expansion past depth 1 is needed
        ["oracle", "--point", "0", "--truncation", "1000000", "--input",
         '{"order": 2, "real_points": ["0", "1"], "apparent_points": [], '
         '"coeffs": [["1/2", "0"], ["1/3"]]}'],
    ])
    def test_size_beyond_its_cap_is_refused(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "exceeds the cap" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    def test_text_power_beyond_the_degree_bound_is_refused(self, capsys, tmp_path):
        # z^100000 would take about half an hour to build; the bound of the
        # psi^1 term on two points is 1
        path = tmp_path / "op.json"
        path.write_text(json.dumps("points: 0, 1\nw' = z^100000/psi w"))
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "degree bound 1" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    def test_text_constant_power_past_the_bit_bound_is_refused(self, capsys, tmp_path):
        # 3^10000000 took 13.6 s to build before the bound
        path = tmp_path / "op.json"
        path.write_text(json.dumps("points: 0, 1\nw' = 3^10000000/psi w"))
        start = time.perf_counter()
        code = main(["validate", "--input", str(path)])
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert f"bound of {POWER_BITS} bits" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("term", ["3^" + "9" * 5000 + "/psi w", "9" * 5000 + "/psi w"])
    def test_text_token_past_the_digit_bound_is_refused(self, capsys, tmp_path, term):
        # int() of a digit string past 4300 digits raised a plain ValueError
        path = tmp_path / "op.json"
        path.write_text(json.dumps("points: 0, 1\nw' = " + term))
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert f"bound of {MAX_DIGITS} digits" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["apparent", "--input", APPARENT_OP, "--point", "9" * (MAX_DIGITS + 700)],
        ["exponents", "--input", TWO_POINT, "--point", "1/" + "9" * (MAX_DIGITS + 700)],
        ["sweep", "--input", DIGITS_FAMILY],
    ], ids=["apparent", "exponents", "sweep"])
    def test_point_past_the_digit_bound_is_refused(self, capsys, argv):
        # json.loads and Fraction raised Python's ValueError or an
        # AlgebraError on the digit limit of int-from-text conversion
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["error"]["type"] == "DomainError"
        assert f"bound of {MAX_DIGITS} digits" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", json.dumps({"order": 1, "real_points": ["0"],
                                            "coeffs": [["9" * (MAX_DIGITS + 700)]]})],
        ["validate", "--input", json.dumps({"order": 1, "coeffs": [["1"]], "real_points": [
            {"re": "0", "im": "1/" + "9" * (MAX_DIGITS + 700)}]})],
        ["genericity", "--exponents", json.dumps([["9" * (MAX_DIGITS + 700), "1/2"]])],
    ], ids=["coefficient", "point", "exponent"])
    def test_number_past_the_digit_bound_in_a_document_is_refused(self, capsys, argv):
        # a string of digits inside a JSON document reached Fraction, and
        # came out as a malformed coefficient or an AlgebraError quoting
        # Python's own limit
        code, doc = invoke(capsys, *argv)
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
        assert (f"has a number of {MAX_DIGITS + 700} digits, past the bound of "
                f"{MAX_DIGITS} digits") in doc["error"]["message"]

    @pytest.mark.parametrize("text", [
        "points: 0, 1\nw' = " + "(" * 200 + "1" + ")" * 200 + "/psi w",
        "points: 0, 1\nw' = " + "-" * 1000 + "1/psi w",
        "points: " + "-" * 1000 + "1, 2\nw' = 0",
    ])
    def test_text_nesting_past_its_bound_is_refused(self, capsys, tmp_path, text):
        # the recursive-descent parser raised RecursionError here
        path = tmp_path / "op.json"
        path.write_text(json.dumps(text))
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert f"bound of {MAX_NESTING}" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    def test_deeply_nested_input_file_is_a_usage_error(self, capsys, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, on these,
        # well-formed or not; both were reported as "not valid JSON"
        path = tmp_path / "deep.json"
        for text in ("[" * 100_000, "[" * 100_000 + "]" * 100_000):
            path.write_text(text)
            assert main(["validate", "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert "input is nested deeper than the JSON decoder allows" in err

    @pytest.mark.parametrize("argv", [
        ["genericity", "--exponents", "[" * 3000],
        ["constraints", "--m", "2", "--points", "[" * 3000],
        ["validate", "--input", "[" * 3000],
    ])
    def test_deeply_nested_array_flag_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "nested deeper than the JSON decoder allows" in err

    @pytest.mark.parametrize("argv, message", [
        # each of these dropped one input without a word and exited 0
        (["genericity", "--exponents", '[["1/5", "2/7"], ["1/3", "1/2"]]',
          "--input", '[["0", "1"], ["1/3", "1/4"]]'], "not allowed with argument"),
        (["monodromy", "--input", TWO_POINT, "--radius", "0.01"],
         "--radius needs --point"),
        (["sweep", "--input",
          json.dumps({"operators": [json.loads(TWO_POINT)], "point": "1"})],
         'expected an object with the one key "operators"'),
        (["annihilate", "--input", json.dumps({"basis": [[1], [0, 1]], "order": 2})],
         'expected an object with the one key "basis"'),
    ])
    def test_input_the_command_would_drop_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    @pytest.mark.parametrize("command", [["validate", "--input"],
                                         ["constraints", "--m", "2", "--points"]])
    def test_number_past_the_digit_limit_is_a_usage_error(self, capsys, command):
        # json.loads raises a plain ValueError on it, which was an error
        # document of type ValueError
        number = "1" * (sys.get_int_max_str_digits() + 1)
        assert main([*command, f"[{number}, 0]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "cannot be decoded: Exceeds the limit" in captured.err
        assert len(captured.err) < 1000

    @pytest.mark.parametrize("argv", [
        ["apparent", "--input", APPARENT_OP, "--point", "[" * 3000],
        ["apparent", "--input", APPARENT_OP, "--point", "[" * 1100],
    ])
    def test_deeply_nested_scalar_is_an_error_document(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert "Traceback" not in captured.err
        # the message quoted the whole input twice: 6180 bytes for 3000 '['
        assert f"({len(argv[-1]) + 2} characters)" in doc["error"]["message"]
        assert len(captured.out) < 400

    def test_result_beyond_the_output_digit_limit_is_refused(self, capsys):
        # the determinant is (0! 1! ... 31!)^2 (2/999983 - 1/1000003)^1024,
        # whose denominator has about 12300 digits
        code = main(["vandermonde", "--points", '["1/1000003", "2/999983"]',
                     "--plan", "[32, 32]"])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert f"more than {MAX_DIGITS} digits" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    def test_closed_form_beyond_the_digit_limit_is_refused_before_it_is_built(self, capsys):
        # 24 points of 4001 digits: multiplying out the closed form took
        # seconds before it was refused as unprintable
        points = json.dumps([str((j + 1) * 10 ** 4000 + j) for j in range(24)])
        start = time.perf_counter()
        code = main(["vandermonde", "--points", points, "--plan", json.dumps([1] * 24)])
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert f"more than {MAX_DIGITS} digits" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("point", [
        f"{10 ** 200 - 1}/{10 ** 200}",
        {"re": f"{10 ** 200 - 1}/{10 ** 200}", "im": f"1/{10 ** 200}"},
    ])
    def test_closed_form_past_the_digit_bound_is_refused(self, capsys, point):
        # a modulus near 1 passes the magnitude pre-check, but the 64th
        # power of the point has a denominator of some 12800 digits
        code, doc = invoke(capsys, "vandermonde", "--points", json.dumps(["0", point]),
                           "--plan", "[8, 8]")
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
        assert f"more than {MAX_DIGITS} digits" in doc["error"]["message"]

    @pytest.mark.parametrize("m", ["-2", "0"])
    def test_constraints_order_below_one(self, capsys, m):
        code = main(["constraints", "--m", m, "--points", "[0, 1]"])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "order must be a positive integer" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["apparent", "--input", APPARENT_OP, "--point", "1/0"],
        ["apparent", "--input", APPARENT_OP, "--point", '{"re": "1/0"}'],
        ["exponents", "--input", APPARENT_OP, "--point", '{"re": "0", "im": "2/0"}'],
        ["constraints", "--m", "2", "--points", '["0", "1/0"]'],
    ])
    def test_bad_point_is_an_error_document(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "AlgebraError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["validate", "--input",
         '{"order":1,"real_points":5,"apparent_points":[],"coeffs":[[1]]}'],
        ["validate", "--input",
         '{"order":1,"real_points":[0,1],"apparent_points":[],"coeffs":5}'],
        ["validate", "--input",
         '{"order":1,"real_points":[0,1],"apparent_points":[],"coeffs":[5]}'],
        ["sweep", "--input", '{"operators":5}'],
        ["annihilate", "--input", '{"basis":5}'],
        ["genericity", "--exponents", "[5]"],
    ])
    def test_scalar_for_an_array_is_an_error_document(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "must be an array" in doc["error"]["message"]
        assert "Traceback" not in captured.err

    def test_unreadable_input_and_unwritable_output(self, capsys, tmp_path):
        assert main(["validate", "--input", str(tmp_path)]) == 2
        assert main(["dimensions", "--m", "2", "--n", "2",
                     "--output", str(tmp_path / "missing" / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @given(st.sampled_from(("order", "real_points", "apparent_points", "coeffs")),
           json_values)
    @settings(max_examples=150, deadline=None)
    def test_any_operator_field(self, field, value):
        doc = json.loads(TWO_POINT)
        doc[field] = value
        check_exit_contract(["validate", "--input", json.dumps(doc)])

    @given(st.sampled_from((("sweep", "operators"), ("annihilate", "basis"),
                            ("genericity", "exponents"))),
           json_values)
    @settings(max_examples=150, deadline=None)
    def test_any_payload_field(self, command_key, value):
        command, key = command_key
        check_exit_contract([command, "--input", json.dumps({key: value})])
        if command == "genericity":
            check_exit_contract([command, "--exponents=" + json.dumps(value)])

    @given(st.sampled_from(("sweep", "annihilate", "genericity")),
           st.lists(json_values, max_size=3)
           | st.dictionaries(st.text(max_size=3), json_values, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_any_payload(self, command, value):
        check_exit_contract([command, "--input", json.dumps(value)])


class TestOperatorCommands:
    def test_validate_reports_ok(self, capsys):
        code, doc = invoke(capsys, "validate", "--input", APPARENT_OP)
        assert code == 0 and doc["ok"] is True

    def test_validate_reports_bound_violation(self, capsys):
        bad = json.dumps({"order": 2, "real_points": ["0"],
                          "apparent_points": [], "coeffs": [["1"], ["0", "-1"]]})
        code, doc = invoke(capsys, "validate", "--input", bad)
        assert code == 0
        assert doc["ok"] is False

    def test_apparent_verdict_with_oracle(self, capsys):
        code, doc = invoke(capsys, "apparent", "--input", APPARENT_OP,
                           "--point", "0", "--oracle")
        assert code == 0
        assert doc["is_apparent"] is True
        assert doc["oracle_agrees"] is True

    def test_special_apparent_rejects_wrong_ladder(self, capsys):
        code, doc = invoke(capsys, "special-apparent", "--input", TWO_POINT,
                           "--point", "0")
        assert code == 1
        assert "not special" in doc["error"]["message"]

    def test_oracle(self, capsys):
        code, doc = invoke(capsys, "oracle", "--input", APPARENT_OP,
                           "--point", "0")
        assert code == 0
        assert doc["oracle"]["is_apparent"] is True
        assert len(doc["oracle"]["solutions"]) == 2

    def test_oracle_declines_fractional_exponents(self, capsys):
        code, doc = invoke(capsys, "oracle", "--input", TWO_POINT, "--point", "0")
        assert code == 0
        assert doc["oracle"]["is_apparent"] is False
        assert doc["oracle"]["solutions"] == []
        assert doc["oracle"]["reason"] is not None

    def test_exponents_at_infinity(self, capsys):
        code, doc = invoke(capsys, "exponents", "--input", APPARENT_OP,
                           "--point", "infinity")
        assert code == 0
        assert len(doc["points"]) == 1
        assert doc["points"][0]["point"] == "infinity"

    def test_companion_with_rigidity(self, capsys):
        code, doc = invoke(capsys, "companion", "--input", TWO_POINT,
                           "--against", TWO_POINT)
        assert code == 0
        assert doc["bundle_type"] == {"degrees": [0, -1], "total": -1}
        assert doc["rigidity"]["scalar_only"] is True

    def test_cyclic_roundtrip(self, capsys):
        code, doc = invoke(capsys, "cyclic", "--input", TWO_POINT)
        assert code == 0
        assert doc["roundtrip"]["ok"] is True
        assert doc["roundtrip"]["apparent_locus"] == []

    def test_cyclic_recovers_once(self, capsys, monkeypatch):
        calls = []
        original = fuchskit.cyclic.find_cyclic

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fuchskit.cyclic, "find_cyclic", counted)
        code, doc = invoke(capsys, "cyclic", "--input", TWO_POINT)
        assert code == 0 and doc["roundtrip"]["ok"] is True
        assert len(calls) == 1

    def test_cyclic_locus_reads_back_as_a_point(self, capsys):
        # {1, z^3 + 3z}: cyclic recovery of the flat connection and the
        # annihilator print the Wronskian zeros -i and i alike, and each
        # printed point decides as apparent
        basis = [[1], [0, 3, 0, 1]]
        flat = LogConnection(ExactMatrix.from_rows([[Polynomial.zero()] * 2] * 2),
                             Polynomial.one(), ())
        found = fuchskit.cyclic.find_cyclic(flat, candidates=[[as_polynomial(b) for b in basis]])
        locus = found.to_json()["apparent_locus"]
        code, doc = invoke(capsys, "annihilate", "--input", json.dumps({"basis": basis}))
        assert code == 0
        assert len(locus) == 2 and locus == doc["operator"]["apparent_points"]
        for point in locus:
            code, verdict = invoke(capsys, "apparent", "--input", json.dumps(doc["operator"]),
                                   "--point", json.dumps(point))
            assert code == 0 and verdict["is_apparent"] is True

    def test_annihilate(self, capsys):
        code, doc = invoke(capsys, "annihilate", "--input",
                           '{"basis": [[1], [0, 0, 1]]}')
        assert code == 0
        assert doc["operator"]["apparent_points"] == ["0"]
        assert doc["validation"]["ok"] is True


class TestCountingCommands:
    def test_genericity_integer_difference_fails(self, capsys):
        code, doc = invoke(capsys, "genericity", "--exponents",
                           '[["0", "1/2"], ["0", "1/3"]]')
        assert code == 0
        # 0 and 1/2 share no integer difference, but the partial sums
        # 0 + 0 and 1/2 + 1/3 + (infinity row absent) ... the two-row table
        # fails on the k=1 selection 0, 0 with integer total
        assert doc["genericity"]["passes"] is False
        assert doc["genericity"]["witness"] is not None

    @pytest.mark.parametrize("table", [
        # imaginary parts 2^j make every one of the 2^20 k = 1 totals distinct
        [["1/3", {"re": "1/3", "im": str(2 ** j)}] for j in range(20)],
        # few residues, but C(30, k) combinations at each point
        [[{"re": f"{j}/31", "im": "1"} for j in range(1, 31)]] * 2,
    ])
    def test_genericity_residue_guard_is_an_error_document(self, capsys, table):
        code, doc = invoke(capsys, "genericity", "--exponents", json.dumps(table))
        assert code == 1
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "residue guard" in doc["error"]["message"]

    def test_genericity_empty_rows_is_an_error_document(self, capsys):
        code, doc = invoke(capsys, "genericity", "--exponents", "[[]]")
        assert code == 1
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "at least one exponent" in doc["error"]["message"]

    def test_genericity_passes(self, capsys):
        code, doc = invoke(capsys, "genericity", "--exponents",
                           '[["1/5", "2/7"], ["1/3", "1/2"]]')
        assert code == 0
        assert doc["genericity"]["passes"] is True

    def test_constraints(self, capsys):
        code, doc = invoke(capsys, "constraints", "--m", "2",
                           "--points", "[0, 1]")
        assert code == 0
        assert doc["rank"]["ok"] is True
        assert doc["rank"]["block_dependencies"] == [1, 0]

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="caps the address space with RLIMIT_AS")
    def test_constraints_at_order_200_fit_in_300_mb(self):
        # 200 blocks of at most 4 x 401 entries; padded into one 800 x 40200
        # matrix they took about 500 MB
        import resource

        limit = 300 * 2 ** 20
        src = str(Path(fuchskit.cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fuchskit.cli", "constraints", "--m", "200",
             "--points", "[0, 1, 2]"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert '"ok": true' in proc.stdout

    def test_vandermonde(self, capsys):
        code, doc = invoke(capsys, "vandermonde", "--points", "[0, 1, 2]",
                           "--plan", "[2, 2, 1]")
        assert code == 0
        assert doc["agree"] is True
        assert doc["determinant"] == "4"


class TestNumericCommands:
    def test_point_monodromy_with_apparency_report(self, capsys):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT,
                           "--point", "0")
        assert code == 0
        assert doc["monodromy"]["est_error"] < 1e-9
        assert doc["apparent_numeric"]["ok"] is False

    def test_global_product(self, capsys):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT)
        assert code == 0
        assert doc["global"]["closure_error"] < 1e-8

    def test_sweep(self, capsys):
        fam = {"operators": [
            annihilator_from_solutions([[1], [0, 1], [0, 0, t, 1]]).to_json()
            for t in (1, 2, 3)]}
        code, doc = invoke(capsys, "sweep", "--input", json.dumps(fam))
        assert code == 0
        assert doc["sweep"]["count"] == 3
        assert doc["sweep"]["max_drift"] < 1e-9
        # the trace vectors themselves are not printed
        assert set(doc["sweep"]) == {"count", "base_point", "words", "max_drift",
                                     "closure_rel_max"}

    def test_sweep_refuses_an_apparent_point_that_is_not(self, capsys):
        fam = {"operators": [random_operator(random.Random(3), 2, 2, 1).to_json()]}
        code, doc = invoke(capsys, "sweep", "--input", json.dumps(fam))
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
        assert "apparent point 3" in doc["error"]["message"]

    def test_monodromy_not_a_pole(self, capsys):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT,
                           "--point", "5")
        assert code == 1
        assert doc["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("extra", [
        ["--radius", "nan"],
        ["--radius", "inf"],
        ["--radius", "0", "--base=-3"],
        ["--radius", "-1", "--base=-3"],
        ["--base", "nan"],
        ["--base", "inf"],
        ["--rtol", "0", "--atol", "0"],
        ["--rtol", "-1"],
        ["--rtol", "nan"],
        ["--atol", "inf"],
    ])
    def test_bad_numeric_parameter_is_an_error_document(self, capsys, extra):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT,
                           "--point", "0", *extra)
        assert code == 1
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"

    def test_rtol_below_integrator_floor(self, capsys):
        code = main(["monodromy", "--input", TWO_POINT, "--point", "0",
                     "--rtol", "1e-300", "--atol", "1e-300"])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == 1
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "floor" in doc["error"]["message"]
        assert "Warning" not in err

    @pytest.mark.parametrize("extra", [
        ["--point", "0", "--base=2", "--radius", "0.5"],  # anchored loop
        ["--base=-3"],                                    # global product
    ])
    def test_leg_through_pole_is_an_error_document(self, capsys, extra):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT, *extra)
        assert code == 1
        assert doc["schema"] == "fuchskit/1"
        assert doc["error"]["type"] == "DomainError"
        assert "passes through the pole" in doc["error"]["message"]

    def test_bad_tolerance_in_global_product_and_sweep(self, capsys):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT,
                           "--atol", "0")
        assert code == 1 and doc["error"]["type"] == "DomainError"
        fam = {"operators": [json.loads(TWO_POINT)]}
        code, doc = invoke(capsys, "sweep", "--input", json.dumps(fam),
                           "--rtol", "-1")
        assert code == 1 and doc["error"]["type"] == "DomainError"


class TestOptions:
    """Every option of every subcommand is read by its handler; a flag that
    nothing reads must not come back."""

    COMMON = ["--help", "--output", "-h"]
    OPTIONS = {
        "validate": ["--input"],
        "companion": ["--against", "--input"],
        "exponents": ["--input", "--point"],
        "genericity": ["--exponents", "--input"],
        "apparent": ["--input", "--oracle", "--point"],
        "special-apparent": ["--input", "--point"],
        "oracle": ["--input", "--point", "--truncation"],
        "annihilate": ["--input"],
        "cyclic": ["--input"],
        "dimensions": ["--apparent", "--m", "--n"],
        "constraints": ["--apparent-points", "--m", "--points"],
        "vandermonde": ["--plan", "--points"],
        "monodromy": ["--atol", "--base", "--input", "--point", "--radius",
                      "--rtol"],
        "sweep": ["--atol", "--input", "--rtol"],
    }

    def test_option_strings_of_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}
        assert got == {name: sorted(self.COMMON + opts)
                       for name, opts in self.OPTIONS.items()}


class TestPlumbing:
    def test_deterministic_output(self, capsys):
        main(["monodromy", "--input", TWO_POINT, "--point", "0"])
        first = capsys.readouterr().out
        main(["monodromy", "--input", TWO_POINT, "--point", "0"])
        second = capsys.readouterr().out
        assert first == second

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["dimensions", "--m", "3", "--n", "2",
                     "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["e"] == 1

    def test_input_from_file(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(APPARENT_OP)
        code, doc = invoke(capsys, "validate", "--input", str(path))
        assert code == 0 and doc["ok"] is True

    def test_every_document_carries_schema(self, capsys):
        for argv in (["dimensions", "--m", "2", "--n", "2"],
                     ["dimensions", "--m", "2", "--n", "1"],
                     ["validate", "--input", APPARENT_OP]):
            main(argv)
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == "fuchskit/1"

    # Per subcommand: a run that exits 0, and the fuchskit modules besides
    # cli, algebra and operator that it loads, which are the ones it calls.
    SERIES = {"connection", "cyclic", "frobenius"}
    NUMERIC = {"connection", "monodromy"}
    COLD_RUNS = {
        "validate": (["--input", APPARENT_OP], set()),
        "companion": (["--input", TWO_POINT], {"connection"}),
        "exponents": (["--input", TWO_POINT], {"connection"}),
        "genericity": (["--exponents", '[["1/5", "2/7"]]'], {"connection"}),
        "apparent": (["--input", APPARENT_OP, "--point", "0", "--oracle"], SERIES),
        "special-apparent": (["--input", APPARENT_OP, "--point", "0"], SERIES),
        "oracle": (["--input", APPARENT_OP, "--point", "0"], SERIES),
        "annihilate": (["--input", '{"basis": [[1], [0, 0, 1]]}'], SERIES),
        "cyclic": (["--input", TWO_POINT], {"connection", "cyclic"}),
        "dimensions": (["--m", "3", "--n", "3"], {"moduli"}),
        "constraints": (["--m", "2", "--points", "[0, 1, 2]"], {"moduli"}),
        "vandermonde": (["--points", "[0, 1, 2]", "--plan", "[2, 2, 1]"], {"moduli"}),
        "monodromy": (["--input", TWO_POINT, "--point", "0"], NUMERIC),
        "sweep": (["--input", TWO_POINT_FAMILY], NUMERIC),
    }

    @staticmethod
    def cold_run(argv: list) -> tuple:
        """The exit code of a cold call, the modules it loaded, and the
        packages outside the standard library among those it loaded."""
        code = ("import contextlib, io, json, sys\n"
                "before = set(sys.modules)\n"
                "from fuchskit.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(sys.argv[1:])\n"
                "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
                "print(json.dumps([code, sorted(sys.modules),\n"
                "                  sorted(new - set(sys.stdlib_module_names))]))")
        src = str(Path(fuchskit.cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return tuple(json.loads(proc.stdout))

    def test_exact_commands_load_no_numeric_stack(self):
        """A cold call of each subcommand loads only the modules it runs;
        outside the standard library, only monodromy and sweep load a
        package, and that package is numpy."""
        assert set(self.COLD_RUNS) == set(TestOptions.OPTIONS)
        for command, (argv, runs) in self.COLD_RUNS.items():
            exit_code, modules, packages = self.cold_run([command, *argv])
            assert exit_code == 0, command
            loaded = {m.split(".")[1] for m in modules if m.startswith("fuchskit.")}
            assert loaded == {"cli", "algebra", "operator"} | runs, command
            numeric = "monodromy" in runs
            assert packages == (["fuchskit", "numpy"] if numeric else ["fuchskit"]), command

    @pytest.mark.parametrize("argv", [
        ["monodromy", "--input", TWO_POINT, "--point", "9" * 5000],
        ["sweep", "--input", DIGITS_FAMILY],
    ], ids=["monodromy", "sweep"])
    def test_refused_point_loads_no_numeric_stack(self, argv):
        # the numeric commands parse their inputs before they import
        # monodromy and numpy
        exit_code, modules, packages = self.cold_run(argv)
        assert exit_code == 1
        assert "fuchskit.monodromy" not in modules and "numpy" not in modules
        assert packages == ["fuchskit"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "monodromy" in capsys.readouterr().out

    @pytest.mark.parametrize("bare, joined", [
        (["monodromy", "--point", "-1/2"], ["monodromy", "--point=-1/2"]),
        (["monodromy", "--base", "-3-3j"], ["monodromy", "--base=-3-3j"]),
        (["monodromy", "--point", "-1/2", "--base", "-3-3j", "--radius", "0.25"],
         ["monodromy", "--point=-1/2", "--base=-3-3j", "--radius=0.25"]),
        (["exponents", "--point", "-1/2"], ["exponents", "--point=-1/2"]),
        (["oracle", "--point", "-1/2", "--truncation", "3"],
         ["oracle", "--point=-1/2", "--truncation=3"]),
        (["apparent", "--poi", "-1/2", "--oracle"], ["apparent", "--point=-1/2", "--oracle"]),
    ])
    def test_value_beginning_with_a_dash(self, capsys, bare, joined):
        # argparse reads -1/2 and -3-3j as option names unless joined by =
        argv = [bare[0], "--input", NEGATIVE_POLE, *bare[1:]]
        code, doc = invoke(capsys, *argv)
        assert code == 0 and "error" not in doc
        assert (code, doc) == invoke(capsys, joined[0], "--input", NEGATIVE_POLE,
                                     *joined[1:])

    @pytest.mark.parametrize("name", ["--oracle", "--ora", "-h"])
    def test_option_name_is_not_taken_for_a_value(self, capsys, name):
        assert main(["apparent", "--input", APPARENT_OP, "--point", name]) == 2
        assert "expected one argument" in capsys.readouterr().err
