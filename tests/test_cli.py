"""End-to-end checks of the JSON command line surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fuchskit.cli
from fuchskit.cli import main
from fuchskit.frobenius import annihilator_from_solutions
from fuchskit.sampling import second_order_with_exponents

APPARENT_OP = json.dumps(annihilator_from_solutions([[1], [0, 0, 1]]).to_json())
TWO_POINT = json.dumps(second_order_with_exponents(
    (0, 1), (Fraction(1, 2), Fraction(1, 3))).to_json())


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

    def test_unknown_flag_rejected(self, capsys):
        assert main(["dimensions", "--m", "2", "--n", "2", "--wat"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["apparent", "--input", APPARENT_OP]) == 2

    def test_missing_input_file(self, capsys):
        assert main(["validate", "--input", "/no/such/file.json"]) == 2

    def test_invalid_inline_json(self, capsys):
        assert main(["validate", "--input", "{broken"]) == 2

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

    def test_vandermonde(self, capsys):
        code, doc = invoke(capsys, "vandermonde", "--points", "[0, 1, 2]",
                           "--plan", "[2, 2, 1]")
        assert code == 0
        assert doc["agree"] is True
        assert doc["determinant"] == "4"

    def test_hodge_params(self, capsys):
        code, doc = invoke(capsys, "hodge-params", "--m", "2", "--n", "3",
                           "--exponents", '["1/2", "-3/2"]')
        assert code == 0
        assert doc["weights"]["beta"] == "1/4"


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

    def test_bad_tolerance_in_global_product_and_sweep(self, capsys):
        code, doc = invoke(capsys, "monodromy", "--input", TWO_POINT,
                           "--atol", "0")
        assert code == 1 and doc["error"]["type"] == "DomainError"
        fam = {"operators": [json.loads(TWO_POINT)]}
        code, doc = invoke(capsys, "sweep", "--input", json.dumps(fam),
                           "--rtol", "-1")
        assert code == 1 and doc["error"]["type"] == "DomainError"


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

    def test_exact_commands_load_no_numeric_stack(self):
        code = ("import fuchskit.cli, sys; "
                "assert 'scipy' not in sys.modules and 'numpy' not in sys.modules")
        src = str(Path(fuchskit.cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "monodromy" in capsys.readouterr().out
