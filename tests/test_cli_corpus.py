"""Golden CLI corpus: exact subcommands on fixed inputs, byte for byte.

Each case runs one command in process and compares its standard output with
``tests/data/cli_corpus/<case>.json``.  The goldens pin the exact documents
(determinants, residue matrices, exponents, ranks, verdicts), so any change
to the exact kernel that alters a result shows up here.

    python tests/test_cli_corpus.py

rewrites the goldens from the current code; do that only for an intended
change of output, and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

from fuchskit.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_corpus"

# operator documents: the annihilator of {1, z^2}, the second-order operator
# with exponents 1/2 at 0 and 1/3 at 1, three from
# sampling.random_operator and two from prescribed_exponent_operator
APPARENT_OP = {"order": 2, "real_points": [], "apparent_points": ["0"],
               "coeffs": [["1"], []]}
TWO_POINT = {"order": 2, "real_points": ["0", "1"], "apparent_points": [],
             "coeffs": [["1/2", "-7/6"], []]}
RANDOM_M2 = {"order": 2, "real_points": ["-2", "1", "2"], "apparent_points": [],
             "coeffs": [["-1", "2", "-3"], ["1/3", "0", "0", "1", "-6"]]}
RANDOM_M3 = {"order": 3, "real_points": ["-3/2", "-4/3", "3/2"],
             "apparent_points": ["2"],
             "coeffs": [["-6", "4", "2", "-5"],
                        ["-5", "-5/3", "-5", "-5/3", "-4", "-5", "6"],
                        ["2", "0", "-1", "1", "0", "0", "5", "0", "0", "3/2"]]}
GAUSSIAN_M2 = {"order": 2, "real_points": ["-5", "-3"], "apparent_points": ["5/2"],
               "coeffs": [["-2", "-5/3"],
                          [{"re": "5", "im": "5/2"}, "-2/3", "-5/2",
                           {"re": "-2", "im": "2"}, {"re": "-3", "im": "3"}]]}
PRESCRIBED_M2 = {"order": 2, "real_points": ["0", "2"], "apparent_points": [],
                 "coeffs": [["-4", "4"], ["0", "1", "-3"]]}
PRESCRIBED_M3 = {"order": 3, "real_points": ["0", "-1"], "apparent_points": [],
                 "coeffs": [["3", "-2/3"], ["-3", "0", "-1"], ["0", "1", "-1", "4"]]}
# rigidity: an order-3 operator whose self-gauges form a plane, not only the
# scalars, and TWO_POINT with a second coefficient, which no gauge reaches
WIDE_M3 = {"order": 3, "real_points": ["-2", "-1/2"], "apparent_points": [],
           "coeffs": [["-3", "-6"], ["-4/3", "-6", "-6"], []]}
TWO_POINT_SHIFTED = {"order": 2, "real_points": ["0", "1"], "apparent_points": [],
                     "coeffs": [["1/2", "-7/6"], ["1/3"]]}
# the annihilator of {1, z, z^3}, special and apparent at the origin with
# exponents 3, 1, 0, and an operator with exponents 2, 0 at the origin whose
# resonance is blocked at offset 2
CUBIC_ANNIHILATOR = {"order": 3, "real_points": [], "apparent_points": ["0"],
                     "coeffs": [["1"], [], []]}
BLOCKED_M2 = {"order": 2, "real_points": ["0"], "apparent_points": [],
              "coeffs": [["1"], ["0", "-1"]]}
# a second numerator of degree 3 where the bound at infinity allows 0
DEGREE_BOUND_VIOLATED = {"order": 2, "real_points": ["0"], "apparent_points": [],
                         "coeffs": [["1"], ["0", "-1", "1", "1"]]}
# 1, (z - 1)^2, z^3: the Wronskian 6z(z - 2) puts apparent points at 0 and 2
BASIS_TWO_APPARENT = {"basis": [[1], [1, -2, 1], [0, 0, 0, 1]]}


# exponent tables: one generic, one with an integer difference at its
# second point, one whose first integer sum needs k = 2 and a Gaussian pair
GENERIC_M3 = [["1/5", "2/7", "-1/3"],
              ["1/11", {"re": "1/2", "im": "1/3"}, "3/13"],
              ["-2/9", "5/17", {"re": "1/4", "im": "-1/3"}]]
DIFFERENCE_M2 = [["1/2", {"re": "1/4", "im": "1"}],
                 [{"re": "3/4", "im": "1"}, {"re": "-1/4", "im": "1"}]]
GAUSSIAN_SUM_M3 = [["1/2", {"re": "-2/3", "im": "-1/2"}, "3/4"],
                   ["-5/4", "2", {"re": "1/6", "im": "1/2"}]]


def _op(doc):
    return json.dumps(doc)


CASES = {
    "dimensions_m3_n4": ["dimensions", "--m", "3", "--n", "4"],
    "dimensions_m4_n5_apparent": ["dimensions", "--m", "4", "--n", "5",
                                  "--apparent", "2"],
    "vandermonde_rational": ["vandermonde", "--points", "[0, 1, 2]",
                             "--plan", "[2, 2, 1]"],
    "vandermonde_gaussian": ["vandermonde", "--points",
                             '["1/2", {"re": "1", "im": "1"}, "-3", "2/3"]',
                             "--plan", "[1, 2, 2, 1]"],
    "constraints_m2": ["constraints", "--m", "2", "--points", "[0, 1]"],
    "constraints_m3_apparent": ["constraints", "--m", "3",
                                "--points", '["0", "1", "-1", "1/2"]',
                                "--apparent-points", '["3"]'],
    "constraints_m1_gaussian": ["constraints", "--m", "1", "--points",
                                '["0", {"re": 0, "im": 1}, {"re": 0, "im": -1}]'],
    "constraints_m4_two_apparent": ["constraints", "--m", "4",
                                    "--points", "[0, 1, -1]",
                                    "--apparent-points", '["2", "1/2"]'],
    "validate_random_m3": ["validate", "--input", _op(RANDOM_M3)],
    "validate_degree_bound_violated": ["validate", "--input",
                                       _op(DEGREE_BOUND_VIOLATED)],
    "exponents_two_point": ["exponents", "--input", _op(TWO_POINT)],
    "exponents_random_m3": ["exponents", "--input", _op(RANDOM_M3)],
    "exponents_gaussian_m2": ["exponents", "--input", _op(GAUSSIAN_M2)],
    "apparent_oracle_annihilator": ["apparent", "--input", _op(APPARENT_OP),
                                    "--point", "0", "--oracle"],
    "apparent_oracle_prescribed_m2": ["apparent", "--input", _op(PRESCRIBED_M2),
                                      "--point", "0", "--oracle"],
    "apparent_oracle_prescribed_m3": ["apparent", "--input", _op(PRESCRIBED_M3),
                                      "--point", "0", "--oracle"],
    "oracle_blocked_m2": ["oracle", "--input", _op(BLOCKED_M2), "--point", "0",
                          "--truncation", "4"],
    "oracle_prescribed_m3": ["oracle", "--input", _op(PRESCRIBED_M3),
                             "--point", "0"],
    "special_apparent_cubic_annihilator": ["special-apparent", "--input",
                                           _op(CUBIC_ANNIHILATOR), "--point", "0"],
    "special_apparent_blocked_m2": ["special-apparent", "--input",
                                    _op(BLOCKED_M2), "--point", "0"],
    "annihilate_two_apparent_points": ["annihilate", "--input",
                                       _op(BASIS_TWO_APPARENT)],
    "companion_two_point_rigidity": ["companion", "--input", _op(TWO_POINT),
                                     "--against", _op(TWO_POINT)],
    "companion_prescribed_m3_rigidity": ["companion", "--input", _op(PRESCRIBED_M3),
                                         "--against", _op(PRESCRIBED_M3)],
    "companion_wide_m3_rigidity": ["companion", "--input", _op(WIDE_M3),
                                   "--against", _op(WIDE_M3)],
    "companion_two_point_not_rigid": ["companion", "--input", _op(TWO_POINT),
                                      "--against", _op(TWO_POINT_SHIFTED)],
    "companion_random_m3": ["companion", "--input", _op(RANDOM_M3)],
    "cyclic_two_point": ["cyclic", "--input", _op(TWO_POINT)],
    "cyclic_random_m2": ["cyclic", "--input", _op(RANDOM_M2)],
    "genericity_passes_m3": ["genericity", "--exponents", _op(GENERIC_M3)],
    "genericity_integer_difference": ["genericity", "--exponents",
                                      _op(DIFFERENCE_M2)],
    "genericity_gaussian_sum_k2": ["genericity", "--exponents",
                                   _op(GAUSSIAN_SUM_M3)],
}


def _run(argv, capsys):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_matches_golden(case, capsys):
    code, out = _run(CASES[case], capsys)
    assert code == 0
    assert out == (DATA / f"{case}.json").read_text()


def test_printed_points_read_back(capsys):
    # the real points of a constraints document, Gaussian ones included,
    # given back as --points reproduce that document
    golden = (DATA / "constraints_m1_gaussian.json").read_text()
    points = json.loads(golden)["system"]["real_points"]
    code, out = _run(["constraints", "--m", "1", "--points", json.dumps(points)], capsys)
    assert code == 0
    assert out == golden


def test_goldens_are_the_cases():
    # a golden without a case is never compared, a case without one fails
    assert sorted(p.stem for p in DATA.glob("*.json")) == sorted(CASES)


def _write_goldens() -> int:
    import io
    from contextlib import redirect_stdout
    DATA.mkdir(parents=True, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            print(f"{case}: exit {code}", file=sys.stderr)
            return 1
        (DATA / f"{case}.json").write_text(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(_write_goldens())
