"""CLI tests: golden transcripts, JSON records, exit codes, batch mode."""

import cmath
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import splitroots
from splitroots import RealPolynomial, RootSet, UnsupportedDegreeError
from splitroots.cli import OutputRecord, main
from splitroots.parser import format_polynomial, parse_polynomial

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_CASES = sorted(GOLDEN_DIR.glob("*.json"))

# z^3 + 1e300 z^2 + 1e300 z + 1e300 in plain decimals: the solver's and the
# oracle's roots both come out nan (ROADMAP item 5).
CUBIC_1E300 = "z^3 + {0}z^2 + {0}z + {0}".format("1" + "0" * 300)
# z^2 + 1e160 z + 1: the solver's roots are finite, the oracle's nan.
WIDE_QUADRATIC = f"z^2 + 1{'0' * 160}z + 1"
# Finite inputs on which the oracle overflows.  On the cubic one root goes
# nan beside a root whose convergence power overflows, so the record is
# refused as non-finite; on the quadratic 1e10 / 1e-300 overflows in monic()
# and the oracle raises.
ORACLE_OVERFLOWS = {
    "cubic": format_polynomial(
        RealPolynomial((0.0, 9.772785278470283e139, -1.2498788044298073e21, 3.3857319084680446e-155)), "z"
    ),
    "quadratic": format_polynomial(RealPolynomial((1.0, 1e10, 1e-300)), "z"),
}
# A finite quartic whose oracle roots are finite but |p(z)| at one of them
# is past the float range: that residual counts as inf.
ORACLE_RESIDUAL_OVERFLOW = format_polynomial(
    RealPolynomial(
        (
            1.993546026223034e257,
            -1.7087534109172123e282,
            5.718896405594776e-66,
            8.292901932355048e-245,
            -3.9198780981366016e156,
        )
    ),
    "z",
)
# A finite quartic on which solve() raises OverflowError: |p(z)| at one of
# its roots is past the float range in the residual pass.
SOLVE_RESIDUAL_OVERFLOW = format_polynomial(
    RealPolynomial(
        (
            -2.5542515281230347e-109,
            4.1971665759261885e304,
            -6.830302100826204e280,
            -4.92778330520093e-118,
            7.997663047149106e244,
        )
    ),
    "z",
)
_NOT_FINITE = "the result for {} holds a non-finite number (inf or nan)"
# What `oracle` prints after "error: " on each of ORACLE_OVERFLOWS.
ORACLE_ERRORS = {
    "cubic": _NOT_FINITE.format(ORACLE_OVERFLOWS["cubic"]),
    "quadratic": "oracle: coefficients must be finite, got inf",
}
# Each kind of refusal: (command, expression, exit code, stderr text after "error: ").
REFUSALS = {
    "parse-error": (
        ["solve"],
        "2 & 3",
        2,
        "expected '+' or '-' before '&' (column 2)\n  2 & 3\n    ^",
    ),
    "oracle-parse-error": (
        ["oracle"],
        "z^2 +",
        2,
        "expected a term after the sign (column 4)\n  z^2 +\n      ^",
    ),
    "degree-5": (["solve"], "z^5 + 1", 3, str(UnsupportedDegreeError(5))),
    "solve-value-error": (
        ["solve"],
        f"z^4 + 1{'0' * 155}z^3 + 1",
        4,
        "resolvent coefficients must be finite, got (1.0, -inf, nan, nan)",
    ),
    "solve-residual-overflow": (["solve"], SOLVE_RESIDUAL_OVERFLOW, 4, "absolute value too large"),
    "oracle-overflow": (["oracle"], ORACLE_OVERFLOWS["cubic"], 4, ORACLE_ERRORS["cubic"]),
    "oracle-monic-overflow": (
        ["oracle"],
        ORACLE_OVERFLOWS["quadratic"],
        4,
        ORACLE_ERRORS["quadratic"],
    ),
    "oracle-residual-overflow": (
        ["oracle"],
        ORACLE_RESIDUAL_OVERFLOW,
        4,
        _NOT_FINITE.format(ORACLE_RESIDUAL_OVERFLOW),
    ),
    # The oracle's find_roots raises OverflowError("x") in the two "monkeypatched" rows.
    "oracle-monkeypatched-overflow": (["oracle"], "z^2 - 1", 4, "oracle: x"),
    "solve-oracle-monkeypatched-overflow": (["solve", "--oracle"], "z^2 - 1", 4, "oracle: x"),
    "non-finite-record": (
        ["solve"],
        CUBIC_1E300,
        4,
        _NOT_FINITE.format(format_polynomial(parse_polynomial(CUBIC_1E300))),
    ),
    "non-finite-record-before-the-oracle": (
        ["solve", "--show-depressed", "--oracle"],
        ORACLE_OVERFLOWS["cubic"],
        4,
        _NOT_FINITE.format(ORACLE_OVERFLOWS["cubic"]),
    ),
    "split-system-degree-5": (["split-system"], "z^5 + 1", 3, str(UnsupportedDegreeError(5))),
    "split-system-degree-1": (
        ["split-system"],
        "z + 1",
        2,
        "split systems are defined for degrees 2-4, got degree 1",
    ),
    "split-system-x-without-y": (
        ["split-system", "--x=1"],
        "z^2 + 1",
        2,
        "--x and --y must be given together",
    ),
    "split-system-not-depressed": (
        ["split-system"],
        "z^3 + z^2 + 1",
        2,
        "polynomial is not depressed (nonzero quadratic term); rerun with --auto-depress",
    ),
    "split-system-non-finite-record": (
        ["split-system", "--x=1e200", "--y=0"],
        "z^2 + z + 1",
        4,
        _NOT_FINITE.format("z^2 + z + 1"),
    ),
    "split-system-monic-overflow": (
        ["split-system"],
        ORACLE_OVERFLOWS["quadratic"],
        4,
        "coefficients must be finite, got inf",
    ),
}


def _raise(error):
    def raising(*args):
        raise error

    return raising


@pytest.mark.parametrize("path", GOLDEN_CASES, ids=lambda p: p.stem)
def test_golden_transcript(path, capsys, monkeypatch):
    # A case with a "stdin" string runs in batch mode, one input per line.
    case = json.loads(path.read_text())
    if "stdin" in case:
        monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit_code"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def test_golden_files_exist():
    assert len(GOLDEN_CASES) >= 3


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["solve", "z^2 - 1"]) == 0

    @staticmethod
    def _assert_parse_error(command, capsys):
        assert main([command, "2 & 3"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "(column 2)" in err
        # caret line must point at the offending character
        lines = err.splitlines()
        assert lines[1] == "  2 & 3"
        assert lines[2] == "    ^"

    def test_parse_error_is_2(self, capsys):
        self._assert_parse_error("solve", capsys)

    @pytest.mark.parametrize("command", ["oracle", "split-system"])
    def test_parse_error_is_2_in_other_commands(self, command, capsys):
        self._assert_parse_error(command, capsys)

    def test_overflowing_term_sum_is_2(self, capsys):
        nines = "9" * 308
        text = f"{nines}z + {nines}z + z^2"
        assert main(["solve", text]) == 2
        lines = capsys.readouterr().err.splitlines()
        column = text.rindex(nines)
        assert lines == [
            f"error: the sum of the power-1 terms overflows a float (column {column})",
            f"  {text}",
            "  " + " " * column + "^",
        ]

    def test_leading_minus_needs_the_double_dash(self, capsys):
        # argparse takes a spaceless argument that starts with "-" for an
        # option; "--" ends the options, and "-z^2 + 1" (with a space) is
        # read as the expression.
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "-z^2+1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: -z^2+1" in capsys.readouterr().err
        assert main(["solve", "--json", "--", "-z^2+1"]) == 0
        roots = [(r["re"], r["im"]) for r in json.loads(capsys.readouterr().out)["roots"]]
        assert roots == [(1.0, 0.0), (-1.0, 0.0)]

    def test_unsupported_degree_is_3(self, capsys):
        assert main(["solve", "z^5 + 1"]) == 3
        assert "degree 5" in capsys.readouterr().err

    def test_split_system_rejects_non_depressed(self, capsys):
        assert main(["split-system", "w^3 - 6w^2 + 11w - 6", "--x=1", "--y=0"]) == 2
        assert "--auto-depress" in capsys.readouterr().err

    def test_split_system_accepts_auto_depress(self, capsys):
        code = main(
            ["split-system", "w^3 - 6w^2 + 11w - 6", "--x=1", "--y=0", "--auto-depress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auto-depressed: a = -1, b = 0, shift = -2" in out

    def test_split_system_rejects_degree_one(self, capsys):
        assert main(["split-system", "z + 1", "--x=0", "--y=0"]) == 2

    def test_split_system_degree_five_is_3(self, capsys):
        assert main(["split-system", "z^5 + 1"]) == 3

    def test_split_system_x_without_y(self, capsys):
        assert main(["split-system", "z^2 + 1", "--x=0"]) == 2
        assert "--x and --y" in capsys.readouterr().err

    def test_overflowing_resolvent_is_4(self, capsys):
        # The cubic coefficient 1e155 overflows the quartic's resolvent.
        big = "1" + "0" * 155
        assert main(["solve", f"z^4 + {big}z^3 + 1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resolvent coefficients must be finite")
        assert "Traceback" not in captured.err

    def test_non_finite_json_record_is_4(self, capsys):
        # The solver's roots of this cubic are nan (ROADMAP item 5): no
        # strict JSON record can hold them.
        assert main(["solve", "--json", CUBIC_1E300]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the result for z^3 + ")
        assert captured.err.endswith(" holds a non-finite number (inf or nan)\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--n", "0"],
            ["bench", "--n", "-1"],
            ["solve", "z^2 - 1", "--tolerance", "nan"],
            ["solve", "z^2 - 1", "--tolerance", "-1"],
        ],
        ids=["n-zero", "n-negative", "tolerance-nan", "tolerance-negative"],
    )
    def test_out_of_range_option_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_takes_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "1", "--tolerance", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 5" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        assert "--tolerance" not in capsys.readouterr().out

    def test_bench_takes_no_degree(self, capsys):
        # bench times degrees 2, 3 and 4, the rows compare_bench.py reads.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "1", "--degree", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --degree 2" in captured.err

    def test_split_system_takes_no_tolerance(self, capsys):
        # split-system prints no roots, so there is no residual to warn on.
        with pytest.raises(SystemExit) as exc:
            main(["split-system", "z^2 + 1", "--tolerance", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 5" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["split-system", "--help"])
        assert exc.value.code == 0
        assert "--tolerance" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["oracle"], ["solve", "--oracle"]])
    def test_non_finite_oracle_root_is_4_in_text_mode(self, command, capsys):
        # The solver's roots are finite, but the oracle's iteration overflows
        # on this input and returns nan roots; text mode refuses them as
        # --json does.
        assert main([*command, WIDE_QUADRATIC]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the result for z^2 + ")
        assert captured.err.endswith(" holds a non-finite number (inf or nan)\n")
        assert captured.err.count("\n") == 1

    def test_oracle_root_whose_power_overflows(self, capsys):
        # The oracle's roots are exactly -1e200 and 0; the convergence test's
        # (1e200)^2 leaves the float range and counts as inf, not as an
        # OverflowError traceback.
        text = f"z^2 + {'1' + '0' * 200}z"
        assert main(["oracle", "--json", text]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [(r["re"], r["im"]) for r in record["roots"]] == [(0.0, 0.0), (-1e200, 0.0)]
        assert record["diagnostics"]["converged"] is True
        assert main(["oracle", text]) == 0
        captured = capsys.readouterr()
        assert "converged: true" in captured.out and captured.err == ""
        # The solver's roots are the same two, and the two sets pair exactly.
        assert main(["solve", "--oracle", text]) == 0
        captured = capsys.readouterr()
        assert "oracle max pairing distance: 0.000e+00" in captured.out
        assert captured.err == ""
        assert main(["solve", "--oracle", "--json", text]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [(r["re"], r["im"]) for r in record["roots"]] == [(0.0, 0.0), (-1e200, 0.0)]
        assert record["diagnostics"]["oracle_max_pairing_distance"] == 0.0

    def test_non_finite_oracle_line_reports_4_and_batch_goes_on(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{WIDE_QUADRATIC}\nz^2 - 1\n"))
        assert main(["oracle"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: the result for z^2 + ")
        assert captured.err.endswith(" holds a non-finite number (inf or nan)\n")
        assert captured.err.count("\n") == 1
        assert captured.out.startswith("polynomial: z^2 - 1\nmethod: oracle\n")
        assert "nan" not in captured.out

    @pytest.mark.parametrize("name", ORACLE_OVERFLOWS)
    @pytest.mark.parametrize(
        "command",
        [["oracle"], ["solve", "--oracle"], ["solve", "--show-depressed", "--oracle"]],
        ids=["oracle", "solve-oracle", "solve-show-depressed-oracle"],
    )
    def test_oracle_error_on_finite_input_is_4(self, name, command, capsys):
        # One error line and exit 4 in both modes, as for the solver's own
        # errors; before, the oracle's exception ended the run in a traceback.
        text = ORACLE_OVERFLOWS[name]
        for mode in ([], ["--json"]):
            assert main([*command, *mode, text]) == 4, mode
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1, mode
            if command == ["oracle"]:
                assert captured.err == f"error: {ORACLE_ERRORS[name]}\n", mode
            else:  # the solver's own refusal comes first, as without --oracle
                assert main([*command[:-1], *mode, text]) == 4, mode
                assert capsys.readouterr() == captured, mode

    @pytest.mark.parametrize("flags", [[], ["--show-depressed"]], ids=["plain", "show-depressed"])
    def test_oracle_skipped_on_a_non_finite_result(self, flags, capsys, monkeypatch):
        # The solver's roots and residuals on this cubic are nan, and the
        # oracle overflows on it.  --oracle reports the solver's failure, as
        # solve alone does, and never runs the oracle on it.
        from splitroots import cli

        oracle_inputs = []
        find_roots = cli.find_roots
        monkeypatch.setattr(cli, "find_roots", lambda p: oracle_inputs.append(p) or find_roots(p))
        text = ORACLE_OVERFLOWS["cubic"]
        error = f"error: the result for {text} holds a non-finite number (inf or nan)\n"
        for mode in ([], ["--json"]):
            for oracle in ([], ["--oracle"]):
                assert main(["solve", *flags, *oracle, *mode, text]) == 4, (oracle, mode)
                assert capsys.readouterr() == ("", error), (oracle, mode)
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{text}\nz^2 - 1\n"))
            assert main(["solve", *flags, "--oracle", *mode]) == 4, mode
            captured = capsys.readouterr()
            assert captured.err == error.replace("error: ", "error: line 1: ", 1), mode
            assert "z^2 - 1" in captured.out and "nan" not in captured.out, mode
        # Only the batches' second line reached the oracle.
        assert [p.coefficients for p in oracle_inputs] == [(-1.0, 0.0, 1.0)] * 2

    def test_oracle_error_line_reports_4_and_batch_goes_on(self, capsys, monkeypatch):
        lines = "".join(f"{text}\n" for text in ORACLE_OVERFLOWS.values())
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{lines}z^2 - 1\n"))
        assert main(["oracle", "--json"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["polynomial"] == "z^2 - 1"
        assert captured.err == (
            f"error: line 1: {ORACLE_ERRORS['cubic']}\n"
            f"error: line 2: {ORACLE_ERRORS['quadratic']}\n"
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", WIDE_QUADRATIC], 0),
            (["solve", "--oracle", WIDE_QUADRATIC], 4),  # the oracle's roots are nan
            (["oracle", WIDE_QUADRATIC], 4),
            (["solve", CUBIC_1E300], 4),
            (["solve", "--oracle", CUBIC_1E300], 4),
            (["oracle", CUBIC_1E300], 4),
            (["solve", f"z^4 + 1{'0' * 155}z^3 + 1"], 4),  # the resolvent overflows
            (["solve", "--oracle", f"z^4 + 1{'0' * 155}z^3 + 1"], 4),
            (["oracle", f"z^4 + 1{'0' * 155}z^3 + 1"], 4),
            (["solve", f"z^2 + 1{'0' * 200}z"], 0),
            (["solve", "--oracle", f"z^2 + 1{'0' * 200}z"], 0),
            (["oracle", f"z^2 + 1{'0' * 200}z"], 0),
            (["split-system", "z^2 + z + 1", "--x=1e200", "--y=0"], 4),  # x^2 overflows
        ],
        ids=[
            f"{command}-{name}"
            for name in ("quadratic-1e160", "cubic-1e300", "quartic-1e155", "quadratic-1e200")
            for command in ("solve", "solve-oracle", "oracle")
        ]
        + ["split-system-x-1e200"],
    )
    def test_json_never_changes_the_exit_code(self, argv, code, capsys):
        # A refused result prints nothing on stdout and one error line.
        for mode in ([], ["--json"]):
            assert main([*argv, *mode]) == code, mode
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            if code == 4:
                assert captured.out == "" and captured.err.count("\n") == 1, mode
                assert captured.err.startswith("error: "), mode
            else:
                assert captured.out != "" and captured.err == "", mode

    @pytest.mark.parametrize("kind", REFUSALS)
    def test_refusal_prints_only_its_error(self, kind, capsys, monkeypatch):
        # In both modes a refused input prints nothing on stdout and exactly
        # its error on stderr; in a batch the error names the input's stdin
        # line, blank lines counted.
        command, text, code, message = REFUSALS[kind]
        if "monkeypatched" in kind:
            monkeypatch.setattr("splitroots.oracle.find_roots", _raise(OverflowError("x")))
        for mode in ([], ["--json"]):
            assert main([*command, *mode, text]) == code, mode
            assert capsys.readouterr() == ("", f"error: {message}\n"), mode
            if command[0] == "split-system":  # one expression only, no batch mode
                continue
            monkeypatch.setattr("sys.stdin", io.StringIO(f"\n{text}\n"))
            assert main([*command, *mode]) == code, mode
            assert capsys.readouterr() == ("", f"error: line 2: {message}\n"), mode

    def test_option_limits_are_inclusive(self, capsys):
        assert main(["bench", "--n", "1"]) == 0
        assert main(["solve", "z^2 - 1", "--tolerance", "0"]) == 0
        assert capsys.readouterr().err == ""


class TestJsonRecords:
    def test_solve_record_round_trip(self, capsys):
        assert main(["solve", "z^3 - 7z + 6", "--json", "--show-depressed", "--oracle"]) == 0
        data = json.loads(capsys.readouterr().out)
        record = OutputRecord.from_dict(data)
        assert record.to_dict() == data
        assert record.polynomial == "z^3 - 7z + 6"
        assert record.method == "split-closed-form"
        assert len(record.roots) == 3
        assert record.diagnostics["depressed_coefficients"] == {
            "a": -7.0,
            "b": 6.0,
            "shift": 0.0,
        }
        assert record.diagnostics["oracle_max_pairing_distance"] <= 1e-7

    def test_oracle_agreement_on_even_quartic(self, capsys):
        assert main(["solve", "z^4 - 5z^2 + 4", "--oracle", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        res = sorted((r["re"], r["im"]) for r in data["roots"])
        assert res == pytest.approx([(-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert data["diagnostics"]["oracle_max_pairing_distance"] <= 1e-10

    def test_schema_example_is_what_solve_prints(self, capsys):
        # docs/output-schema.md's example record, byte for byte.
        schema = (pathlib.Path(__file__).parents[1] / "docs" / "output-schema.md").read_text()
        example = schema.split("## Output record\n\n```json\n", 1)[1].split("```", 1)[0]
        assert main(["solve", "z^3 - 7z + 6", "--json"]) == 0
        assert capsys.readouterr().out == example

    def test_roots_sorted_descending(self, capsys):
        main(["solve", "z^3 - 7z + 6", "--json"])
        data = json.loads(capsys.readouterr().out)
        res = [r["re"] for r in data["roots"]]
        assert res == sorted(res, reverse=True)

    def test_every_root_has_required_fields(self, capsys):
        main(["solve", "z^4 - 5z^2 + 4", "--json"])
        data = json.loads(capsys.readouterr().out)
        for r in data["roots"]:
            assert set(r) == {"re", "im", "residual", "branch_tag"}

    def test_oracle_record(self, capsys):
        assert main(["oracle", "z^2 + 1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "oracle"
        assert data["diagnostics"]["converged"] is True
        ims = sorted(r["im"] for r in data["roots"])
        assert ims == pytest.approx([-1.0, 1.0])

    def test_split_system_record(self, capsys):
        assert (
            main(["split-system", "z^2 + z + 1", "--x=-0.5", "--y=0.8660254", "--json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["roots"] == []
        systems = [sr["system"] for sr in data["diagnostics"]["split_residuals"]]
        assert systems == ["S1"]

    def test_cubic_split_system_shows_both_systems(self, capsys):
        assert main(["split-system", "z^3 - 7z + 6", "--x=2", "--y=0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        systems = [sr["system"] for sr in data["diagnostics"]["split_residuals"]]
        assert systems == ["S2", "S3"]

    def test_bench_json(self, capsys):
        assert main(["bench", "--n", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [(row["degree"], row["method"]) for row in data["rows"]] == [
            (2, "split-closed-form"), (3, "split-closed-form"), (4, "split-closed-form")
        ]
        for row in data["rows"]:
            assert set(row) == {"degree", "method", "n", "median_ns_per_solve"}
            assert row["n"] == 5

    def test_bench_json_keys_compare_bench_reads(self, capsys):
        # perfbench/compare_bench.py runs `bench --json --seed S --n N` and
        # reads the closed-form row of each degree.
        assert main(["bench", "--json", "--seed", "7", "--n", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["seed"], data["n"]) == (7, 2)
        for degree in (2, 3, 4):
            rows = [
                row for row in data["rows"]
                if row["method"] == "split-closed-form" and row["degree"] == degree
            ]
            assert len(rows) == 1, degree
            assert rows[0]["n"] == 2
            assert rows[0]["median_ns_per_solve"] > 0


class _CountingJson:
    """Stands in for the json module in splitroots.cli, counting dumps calls."""

    def __init__(self):
        self.dumps_calls = 0

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(*args, **kwargs)


class _CountingStdout(io.StringIO):
    """A stdout that keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestJsonEmit:
    """Each --json record is one json.dumps call and one write ending in a newline."""

    def _run(self, monkeypatch, argv, stdin=None):
        from splitroots import cli

        counting_json, stdout = _CountingJson(), _CountingStdout()
        monkeypatch.setattr(cli, "json", counting_json)
        monkeypatch.setattr("sys.stdout", stdout)
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        return code, counting_json.dumps_calls, stdout.writes

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "z^3 - 7z + 6", "--json"],
            ["solve", "z^4 - 3z^3 + 1", "--json", "--show-depressed", "--oracle"],
            ["oracle", "z^2 + 1", "--json"],
            ["split-system", "z^3 - 7z + 6", "--x=2", "--y=0", "--reduce", "--json"],
        ],
    )
    def test_single_expression(self, monkeypatch, argv):
        code, dumps_calls, writes = self._run(monkeypatch, argv)
        assert (code, dumps_calls, len(writes)) == (0, 1, 1)
        assert writes[0].endswith("}\n")
        json.loads(writes[0])

    @pytest.mark.parametrize("flags", [[], ["--show-depressed", "--oracle"]])
    def test_batch(self, monkeypatch, flags):
        # The third line's record holds a non-finite number: it is encoded
        # once, refused, and not written.
        lines = ["z^2 - 1", "z^3 - 7z + 6", CUBIC_1E300, "z^4 - 3z^3 + 1"]
        code, dumps_calls, writes = self._run(
            monkeypatch, ["solve", "--json", *flags], "\n".join(lines) + "\n"
        )
        assert (code, dumps_calls, len(writes)) == (4, 4, 3)
        for text in writes:
            assert text.endswith("}\n") and text.count("\n") == 1
        polynomials = [json.loads(text)["polynomial"] for text in writes]
        assert polynomials == ["z^2 - 1", "z^3 - 7z + 6", "z^4 - 3z^3 + 1"]

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_only_in_diagnostics(self, monkeypatch, capsys, distance):
        # The roots are finite; only the oracle distance is not.
        from splitroots import cli

        distances = [distance, distance, 0.0]
        monkeypatch.setattr(cli, "max_pairing_distance", lambda computed, reference: distances.pop(0))
        error = "error: the result for z^2 - 1 holds a non-finite number (inf or nan)\n"
        assert main(["solve", "--json", "--oracle", "z^2 - 1"]) == 4
        assert capsys.readouterr() == ("", error)
        monkeypatch.setattr("sys.stdin", io.StringIO("z^2 - 1\nz^2 - 4\n"))
        assert main(["solve", "--json", "--oracle"]) == 4
        captured = capsys.readouterr()
        assert captured.err == error.replace("error: ", "error: line 1: ")
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["polynomial"] for r in records] == ["z^2 - 4"]
        assert records[0]["diagnostics"] == {"oracle_max_pairing_distance": 0.0}


def _reference_residual_warnings(p, rs, tolerance):
    """``cli._residual_warnings`` before its early return and overflow rule, kept as the reference."""
    from splitroots.cli import _fmt_root

    bound = tolerance * max(1.0, max(map(abs, p.coefficients)))
    degree = p.degree
    # A non-finite residual (nan compares false) is over any threshold.
    offenders = [
        z
        for z, r in zip(rs.roots, rs.residuals)
        if not math.isfinite(r) or r > bound * max(1.0, abs(z)) ** degree
    ]
    for z in offenders:
        print(
            f"warning: root {_fmt_root(z)} exceeds the residual threshold {tolerance}",
            file=sys.stderr,
        )


def _residual_cases(seed, count):
    """Seeded (polynomial, roots, tolerance) cases around the tolerance and the thresholds."""
    rng = random.Random(seed)
    special = (0.0, float("nan"), float("inf"), float("-inf"))
    for _ in range(count):
        degree = rng.randint(1, 4)
        coefficients = [rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3, 3) for _ in range(degree)]
        p = RealPolynomial((*coefficients, rng.choice((1.0, -2.5, 1e-3))))
        tolerance = rng.choice((0.0, 1e-16, 1e-8, float("inf")))
        bound = tolerance * max(1.0, max(map(abs, p.coefficients)))
        roots, residuals = [], []
        for _ in range(degree):
            size = 10.0 ** rng.uniform(-5, 150 if rng.random() < 0.2 else 3)
            parts = [rng.choice((1.0, -1.0)) * size, rng.choice((0.0, size, -size))]
            if rng.random() < 0.05:
                parts[rng.randrange(2)] = rng.choice(special[1:])
            z = complex(*parts)
            roots.append(z)
            if cmath.isnan(z):
                # As in the CLI, such a root's residual is nan.  A finite one
                # would reach abs(z), which in CPython can raise a stale
                # OverflowError (errno left by an earlier overflow) for a nan part.
                residuals.append(math.nan)
                continue
            threshold = bound * max(1.0, abs(z)) ** degree if abs(z) < 1e60 else bound
            r = rng.choice(
                (
                    tolerance,
                    math.nextafter(tolerance, math.inf),
                    bound,
                    threshold,
                    math.nextafter(threshold, math.inf),
                    math.nextafter(bound, 0.0),
                    bound * 10.0 ** rng.uniform(-3, 3),
                    rng.choice(special[:3]),
                )
            )
            residuals.append(abs(r))
        yield p, RootSet(roots, residuals, ["t"] * degree), tolerance


class TestResidualWarnings:
    """``_residual_warnings`` against the reference copy of it without the early return.

    The CLI calls it only on a record that ``_emit`` printed, so every root
    and residual is finite; a case holding a non-finite one checks that
    ``_emit`` raises its refusal instead, printing nothing.
    """

    def test_matches_the_reference(self, capsys):
        from splitroots import cli
        from splitroots.cli import _fmt_root, _residual_warnings

        outcomes = {"warned": 0, "silent": 0, "overflow": 0, "refused": 0}
        for p, rs, tolerance in _residual_cases(20261019, 20_000):
            if not all(map(cmath.isfinite, rs.roots)) or not all(map(math.isfinite, rs.residuals)):
                rows = list(zip(rs.roots, rs.residuals, rs.branch_tags))
                record = cli._record_dict(cli.format_polynomial(p), "split-closed-form", rows, None)
                for mode in (False, True):
                    args = SimpleNamespace(json=mode)
                    with pytest.raises(cli._Refused) as refused:
                        cli._emit(record, cli._roots_text, args, 1)
                    assert refused.value.code == 4, (p, rs)
                    assert str(refused.value).startswith("error: "), (p, rs)
                    assert capsys.readouterr() == ("", ""), (p, rs)
                outcomes["refused"] += 1
                continue
            try:
                _reference_residual_warnings(p, rs, tolerance)
            except OverflowError:
                # max(1, |z|) ** degree leaves the float range, where the
                # reference raises.  Such a root's threshold counts as inf, or
                # as 0 under a zero tolerance, so its finite residual warns
                # only when the tolerance is 0 and the residual is not.
                capsys.readouterr()
                outcomes["overflow"] += 1
                want = ""
                for z, r in zip(rs.roots, rs.residuals):
                    try:
                        _reference_residual_warnings(p, RootSet([z], [r], ["t"]), tolerance)
                        want += capsys.readouterr().err
                    except OverflowError:
                        capsys.readouterr()
                        if tolerance == 0.0 and r > 0.0:
                            want += f"warning: root {_fmt_root(z)} exceeds the residual threshold 0.0\n"
                _residual_warnings(p, rs, tolerance, None)
                assert capsys.readouterr() == ("", want), (p, rs, tolerance)
                continue
            want = capsys.readouterr()
            _residual_warnings(p, rs, tolerance, None)
            assert capsys.readouterr() == want, (p, rs, tolerance)
            outcomes["warned" if want.err else "silent"] += 1
        # Both outcomes and the overflow are reached often.
        assert min(outcomes.values()) >= 500, outcomes


class TestTextOutput:
    def test_cubic_split_note_present(self, capsys):
        main(["split-system", "z^3 - 7z + 6", "--x=2", "--y=0"])
        out = capsys.readouterr().out
        assert "negation of Im(p(x+iy))" in out
        assert "system S2" in out
        assert "system S3" in out

    def test_reduce_prints_reduction(self, capsys):
        main(["split-system", "z^3 - 7z + 6", "--reduce"])
        out = capsys.readouterr().out
        assert "naive reduction (c3, c1, c0): 8, -14, -6" in out

    def test_reduce_prints_resolvent(self, capsys):
        main(["split-system", "z^4 - 7z^2 + 6z", "--reduce"])
        out = capsys.readouterr().out
        assert "resolvent: 1, -3.5, 3.0625, -0.5625" in out

    def test_show_depressed_text(self, capsys):
        main(["solve", "w^3 - 6w^2 + 11w - 6", "--show-depressed"])
        out = capsys.readouterr().out
        assert "depressed: a = -1, b = 0, shift = -2" in out

    def test_show_depressed_depresses_once_per_line(self, capsys, monkeypatch):
        from splitroots import cli

        calls = []
        for degree in (3, 4):
            spec = cli._DEGREES[degree]

            def counting(p, depress=spec.depress):
                calls.append(p.degree)
                return depress(p)

            monkeypatch.setitem(cli._DEGREES, degree, spec._replace(depress=counting))
        monkeypatch.setattr("sys.stdin", io.StringIO("z^3 - 6z^2 + 11z - 6\nz^4 - 3z^3 + 1\n"))
        assert main(["solve", "--show-depressed", "--oracle"]) == 0
        assert calls == [3, 4]

    def test_json_builds_no_text_lines(self, capsys, monkeypatch):
        from splitroots import cli

        calls = []

        def counting(z, fmt_root=cli._fmt_root):
            calls.append(z)
            return fmt_root(z)

        monkeypatch.setattr(cli, "_fmt_root", counting)
        quartic = "2z^4 - 3z^3 + z^2 + 4z - 1"
        assert main(["solve", quartic, "--json", "--show-depressed", "--oracle"]) == 0
        assert main(["oracle", quartic, "--json"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("z^3 - 7z + 6\nz^2 + 1\n"))
        assert main(["solve", "--json", "--show-depressed", "--oracle"]) == 0
        assert calls == []
        assert main(["solve", quartic]) == 0
        assert len(calls) == 4
        capsys.readouterr()

    def test_default_threshold_no_warning(self, capsys):
        main(["solve", "z^3 - 7z + 6"])
        assert capsys.readouterr().err == ""

    def test_tolerance_warning_on_stderr(self, capsys):
        main(["solve", "z^3 - 7z + 6", "--tolerance", "1e-30"])
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "exceeds the residual threshold" in captured.err
        # warnings must not contaminate stdout
        assert "warning:" not in captured.out

    def test_batch_warning_names_its_line(self, capsys, monkeypatch):
        # Under a zero tolerance only the second line's roots, whose residuals
        # are not 0, warn; each warning names stdin line 2.
        monkeypatch.setattr("sys.stdin", io.StringIO("z^2 - 4\nz^3 - 7z + 6\n"))
        assert main(["solve", "--tolerance", "0"]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert warnings and all(w.startswith("warning: line 2: root ") for w in warnings)

    def test_overflowing_discriminant_gives_finite_roots(self, capsys):
        # The linear coefficient 1e160 overflows its square; the roots still
        # come out as -1e-160 and -1e160, with no residual warning.
        assert main(["solve", WIDE_QUADRATIC]) == 0
        captured = capsys.readouterr()
        roots = captured.out.split("roots:\n")[1].splitlines()
        assert roots[0] == "  -1e-160  (residual 0.000e+00, branch trivial-imaginary-branch:+)"
        # Text mode spells -1e160 as JSON does, not as a 161-digit integer.
        assert roots[1].startswith("  -1e+160  (residual 1.000e+00, ")
        assert captured.err == ""

    def test_bench_text_table(self, capsys):
        assert main(["bench", "--n", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["degree", "method", "n", "median", "ns/solve"]
        assert [line.split()[:3] for line in out[1:]] == [
            [str(degree), "split-closed-form", "3"] for degree in (2, 3, 4)
        ]


class TestBatchMode:
    def test_text_batch(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("z^2 - 1\n\nz^5 + 1\nz^2 + 2z + 2\n")
        )
        code = main(["solve"])
        captured = capsys.readouterr()
        assert code == 3  # first failing line wins
        blocks = captured.out.strip().split("\n\n")
        assert len(blocks) == 2
        assert "degree 5" in captured.err

    def test_json_batch_is_json_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2 - 2\nx^3 - x\n"))
        code = main(["solve", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line]
        assert [r["polynomial"] for r in records] == ["x^2 - 2", "x^3 - x"]

    def test_oracle_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("z^2 - 4\nz^2 - 9\n"))
        code = main(["oracle", "--json"])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 2
        assert all(r["method"] == "oracle" for r in records)

    def test_overflowing_line_reports_4_and_batch_goes_on(self, capsys, monkeypatch):
        big = "1" + "0" * 155
        monkeypatch.setattr("sys.stdin", io.StringIO(f"z^4 + {big}z^3 + 1\nz^2 - 1\n"))
        code = main(["solve"])
        captured = capsys.readouterr()
        assert code == 4
        assert "resolvent coefficients must be finite" in captured.err
        assert captured.out.startswith("polynomial: z^2 - 1\n")

    def test_json_batch_is_strict_json(self, capsys, monkeypatch):
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        big = "1" + "0" * 155
        lines = ["z^2 - 1", CUBIC_1E300, f"z^4 + {big}z^3 + 1", "z^3 - 7z + 6"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["solve", "--json"])
        captured = capsys.readouterr()
        assert code == 4
        records = [json.loads(line, parse_constant=reject) for line in captured.out.splitlines()]
        assert [r["polynomial"] for r in records] == ["z^2 - 1", "z^3 - 7z + 6"]
        assert captured.err.count("error:") == 2

    def test_parse_error_line_reports_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 & 3\nz^2 - 1\n"))
        code = main(["solve"])
        captured = capsys.readouterr()
        assert code == 2
        assert "polynomial: z^2 - 1" in captured.out


class TestStartup:
    """Stdlib modules that only some commands need stay off the import path."""

    @staticmethod
    def _run(*args):
        src = str(pathlib.Path(splitroots.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=60
        )

    def test_import_leaves_heavy_modules_unloaded(self):
        proc = self._run(
            "-c",
            "import sys, splitroots.cli; print(*sorted({'dataclasses', 'inspect', "
            "'statistics', 'decimal', 'splitroots.oracle'} & set(sys.modules)))",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")

    def test_library_import_loads_the_solver_only(self):
        proc = self._run(
            "-c",
            "import sys, splitroots; "
            "splitroots.solve(splitroots.RealPolynomial((-1.0, 0.0, 1.0))); "
            "print(*sorted({'re', 'splitroots.oracle', 'splitroots.parser'} & set(sys.modules)))",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")

    def test_solve_loads_the_oracle_only_for_oracle(self):
        script = (
            "import sys; from splitroots.cli import main; code = main(sys.argv[1:]); "
            "print('splitroots.oracle' in sys.modules, code, file=sys.stderr)"
        )
        plain = self._run("-c", script, "solve", "--json", "z^2 - 1")
        assert plain.stderr == "False 0\n"
        assert json.loads(plain.stdout)["roots"]
        crosscheck = self._run("-c", script, "solve", "--json", "--oracle", "z^2 - 1")
        assert crosscheck.stderr == "True 0\n"
        assert json.loads(crosscheck.stdout)["diagnostics"]["oracle_max_pairing_distance"] == 0.0

    def test_bench_loads_its_modules_when_run(self):
        # bench times the closed form only, so it never loads the oracle.
        script = (
            "import sys; from splitroots.cli import main; code = main(sys.argv[1:]); "
            "print('splitroots.oracle' in sys.modules, code, file=sys.stderr)"
        )
        proc = self._run("-c", script, "bench", "--n", "1", "--json")
        assert proc.stderr == "False 0\n"
        rows = json.loads(proc.stdout)["rows"]
        assert [row["method"] for row in rows] == ["split-closed-form"] * 3
        assert not any("max_residual" in row for row in rows)

    def test_exponent_coefficient_is_expanded_when_echoed(self):
        proc = self._run("-m", "splitroots.cli", "solve", "z^2 - 0.00000000000000000001")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("polynomial: z^2 - 0.00000000000000000001\n")


class TestLazyNames:
    """The oracle's and the parser's names on the package load on first use.

    Each check runs in a fresh interpreter that has not loaded either yet.
    """

    def test_dir_lists_the_lazy_names(self):
        # The one check run in this process, where some lazy names may have
        # been loaded already.
        names = dir(splitroots)
        assert names == sorted(set(names))
        assert set(splitroots._LAZY) | set(splitroots.__all__) <= set(names)

    @pytest.mark.parametrize(
        "check",
        [
            "assert splitroots.find_roots is splitroots.oracle.find_roots\n"
            "assert splitroots.ParseError is splitroots.parser.ParseError\n"
            "import splitroots.oracle as oracle, splitroots.parser as parser\n"
            "for name in lazy:\n"
            "    home = oracle if hasattr(oracle, name) else parser\n"
            "    assert getattr(splitroots, name) is getattr(home, name), name\n"
            "    assert vars(splitroots)[name] is getattr(home, name), name",
            "names = dir(splitroots)\n"
            "assert set(splitroots.__all__) <= set(names)\n"
            "assert {'oracle', 'parser', 'poly_core', 'split_solver'} <= set(names)\n"
            "assert not loaded()",
            "namespace = {}\n"
            "exec('from splitroots import *', namespace)\n"
            "assert set(splitroots.__all__) <= set(namespace)\n"
            "assert namespace['pair_roots'] is sys.modules['splitroots.oracle'].pair_roots\n"
            "parser = sys.modules['splitroots.parser']\n"
            "assert namespace['parse_polynomial'] is parser.parse_polynomial",
            "assert splitroots.oracle is sys.modules['splitroots.oracle']\n"
            "assert loaded() == {'splitroots.oracle'}\n"
            "assert splitroots.parser is sys.modules['splitroots.parser']",
            "try:\n"
            "    splitroots.no_such_name\n"
            "except AttributeError as err:\n"
            "    assert str(err) == \"module 'splitroots' has no attribute 'no_such_name'\", err\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
            "assert not hasattr(splitroots, 'solve_quintic')\n"
            "assert not loaded()",
        ],
        ids=["identity", "dir", "star-import", "submodules", "unknown-name"],
    )
    def test_lazy_name(self, check):
        prelude = (
            "import sys, splitroots\n"
            "def loaded():\n"
            "    return {'splitroots.oracle', 'splitroots.parser'} & set(sys.modules)\n"
            "assert not loaded(), loaded()\n"
            "lazy = ['OracleResult', 'find_roots', 'max_pairing_distance', "
            "'pair_roots', 'ParseError', 'format_polynomial', 'parse_polynomial']\n"
            "assert set(lazy) <= set(splitroots.__all__)\n"
        )
        proc = TestStartup._run("-c", prelude + check)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestClosedPipe:
    def test_closed_reader_exits_quietly(self):
        src = str(pathlib.Path(splitroots.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "splitroots.cli", "solve", "--json"],
                input="z^2-1\nz^3-1\n" * 200,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1
