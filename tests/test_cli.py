"""Tests for the command-line interface: outputs, formats, exit codes."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quadops.cli
import quadops.expansion
from quadops.catalog import builtin
from quadops.cli import build_parser, main
from quadops.dsl import parse
from quadops.presentations import dual

FREE_TEXT = "operad Free { ops: a; }\n"
ASSOC_TEXT = "operad My { ops: m; rel: (x m y) m z = x m (y m z); }\n"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def test_import_generates_no_code():
    # the value classes are plain __slots__ classes: importing the CLI
    # loads no dataclasses, nor the inspect, ast and dis it pulls in
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import quadops.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


class TestDims:
    def test_three_weights_golden(self, capsys):
        code, out, _ = run(capsys, "dims", "builtins", "Xplus", "--max", "3")
        assert code == 0
        assert out == "1, 4, 16\n"

    def test_default_max_is_four(self, capsys):
        code, out, _ = run(capsys, "dims", "builtins", "Dend")
        assert code == 0
        assert out == "1, 2, 5, 14\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "dims",
            "builtins",
            "Xplus",
            "--max",
            "3",
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "dims",
            "operad": "Xplus",
            "weights": [1, 2, 3],
            "dims": [1, 4, 16],
        }

    def test_format_flag_after_subcommand(self, capsys):
        code, out, _ = run(
            capsys,
            "dims",
            "builtins",
            "Xplus",
            "--max",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["dims"] == [1, 4, 16]

    def test_weight_six_needs_no_flag(self, capsys):
        code, out, _ = run(capsys, "dims", "builtins", "As", "--max", "6")
        assert code == 0
        assert out == "1, 1, 1, 1, 1, 1\n"

    def test_weight_above_ceiling_rejected(self, capsys):
        code, _, err = run(
            capsys, "--max-weight", "5", "dims", "builtins", "As", "--max", "6"
        )
        assert code == 2
        assert "ceiling" in err

    def test_weight_eight_within_the_limit(self, capsys):
        # Dend at weight 8: 123,552 generator rows
        code, out, _ = run(capsys, "dims", "builtins", "Dend", "--max", "8")
        assert code == 0
        assert out == "1, 2, 5, 14, 42, 132, 429, 1430\n"


class TestPreflight:
    @pytest.fixture(autouse=True)
    def no_elimination(self, monkeypatch):
        def refuse(relations, n):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(quadops.expansion, "_ideal_echelon", refuse)

    @pytest.mark.parametrize(
        "argv,operad,rows",
        (
            (("dims", "builtins", "Xplus", "--max", "8"), "Xplus", "21,086,208"),
            (("expand", "builtins", "Xplus", "--weight", "8"), "Xplus", "21,086,208"),
            (("gk-check", "builtins", "Xplus", "--max", "8"), "Xplus", "21,086,208"),
            # the first of the catalog over the limit
            (("--max-weight", "8", "verify-paper"), "DendSquareDias", "19,768,320"),
        ),
        ids=("dims", "expand", "gk-check", "verify-paper"),
    )
    def test_oversized_work_refused_before_elimination(
        self, capsys, argv, operad, rows
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"{operad} at weight 8 needs {rows} generator rows over "
            "7,028,736 monomials; the limit is 1,000,000\n"
        )

    @pytest.mark.parametrize(
        "argv,weight",
        (
            (("dims", "builtins", "Xplus", "--max", "4000"), 4000),
            (("dims", "builtins", "As", "--max", "8000"), 8000),
            (("expand", "builtins", "Dend", "--weight", "6000"), 6000),
            (("dims", "builtins", "As", "--max", "2000000"), 2000000),
            (("--max-weight", "4000", "verify-paper"), 4000),
        ),
        ids=("dims-Xplus", "dims-As", "expand", "dims-huge", "verify-paper"),
    )
    def test_huge_weight_refused_at_once(self, argv, weight):
        # counting this work exactly would take thousands of digits, or
        # minutes of math.comb; a cold process must refuse within a second
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "quadops.cli", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert time.perf_counter() - started < 1
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"weight {weight} is refused for every operad: from weight 15 on, "
            "one operation alone has more monomials than the limit of 1,000,000\n"
        )

    def test_weight_fourteen_is_still_counted(self, capsys):
        code, _, err = run(capsys, "dims", "builtins", "As", "--max", "14")
        assert code == 2
        assert err.startswith("As at weight 14 needs 4,457,400 generator rows over 742,900 ")

    def test_dual_is_checked_too(self, tmp_path, capsys):
        # one operation and no relations: the free operad has no ideal
        # rows, but its dual has every relation
        path = tmp_path / "free.ops"
        path.write_text(FREE_TEXT, encoding="utf-8")
        code, _, err = run(capsys, "gk-check", str(path), "Free", "--max", "13")
        assert code == 2
        assert err.startswith("Free_dual at weight 13 needs 2,288,132 ")


class TestIso:
    def test_self_duality_swap(self, capsys):
        code, out, _ = run(capsys, "iso", "builtins", "Xplus", "dual:Xplus")
        assert code == 0
        assert out.splitlines() == [
            "↖ -> ↖*",
            "↗ -> ↙*",
            "↙ -> ↗*",
            "↘ -> ↘*",
        ]

    def test_json_carries_the_permutation(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "iso",
            "builtins",
            "Xplus",
            "dual:Xplus",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["permutation"] == [0, 2, 1, 3]
        assert payload["signs"] == [1, 1, 1, 1]

    def test_dimension_mismatch_prints_none(self, capsys):
        code, out, _ = run(capsys, "iso", "builtins", "Dend", "Dias")
        assert code == 0
        assert out == "none\n"

    def test_operation_count_mismatch_prints_none(self, capsys):
        code, out, _ = run(capsys, "iso", "builtins", "As", "Dend")
        assert code == 0
        assert out == "none\n"


class TestPresentationCommands:
    def test_dual_output_reparses(self, capsys):
        code, out, _ = run(capsys, "dual", "builtins", "As")
        assert code == 0
        assert out == (
            "operad As_dual {\n"
            "  ops: ·*;\n"
            "  rel: (x ·* y) ·* z = x ·* (y ·* z);\n"
            "}\n"
        )

    # sha256 of `quadops dual builtins NAME`, frozen from the output of
    # the dense Fraction implementation; the relation rows are printed
    # from the integer RREF rows, so this guards that conversion
    @pytest.mark.parametrize(
        "name,digest",
        (
            ("As", "40ccf42979c3d760e8170cee3122d49e5c0bd9c06aedb4b964f3704c6b344df9"),
            ("Dend", "b8cfde8c87482efa34330de043fa20d038af674dd780346c322bd2f54423b936"),
            ("Dias", "426f39a72dd8932a68daa15fc9442c6d1081176857463f4f7daf8bf7cf99131c"),
            (
                "DendSquareDias",
                "44d37386ed5eb5f14d37fc8c10b9de06c7d4677591072cca8aad31f9f2d35496",
            ),
            ("Xplus", "3cb0f0eabf9295a518e78ba9bec31754af722b1b348d089fc04d9887ba7b1f87"),
            ("Xminus", "8d0da08f80ed962cdf78c51aaa6bb263a2765f1664da97d8f4dc6f74550e5efb"),
        ),
    )
    def test_printed_dual_of_every_builtin_frozen(self, capsys, name, digest):
        code, out, _ = run(capsys, "dual", "builtins", name)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_dual_prefix_round_trips(self, capsys):
        code, out, _ = run(capsys, "dual", "builtins", "dual:As")
        assert code == 0
        result = parse(out)
        assert result.ok
        p = result.presentations["As_dual_dual"]
        assert p.relations == builtin("As").relations

    def test_square_matches_the_builtin_tableau(self, capsys):
        code, out, _ = run(capsys, "square", "builtins", "Dend", "Dias")
        assert code == 0
        result = parse(out)
        assert result.ok
        p = result.presentations["Dend_square_Dias"]
        assert p.relations == builtin("DendSquareDias").relations

    def test_quotient_with_aliases_reaches_sixteen(self, capsys):
        code, out, _ = run(
            capsys,
            "quotient",
            "builtins",
            "DendSquareDias",
            "--rel",
            "(x ne y) se z - (x nw y) se z = "
            "x nw (y sw z) - x nw (y se z)",
        )
        assert code == 0
        result = parse(out)
        assert result.ok
        p = result.presentations["DendSquareDias_quotient"]
        assert p.relations == builtin("Xplus").relations

    def test_square_json_dimension(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "square", "builtins", "Dend", "Dias"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 15
        assert len(payload["operations"]) == 4
        assert len(payload["relations"]) == 15

    def test_bad_rel_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "quotient",
            "builtins",
            "As",
            "--rel",
            "(x qq y) dot z = 0",
        )
        assert code == 2
        assert "undeclared operation qq" in err


class TestGkCheck:
    def test_half_products_pass(self, capsys):
        code, out, _ = run(
            capsys, "gk-check", "builtins", "Dend", "--max", "4"
        )
        assert code == 0
        assert "defect coefficients for degrees 1..4: 0, 0, 0, 0" in out
        assert "verdict: zero through degree 4" in out
        assert "note:" in out

    def test_json_matches_text_numbers(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "gk-check",
            "builtins",
            "Dend",
            "--max",
            "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [1, 2, 5, 14]
        assert payload["dual_dims"] == [1, 2, 3, 4]
        assert payload["defect"] == [0, 0, 0, 0]
        assert payload["zero"] is True
        assert "note" in payload

    def test_free_presentation_passes(self, tmp_path, capsys):
        # the free operad and the all-relations operad are genuinely
        # dimension-inverse, so this must exit 0
        path = tmp_path / "free.ops"
        path.write_text(FREE_TEXT, encoding="utf-8")
        code, out, _ = run(
            capsys, "gk-check", str(path), "Free", "--max", "4"
        )
        assert code == 0
        assert "zero through degree 4" in out

    def test_sign_flipped_product_fails_at_degree_five(self, tmp_path, capsys):
        # computed dims collapse to (1, 1, 1, 0, 0); the first defect a
        # self-dual pair can show is at odd degree, here 4 * t^5
        path = tmp_path / "anti.ops"
        path.write_text(
            "operad Anti { ops: a; rel: (x a y) a z = -x a (y a z); }\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "gk-check", str(path), "Anti", "--max", "5"
        )
        assert code == 1
        assert "nonzero" in out
        assert "0, 0, 0, 0, 4" in out

    def test_order_one_rejected(self, capsys):
        code, _, err = run(
            capsys, "gk-check", "builtins", "As", "--max", "1"
        )
        assert code == 2
        assert "order at least 2" in err


class TestExpand:
    def test_dimension_only(self, capsys):
        code, out, _ = run(
            capsys, "expand", "builtins", "Dend", "--weight", "3"
        )
        assert code == 0
        assert out == "weight 3 dimension 5\n"

    def test_basis_listing(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "builtins",
            "Dend",
            "--weight",
            "3",
            "--basis",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "weight 3 dimension 5"
        assert len(lines) == 6
        assert "x ∧ (y ∧ z)" in lines

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "expand",
            "builtins",
            "Xplus",
            "--weight",
            "3",
            "--basis",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 16
        assert len(payload["basis"]) == 16


    def test_weight_four_basis_golden(self, capsys):
        # frozen output; the lines follow the pivot order of the ideal
        code, out, _ = run(
            capsys, "expand", "builtins", "Dend", "--weight", "4", "--basis"
        )
        assert code == 0
        assert out.splitlines() == [
            "weight 4 dimension 14",
            "(x ∨ (y ∧ z)) ∨ w",
            "(x ∨ (y ∨ z)) ∨ w",
            "(x ∨ y) ∨ (z ∧ w)",
            "(x ∨ y) ∨ (z ∨ w)",
            "x ∧ ((y ∨ z) ∨ w)",
            "x ∨ ((y ∨ z) ∨ w)",
            "x ∧ (y ∧ (z ∧ w))",
            "x ∧ (y ∧ (z ∨ w))",
            "x ∧ (y ∨ (z ∧ w))",
            "x ∧ (y ∨ (z ∨ w))",
            "x ∨ (y ∧ (z ∧ w))",
            "x ∨ (y ∧ (z ∨ w))",
            "x ∨ (y ∨ (z ∧ w))",
            "x ∨ (y ∨ (z ∨ w))",
        ]

    # sha256 of `quadops --format json expand builtins NAME --weight 4
    # --basis`, frozen; it pins the tree order, the label order, the pivot
    # choice and the monomial rendering together
    @pytest.mark.parametrize(
        "name,digest",
        (
            ("As", "0a1a9dee9efa6c1823947bd27b3c79d12fb28ff5f8bbb6a3a9a66e2d5aa0aec3"),
            ("Dend", "eaba741b15c2d06153f28427e1a1c3c57b54685360e41f6fa22b03533499796f"),
            ("Dias", "3db99b184983306bc49b7ea362b56c17f31db270b63d0fe4a08aa6e52d917576"),
            (
                "DendSquareDias",
                "f9847cac9bf34b671a861776b2c4e5b0e5203034c81397018d0a6991f0607300",
            ),
            ("Xplus", "4dce98157422ecf0a4f7265c46284fd314c61fbe6e7815fd78fc78e8245c0f47"),
            ("Xminus", "259cbef2d085273a25fcffe0cc7698d1394ffc7fe0d351c440e30f2763e1d4b6"),
        ),
    )
    def test_weight_four_basis_of_every_builtin_frozen(self, capsys, name, digest):
        code, out, _ = run(
            capsys, "--format", "json", "expand", "builtins", name,
            "--weight", "4", "--basis",
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_closed_pipe_exits_quietly(self):
        # the read end is closed before the command writes, as when
        # `| head` has already exited
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quadops.cli", "expand", "builtins",
                 "Dend", "--weight", "4", "--basis"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestVerifyPaper:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert out.splitlines()[0] == (
            "45 checks: 41 pass, 0 fail, 4 findings"
        )

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify-paper")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {
            "total": 45,
            "pass": 41,
            "fail": 0,
            "finding": 4,
            "ok": True,
        }

    def test_scan_grid_zero_disables_the_scan(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--scan-grid", "0")
        assert code == 0
        assert out.splitlines()[0] == (
            "44 checks: 40 pass, 0 fail, 4 findings"
        )
        assert "uniqueness-scan" not in out

    def test_weight_three_battery(self, capsys):
        code, out, _ = run(
            capsys, "--max-weight", "3", "verify-paper", "--scan-grid", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "40 checks: 40 pass, 0 fail, 0 findings"
        )

    def test_weight_five_reports_the_order_five_defects(self, capsys):
        code, out, _ = run(
            capsys, "--max-weight", "5", "verify-paper", "--scan-grid", "0"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "44 checks: 38 pass, 2 fail, 4 findings"
        failures = [
            (line.split()[1], lines[i + 2])
            for i, line in enumerate(lines)
            if line.startswith("FAIL")
        ]
        assert failures == [
            (
                "series-defect-sixteen-self-plus",
                "        actual:   coefficients ('0', '0', '0', '0', '0', '54')",
            ),
            (
                "series-defect-sixteen-self-minus",
                "        actual:   coefficients ('0', '0', '0', '0', '0', '100')",
            ),
        ]

    # sha256 of the whole battery report, frozen: every record's id,
    # status, expected and actual value, in text and in JSON, at the
    # default weight and at weight 5
    @pytest.mark.parametrize(
        "argv,exit_code,digest",
        (
            (
                ("verify-paper",),
                0,
                "8a264b5877a2b51e20beeb65d2e8a3cc20f7e05316bfa34887bec9eb672571a5",
            ),
            (
                ("--format", "json", "verify-paper"),
                0,
                "e10c45458e39c3d1b1a7f75c8ef9516545e0b68111b1b0b20c17f398e7fb8ec6",
            ),
            (
                ("--max-weight", "5", "verify-paper"),
                1,
                "813650055a50559fe69736d8593c26bee1334c9f0883a66f1368eba50fc89342",
            ),
        ),
    )
    def test_report_frozen(self, capsys, argv, exit_code, digest):
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_weight_eight_refused_before_the_battery(self, monkeypatch, capsys):
        def refuse(cat, config):
            raise AssertionError("battery reached")

        monkeypatch.setattr(quadops.cli, "verify_all", refuse)
        code, _, err = run(capsys, "--max-weight", "8", "verify-paper")
        assert code == 2
        assert "the limit is 1,000,000" in err

    def test_negative_scan_grid_rejected(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--scan-grid", "-1")
        assert code == 2
        assert "scan radius" in err

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "verify-paper", "--scan-grid", "0", "--report", str(target)
        )
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    def test_json_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "verify-paper",
            "--scan-grid",
            "0",
            "--report",
            str(target),
        )
        assert code == 0
        on_disk = json.loads(target.read_text(encoding="utf-8"))
        assert on_disk == json.loads(out)


class TestFilesAndErrors:
    def test_file_workflow(self, tmp_path, capsys):
        path = tmp_path / "my.ops"
        path.write_text(ASSOC_TEXT, encoding="utf-8")
        code, out, _ = run(capsys, "dims", str(path), "My", "--max", "3")
        assert code == 0
        assert out == "1, 1, 1\n"

    def test_file_dual_uses_declared_names(self, tmp_path, capsys):
        path = tmp_path / "my.ops"
        path.write_text(ASSOC_TEXT, encoding="utf-8")
        code, out, _ = run(capsys, "dual", str(path), "My")
        assert code == 0
        result = parse(out)
        assert result.ok
        assert result.presentations["My_dual"].generators.names == ("m*",)

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ops"
        path.write_text(
            "operad E {\n  ops: a;\n  rel: (x q y) a z = 0;\n}\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "dims", str(path), "E", "--max", "2")
        assert code == 2
        assert "3:11" in err
        assert "undeclared operation q" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dims", "no_such_file.ops", "E")
        assert code == 2
        assert "cannot read" in err

    def test_unknown_operad(self, capsys):
        code, _, err = run(capsys, "dual", "builtins", "Nope")
        assert code == 2
        assert "unknown operad Nope" in err

    def test_unknown_operad_behind_dual_prefix(self, capsys):
        code, _, err = run(capsys, "dual", "builtins", "dual:Nope")
        assert code == 2
        assert "unknown operad Nope" in err

    def test_missing_arguments_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dims"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_findings_do_not_affect_the_exit_code(self, capsys):
        # the battery reports findings at weight 4 yet exits 0
        code, out, _ = run(capsys, "verify-paper", "--scan-grid", "0")
        assert code == 0
        assert "FINDING" in out


class TestMalformedInput:
    # malformed input is a usage error: exit 2 and one line on stderr, never a traceback
    @pytest.mark.parametrize(
        "source,argv,line",
        [
            (
                "operad E { ops: a; rel: ² * (x a y) a z = 0; }\n".encode(),
                ("dims", "{}", "E"),
                "{}:1:25: error: malformed monomial: expected variable x",
            ),
            (
                ("operad E { ops: a; rel: " + "7" * 5000 + " * (x a y) a z = 0; }\n").encode(),
                ("dims", "{}", "E"),
                "{}:1:25: error: number has too many digits",
            ),
            (
                b"operad E { ops: operad; }\n",
                ("quotient", "{}", "E", "--rel", "0 = x operad (y operad z)"),
                "{}:1:17: error: 'operad' cannot name an operation",
            ),
            (
                b"\xffoperad E { ops: a; }\n",
                ("dims", "{}", "E"),
                "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte",
            ),
        ],
        ids=["superscript-digit", "long-number", "operad-operation", "not-utf8"],
    )
    def test_bad_file_exits_two(self, tmp_path, capsys, source, argv, line):
        path = tmp_path / "bad.ops"
        path.write_bytes(source)
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out, err) == (2, "", line.format(path) + "\n")

    def test_superscript_digit_in_rel(self, capsys):
        rel = "(x dot y) dot z = ² * x dot (y dot z)"
        code, out, err = run(capsys, "quotient", "builtins", "As", "--rel", rel)
        assert (code, out) == (2, "")
        assert err == f"--rel {rel!r}: 1:19: error: malformed monomial: expected variable x\n"


def parser_flags() -> set[str]:
    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        flag
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


def test_readme_names_exactly_the_parser_flags():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    section = section.split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named == parser_flags()
