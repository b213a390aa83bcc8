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


# sha256 of `quadops --format json iso builtins FIRST SECOND` for every
# ordered pair of built-ins and their duals with the same number of
# operations, frozen; it pins the witness each search returns (its
# permutation, its signs and the names it assigns) and every "none";
# 22 of the 56 searches find a witness
ISO_DIGESTS = """
As As c9a5a7d94daece79656ecc2eeb0584641d5afe429f8d27fd7d823b5f7f3594d2
As dual:As e65eaa6b7ca4dd8df7a3b8d13c70f961520fa698696cd0476f1f6d29bcac933a
Dend Dend 3e795674aa2243750c6b0629f01c61c16a0fc8e8c8ff7dc389ccf70ebdfcbbbf
Dend Dias 0e3a09b8f1d42e6f4e112e87f72f634d686097f77a4eb83239e9824c1298544a
Dend dual:Dend dc9a512b6bbe272d255099a815dfd321bf37ce31a0c2431ae79b16749f2e0e98
Dend dual:Dias a4b43fed80fb30c583abda2cdb19e227b45eaed620dedcf31e64b087def9e8d0
Dias Dend 984a5fa66a382a36ce02d82a6657158b8ec079c8394395ea17bfcf57d7dc4d95
Dias Dias ca771cbfbbdd92b8959506026457e6299f13a7eab219491ffcc2935ea52a45c5
Dias dual:Dend ff3e24f23f6f5c26a87feba763ed5c5fa47569e8a271b44213607a2f29615ec4
Dias dual:Dias 18719850e2652054bc3d3013ad72ed25209bcb9fe2927f9b0e4a614846e993f3
DendSquareDias DendSquareDias 69c01309c5782cc5bad498cac2f09cf72fa47d212d60112af35d26d5da0eddcd
DendSquareDias Xplus 0f4932a64a458f16be70a60a455ff2ad805ef117c35e3ce3aa0372f817dddb9c
DendSquareDias Xminus 30404f4c944bc813bc5c170652a7aa50450e3157829e24ad038b804655ca4f3a
DendSquareDias dual:DendSquareDias 23521f552ff5165c3710d9f4be1d59f6376dc5761030fe8a319eeb1f8ada9d87
DendSquareDias dual:Xplus 61ffb2d24fe5b6f96a29a2e3eebdca62ec9b187b1a68b3ae39accc96fa5aea99
DendSquareDias dual:Xminus 8de81605aabeb3207bb39872b8595bcaa90b77352c8539f01e24d7f4bd8a0efe
Xplus DendSquareDias ac2601c115078625b6b9c7fd397be59080d14ea73dee0b651a34133e0a34b100
Xplus Xplus 47de3602294be5c03fa876001cf9a5dc4e62c3bdd82284d438bac58544520562
Xplus Xminus d7d050c4e27f2ca40ef393db6146a4ec1d93324971627ecf34bb76de95e28b72
Xplus dual:DendSquareDias 213677c4ea79a39084275b3a091d1becdca85a2506a1d0c7b17c030d99f1799f
Xplus dual:Xplus 746e47c9ceebff56beeb76f778e39e6a979e5d0ce4d8a631658cbb80140ae5a7
Xplus dual:Xminus 017a66ce25a2bc4bf952a37bc1118ef1fc744a5cf59fe148945379e6db3b3991
Xminus DendSquareDias dd1ba52692fa6c81cca38ec0565ff3046731cb1033d514ec4fe32631a29c1850
Xminus Xplus f1c9470948b720d178b3abdb2097c8bbbb841373e1733227345bb97f92ecc02f
Xminus Xminus c6166ca6b854d0356cc433799eae26f488018aad7b6d8354031792cf66e46680
Xminus dual:DendSquareDias 4a05b5154073a047d3e0235e2cd517dd18092a69269e8ba05eb60c74febaa429
Xminus dual:Xplus 2a161dae5d7535ce8e7153bfa1e4c749a5c771b288d9058ea013deb4d60eefdb
Xminus dual:Xminus f803f28d9d8e44e05e8b740b7798c75113a749b96a3414636d322983f695e312
dual:As As dde14d18e46f378358c85a9bdef5cf9012d7b44bcadd96c584053bf535eb9d2c
dual:As dual:As 0ccbc8d3b9c172bb2c05aa3a23599815754cf503f701dbd634a2daa6679d61a6
dual:Dend Dend ac08a4a8ff8f2317f0efabe204511d101773daf0b0f8fea76380d1efaa04f091
dual:Dend Dias 7b7d8a744537977a24e00abd6c19314b58426104b2b3059adcf21966ae867c98
dual:Dend dual:Dend 5a97b5574e522fbe206cd2e8491a977f0a3ee9613afa9e60603b7b5876d1a4d9
dual:Dend dual:Dias 994e29af194493e7ba6295a6fde0c16e1df43640c9dc2f0f732e2a25bd0c0fe3
dual:Dias Dend b44d5a5bf6b484053bbddc6cf9c70651153eedb0ab098bbf002dd40be8990329
dual:Dias Dias 31ce0d5932242bccbb7730ca47e75e90b54a80d744b93a24b2ac9b8bcba30ead
dual:Dias dual:Dend fb50d53cf6e4e8a0ba4383ff69dcd682a0ee613e95593b40e31325f81910e9da
dual:Dias dual:Dias 27a8a4cabc54496ce128119e78125caa08a6e9e56bc8225096e10706a5ffd3f7
dual:DendSquareDias DendSquareDias adf66aa4791e24d366a07f27643988fb2fb39097012aa88e6a3a5f33851bd27b
dual:DendSquareDias Xplus 786b46ab857a783dc5b2b88c2b35647769692fd5dd1f5b7628de01f7e4f44d29
dual:DendSquareDias Xminus 577c8c4a25137e4e9f363bda08f7358f647068e4a822e2c0922f6b83aa86761f
dual:DendSquareDias dual:DendSquareDias 5bf0396e863f1e563abff1087e71cdd2eb942259c6f094e35c9bc06c66c732eb
dual:DendSquareDias dual:Xplus db02fa5044b783e056dab3c6ecaf974859f35829cd7efecafac6c01b5d8deff6
dual:DendSquareDias dual:Xminus bf0222e78930e27b612b54f3be6b49cd5ecccc713b1d49eed1e36a2dd9155db1
dual:Xplus DendSquareDias 6e630134185756f6eb149b26da4e1cfcd93f82d5986e56e601784a88b519306b
dual:Xplus Xplus 58dc029d58f0f3580182264afea0e186cef3d88031d8b3cedcc29d86f2025e7c
dual:Xplus Xminus 997e78f3f79ae9f7d369b9c126d0d1e509755c047b459f2fe84a5c948b31634b
dual:Xplus dual:DendSquareDias 21a09e6ebd76f4df5eff68098711d48c0318cd3ebb67101f6704d8097a0a9d33
dual:Xplus dual:Xplus 675c3463945385fa1ec77549ce1be49aef9d93cd3989c74f1c41d91544193c93
dual:Xplus dual:Xminus 8d78925bc3fbd02d3a9c7c9664726e77f43cb5ee44b738b46a6306a228c5922d
dual:Xminus DendSquareDias a09b25e0c00a984b8567bd114a97caf6c4b11608d8ff1decaf3c45b654114db3
dual:Xminus Xplus 7cdbc5381e8583ad5f1d14cd582f18cc9f831591e5f6864f260932c567007677
dual:Xminus Xminus 615b973a617e0bf30e8bd375d04e77145c90c5ec67ca696fceb5b6890b815023
dual:Xminus dual:DendSquareDias 30f51b5303f2d2b710863afd5a480d5fb379817c610710c0a3a99c9a61035d7d
dual:Xminus dual:Xplus 89c61f1fe897e64f350cf0cd9d3e71a844634f7436a1a0873c961b86499ed7f3
dual:Xminus dual:Xminus f1e6c0b88929f4d51ca1c737329a8b1ac3f007b0a2d6b0a625215d93be1151fb
"""


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

    @pytest.mark.parametrize(
        "first,second,digest", [line.split() for line in ISO_DIGESTS.strip().splitlines()]
    )
    def test_witness_of_every_builtin_pair_frozen(self, capsys, first, second, digest):
        code, out, _ = run(capsys, "--format", "json", "iso", "builtins", first, second)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest



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
