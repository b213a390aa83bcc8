"""Command-line surface for the engine.

Subcommands cover the whole engine: dualization, square products,
quotients, relabeling isomorphism search, free-algebra component
dimensions, the generating-series inverse check, the full verification
battery, and weight-component expansion. Presentations come from a
source file in the text format or from the built-in catalog via the
file argument "builtins"; operand names may be wrapped as
"dual:NAME" to dualize before use.

Exit codes: 0 when every requested check passes (findings included),
1 when a check fails or the reader closes the output pipe early, 2 on
usage or parse errors and on work over ``WORK_LIMIT`` (see ``_preflight``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .catalog import ASCII_ALIASES, catalog
from .dsl import _presentation_text, parse, parse_relation
from .expansion import (
    catalan,
    component_dim,
    format_monomial,
    weight_component,
    weight_work,
)
from .presentations import (
    Presentation,
    dual,
    find_relabeling_iso,
    quotient,
    square,
)
from .series import SERIES_LIMITATION_NOTE, dim_series, gk_defect
from .verify import VerifyConfig, report_payload, report_to_text, verify_all

__all__ = ["main"]

# Largest number of weight-n generator rows, or of ambient monomials, a
# command may ask for. `expand` of Dend at weight 9 (960,960 rows) takes 10
# to 28 s and 401 MB on a 2-core machine, though `dims` counts that weight
# in 0.06 s and 15 MB; Xplus at weight 7 (1,351,680) is refused.
WORK_LIMIT = 1_000_000
# From this weight (15) on, even one operation has catalan(n - 1) > WORK_LIMIT
# monomials: refused uncounted, as the counts grow to thousands of digits.
_REFUSED_FROM = next(n for n in itertools.count(1) if catalan(n - 1) > WORK_LIMIT)

_GLOBAL_FLAGS = (
    ("--format", dict(choices=("text", "json"), help="output format")),
    (
        "--max-weight",
        dict(
            type=int,
            dest="max_weight",
            help="weight of the verify-paper battery (default 4); "
            "a weight ceiling for the other commands",
        ),
    ),
)


# a resolved operand: its display name and its presentation
_Operand = tuple[str, Presentation]


class UsageError(Exception):
    """Bad invocation or unparsable input; exits with code 2."""


def _add_global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    for name, options in _GLOBAL_FLAGS:
        # subparser defaults would overwrite values parsed at the top
        # level, so subparsers only set what was given
        default = None if top else argparse.SUPPRESS
        parser.add_argument(name, default=default, **options)


def _subcommand(
    sub, name: str, handler, help: str, operands: tuple[str, ...] = ()
) -> argparse.ArgumentParser:
    """Register a subcommand with the global flags and, when it names
    operands, the source file they are resolved in."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(handler=handler, operands=operands)
    _add_global_flags(sp, top=False)
    if operands:
        sp.add_argument("file", help="source file or 'builtins'")
    for operand in operands:
        sp.add_argument(operand, help="operad name, optionally dual:NAME")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadops",
        description="computer algebra for binary quadratic operad "
        "presentations",
    )
    _add_global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "dual", _cmd_dual, "print the dual presentation", ("op",))
    _subcommand(sub, "square", _cmd_square, "print the square product", ("op1", "op2"))

    sp = _subcommand(
        sub, "quotient", _cmd_quotient, "add relations and print the quotient", ("op",)
    )
    sp.add_argument(
        "--rel",
        action="append",
        required=True,
        help="relation to add, in the source grammar (repeatable)",
    )

    _subcommand(
        sub, "iso", _cmd_iso, "search for a signed relabeling isomorphism", ("op1", "op2")
    )

    sp = _subcommand(sub, "dims", _cmd_dims, "free-algebra component dimensions", ("op",))
    sp.add_argument("--max", type=int, default=4, help="largest weight")

    sp = _subcommand(
        sub, "gk-check", _cmd_gk, "generating-series inverse test against the dual", ("op",)
    )
    sp.add_argument("--max", type=int, default=4, help="series order")

    sp = _subcommand(sub, "verify-paper", _cmd_verify, "run the full verification battery")
    sp.add_argument(
        "--report", help="also write the report to this path"
    )
    sp.add_argument(
        "--scan-grid",
        type=int,
        default=2,
        dest="scan_grid",
        help="radius of the uniqueness scan grid, 0 disables the scan",
    )

    sp = _subcommand(
        sub, "expand", _cmd_expand, "weight component of the free algebra", ("op",)
    )
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument(
        "--basis",
        action="store_true",
        help="list the surviving basis monomials",
    )

    return parser


def _load(file_arg: str) -> dict[str, Presentation]:
    if file_arg == "builtins":
        return catalog().presentations
    try:
        text = Path(file_arg).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {file_arg}: {exc}") from exc
    result = parse(text)
    if not result.ok:
        lines = [f"{file_arg}:{d}" for d in result.diagnostics]
        raise UsageError("\n".join(lines))
    return result.presentations


def _resolve(
    presentations: dict[str, Presentation], op_arg: str
) -> _Operand:
    name = op_arg
    dual_count = 0
    while name.startswith("dual:"):
        dual_count += 1
        name = name[len("dual:") :]
    if name not in presentations:
        known = ", ".join(presentations)
        raise UsageError(f"unknown operad {name}; have: {known}")
    p = presentations[name]
    for _ in range(dual_count):
        p = dual(p)
        name = f"{name}_dual"
    return name, p


def _preflight(
    ns: argparse.Namespace, weight: int, operads: dict[str, Presentation]
) -> None:
    """Refuse, before any elimination, a weight over the --max-weight
    ceiling or one whose work exceeds WORK_LIMIT for any of the operads.

    The work at the heaviest weight bounds the work at every lighter one.
    """
    if weight < 1:
        raise UsageError("weight must be at least 1")
    if ns.max_weight is not None and weight > ns.max_weight:
        raise UsageError(
            f"weight {weight} is above the ceiling {ns.max_weight}; "
            "raise --max-weight"
        )
    if weight >= _REFUSED_FROM:
        raise UsageError(
            f"weight {weight} is refused for every operad: from weight "
            f"{_REFUSED_FROM} on, one operation alone has more monomials "
            f"than the limit of {WORK_LIMIT:,}"
        )
    for name, p in operads.items():
        rows, ambient = weight_work(p, weight)
        if max(rows, ambient) > WORK_LIMIT:
            raise UsageError(
                f"{name} at weight {weight} needs {rows:,} generator rows "
                f"over {ambient:,} monomials; the limit is {WORK_LIMIT:,}"
            )


def _presentation_output(command: str, name: str, p: Presentation) -> tuple[int, str, dict]:
    # the JSON relations are the strings on the text's rel: lines
    text, relations = _presentation_text(p, name)
    payload = {
        "command": command,
        "operad": name,
        "operations": list(p.generators.names),
        "dimension": p.relations.dimension,
        "relations": relations,
    }
    return 0, text.rstrip("\n"), payload


def _cmd_dual(ns: argparse.Namespace, op: _Operand) -> tuple[int, str, dict]:
    name, p = op
    return _presentation_output("dual", f"{name}_dual", dual(p))


def _cmd_square(ns: argparse.Namespace, op1: _Operand, op2: _Operand) -> tuple[int, str, dict]:
    (name1, p1), (name2, p2) = op1, op2
    return _presentation_output(
        "square", f"{name1}_square_{name2}", square(p1, p2)
    )


def _cmd_quotient(ns: argparse.Namespace, op: _Operand) -> tuple[int, str, dict]:
    name, p = op
    # the built-in symbols are unicode; their ASCII aliases are easier to type
    aliases = dict(ASCII_ALIASES) if ns.file == "builtins" else None
    vectors = []
    for text in ns.rel:
        vector, diagnostics = parse_relation(
            text, p.generators.names, aliases
        )
        if vector is None:
            lines = [f"--rel {text!r}: {d}" for d in diagnostics]
            raise UsageError("\n".join(lines))
        vectors.append(vector)
    return _presentation_output(
        "quotient", f"{name}_quotient", quotient(p, vectors)
    )


def _cmd_iso(ns: argparse.Namespace, op1: _Operand, op2: _Operand) -> tuple[int, str, dict]:
    (name1, p1), (name2, p2) = op1, op2
    payload: dict = {"command": "iso", "from": name1, "to": name2}
    sigma = find_relabeling_iso(p1, p2) if p1.num_ops == p2.num_ops else None
    payload["found"] = sigma is not None
    if sigma is None:
        return 0, "none", payload
    dst = p2.generators.names
    assignment = [
        {"from": src, "to": dst[target], "sign": sign}
        for src, target, sign in zip(p1.generators.names, sigma.permutation, sigma.signs)
    ]
    payload["permutation"] = list(sigma.permutation)
    payload["signs"] = list(sigma.signs)
    payload["assignment"] = assignment
    lines = [f"{a['from']} -> {'-' if a['sign'] < 0 else ''}{a['to']}" for a in assignment]
    return 0, "\n".join(lines), payload


def _cmd_dims(ns: argparse.Namespace, op: _Operand) -> tuple[int, str, dict]:
    name, p = op
    _preflight(ns, ns.max, {name: p})
    weights = list(range(1, ns.max + 1))
    dims = [component_dim(p, n) for n in weights]
    payload = {
        "command": "dims",
        "operad": name,
        "weights": weights,
        "dims": dims,
    }
    return 0, ", ".join(str(d) for d in dims), payload


def _cmd_gk(ns: argparse.Namespace, op: _Operand) -> tuple[int, str, dict]:
    name, p = op
    p_dual = dual(p)
    _preflight(ns, ns.max, {name: p, f"{name}_dual": p_dual})
    if ns.max < 2:
        raise UsageError("the series test needs order at least 2")
    p_dims = dim_series(p, ns.max)
    dual_dims = dim_series(p_dual, ns.max)
    defect = gk_defect(p_dims, dual_dims, ns.max)
    coefficients = [defect.coefficient(d) for d in range(1, ns.max + 1)]
    zero = all(c == 0 for c in coefficients)
    note = f"series checks are {SERIES_LIMITATION_NOTE}"
    payload = {
        "command": "gk-check",
        "operad": name,
        "dims": list(p_dims.dims),
        "dual_dims": list(dual_dims.dims),
        "defect": [c if type(c) is int else str(c) for c in coefficients],
        "zero": zero,
        "note": note,
    }
    verdict = (
        f"zero through degree {ns.max}"
        if zero
        else "nonzero: the pair cannot be dimension-inverse"
    )
    text = "\n".join(
        [
            f"dims:      {', '.join(str(d) for d in p_dims.dims)}",
            f"dual dims: {', '.join(str(d) for d in dual_dims.dims)}",
            "defect coefficients for degrees 1.."
            f"{ns.max}: {', '.join(str(c) for c in coefficients)}",
            f"verdict: {verdict}",
            f"note: {note}",
        ]
    )
    return (0 if zero else 1), text, payload


def _cmd_verify(ns: argparse.Namespace) -> tuple[int, str, dict]:
    try:
        config = VerifyConfig(
            max_weight=4 if ns.max_weight is None else ns.max_weight,
            scan_radius=ns.scan_grid,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cat = catalog()
    _preflight(ns, config.max_weight, cat.presentations)
    report = verify_all(cat, config)
    return (0 if report.ok else 1), report_to_text(report), report_payload(report)


def _cmd_expand(ns: argparse.Namespace, op: _Operand) -> tuple[int, str, dict]:
    name, p = op
    _preflight(ns, ns.weight, {name: p})
    component = weight_component(p, ns.weight)
    payload = {
        "command": "expand",
        "operad": name,
        "weight": ns.weight,
        "dimension": component.dimension,
    }
    lines = [f"weight {ns.weight} dimension {component.dimension}"]
    if ns.basis:
        monomials = [
            format_monomial(m, p.generators.names)
            for m in component.surviving_monomials()
        ]
        payload["basis"] = monomials
        lines.extend(monomials)
    return 0, "\n".join(lines), payload


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.max_weight is not None and ns.max_weight < 1:
            raise UsageError("--max-weight must be at least 1")
        operands = []
        if ns.operands:
            presentations = _load(ns.file)
            operands = [_resolve(presentations, getattr(ns, o)) for o in ns.operands]
        code, text, payload = ns.handler(ns, *operands)
        if ns.format == "json":
            text = json.dumps(payload, indent=2, ensure_ascii=False)
        if getattr(ns, "report", None):
            try:
                Path(ns.report).write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"cannot write {ns.report}: {exc}") from exc
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (say, `| head`); send what is left to
        # devnull so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
