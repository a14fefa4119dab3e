"""Command line interface.

    frobcrit check INPUT [--format json|text] [--expect-file F]
    frobcrit examples list
    frobcrit examples run NAME [--format json|text|dot]
    frobcrit verify-identities [--max-rank N] [--force]
    frobcrit min-p EMBEDDING
    frobcrit branch EMBEDDING WEIGHT

INPUT and EMBEDDING are a file path, ``-`` for stdin, or inline JSON (any
argument starting with ``{``).  Embedding descriptors name a builder with
parameters, or give a custom restriction matrix:

    {"builder": "so_in_sl", "params": {"n": 6}}
    {"custom": {"g": "A1,A1", "h": "A1", "matrix": [["1", "3"]]}}

All rational numbers are rendered as strings ``a/b`` in lowest terms (bare
``a`` when integral); JSON output is byte-deterministic.  Exit status: 0 on
success, 1 when a requested expectation fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import embed, registry
from .criteria import (
    CriterionInput,
    CriterionReport,
    check_main,
    conjugated_borel_check,
    lemma53_min_p,
)
from .charalg import branch
from .rootsys import Weight, build_root_system
from .weyl import verify_st_decomp

_EXAMPLE_NAMES = (
    "minimal-rank",
    "sp4",
    "sln-son:<n>",
    "triple-diagonal:<type><rank>",
    "frobenius-twist",
)

_BUILDERS = {
    "identity": (("h",), lambda p: embed.identity(p["h"])),
    "levi": (("g", "J"), lambda p: embed.levi(p["g"], p["J"])),
    "diagonal": (("h", "k"), lambda p: embed.diagonal(p["h"], p["k"])),
    "folding_AC": (("m",), lambda p: embed.folding_AC(p["m"])),
    "folding_DB": (("n",), lambda p: embed.folding_DB(p["n"])),
    "folding_E6F4": ((), lambda p: embed.folding_E6F4()),
    "folding_B3G2": ((), lambda p: embed.folding_B3G2()),
    "so_in_sl": (("n",), lambda p: embed.so_in_sl(p["n"])),
    "frobenius_twisted_diagonal": (
        ("h", "p"), lambda p: embed.frobenius_twisted_diagonal(p["h"], p["p"])),
}


class InputError(ValueError):
    """User-facing input problem: reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x) -> str:
    return str(Fraction(x))


def weight_to_json(w: Weight) -> list[str]:
    return [_frac_str(c) for c in w.coords]


def embedding_to_json(e: embed.Embedding) -> dict:
    return {
        "label": e.label,
        "g": e.g.spec_string(),
        "h": e.h.spec_string(),
        "restriction": [[_frac_str(x) for x in row] for row in e.restriction],
        "twist_exponent": e.twist_exponent,
    }


def report_to_json(report: CriterionReport) -> dict:
    inp = report.input
    return {
        "schema": "frobcrit-report/1",
        "input": {
            "embedding": embedding_to_json(inp.embedding),
            "J": list(inp.J),
            "p": inp.p,
            "surjectivity_source": inp.surjectivity_source,
            "lie_separability_flag": inp.lie_separability,
        },
        "lemma53_min_p": report.lemma53_min_p,
        "condition1": {
            "weight": weight_to_json(report.condition1_weight),
            "dominant": report.condition1_dominant,
            "regular": report.condition1_regular,
        },
        "surjectivity": {
            "status": report.surjectivity.status,
            "source": report.surjectivity.source,
            "detail": report.surjectivity.detail,
        },
        "lie_separability": {
            "status": report.lie_separability.status,
            "source": report.lie_separability.source,
        },
        "conclusions": [
            {
                "tag": c.tag,
                "statement": c.statement,
                "theorem": c.theorem,
                "orbit_count": c.orbit_count,
                "orbit_labels": [list(w) for w in c.orbit_labels]
                if c.orbit_labels is not None else None,
            }
            for c in report.conclusions
        ],
        "divisor": {
            "weight": weight_to_json(report.divisor.weight),
            "multiplicity": report.divisor.multiplicity,
            "indices": list(report.divisor.indices),
        } if report.divisor is not None else None,
    }


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report_text(report: CriterionReport) -> str:
    lines = [
        f"embedding: {report.input.embedding.label}  J={list(report.input.J)}  p={report.input.p}",
        f"condition (1): 2 rho_H - rho_J|_H = "
        f"({', '.join(_frac_str(c) for c in report.condition1_weight.coords)})"
        f"  dominant={report.condition1_dominant} regular={report.condition1_regular}",
        f"surjectivity: {report.surjectivity.status} via {report.surjectivity.source}"
        f" ({report.surjectivity.detail})",
        f"lie separability: {report.lie_separability.status}"
        f" ({report.lie_separability.source})",
        f"large-p bound: {report.lemma53_min_p}",
    ]
    if report.conclusions:
        lines.append("conclusions:")
        for c in report.conclusions:
            lines.append(f"  [{c.tag}] {c.statement}")
    else:
        lines.append("conclusions: none")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input parsing


def _load_json_arg(arg: str, what: str) -> dict:
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read {what} from {arg!r}: {err}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"invalid JSON for {what}: {err}")
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    return data


def embedding_from_descriptor(desc: dict) -> embed.Embedding:
    if not isinstance(desc, dict):
        raise InputError("embedding descriptor must be a JSON object")
    if "custom" in desc:
        c = desc["custom"]
        if not isinstance(c, dict):
            raise InputError("custom embedding descriptor must be a JSON object")
        for key in ("g", "h", "matrix"):
            if key not in c:
                raise InputError(f"custom embedding descriptor is missing {key!r}")
        try:
            return embed.Embedding(
                build_root_system(c["g"]),
                build_root_system(c["h"]),
                [[Fraction(x) for x in row] for row in c["matrix"]],
                c.get("label", "custom"),
                c.get("twist_exponent"),
            )
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise InputError(f"bad custom embedding: {err}")
    name = desc.get("builder")
    if not isinstance(name, str) or name not in _BUILDERS:
        raise InputError(
            f"unknown builder {name!r}; expected one of {', '.join(sorted(_BUILDERS))}")
    required, make = _BUILDERS[name]
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"builder {name!r}: params must be a JSON object")
    missing = [k for k in required if k not in params]
    if missing:
        raise InputError(f"builder {name!r} is missing parameters: {', '.join(missing)}")
    try:
        return make(params)
    except (ValueError, TypeError) as err:
        raise InputError(f"builder {name!r}: {err}")


def _parse_weight_arg(arg: str, rank: int) -> Weight:
    try:
        coords = [Fraction(piece.strip()) for piece in arg.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"cannot parse weight {arg!r}: {err}")
    if len(coords) != rank:
        raise InputError(f"weight {arg!r} has {len(coords)} coordinates, need {rank}")
    return Weight(coords)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    data = _load_json_arg(args.input, "criterion input")
    for key in ("embedding", "J", "p"):
        if key not in data:
            raise InputError(f"criterion input is missing {key!r}")
    expect = data.get("expect")
    if expect is not None and not isinstance(expect, dict):
        raise InputError("expect must be a JSON object")
    emb = embedding_from_descriptor(data["embedding"])
    try:
        inp = CriterionInput(
            emb, tuple(data["J"]), data["p"],
            data.get("surjectivity_source", "donkin-registry"),
            data.get("lie_separability"),
        )
    except (ValueError, TypeError) as err:
        raise InputError(f"J must be a list of integers and p an integer: {err}")
    try:
        report = check_main(inp)
    except ValueError as err:
        raise InputError(str(err))
    if args.format == "text":
        sys.stdout.write(_report_text(report))
    else:
        _emit_json(report_to_json(report), sys.stdout)
    if expect:
        failures = _check_expectations(report, expect)
        if failures:
            for f in failures:
                print(f"expectation failed: {f}", file=sys.stderr)
            return 1
    return 0


def _check_expectations(report: CriterionReport, expect: dict) -> list[str]:
    failures = []
    tags = report.tags()
    if "condition1_dominant" in expect:
        if report.condition1_dominant != bool(expect["condition1_dominant"]):
            failures.append(
                f"condition1_dominant is {report.condition1_dominant}, "
                f"expected {expect['condition1_dominant']}")
    for tag in expect.get("tags_include", []):
        if tag not in tags:
            failures.append(f"missing conclusion tag {tag}")
    for tag in expect.get("tags_exclude", []):
        if tag in tags:
            failures.append(f"unexpected conclusion tag {tag}")
    return failures


def _full_J(e: embed.Embedding) -> tuple[int, ...]:
    return tuple(range(1, e.g.rank + 1))


def _cmd_examples_list(args) -> int:
    if args.format == "text":
        for name in _EXAMPLE_NAMES:
            print(name)
    else:
        _emit_json({"examples": list(_EXAMPLE_NAMES)}, sys.stdout)
    return 0


def _cmd_examples_run(args) -> int:
    return _run_example(args.name, args.format)


def _run_example(name: str, fmt: str) -> int:
    if name == "minimal-rank":
        results, ok = [], True
        for emb, expected in registry.minimal_rank_suite():
            report = check_main(CriterionInput(emb, _full_J(emb), 3))
            met = report.condition1_dominant == expected
            ok = ok and met
            results.append({"report": report_to_json(report),
                            "expected_dominant": expected,
                            "expectation_met": met})
        _emit_example(name, results, ok, fmt)
        return 0 if ok else 1

    if name == "sp4":
        ex = registry.example_sp4()
        verdicts = [conjugated_borel_check(ex.embedding, x, ex.J)
                    for x in ex.conjugators]
        ok = tuple(verdicts) == ex.expected_verdicts
        if fmt == "dot":
            sys.stdout.write(_sp4_dot(ex, verdicts))
            return 0 if ok else 1
        results = [{
            "embedding": embedding_to_json(ex.embedding),
            "J": list(ex.J),
            "conjugator_words": [list(x.word) for x in ex.conjugators],
            "verdicts": verdicts,
            "expected_verdicts": list(ex.expected_verdicts),
            "diagram": _diagram_json(ex.diagram),
        }]
        _emit_example(name, results, ok, fmt)
        return 0 if ok else 1

    if name.startswith("sln-son:"):
        n = _int_suffix(name, "sln-son:")
        try:
            inputs = registry.example_sln_son(n)
        except ValueError as err:
            raise InputError(str(err))
        results, ok = [], True
        for inp in inputs:
            report = check_main(inp)
            met = report.condition1_dominant
            ok = ok and met
            results.append({"report": report_to_json(report),
                            "expected_dominant": True,
                            "expectation_met": met})
        _emit_example(name, results, ok, fmt)
        return 0 if ok else 1

    if name.startswith("triple-diagonal:"):
        spec = name.split(":", 1)[1]
        try:
            inp = registry.example_triple_diagonal(spec)
        except ValueError as err:
            raise InputError(str(err))
        report = check_main(inp)
        ok = not report.condition1_dominant and not report.conclusions
        results = [{"report": report_to_json(report),
                    "expected_dominant": False,
                    "expectation_met": ok}]
        _emit_example(name, results, ok, fmt)
        return 0 if ok else 1

    if name == "frobenius-twist":
        results, ok = [], True
        for inp in registry.example_frobenius_twist():
            report = check_main(inp)
            tags = report.tags()
            met = (report.lie_separability.status == "fails"
                   and "SPLIT_PJ" in tags and "GLOBALLY_F_REGULAR" in tags
                   and "COR72_HPJ" not in tags)
            ok = ok and met
            results.append({"report": report_to_json(report),
                            "expected": {"lie_separability": "fails",
                                         "tags_include": ["SPLIT_PJ", "GLOBALLY_F_REGULAR"],
                                         "tags_exclude": ["COR72_HPJ"]},
                            "expectation_met": met})
        _emit_example(name, results, ok, fmt)
        return 0 if ok else 1

    raise InputError(
        f"unknown example {name!r}; available: {', '.join(_EXAMPLE_NAMES)}")


def _int_suffix(name: str, prefix: str) -> int:
    tail = name[len(prefix):]
    try:
        return int(tail)
    except ValueError:
        raise InputError(f"expected an integer after {prefix!r}, got {tail!r}")


def _emit_example(name: str, results: list, ok: bool, fmt: str) -> None:
    if fmt == "dot":
        raise InputError("dot output is only available for the sp4 example")
    if fmt == "text":
        print(f"example: {name}")
        for r in results:
            if "verdicts" in r:
                print(f"  conjugated Borel verdicts: {r['verdicts']}"
                      f" expected {r['expected_verdicts']}")
            else:
                rep = r["report"]
                print(f"  {rep['input']['embedding']['label']}"
                      f" J={rep['input']['J']} p={rep['input']['p']}"
                      f" dominant={rep['condition1']['dominant']}"
                      f" tags={[c['tag'] for c in rep['conclusions']]}")
        print(f"expectations met: {ok}")
    else:
        _emit_json({"example": name, "results": results, "expectations_met": ok},
                   sys.stdout)


def _diagram_json(d: registry.OrbitDiagram) -> dict:
    return {
        "nodes": list(d.nodes),
        "edges": [list(e) for e in d.edges],
        "closed_orbit_conjugator": dict(sorted(d.closed_orbit_conjugator.items())),
        "split_compatible": [list(f) for f in d.split_compatible],
        "pairwise_split": [list(pair) for pair in d.pairwise_split],
        "unresolved": list(d.unresolved),
    }


def _sp4_dot(ex: registry.Sp4Example, verdicts: list[bool]) -> str:
    d = ex.diagram
    lines = [
        "digraph orbit_closures {",
        '  rankdir=TB;',
        '  node [shape=box, fontname="monospace"];',
    ]
    for node in d.nodes:
        parts = [node]
        idx = d.closed_orbit_conjugator.get(node)
        if idx is not None:
            word = ",".join(str(i) for i in ex.conjugators[idx - 1].word) or "e"
            parts.append(f"x{idx} = ({word})")
            parts.append(f"check: {str(verdicts[idx - 1]).lower()}")
        if node in d.unresolved:
            parts.append("splitting: unresolved")
        label = "\\n".join(parts)
        lines.append(f'  "{node}" [label="{label}"];')
    for upper, lower, kind in d.edges:
        attr = ' [style=bold, label="2"]' if kind == "double" else ""
        lines.append(f'  "{upper}" -> "{lower}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_verify_identities(args) -> int:
    if args.max_rank > 6 and not args.force:
        raise InputError(
            f"--max-rank {args.max_rank} is above the default ceiling of 6; "
            f"pass --force to run it anyway")
    if args.max_rank < 1:
        raise InputError("--max-rank must be at least 1")
    specs: list[str] = []
    for r in range(1, args.max_rank + 1):
        specs.append(f"A{r}")
    for letter, lo in (("B", 2), ("C", 2), ("D", 3)):
        for r in range(lo, args.max_rank + 1):
            specs.append(f"{letter}{r}")
    for extra in ("G2", "F4", "E6"):
        if extra not in specs:
            specs.append(extra)
    checked = 0
    failures = []
    for spec in specs:
        rs = build_root_system(spec)
        indices = list(range(1, rs.rank + 1))
        for mask in range(1 << rs.rank):
            J = [indices[i] for i in range(rs.rank) if mask >> i & 1]
            lhs, rhs, equal = verify_st_decomp(rs, J)
            checked += 1
            if not equal:
                failures.append({
                    "system": spec,
                    "J": J,
                    "lhs": weight_to_json(lhs),
                    "rhs": weight_to_json(rhs),
                })
    summary = {"max_rank": args.max_rank, "systems": specs,
               "checked": checked, "failures": failures}
    if args.format == "text":
        print(f"checked {checked} (system, J) pairs over {len(specs)} systems; "
              f"failures: {len(failures)}")
        for f in failures:
            print(f"  {f['system']} J={f['J']}: {f['lhs']} != {f['rhs']}")
    else:
        _emit_json(summary, sys.stdout)
    return 0 if not failures else 1


def _cmd_min_p(args) -> int:
    emb = embedding_from_descriptor(_load_json_arg(args.embedding, "embedding"))
    value = lemma53_min_p(emb)
    if args.format == "text":
        print(f"{emb.label}: lemma53_min_p = {value}")
    else:
        _emit_json({"embedding": emb.label, "lemma53_min_p": value}, sys.stdout)
    return 0


def _cmd_branch(args) -> int:
    emb = embedding_from_descriptor(_load_json_arg(args.embedding, "embedding"))
    lam = _parse_weight_arg(args.weight, emb.g.rank)
    try:
        decomposition = branch(emb, lam)
    except ValueError as err:
        raise InputError(str(err))
    items = sorted(decomposition.items(), key=lambda kv: kv[0].coords, reverse=True)
    if args.format == "text":
        print(f"{emb.label}: restriction of ({args.weight})")
        for w, m in items:
            print(f"  {m} x ({', '.join(_frac_str(c) for c in w.coords)})")
    else:
        _emit_json({
            "embedding": emb.label,
            "weight": weight_to_json(lam),
            "branching": [{"weight": weight_to_json(w), "multiplicity": m}
                          for w, m in items],
        }, sys.stdout)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcrit",
        description="Exact verification of Frobenius-splitting criteria "
                    "for spherical orbit closures in flag varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "text")):
        p.add_argument("--format", choices=choices, default="json",
                       help="output format (default: json)")

    p_check = sub.add_parser("check", help="run the splitting criterion on one input")
    p_check.add_argument("input", help="path, - for stdin, or inline JSON")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_ex = sub.add_parser("examples", help="list or run the bundled examples")
    ex_sub = p_ex.add_subparsers(dest="action", required=True)
    p_list = ex_sub.add_parser("list", help="list example names")
    add_format(p_list)
    p_list.set_defaults(func=_cmd_examples_list)
    p_run = ex_sub.add_parser("run", help="run one example and verify expectations")
    p_run.add_argument("name")
    add_format(p_run, ("json", "text", "dot"))
    p_run.set_defaults(func=_cmd_examples_run)

    p_ver = sub.add_parser("verify-identities",
                           help="sweep the Steinberg-type decomposition identity")
    p_ver.add_argument("--max-rank", type=int, default=4)
    p_ver.add_argument("--force", action="store_true",
                       help="allow --max-rank above 6")
    add_format(p_ver)
    p_ver.set_defaults(func=_cmd_verify_identities)

    p_minp = sub.add_parser("min-p", help="large-p surjectivity bound of an embedding")
    p_minp.add_argument("embedding", help="embedding descriptor (path, -, or JSON)")
    add_format(p_minp)
    p_minp.set_defaults(func=_cmd_min_p)

    p_branch = sub.add_parser("branch", help="branch an irreducible through an embedding")
    p_branch.add_argument("embedding", help="embedding descriptor (path, -, or JSON)")
    p_branch.add_argument("weight", help="comma-separated fundamental coordinates")
    add_format(p_branch)
    p_branch.set_defaults(func=_cmd_branch)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
