"""The frobcrit command line; ``USAGE``, which -h prints, says how to call it."""

from __future__ import annotations

import functools
import json
import re
import sys
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__, embed, registry
from .criteria import (
    CONCLUSION_TAGS,
    CriterionReport,
    _valid_min_p,
    check_main,
    conjugated_borel_check,
)
from .charalg import branch
from .embed import CriterionInput
from .rootsys import MAX_RANK, Weight, _require_int, build_root_system, coords_text
from .weyl import verify_st_decomp

# a plain string, not the module docstring, so that python -OO keeps it
USAGE = """usage: frobcrit check INPUT [--format json|text]
       frobcrit examples list [--format json|text]
       frobcrit examples run NAME [--format json|text|dot]
       frobcrit verify-identities [--max-rank N] [--force] [--format json|text]
       frobcrit min-p EMBEDDING [--format json|text]
       frobcrit branch EMBEDDING WEIGHT [--format json|text]
       frobcrit --version

Exact checks of the Frobenius-splitting criteria for spherical orbit
closures in flag varieties.

INPUT and EMBEDDING are a file path, - for stdin, or inline JSON (any
argument starting with {).  Embedding descriptors name a builder with
parameters, or give a custom restriction matrix:

    {"builder": "so_in_sl", "params": {"n": 6}}
    {"custom": {"g": "A1,A1", "h": "A1", "matrix": [["1", "3"]]}}

WEIGHT is comma-separated fundamental coordinates, such as 1,0 or -1,2.
Options go before or after the positionals, as --opt value or --opt=value,
and a long option may be cut to any prefix that names it alone.  An
argument is an option only when it starts with -- or is -h; -h or --help
prints this text.

All rational numbers are rendered as strings a/b in lowest terms (bare a
when integral); JSON output is byte-deterministic.  Exit status: 0 on
success, 1 when a requested expectation fails, 2 when the input is refused:
every ValueError the library raises, and every refusal of the command line,
ends in one "error:" line on stderr.
"""

# verify-identities --max-rank 10 checks 8 258 (system, J) pairs in ~1.5-2 s; 16 would be 524 354
VERIFY_PAIR_CAP = 10_000

# the most digits a number in the input may be written with, an exponent
# adding its value: a number a report prints is a sum of products of a few
# inputs, so it stays far inside the 4 300 digits that Python's int <-> str
# conversions allow, and Fraction("1e100000000"), minutes of work, is refused
MAX_DIGITS = 100
_EXPONENT = re.compile(r"[eE][+-]?(\d+)")

# builder name -> its parameters in call order; "g" and "h" name root
# systems, "J" is a list of integers and every other parameter an integer
_BUILDERS = {
    "identity": ("h",),
    "levi": ("g", "J"),
    "diagonal": ("h", "k"),
    "folding_AC": ("m",),
    "folding_DB": ("n",),
    "folding_E6F4": (),
    "folding_B3G2": (),
    "so_in_sl": ("n",),
    "frobenius_twisted_diagonal": ("h", "p"),
}

# key of an expect block -> (test of its value, what the value must be)
_TAG_LIST = (lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
             "a list of tag strings")
_EXPECT_KEYS = {
    "condition1_dominant": (lambda v: isinstance(v, bool), "true or false"),
    "lie_separability": (lambda v: v in ("holds", "fails", "unknown"),
                         "'holds', 'fails' or 'unknown'"),
    "tags_include": _TAG_LIST,
    "tags_exclude": _TAG_LIST,
}


# field of a custom descriptor -> (test of its value, what the value must be)
_ROOT_SYSTEM = (lambda v: isinstance(v, (str, list)),
                'a type such as "C2" or "A2,A1", or a list of [letter, rank] pairs')
_CUSTOM_SHAPES = {
    "g": _ROOT_SYSTEM,
    "h": _ROOT_SYSTEM,
    "matrix": (lambda v: isinstance(v, list) and all(isinstance(row, list) for row in v),
               "a list of rows, each a list of numbers"),
}


class InputError(ValueError):
    """User-facing input problem: reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# serialization


def weight_to_json(w: Weight) -> list[str]:
    return list(map(str, w.coords))


# _DEPTH[k] opens a line k levels deep in the report
_DEPTH = tuple("\n" + "  " * k for k in range(5))


@functools.lru_cache(maxsize=64)
def _embedding_text(e: embed.Embedding) -> str:
    """The embedding block of a report, written once per ``Embedding`` object (it hashes
    by identity) at the block's depth and shared by every report of it."""
    return f"""{{
      "g": {encode_basestring_ascii(e.g.spec_string())},
      "h": {encode_basestring_ascii(e.h.spec_string())},
      "label": {encode_basestring_ascii(e.label)},
      "restriction": {_flat([_numbers(row, _DEPTH[4]) for row in e.restriction], _DEPTH[3])},
      "twist_exponent": {_scalar(e.twist_exponent)}
    }}"""


def _flat(texts, newline: str) -> str:
    """A JSON list of rendered scalars, one per line, its closing line opened by ``newline``."""
    body = ("," + newline + "  ").join(texts)
    return "[" + newline + "  " + body + newline + "]" if body else "[]"


def _numbers(values, newline: str) -> str:
    """``_flat`` of the str() of each number as a JSON string: no such text needs escaping."""
    return _flat(['"%s"' % v for v in values], newline)


def _labels_text(words) -> str:
    """A conclusion's orbit labels: null, or each word as a list of its letters."""
    if words is None:
        return "null"
    return _flat([_flat(map(str, w), _DEPTH[4]) for w in words], _DEPTH[3])


def report_to_json(report: CriterionReport) -> str:
    """The ``frobcrit-report/1`` text of a report: byte for byte ``json.dumps`` of its
    fields with ``indent=2, sort_keys=True``, written in the schema's sorted key order.
    check_main gives every conclusion of a report the same orbit words, written once."""
    inp, surj, lie = report.input, report.surjectivity, report.lie_separability
    words = report.conclusions[0].orbit_labels if report.conclusions else None
    labels = _labels_text(words)
    conclusions = _flat([f"""{{
      "orbit_count": {_scalar(c.orbit_count)},
      "orbit_labels": {labels if c.orbit_labels is words else _labels_text(c.orbit_labels)},
      "statement": {encode_basestring_ascii(c.statement)},
      "tag": {encode_basestring_ascii(c.tag)},
      "theorem": {encode_basestring_ascii(c.theorem)}
    }}""" for c in report.conclusions], _DEPTH[1])
    div = report.divisor
    divisor = "null" if div is None else f"""{{
    "indices": {_flat(map(str, div.indices), _DEPTH[2])},
    "multiplicity": {div.multiplicity},
    "weight": {_numbers(div.weight.coords, _DEPTH[2])}
  }}"""
    return f"""{{
  "conclusions": {conclusions},
  "condition1": {{
    "dominant": {_LITERAL(report.condition1_dominant)},
    "regular": {_LITERAL(report.condition1_regular)},
    "weight": {_numbers(report.condition1_weight.coords, _DEPTH[2])}
  }},
  "divisor": {divisor},
  "input": {{
    "J": {_flat(map(str, inp.J), _DEPTH[2])},
    "embedding": {_embedding_text(inp.embedding)},
    "lie_separability_flag": {_scalar(inp.lie_separability)},
    "p": {inp.p},
    "surjectivity_source": {encode_basestring_ascii(inp.surjectivity_source)}
  }},
  "lemma53_min_p": {report.lemma53_min_p},
  "lie_separability": {{
    "source": {encode_basestring_ascii(lie.source)},
    "status": {encode_basestring_ascii(lie.status)}
  }},
  "schema": "frobcrit-report/1",
  "surjectivity": {{
    "detail": {encode_basestring_ascii(surj.detail)},
    "source": {encode_basestring_ascii(surj.source)},
    "status": {encode_basestring_ascii(surj.status)}
  }}
}}"""


_LITERAL = {True: "true", False: "false", None: "null"}.__getitem__
# the text of each scalar type report_to_json writes through _scalar
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): _LITERAL}


def _scalar(value) -> str:
    return _SCALARS[type(value)](value)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report_text(report: CriterionReport) -> str:
    lines = [
        f"embedding: {report.input.embedding.label}  J={list(report.input.J)}  p={report.input.p}",
        f"condition (1): 2 rho_H - rho_J|_H = {coords_text(report.condition1_weight.coords)}"
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
        data = json.loads(text, parse_int=lambda literal: int(
            literal if len(literal) <= MAX_DIGITS
            else _number_text(literal, f"integer in the {what}")))
    except (json.JSONDecodeError, RecursionError) as err:  # the latter from deep nesting
        raise InputError(f"invalid JSON for {what}: {err}")
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    return data


def _number_text(text: str, what: str) -> str:
    """The text of a number, refused before anything parses it when it has
    more than MAX_DIGITS digits, counting every digit written plus the value
    of an exponent."""
    exponent = _EXPONENT.search(text)
    digits = sum(map(str.isdigit, text))
    if digits > MAX_DIGITS or exponent and digits + int(exponent[1]) > MAX_DIGITS:
        shown = text if len(text) <= 24 else text[:24] + "..."
        raise InputError(f"{what} {shown!r} has more than {MAX_DIGITS} digits")
    return text


def embedding_from_descriptor(desc: dict) -> embed.Embedding:
    if not isinstance(desc, dict):
        raise InputError("embedding descriptor must be a JSON object")
    if "custom" in desc:
        c = desc["custom"]
        if not isinstance(c, dict):
            raise InputError("custom embedding descriptor must be a JSON object")
        for key, (valid, what) in _CUSTOM_SHAPES.items():
            if key not in c:
                raise InputError(f"custom embedding descriptor is missing {key!r}")
            if not valid(c[key]):
                raise InputError(f"bad custom embedding: {key!r} must be {what}, "
                                 f"got {json.dumps(c[key])}")
        # the registry matches labels by this builder name, so a custom one may not claim it
        label = c.get("label", "custom")
        if not isinstance(label, str):
            raise InputError(f"custom label must be a string, got {json.dumps(label)}")
        head = label.split(":", 1)[0]
        if head in _BUILDERS:
            raise InputError(f"custom label {label!r} starts with the builder name "
                             f"{head!r}, which only that builder may use")
        twist = c.get("twist_exponent")
        try:
            if twist is not None and _require_int(twist, "twist_exponent") < 1:
                raise ValueError(f"twist_exponent must be positive, got {twist}")
            return embed.Embedding(
                build_root_system(c["g"]),
                build_root_system(c["h"]),
                [[_number_text(x, "matrix entry") if isinstance(x, str) else x for x in row]
                 for row in c["matrix"]],
                label,
                twist,
            )
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise InputError(f"bad custom embedding: {err}")
    name = desc.get("builder")
    if not isinstance(name, str) or name not in _BUILDERS:
        raise InputError(
            f"unknown builder {name!r}; expected one of {', '.join(sorted(_BUILDERS))}")
    required = _BUILDERS[name]
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"builder {name!r}: params must be a JSON object")
    missing = [k for k in required if k not in params]
    if missing:
        raise InputError(f"builder {name!r} is missing parameters: {', '.join(missing)}")
    try:
        return _built(name, json.dumps([params[k] for k in required]))
    except (ValueError, TypeError) as err:
        raise InputError(f"builder {name!r}: {err}")


@functools.lru_cache(maxsize=64)
def _built(name: str, values_text: str) -> embed.Embedding:
    """A builder's embedding, one per name and JSON text of the values, so that {"n": true}
    misses the entry of {"n": 1} (True == 1); a refusal raises and is not kept."""
    return getattr(embed, name)(*json.loads(values_text))


def _parse_weight_arg(arg: str, rank: int) -> Weight:
    pieces = [_number_text(piece.strip(), "weight coordinate") for piece in arg.split(",")]
    try:
        coords = [Fraction(piece) for piece in pieces]
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
    if expect is not None:
        _validate_expect(expect)
    emb = embedding_from_descriptor(data["embedding"])
    if not isinstance(data["J"], list):
        raise InputError(f"J must be a list of integers, got {json.dumps(data['J'])}")
    try:
        inp = CriterionInput(
            emb, data["J"], data["p"],
            data.get("surjectivity_source", "donkin-registry"),
            data.get("lie_separability"),
        )
    except TypeError as err:
        raise InputError(str(err))
    report = check_main(inp)
    if args.format == "text":
        sys.stdout.write(_report_text(report))
    else:
        sys.stdout.write(report_to_json(report) + "\n")
    return 0 if _check_expectations(report, expect or {}) else 1


def _validate_expect(expect) -> None:
    if not isinstance(expect, dict):
        raise InputError("expect must be a JSON object")
    for key, value in expect.items():
        if key not in _EXPECT_KEYS:
            raise InputError(
                f"unknown expect key {key!r}; expected one of {', '.join(_EXPECT_KEYS)}")
        valid, what = _EXPECT_KEYS[key]
        if not valid(value):
            raise InputError(f"expect {key!r} must be {what}, got {json.dumps(value)}")
        # a misspelt tag could never be excluded, and never included
        for tag in value if _EXPECT_KEYS[key] is _TAG_LIST else ():
            if tag not in CONCLUSION_TAGS:
                raise InputError(f"unknown conclusion tag {tag!r} in expect {key!r}; "
                                 f"expected one of {', '.join(CONCLUSION_TAGS)}")


def _check_expectations(report: CriterionReport, expect: dict) -> bool:
    """Judge a report against an expect block, naming each failure on stderr."""
    failures = []
    tags = report.tags()
    for key, actual in (("condition1_dominant", report.condition1_dominant),
                        ("lie_separability", report.lie_separability.status)):
        if key in expect and actual != expect[key]:
            failures.append(f"{key} is {actual}, expected {expect[key]}")
    for tag in expect.get("tags_include", []):
        if tag not in tags:
            failures.append(f"missing conclusion tag {tag}")
    for tag in expect.get("tags_exclude", []):
        if tag in tags:
            failures.append(f"unexpected conclusion tag {tag}")
    for f in failures:
        print(f"expectation failed: {f}", file=sys.stderr)
    return not failures


def _cmd_examples_list(args) -> int:
    if args.format == "text":
        print("\n".join(registry.EXAMPLES))
    else:
        _emit_json({"examples": list(registry.EXAMPLES)})
    return 0


def _cmd_examples_run(args) -> int:
    if args.name == "sp4":
        ex = registry.example_sp4()
        verdicts = [conjugated_borel_check(ex.embedding, x, ex.J)
                    for x in ex.conjugators]
        ok = tuple(verdicts) == ex.expected_verdicts
        if args.format == "dot":
            sys.stdout.write(_sp4_dot(ex, verdicts))
        else:
            expected = list(ex.expected_verdicts)
            _emit_example(args.name, [{
                "embedding": json.loads(_embedding_text(ex.embedding)),
                "J": ex.J,
                "conjugator_words": [x.word for x in ex.conjugators],
                "verdicts": verdicts,
                "expected_verdicts": expected,
                "diagram": ex.diagram._asdict(),
            }], [f"conjugated Borel verdicts: {verdicts} expected {expected}"], ok, args.format)
        return 0 if ok else 1
    record, params = _match_example(args.name)
    if args.format == "dot":
        raise InputError("dot output is only available for the sp4 example")
    inputs = record.inputs(*params)
    # an expectation on dominance alone is shown as "expected_dominant"
    shown = ({"expected_dominant": record.expect["condition1_dominant"]}
             if set(record.expect) == {"condition1_dominant"} else {"expected": record.expect})
    results, lines, ok = [], [], True
    for inp in inputs:
        report = check_main(inp)
        met = _check_expectations(report, record.expect)
        ok = ok and met
        results.append({"report": json.loads(report_to_json(report)), **shown,
                        "expectation_met": met})
        lines.append(f"{inp.embedding.label} J={list(inp.J)} p={inp.p}"
                     f" dominant={report.condition1_dominant} tags={list(report.tags())}")
    _emit_example(args.name, results, lines, ok, args.format)
    return 0 if ok else 1


def _match_example(name: str) -> tuple[registry.ExampleRecord, tuple]:
    """The record a name runs, and the argument its ``:<...>`` part gives."""
    for listed, record in registry.EXAMPLES.items():
        if name == listed and record.param is None:
            return record, ()
        prefix = listed.split(":", 1)[0] + ":"
        if record.param is not None and name.startswith(prefix):
            tail = name[len(prefix):]
            try:
                return record, (record.param(tail),)
            except ValueError:  # only an int parameter can fail to parse
                raise InputError(f"expected an integer after {prefix!r}, got {tail!r}")
    raise InputError(
        f"unknown example {name!r}; available: {', '.join(registry.EXAMPLES)}")


def _emit_example(name: str, results: list, lines: list[str], ok: bool, fmt: str) -> None:
    """Print an example's results as JSON, or as one text line per result."""
    if fmt == "text":
        print(f"example: {name}")
        for line in lines:
            print(f"  {line}")
        print(f"expectations met: {ok}")
    else:
        _emit_json({"example": name, "results": results, "expectations_met": ok})


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
    if args.max_rank > MAX_RANK:
        raise InputError(f"--max-rank {args.max_rank} is above the rank cap of {MAX_RANK}")
    if args.max_rank > 6 and not args.force:
        raise InputError(
            f"--max-rank {args.max_rank} is above the default ceiling of 6; "
            f"pass --force to run it anyway")
    if args.max_rank < 1:
        raise InputError("--max-rank must be at least 1")
    specs = [f"{letter}{r}" for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for r in range(lo, args.max_rank + 1)] + ["G2", "F4", "E6"]
    pairs = sum(1 << int(spec[1:]) for spec in specs)
    if pairs > VERIFY_PAIR_CAP:
        raise InputError(f"--max-rank {args.max_rank} would check {pairs} (system, J) "
                         f"pairs, above the cap of {VERIFY_PAIR_CAP}")
    failures = []
    for spec in specs:
        rs = build_root_system(spec)
        for mask in range(1 << rs.rank):
            J = [i + 1 for i in range(rs.rank) if mask >> i & 1]
            lhs, rhs, equal = verify_st_decomp(rs, J)
            if not equal:
                failures.append({"system": spec, "J": J,
                                 "lhs": weight_to_json(lhs), "rhs": weight_to_json(rhs)})
    summary = {"max_rank": args.max_rank, "systems": specs,
               "checked": pairs, "failures": failures}
    if args.format == "text":
        print(f"checked {pairs} (system, J) pairs over {len(specs)} systems; "
              f"failures: {len(failures)}")
        for f in failures:
            print(f"  {f['system']} J={f['J']}: {f['lhs']} != {f['rhs']}")
    else:
        _emit_json(summary)
    return 0 if not failures else 1


def _cmd_min_p(args) -> int:
    emb = embedding_from_descriptor(_load_json_arg(args.embedding, "embedding"))
    value = _valid_min_p(emb)
    if args.format == "text":
        print(f"{emb.label}: lemma53_min_p = {value}")
    else:
        _emit_json({"embedding": emb.label, "lemma53_min_p": value})
    return 0


def _cmd_branch(args) -> int:
    emb = embedding_from_descriptor(_load_json_arg(args.embedding, "embedding"))
    lam = _parse_weight_arg(args.weight, emb.g.rank)
    decomposition = branch(emb, lam)
    items = sorted(decomposition.items(), key=lambda kv: kv[0].coords, reverse=True)
    if args.format == "text":
        print(f"{emb.label}: restriction of ({args.weight})")
        for w, m in items:
            print(f"  {m} x {coords_text(w.coords)}")
    else:
        _emit_json({
            "embedding": emb.label,
            "weight": weight_to_json(lam),
            "branching": [{"weight": weight_to_json(w), "multiplicity": m}
                          for w, m in items],
        })
    return 0


# ---------------------------------------------------------------------------


# command path -> (handler, positional names, {option: (type, choices, default)}), bool the
# type of a flag; a group has no handler, and its one positional is the next word of the path
_FORMAT = {"--format": (str, ("json", "text"), "json")}
_COMMANDS = {
    "": (None, ("command",), {"--version": (bool, (), False)}),
    "check": (_cmd_check, ("input",), _FORMAT),
    "examples": (None, ("action",), {}),
    "examples list": (_cmd_examples_list, (), _FORMAT),
    "examples run": (_cmd_examples_run, ("name",),
                     {"--format": (str, ("json", "text", "dot"), "json")}),
    "verify-identities": (_cmd_verify_identities, (), {
        "--max-rank": (int, (), 4), "--force": (bool, (), False), **_FORMAT}),
    "min-p": (_cmd_min_p, ("embedding",), _FORMAT),
    "branch": (_cmd_branch, ("embedding", "weight"), _FORMAT),
}


def _parse(argv: list[str]):
    """The handler ``argv`` names and its namespace, by the rules in ``USAGE``."""
    path, positionals, values = "", [], {}
    handler, names, options = _COMMANDS[path]
    tokens = iter([part for t in argv for part in (t.split("=", 1) if t[:2] == "--" else [t])])
    def refused(message: str, choices=()) -> InputError:
        shown = f" (choose from {', '.join(map(repr, choices))})" if choices else ""
        return InputError(f"frobcrit {path}".rstrip() + f": {message}{shown}")
    for token in tokens:
        if token == "-h" or token.startswith("--") and token != "--":
            named = [o for o in ("-h", "--help", *options) if o.startswith(token)]
            if len(named) != 1:
                raise refused(f"ambiguous option: {token} could match {', '.join(named)}"
                              if named else f"unrecognized arguments: {token}")
            if named[0] in ("-h", "--help", "--version"):
                print(f"frobcrit {__version__}" if named[0] == "--version" else USAGE)
                raise SystemExit(0)
            option, (kind, choices, _) = named[0], options[named[0]]
            if (value := True if kind is bool else next(tokens, None)) is None:
                raise refused(f"argument {option}: expected one argument")
            try:
                values[option] = kind(value)
            except ValueError:
                raise refused(f"argument {option}: invalid {kind.__name__} value: {value!r}")
            if choices and values[option] not in choices:
                raise refused(f"argument {option}: invalid choice: {value!r}", choices)
        elif handler is None:
            words = [k.rpartition(" ")[2] for k in _COMMANDS if k and k.rpartition(" ")[0] == path]
            if token not in words:
                raise refused(f"argument {names[0]}: invalid choice: {token!r}", words)
            handler, names, options = _COMMANDS[path := f"{path} {token}".lstrip()]
        else:
            positionals.append(token)
    missing, extra = names[len(positionals):], positionals[len(names):]
    if missing or extra:
        raise refused(f"unrecognized arguments: {' '.join(extra)}" if extra
                      else f"the following arguments are required: {', '.join(missing)}")
    return handler, types.SimpleNamespace(**dict(zip(names, positionals)), **{
        o[2:].replace("-", "_"): values.get(o, d) for o, (_, _, d) in options.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except ValueError as err:  # InputError, and every refusal the library raises
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
