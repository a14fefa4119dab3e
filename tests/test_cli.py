import contextlib
import functools
import importlib.resources
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

import frobcrit
from frobcrit import charalg, cli, criteria, embed, registry, rootsys
from frobcrit.cli import VERIFY_PAIR_CAP, main
from frobcrit.rootsys import MAX_RANK, Weight, build_root_system

import oracles

CHECK_INPUT = {
    "embedding": {"builder": "identity", "params": {"h": "A2"}},
    "J": [1, 2],
    "p": 2,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    ref = importlib.resources.files("frobcrit") / "report_schema.json"
    return json.loads(ref.read_text())


def validate_report(report: dict) -> None:
    jsonschema.validate(report, load_schema())


# -- check -----------------------------------------------------------------------

def test_check_inline_json(capsys):
    code, out, err = run(capsys, "check", json.dumps(CHECK_INPUT))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "frobcrit-report/1"
    assert report["condition1"]["dominant"] is True
    assert [c["tag"] for c in report["conclusions"]][:1] == ["SPLIT_PJ"]
    validate_report(report)


def test_check_from_file(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(CHECK_INPUT))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["input"]["p"] == 2


def test_check_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CHECK_INPUT)))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert json.loads(out)["input"]["embedding"]["label"] == "identity:A2"


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", json.dumps(CHECK_INPUT),
                       "--format", "text")
    assert code == 0
    assert "SPLIT_PJ" in out and "dominant" in out


def test_check_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "check", json.dumps(CHECK_INPUT))
    _, second, _ = run(capsys, "check", json.dumps(CHECK_INPUT))
    assert first == second
    assert first.endswith("\n")


def test_check_expectations_pass(capsys):
    data = dict(CHECK_INPUT)
    data["expect"] = {"condition1_dominant": True,
                     "tags_include": ["SPLIT_PJ", "COR73_FLAG"],
                     "tags_exclude": ["CONDITIONAL"]}
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 0 and err == ""


def test_check_expectations_fail(capsys):
    data = dict(CHECK_INPUT)
    data["expect"] = {"tags_include": ["CONDITIONAL"]}
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 1
    assert "expectation failed" in err


@pytest.mark.parametrize("key", ["tags_include", "tags_exclude"])
def test_check_refuses_an_unknown_tag_in_expect(capsys, key):
    # a misspelt tag could never be excluded (exit 0) and never included (exit 1)
    data = dict(CHECK_INPUT, expect={key: ["SPLIT_PJ", "SPLITPJ"]})
    assert run(capsys, "check", json.dumps(data)) == (
        2, "", f"error: unknown conclusion tag 'SPLITPJ' in expect '{key}'; expected one of "
        "SPLIT_PJ, GLOBALLY_F_REGULAR, CANONICAL_SPLIT, COR72_HPJ, COR73_FLAG, "
        "COHOMOLOGY_VANISHING, CONDITIONAL\n")


def test_schema_tags_are_the_tags_check_main_can_emit():
    enum = load_schema()["definitions"]["conclusion"]["properties"]["tag"]["enum"]
    assert criteria.CONCLUSION_TAGS == tuple(enum)
    emb = embed.identity("A2")
    emitted = {tag for J in ((), (1,), (2,), (1, 2)) for source in criteria.SURJECTIVITY_SOURCES
               for flag in (None, "holds", "fails")
               for tag in criteria.check_main(
                   embed.CriterionInput(emb, J, 2, source, flag)).tags()}
    assert emitted == set(enum)


def test_check_lie_separability_expectation(capsys):
    data = {"embedding": {"builder": "frobenius_twisted_diagonal",
                          "params": {"h": "A1", "p": 3}},
            "J": [1], "p": 3, "surjectivity_source": "user-asserted",
            "expect": {"lie_separability": "fails", "tags_exclude": ["COR72_HPJ"]}}
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 0 and err == ""
    data["expect"] = {"lie_separability": "holds"}
    code, out, err = run(capsys, "check", json.dumps(data))
    assert code == 1 and json.loads(out)["lie_separability"]["status"] == "fails"
    assert err == "expectation failed: lie_separability is fails, expected holds\n"


def test_builder_integer_parameters_still_accepted(capsys):
    data = {"embedding": {"builder": "levi", "params": {"g": "C3", "J": [1, 3]}},
            "J": [1], "p": 3}
    code, out, _ = run(capsys, "check", json.dumps(data))
    assert code == 0
    assert json.loads(out)["input"]["embedding"]["label"] == "levi:C3:J=[1, 3]"
    data["embedding"] = {"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 3]],
                                    "twist_exponent": 3}}
    code, out, _ = run(capsys, "check", json.dumps(data))
    assert code == 0
    assert json.loads(out)["input"]["embedding"]["twist_exponent"] == 3


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(p=4), "prime"),
    (lambda d: d.pop("J"), "missing"),
    (lambda d: d.update(embedding={"builder": "nope"}), "unknown builder"),
    (lambda d: d.update(embedding={"builder": "levi", "params": {}}),
     "missing parameters"),
])
def test_check_input_errors(capsys, mutate, fragment):
    data = json.loads(json.dumps(CHECK_INPUT))
    mutate(data)
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 2
    assert fragment in err


def test_check_malformed_json(capsys):
    code, _, err = run(capsys, "check", "{not json")
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(J=["x"]),
    lambda d: d.update(p="two"),
    lambda d: d.update(embedding={"builder": "folding_AC", "params": {"m": None}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1",
                                             "matrix": [[{"a": 1}, "1"]]}}),
    lambda d: d.update(expect=["SPLIT_PJ"]),
    lambda d: d.update(embedding=5),
    lambda d: d.update(embedding={"custom": 5}),
    lambda d: d.update(embedding={"builder": ["so_in_sl"]}),
    lambda d: d.update(embedding={"builder": "so_in_sl", "params": 6}),
    lambda d: d.update(p=5.9),
    lambda d: d.update(J=[1.7]),
    lambda d: d.update(J=[True]),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1",
                                             "matrix": [[0.5, 0.5]]}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1",
                                             "matrix": [[True, 1]]}}),
    lambda d: d.update(embedding={"builder": "levi", "params": {"g": "C3", "J": [1.5]}}),
    lambda d: d.update(embedding={"builder": "diagonal", "params": {"h": "A1", "k": 2.7}}),
    lambda d: d.update(embedding={"builder": "diagonal", "params": {"h": "A1", "k": True}},
                       J=[1]),
    lambda d: d.update(embedding={"builder": "folding_AC", "params": {"m": 2.5}}),
    lambda d: d.update(embedding={"builder": "folding_DB", "params": {"n": 4.0}}),
    lambda d: d.update(embedding={"builder": "so_in_sl", "params": {"n": "4"}}),
    lambda d: d.update(embedding={"builder": "frobenius_twisted_diagonal",
                                  "params": {"h": "A1", "p": 3.5}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 1]],
                                             "twist_exponent": "x"}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 1]],
                                             "twist_exponent": 1.5}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 1]],
                                             "twist_exponent": True}}),
    lambda d: d.update(embedding={"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 1]],
                                             "twist_exponent": 0}}),
    lambda d: d.update(expect={"tags_include": 5}),
    lambda d: d.update(expect={"tags_include": "SPLIT_PJ"}),
    lambda d: d.update(expect={"tags_exclude": [1]}),
    lambda d: d.update(expect={"condition1_dominant": "false"}),
    lambda d: d.update(expect={"lie_separability": "maybe"}),
    lambda d: d.update(expect={"tag_include": ["SPLIT_PJ"]}),
    lambda d: d.update(embedding={"builder": "identity", "params": {"h": [["A", 2.5]]}}),
    lambda d: d.update(embedding={"builder": "identity", "params": {"h": [["A", True]]}}),
    lambda d: d.update(embedding={"builder": "identity", "params": {"h": [["A", "2"]]}}),
    lambda d: d.update(embedding={"builder": "identity", "params": {"h": [[1, 2]]}}),
    lambda d: d.update(embedding={"custom": {"g": [["A", 1.0], ["A", 1]], "h": "A1",
                                             "matrix": [[1, 1]]}}, J=[1]),
    lambda d: d.update(J=[3]),
    lambda d: d.update(J=2),
    lambda d: d.update(J="12"),
    lambda d: d.update(J=None),
    lambda d: d.update(embedding={"builder": "identity", "params": {"h": [["A", 3], ["B", -1]]}}),
    lambda d: d.update(embedding={"builder": "folding_AC", "params": {"m": 300}}),
    lambda d: d.update(embedding={"builder": "diagonal", "params": {"h": "A2", "k": 10 ** 12}}),
    lambda d: d.update(embedding={"custom": {"g": "A40", "h": "A1", "matrix": [[1] * 40]}}),
    lambda d: d.update(embedding={"custom": {"g": "A2", "h": "A1", "matrix": [[1, 1]],
                                             "label": "levi:fake"}}, J=[1]),
    lambda d: d.update(embedding={"custom": {"g": "A2", "h": "A1", "matrix": [[1, 1]],
                                             "label": "diagonal:x:k=2"}}, J=[1], p=3),
    lambda d: d.update(embedding={"custom": {"g": "A2", "h": "A1", "matrix": [[1, 1]],
                                             "label": "identity"}}, J=[1]),
    lambda d: d.update(embedding={"custom": {"g": "A2", "h": "A1", "matrix": [[1, 1]],
                                             "label": {"levi": 1}}}, J=[1]),
], ids=["J-not-int", "p-not-int", "param-null", "matrix-entry-object",
        "expect-not-object", "embedding-not-object", "custom-not-object",
        "builder-not-string", "params-not-object", "p-float", "J-float", "J-bool",
        "matrix-entry-float", "matrix-entry-bool", "levi-J-float", "diagonal-k-float",
        "diagonal-k-bool", "folding_AC-m-float", "folding_DB-n-float",
        "so_in_sl-n-string", "twisted-p-float", "twist-exponent-string",
        "twist-exponent-float", "twist-exponent-bool", "twist-exponent-zero",
        "expect-tags-int", "expect-tags-string", "expect-tags-not-strings",
        "expect-dominant-string", "expect-lie-unknown-value", "expect-unknown-key",
        "h-rank-float", "h-rank-bool", "h-rank-str", "h-letter-int", "custom-g-rank-float",
        "J-out-of-range", "J-not-list", "J-string", "J-null", "h-rank-negative",
        "folding_AC-rank-599", "diagonal-rank-2e12", "custom-g-rank-40",
        "custom-label-levi", "custom-label-diagonal", "custom-label-builder-name",
        "custom-label-object"])
def test_check_malformed_values_are_refused(capsys, mutate):
    data = json.loads(json.dumps(CHECK_INPUT))
    mutate(data)
    code, out, err = run(capsys, "check", json.dumps(data))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("embedding,J,text", [
    ({"builder": "so_in_sl", "params": {"n": 5}}, [9], "error: J index 9 outside 1..4"),
    ({"builder": "so_in_sl", "params": {"n": 5}}, [0, 1], "error: J index 0 outside 1..4"),
    ({"builder": "so_in_sl", "params": {"n": 5}}, ["x"],
     "error: J entry must be an integer, got 'x'"),
    ({"builder": "so_in_sl", "params": {"n": 5}}, 2, "error: J must be a list of integers, got 2"),
    ({"builder": "levi", "params": {"g": "C3", "J": [4]}}, [1],
     "error: builder 'levi': J index 4 outside 1..3"),
    ({"custom": {"g": 5, "h": "A1", "matrix": [[1]]}}, [1],
     "error: bad custom embedding: 'g' must be a type such as \"C2\" or \"A2,A1\", "
     "or a list of [letter, rank] pairs, got 5"),
    ({"custom": {"g": "A1", "h": "A1", "matrix": 5}}, [1],
     "error: bad custom embedding: 'matrix' must be a list of rows, each a list of numbers, "
     "got 5"),
    ({"custom": {"g": "A1", "h": "A1", "matrix": [5]}}, [1],
     "error: bad custom embedding: 'matrix' must be a list of rows, each a list of numbers, "
     "got [5]"),
    ({"custom": 5}, [1], "error: custom embedding descriptor must be a JSON object"),
    ({"builder": "levi", "params": {"g": "A2", "J": []}}, [1],
     "error: builder 'levi': a Levi embedding needs a nonempty index set J"),
    ({"builder": "folding_DB", "params": {"n": 3}}, [1],
     "error: builder 'folding_DB': folding_DB needs n >= 4"),
])
def test_J_is_checked_once_with_one_text(capsys, embedding, J, text):
    code, out, err = run(capsys, "check", json.dumps({"embedding": embedding, "J": J, "p": 3}))
    assert (code, out, err) == (2, "", text + "\n")


@pytest.mark.parametrize("embedding,rank", [
    ({"builder": "folding_AC", "params": {"m": 300}}, 599),
    ({"builder": "folding_AC", "params": {"m": 3000}}, 5999),
    ({"builder": "so_in_sl", "params": {"n": MAX_RANK + 2}}, MAX_RANK + 1),
    ({"builder": "diagonal", "params": {"h": "A2", "k": 10 ** 12}}, 2 * 10 ** 12),
    ({"builder": "identity", "params": {"h": [["A", 10 ** 9], ["A", 1 - 10 ** 9]]}}, 10 ** 9),
    ({"custom": {"g": f"A{MAX_RANK},A1", "h": "A1", "matrix": [[1] * (MAX_RANK + 1)]}},
     MAX_RANK + 1),
])
def test_rank_above_the_cap_is_refused_quickly(capsys, embedding, rank):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", json.dumps({"embedding": embedding, "J": [1], "p": 3}))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert f"refusing a root system of rank {rank}: the cap is {MAX_RANK}" in err


def test_check_large_prime_is_decided_quickly(capsys):
    data = dict(CHECK_INPUT, p=10 ** 18 + 3)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", json.dumps(data))
    assert code == 0 and json.loads(out)["input"]["p"] == 10 ** 18 + 3
    assert time.perf_counter() - start < 10  # trial division took minutes


def test_check_p_above_bound_names_the_bound(capsys):
    data = dict(CHECK_INPUT, p=3317044064679887385961981)
    code, out, err = run(capsys, "check", json.dumps(data))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "3317044064679887385961981" in err


def test_check_bad_cap_env_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "abc")
    code, out, err = run(capsys, "check", json.dumps(CHECK_INPUT))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "FROBCRIT_ENUM_CAP must be a positive integer" in err


def test_examples_run_bad_cap_env_is_one_error_line(capsys, monkeypatch):
    # a refusal raised outside any check-specific handling still ends in exit 2
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "abc")
    code, out, err = run(capsys, "examples", "run", "minimal-rank")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "FROBCRIT_ENUM_CAP must be a positive integer" in err


def test_argparse_refusal_is_one_error_line(capsys):
    code, out, err = run(capsys, "verify-identities", "--max-rank", "x")
    assert (code, out) == (2, "")
    assert err == "error: frobcrit verify-identities: argument --max-rank: " \
        "invalid int value: 'x'\n"
    code, out, err = run(capsys, "branch", '{"builder": "folding_B3G2"}')
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: frobcrit")


# -- the command table ---------------------------------------------------------------

IDENTITY_A2 = '{"builder": "identity", "params": {"h": "A2"}}'
COMMANDS = "'check', 'examples', 'verify-identities', 'min-p', 'branch'"
# every kind of refusal of the command line, with its whole text
_REFUSALS = {
    "no command": ([], "frobcrit: the following arguments are required: command"),
    "unknown command": (
        ["nope"], f"frobcrit: argument command: invalid choice: 'nope' (choose from {COMMANDS})"),
    "examples without action": (
        ["examples"], "frobcrit examples: the following arguments are required: action"),
    "unknown action": (
        ["examples", "nope"],
        "frobcrit examples: argument action: invalid choice: 'nope' (choose from 'list', 'run')"),
    "missing positional": (
        ["branch", IDENTITY_A2], "frobcrit branch: the following arguments are required: weight"),
    "missing positionals": (
        ["branch"], "frobcrit branch: the following arguments are required: embedding, weight"),
    "extra positional": (["check", "a", "b"], "frobcrit check: unrecognized arguments: b"),
    "extra positionals": (
        ["examples", "list", "a", "b"], "frobcrit examples list: unrecognized arguments: a b"),
    "unknown option": (
        ["check", "a", "--bogus"], "frobcrit check: unrecognized arguments: --bogus"),
    "option of another command": (
        ["check", "--max-rank", "2"], "frobcrit check: unrecognized arguments: --max-rank"),
    "top-level unknown option": (["--bogus"], "frobcrit: unrecognized arguments: --bogus"),
    "ambiguous prefix": (
        ["verify-identities", "--f"],
        "frobcrit verify-identities: ambiguous option: --f could match --force, --format"),
    "option without its value": (
        ["verify-identities", "--max-rank"],
        "frobcrit verify-identities: argument --max-rank: expected one argument"),
    "bad int": (
        ["verify-identities", "--max-rank=2.5"],
        "frobcrit verify-identities: argument --max-rank: invalid int value: '2.5'"),
    "bad choice": (
        ["check", "a", "--format", "dot"],
        "frobcrit check: argument --format: invalid choice: 'dot' (choose from 'json', 'text')"),
    "bad choice after =": (
        ["examples", "run", "sp4", "--format="],
        "frobcrit examples run: argument --format: invalid choice: '' "
        "(choose from 'json', 'text', 'dot')"),
    "flag given a value": (
        ["verify-identities", "--force=1"],
        "frobcrit verify-identities: unrecognized arguments: 1"),
    "input on stdin not an object": (["check", "-"], "criterion input must be a JSON object"),
}


@pytest.mark.parametrize("argv, text", _REFUSALS.values(), ids=_REFUSALS)
def test_every_refusal_of_the_command_line_is_one_error_line(capsys, monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))  # read only by `check -`
    assert run(capsys, *argv) == (2, "", f"error: {text}\n")


def test_option_forms_read_as_one(capsys):
    # --opt=value, a unique prefix and an option before the positional all read as --format text
    inline = json.dumps(CHECK_INPUT)
    expected = run(capsys, "check", inline, "--format", "text")
    assert expected[0] == 0 and expected[1].startswith("embedding: identity:A2")
    for argv in (["check", inline, "--format=text"], ["check", inline, "--form", "text"],
                 ["check", "--f=text", inline], ["check", "--format", "json", inline,
                                                  "--format", "text"]):
        assert run(capsys, *argv) == expected, argv


@pytest.mark.parametrize("argv", [["check", "X", "--help"], ["check", "-h"],
                                  ["examples", "run", "-h"], ["-h"], ["--he"]])
def test_help_anywhere_prints_the_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: frobcrit check INPUT [--format json|text]\n") and err == ""


def test_branch_weight_with_a_leading_minus_reaches_the_weight_parser(capsys):
    # only a token opening with -- (or -h) is an option, so -1,0 is the weight
    assert run(capsys, "branch", IDENTITY_A2, "-1,0") == (
        2, "", "error: highest weight must be dominant integral, got (-1, 0)\n")
    code, out, _ = run(capsys, "branch", IDENTITY_A2, "--format", "text", "1,0")
    assert code == 0 and out.startswith("identity:A2: restriction of (1,0)")


def test_custom_matrix_floats_refused_exact_strings_accepted(capsys):
    code, out, err = run(capsys, "min-p", json.dumps(
        {"custom": {"g": "A1", "h": "A1", "matrix": [[0.1]]}}))
    assert code == 2 and out == "" and "0.1" in err
    exact = {"custom": {"g": "A1,A1", "h": "A1", "matrix": [["2/2", "1"]]}}
    plain = {"custom": {"g": "A1,A1", "h": "A1", "matrix": [[1, 1]]}}
    code, out_exact, _ = run(capsys, "min-p", json.dumps(exact))
    assert code == 0
    assert run(capsys, "min-p", json.dumps(plain))[1] == out_exact
    # every entry is kept as an int or a Fraction in lowest terms, so str()
    # renders it as str(Fraction(x)) did: fractional, negative and integral
    entries = ["-6/4", "3/9", "-2", "0", "8/2", "-0/5", 7, -3, Fraction(10, -4)]
    assert cli.weight_to_json(Weight(entries)) == [str(Fraction(x)) for x in entries] == [
        "-3/2", "1/3", "-2", "0", "4", "0", "7", "-3", "-5/2"]
    emb = embed.Embedding(build_root_system(",".join(["A1"] * len(entries))),
                          build_root_system("A1"), [entries], label="entries")
    restriction = json.loads(cli._embedding_text(emb))["restriction"]
    assert restriction == [[str(Fraction(x)) for x in entries]]


def test_check_bad_lie_flag_refused_with_full_J(capsys):
    data = {"embedding": {"builder": "folding_B3G2"}, "J": [1, 2, 3], "p": 5,
            "lie_separability": "maybe"}
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 2 and "lie_separability" in err


def test_check_bad_lie_flag_refused_with_frobenius_twist(capsys):
    data = {"embedding": {"builder": "frobenius_twisted_diagonal",
                          "params": {"h": "A1", "p": 5}},
            "J": [1], "p": 5, "lie_separability": "maybe"}
    code, _, err = run(capsys, "check", json.dumps(data))
    assert code == 2 and "lie_separability" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/input.json")
    assert code == 2 and "cannot read" in err


def test_check_custom_embedding(capsys):
    data = {
        "embedding": {"custom": {"g": "A1,A1", "h": "A1",
                                 "matrix": [[1, 1]], "label": "diag"}},
        "J": [1, 2],
        "p": 3,
    }
    code, out, _ = run(capsys, "check", json.dumps(data))
    assert code == 0
    report = json.loads(out)
    assert report["input"]["embedding"]["label"] == "diag"
    validate_report(report)


# -- examples ----------------------------------------------------------------------

def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples", "list")
    assert code == 0
    names = json.loads(out)["examples"]
    assert names == ["minimal-rank", "sp4", "sln-son:<n>",
                     "triple-diagonal:<type><rank>", "frobenius-twist"]
    code, out, _ = run(capsys, "examples", "list", "--format", "text")
    assert code == 0
    assert "sp4" in out.splitlines()


@pytest.mark.parametrize("name", ["minimal-rank", "sp4", "sln-son:4",
                                  "sln-son:7", "triple-diagonal:A1",
                                  "triple-diagonal:G2", "frobenius-twist"])
def test_examples_run_all_green(capsys, name):
    code, out, _ = run(capsys, "examples", "run", name)
    assert code == 0
    payload = json.loads(out)
    assert payload["example"] == name
    assert payload["expectations_met"] is True
    for result in payload["results"]:
        if "report" in result:
            validate_report(result["report"])


def test_example_sp4_payload(capsys):
    _, out, _ = run(capsys, "examples", "run", "sp4")
    [result] = json.loads(out)["results"]
    assert result["verdicts"] == [True, False, False, True]
    assert result["conjugator_words"] == [[], [2], [2, 1], [2, 1, 2]]
    assert result["diagram"]["unresolved"] == ["X3"]
    assert len(result["diagram"]["nodes"]) == 11
    assert len(result["diagram"]["edges"]) == 12


def test_example_sp4_dot(capsys):
    code, out, _ = run(capsys, "examples", "run", "sp4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph orbit_closures {")
    assert out.rstrip().endswith("}")
    assert '"X1" -> "X3" [style=bold, label="2"];' in out
    assert out.count("->") == 12
    assert "check: true" in out and "check: false" in out
    assert "splitting: unresolved" in out


def test_dot_rejected_for_other_examples(capsys):
    code, _, err = run(capsys, "examples", "run", "minimal-rank",
                       "--format", "dot")
    assert code == 2
    assert "only available for the sp4 example" in err


def test_dot_is_refused_before_any_report_is_computed(capsys, monkeypatch):
    def no_reports(*args):
        raise AssertionError("a report was computed before the format was refused")

    monkeypatch.setattr(cli, "check_main", no_reports)
    code, out, err = run(capsys, "examples", "run", "minimal-rank", "--format", "dot")
    assert (code, out) == (2, "")
    assert err == "error: dot output is only available for the sp4 example\n"
    # an unknown name is still reported first
    code, _, err = run(capsys, "examples", "run", "nope", "--format", "dot")
    assert code == 2 and err.startswith("error: unknown example 'nope'")


def test_examples_run_unknown(capsys):
    code, _, err = run(capsys, "examples", "run", "nope")
    assert code == 2 and "unknown example" in err
    code, _, err = run(capsys, "examples", "run", "sln-son:x")
    assert code == 2
    code, _, err = run(capsys, "examples", "run", "sln-son:3")
    assert code == 2
    code, _, err = run(capsys, "examples", "run", "triple-diagonal:Q9")
    assert code == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_example_with_a_wrong_expectation_exits_1(capsys, monkeypatch, fmt):
    # the failing side of the example loop: same judge as `check`
    record = registry.EXAMPLES["triple-diagonal:<type><rank>"]
    wrong = record._replace(expect={"condition1_dominant": True})
    monkeypatch.setitem(registry.EXAMPLES, record.name, wrong)
    code, out, err = run(capsys, "examples", "run", "triple-diagonal:A1", "--format", fmt)
    assert code == 1
    if fmt == "json":
        payload = json.loads(out)
        assert payload["expectations_met"] is False
        assert [r["expectation_met"] for r in payload["results"]] == [False]
        assert payload["results"][0]["expected_dominant"] is True
    else:
        assert "expectations met: False" in out
    assert err == "expectation failed: condition1_dominant is False, expected True\n"


def test_example_records_use_the_check_vocabulary():
    for name, record in registry.EXAMPLES.items():
        assert record.name == name
        cli._validate_expect(record.expect)  # raises on a key `check` would refuse
        assert (record.inputs is None) == (name == "sp4")


def test_examples_run_text(capsys):
    code, out, _ = run(capsys, "examples", "run", "triple-diagonal:A2",
                       "--format", "text")
    assert code == 0
    assert "dominant=False" in out
    assert "expectations met: True" in out


# -- verify-identities ----------------------------------------------------------------

def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-rank", "2")
    assert code == 0
    summary = json.loads(out)
    # A1 A2 B2 C2 G2 F4 E6, with 2^rank subsets each
    assert summary["systems"] == ["A1", "A2", "B2", "C2", "G2", "F4", "E6"]
    assert summary["checked"] == 2 + 4 + 4 + 4 + 4 + 16 + 64
    assert summary["failures"] == []


def test_verify_identities_ceiling(capsys):
    code, _, err = run(capsys, "verify-identities", "--max-rank", "7")
    assert code == 2
    assert "--force" in err
    code, _, err = run(capsys, "verify-identities", "--max-rank", "0")
    assert code == 2


def test_verify_identities_above_the_rank_cap_is_one_error_line(capsys):
    code, out, err = run(capsys, "verify-identities", "--max-rank", str(MAX_RANK + 1), "--force")
    assert (code, out) == (2, "")
    assert err == f"error: --max-rank {MAX_RANK + 1} is above the rank cap of {MAX_RANK}\n"


@pytest.mark.parametrize("max_rank, pairs", [(11, 16_450), (16, 524_354)])
def test_verify_identities_refuses_above_the_pair_cap_before_building(capsys, monkeypatch,
                                                                    max_rank, pairs):
    monkeypatch.setattr(cli, "build_root_system", None)  # a build would raise TypeError
    code, out, err = run(capsys, "verify-identities", "--max-rank", str(max_rank), "--force")
    assert (code, out) == (2, "")
    assert err == (f"error: --max-rank {max_rank} would check {pairs} (system, J) pairs, "
                   f"above the cap of {VERIFY_PAIR_CAP}\n")


def test_verify_identities_text(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-rank", "1",
                       "--format", "text")
    assert code == 0
    assert "failures: 0" in out


# -- min-p and branch -------------------------------------------------------------------

def test_min_p(capsys):
    desc = {"builder": "frobenius_twisted_diagonal", "params": {"h": "A1", "p": 5}}
    code, out, _ = run(capsys, "min-p", json.dumps(desc))
    assert code == 0
    assert json.loads(out) == {
        "embedding": "frobenius_twisted_diagonal:A1:p=5",
        "lemma53_min_p": 6,
    }


@pytest.mark.parametrize("matrix,got", [
    ([[1, 1], [1]], "row 2 of length 1"),
    ([[1], [1, 1]], "row 1 of length 1"),
    ([[1, 0, 1], [1, 1]], "row 1 of length 3"),
    ([[1], [1]], "2 x 1"),
])
def test_min_p_names_the_shape_of_a_wrong_matrix(capsys, matrix, got):
    desc = {"custom": {"g": "A2", "h": "A1,A1", "matrix": matrix}}
    code, out, err = run(capsys, "min-p", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err == f"error: bad custom embedding: restriction matrix must be 2 x 2, got {got}\n"


@pytest.mark.parametrize("g,matrix", [("A2", [[0, 0]]), ("A1", [[2]]), ("A1", [["1/2"]])])
def test_min_p_refuses_an_embedding_that_fails_validation(capsys, g, matrix):
    # with check's one line and exit status, not a bound for an embedding check refuses
    desc = {"custom": {"g": g, "h": "A1", "matrix": matrix}}
    refused = run(capsys, "min-p", json.dumps(desc))
    assert refused == run(capsys, "check", json.dumps({"embedding": desc, "J": [1], "p": 3}))
    assert refused[:2] == (2, "") and refused[2].startswith("error: embedding fails validation: ")


def test_branch(capsys):
    desc = {"builder": "diagonal", "params": {"h": "A1", "k": 2}}
    code, out, _ = run(capsys, "branch", json.dumps(desc), "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["branching"] == [
        {"weight": ["2"], "multiplicity": 1},
        {"weight": ["0"], "multiplicity": 1},
    ]


def test_branch_bad_weight(capsys):
    desc = {"builder": "identity", "params": {"h": "A2"}}
    code, _, err = run(capsys, "branch", json.dumps(desc), "1")
    assert code == 2 and "coordinates" in err
    code, _, err = run(capsys, "branch", json.dumps(desc), "1,x")
    assert code == 2
    code, _, err = run(capsys, "branch", json.dumps(desc), "0,-1")
    assert code == 2  # freudenthal needs a dominant weight


def test_branch_prints_a_refused_weight_as_coordinates(capsys):
    desc = {"builder": "identity", "params": {"h": "A2"}}
    code, out, err = run(capsys, "branch", json.dumps(desc), "1/2,0")
    assert (code, out, err) == (
        2, "", "error: highest weight must be dominant integral, got (1/2, 0)\n")


def test_branch_above_cap_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", json.dumps({"builder": "folding_E6F4"}),
                         "5,5,5,5,5,5")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: refusing to branch")
    assert (f"dimension is 10314424798490535546171949056, "
            f"cap is {charalg.DEFAULT_BRANCH_CAP}") in err


def test_branch_above_cap_names_the_cap_past_the_int_digit_limit(capsys):
    # sixteen 99-digit coordinates: more digits of dimension than Python prints
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", json.dumps({"builder": "identity",
                                                       "params": {"h": "A16"}}),
                         ",".join([str(10 ** 99 - 1)] * 16))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: refusing to branch")
    assert err.endswith(f"dimension has 13465 digits, cap is {charalg.DEFAULT_BRANCH_CAP}\n")


def test_branch_bad_cap_env_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("FROBCRIT_BRANCH_CAP", "abc")
    code, out, err = run(capsys, "branch", json.dumps({"builder": "identity",
                                                       "params": {"h": "A2"}}), "1,1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "FROBCRIT_BRANCH_CAP must be a positive integer" in err


# -- schema -----------------------------------------------------------------------------

def test_schema_rejects_corrupted_report(capsys):
    _, out, _ = run(capsys, "check", json.dumps(CHECK_INPUT))
    report = json.loads(out)
    report["conclusions"][0]["tag"] = "NOT_A_TAG"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)
    report = json.loads(out)
    report.pop("lemma53_min_p")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)


def test_reports_validate_across_formats_and_examples(capsys):
    # every report the CLI can emit validates against the shipped schema
    for inp in (CHECK_INPUT,
                {"embedding": {"builder": "so_in_sl", "params": {"n": 6}},
                 "J": [1, 2, 4, 5], "p": 3},
                {"embedding": {"builder": "diagonal",
                               "params": {"h": "A1", "k": 3}},
                 "J": [1, 2, 3], "p": 2},
                {"embedding": {"builder": "frobenius_twisted_diagonal",
                               "params": {"h": "A1", "p": 5}},
                 "J": [1], "p": 5, "surjectivity_source": "large-p"}):
        code, out, _ = run(capsys, "check", json.dumps(inp))
        assert code == 0
        validate_report(json.loads(out))


# -- one command table for every call ---------------------------------------------

_SUCCESSIVE_CALLS = [
    ["check", json.dumps(CHECK_INPUT)],
    ["check", json.dumps(CHECK_INPUT), "--format", "text"],
    ["examples", "list", "--format", "text"],
    ["examples", "run", "sp4", "--format", "dot"],
    ["branch", '{"builder": "folding_B3G2"}', "1,0,1", "--format", "text"],
    ["branch", '{"builder": "folding_B3G2"}', "1,0,1"],
    ["min-p", '{"builder": "so_in_sl", "params": {"n": 5}}', "--format", "text"],
    ["check", '{"embedding": {"builder": "nope"}, "J": [1], "p": 2}'],
    ["branch", '{"builder": "folding_B3G2"}'],
    ["check", json.dumps(CHECK_INPUT), "--format", "dot"],
    ["verify-identities", "--max-rank", "2"],
]


def test_successive_main_calls_match_fresh_processes():
    # the command table is only read, and each call fills a namespace of its own; a call
    # must not see what an earlier one parsed, whatever its subcommand, format or exit path
    assert cli._parse(["check", "x"])[1] is not cli._parse(["check", "x"])[1]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    for argv in _SUCCESSIVE_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        fresh = subprocess.run([sys.executable, "-m", "frobcrit.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out.getvalue(), err.getvalue()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


# -- every JSON output against json.dumps and the report oracle -------------------

_EXAMPLE_NAMES = ("minimal-rank", "sp4", "sln-son:4", "sln-son:5", "sln-son:6", "sln-son:7",
                  "sln-son:8", "triple-diagonal:A1", "triple-diagonal:A2",
                  "triple-diagonal:B2", "triple-diagonal:G2", "frobenius-twist")


def test_example_names_cover_every_listed_example():
    heads = {name.split(":", 1)[0] for name in _EXAMPLE_NAMES}
    assert heads == {name.split(":", 1)[0] for name in registry.EXAMPLES}


@pytest.mark.parametrize("argv", [["examples", "run", name] for name in _EXAMPLE_NAMES]
                         + [["check", json.dumps(CHECK_INPUT)], ["examples", "list"],
                            ["verify-identities", "--max-rank", "3"],
                            ["min-p", '{"builder": "folding_E6F4"}'],
                            ["branch", '{"builder": "folding_B3G2"}', "1,0,1"]],
                         ids=lambda argv: " ".join(argv[:3])[:40])
def test_writer_equals_json_dumps_on_real_outputs(capsys, monkeypatch, argv):
    # check's text against the oracle dict of its report; every other subcommand prints
    # json.dumps of the object it hands to _emit_json, in which examples run reads each
    # report's text back into the oracle dict of that report
    emitted, reports = [], []
    emit, write = cli._emit_json, cli.report_to_json
    monkeypatch.setattr(cli, "_emit_json", lambda obj: (emitted.append(obj), emit(obj)))
    monkeypatch.setattr(cli, "report_to_json", lambda r: (reports.append(r), write(r))[1])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv[0] == "check":
        assert emitted == [] and len(reports) == 1
        assert out == json.dumps(oracles.report_dict(reports[0]), indent=2, sort_keys=True) + "\n"
    else:
        assert len(emitted) == 1
        if reports:
            assert [r["report"] for r in emitted[0]["results"]] == \
                [oracles.report_dict(report) for report in reports]
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- the report writer and condition (1) against their oracles -------------------

# every criterion-sweep embedding, and a fractional one with a non-ASCII label
_ORACLE_DESCRIPTORS = [
    {"builder": "identity", "params": {"h": "A2"}}, {"builder": "identity", "params": {"h": "B3"}},
    {"builder": "levi", "params": {"g": "C2", "J": [1]}},
    {"builder": "levi", "params": {"g": "E7", "J": [1, 2, 3]}},
    {"builder": "levi", "params": {"g": "F4", "J": [2, 3]}},
    {"builder": "diagonal", "params": {"h": "A1", "k": 2}},
    {"builder": "diagonal", "params": {"h": "A2", "k": 3}},
    {"builder": "diagonal", "params": {"h": "G2", "k": 2}},
    {"builder": "folding_AC", "params": {"m": 2}}, {"builder": "folding_AC", "params": {"m": 3}},
    {"builder": "folding_DB", "params": {"n": 4}}, {"builder": "folding_DB", "params": {"n": 5}},
    {"builder": "folding_E6F4"}, {"builder": "folding_B3G2"},
    {"builder": "so_in_sl", "params": {"n": 5}}, {"builder": "so_in_sl", "params": {"n": 6}},
    {"builder": "so_in_sl", "params": {"n": 8}},
    {"builder": "frobenius_twisted_diagonal", "params": {"h": "A1", "p": 2}},
    {"builder": "frobenius_twisted_diagonal", "params": {"h": "A2", "p": 3}},
    {"custom": {"g": "A1,A1", "h": "A1", "matrix": [["1", "1"]]}},
    {"custom": {"g": "A2", "h": "A1", "matrix": [["2", "2"]]}},
    {"custom": {"g": "A1,A1,A1", "h": "A1", "matrix": [["1", "1/2", "1/2"]],
                "label": "halves \u2603 caf\u00e9"}},
]


@functools.lru_cache(maxsize=1)
def _oracle_reports() -> tuple:
    """check_main's report on every J when G has rank <= 6 (four J above), every
    surjectivity source, a small and a 12-digit prime, the Lie flag cycling through
    none, holds and fails."""
    flags = itertools.cycle((None, "holds", "fails"))
    reports = []
    for desc in _ORACLE_DESCRIPTORS:
        emb = cli.embedding_from_descriptor(desc)
        n = emb.g.rank
        choices = ([J for k in range(n + 1) for J in itertools.combinations(range(1, n + 1), k)]
                   if n <= 6 else [(), (1,), tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1))])
        for J in choices:
            for source in criteria.SURJECTIVITY_SOURCES:
                for p in (5, 999999999989):
                    reports.append(criteria.check_main(
                        criteria.CriterionInput(emb, J, p, source, next(flags))))
    return tuple(reports)


def test_report_text_equals_json_dumps_of_the_oracle_dict():
    seen = set()
    for report in _oracle_reports():
        text = cli.report_to_json(report)
        assert text == json.dumps(oracles.report_dict(report), indent=2, sort_keys=True)
        tags = report.tags()
        seen.update(name for name, on in (
            ("null labels", any(c.orbit_labels is None for c in report.conclusions)),
            ("conditional", "CONDITIONAL" in tags), ("no conclusions", not tags),
            ("twisted", report.input.embedding.twist_exponent is not None),
            ("non-ASCII", not report.input.embedding.label.isascii()),
            ("fraction", "/" in text)) if on)
    assert seen == {"null labels", "conditional", "no conclusions", "twisted", "non-ASCII",
                    "fraction"}


def _types(w: Weight) -> list:
    return list(map(type, w.coords))


def test_condition1_on_tuples_equals_the_weight_path():
    # 2 rho_H - rho_J|_H and rho_H - rho_J|_H through Weight arithmetic, with the same
    # coordinate types (a whole Fraction is an int), and (p - 1) rho_J for the divisor
    for report in _oracle_reports():
        emb, J, p = report.input.embedding, report.input.J, report.input.p
        rj_res = embed.restrict(emb, rootsys.rho_J(emb.g, J))
        cond1, canonical = 2 * embed.rho_h(emb) - rj_res, embed.rho_h(emb) - rj_res
        assert report.condition1_weight == cond1
        assert _types(report.condition1_weight) == _types(cond1)
        assert (report.condition1_dominant, report.condition1_regular) == (
            cond1.is_dominant(), cond1.is_regular_dominant())
        named = [c for c in report.conclusions if c.tag == "CANONICAL_SPLIT"
                 or c.tag == "CONDITIONAL" and "CANONICAL_SPLIT" in c.statement]
        assert bool(named) == (cond1.is_dominant() and canonical.is_dominant())
        for c in named:
            if c.tag == "CANONICAL_SPLIT":
                assert c.statement.startswith(
                    f"rho_H - rho_J|_H = {rootsys.coords_text(canonical.coords)} is dominant")
        if report.divisor is not None:
            divisor = (p - 1) * rootsys.rho_J(emb.g, J)
            assert report.divisor.weight == divisor
            assert _types(report.divisor.weight) == _types(divisor)


@pytest.mark.parametrize("argv", [["-h"], ["check", "--help"]])
def test_usage_survives_python_OO(argv):
    # -OO strips docstrings, so the usage text must not be one
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    fresh = subprocess.run([sys.executable, "-OO", "-m", "frobcrit.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0 and fresh.stderr == ""
    assert fresh.stdout.splitlines()[0] == "usage: frobcrit check INPUT [--format json|text]"


# -- memoised embeddings, validation and orbit words --------------------------------

def test_memos_are_bounded():
    for memo in (cli._built, criteria._embedding_facts):
        assert memo.cache_info().maxsize == 64
    # the orbit words live in the root-data store, bounded by the ints it holds
    g = build_root_system("B3")
    count, words = criteria._orbit_words(g, (1, 2))
    assert rootsys._kept((g.components, (1, 2), "words")) is words and len(words) == count == 6
    assert rootsys._orbit_tables[g.components, (1, 2), "words"][1] == 6 + sum(map(len, words))


def test_a_refusal_keeps_its_text_after_a_success_of_an_equal_python_value(capsys):
    # {"k": true} == {"k": 1} in Python; the memo is keyed by JSON text, so
    # the refusal is not answered from the entry of the accepted input, and
    # the accepted input is answered as before after the refusals
    accepted = {"builder": "diagonal", "params": {"h": "A1", "k": 1}}
    as_true = {**accepted, "params": {"h": "A1", "k": True}}
    as_float = {**accepted, "params": {"h": "A1", "k": 1.0}}
    calls = [run(capsys, "min-p", json.dumps(desc))
             for desc in (accepted, as_true, as_float, accepted, as_true)]
    assert calls[0][0] == 0 and calls[3] == calls[0]
    assert calls[1] == calls[4] == (
        2, "", "error: builder 'diagonal': k must be an integer, got True\n")
    assert calls[2] == (2, "", "error: builder 'diagonal': k must be an integer, got 1.0\n")


def test_a_validation_refusal_is_raised_again_with_the_same_text(capsys):
    bad = {"embedding": {"custom": {"g": "A1", "h": "A1", "matrix": [[0]]}},
           "J": [1], "p": 3}
    runs = [run(capsys, "check", json.dumps(bad)) for _ in range(3)]
    assert runs[0][0] == 2 and runs[0][2].startswith("error: embedding fails validation: ")
    assert runs == [runs[0]] * 3


def test_enum_cap_change_in_one_process_matches_fresh_processes(monkeypatch):
    # the orbit words are kept per (G, J) and the cap is read on every call,
    # so a cap set and then unset within one process gives what two fresh
    # processes give
    argv = ["check", json.dumps({"embedding": {"builder": "identity", "params": {"h": "B3"}},
                                 "J": [1, 2], "p": 5})]
    src = str(pathlib.Path(__file__).parents[1] / "src")
    results = []
    for cap in ("1", None):
        if cap is None:
            monkeypatch.delenv("FROBCRIT_ENUM_CAP", raising=False)
        else:
            monkeypatch.setenv("FROBCRIT_ENUM_CAP", cap)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        env = {k: v for k, v in os.environ.items() if k != "FROBCRIT_ENUM_CAP"}
        env["PYTHONPATH"] = src
        if cap is not None:
            env["FROBCRIT_ENUM_CAP"] = cap
        fresh = subprocess.run([sys.executable, "-m", "frobcrit.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out.getvalue(), err.getvalue()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), cap
        results.append(json.loads(out.getvalue())["conclusions"][0]["orbit_labels"])
    assert results[0] is None and len(results[1]) == 6


# -- version -------------------------------------------------------------------------

def test_version_prints_the_package_version_and_exits_0(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--version"])
    assert caught.value.code == 0
    assert capsys.readouterr() == (f"frobcrit {frobcrit.__version__}\n", "")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    fresh = subprocess.run([sys.executable, "-m", "frobcrit.cli", "--version"], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "frobcrit 0.1.0\n", "")
