import importlib.resources
import io
import json

import jsonschema
import pytest

from frobcrit.cli import main

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
], ids=["J-not-int", "p-not-int", "param-null", "matrix-entry-object",
        "expect-not-object", "embedding-not-object", "custom-not-object",
        "builder-not-string", "params-not-object"])
def test_check_malformed_values_are_refused(capsys, mutate):
    data = json.loads(json.dumps(CHECK_INPUT))
    mutate(data)
    code, out, err = run(capsys, "check", json.dumps(data))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


def test_examples_run_unknown(capsys):
    code, _, err = run(capsys, "examples", "run", "nope")
    assert code == 2 and "unknown example" in err
    code, _, err = run(capsys, "examples", "run", "sln-son:x")
    assert code == 2
    code, _, err = run(capsys, "examples", "run", "sln-son:3")
    assert code == 2
    code, _, err = run(capsys, "examples", "run", "triple-diagonal:Q9")
    assert code == 2


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
