"""Replay of a frozen CLI corpus: argv, exit code and the sha256 of stdout
and of stderr, so a refusal's text is pinned as well as its exit code.

``tests/data/cli_golden.json`` holds one entry per call: verify-identities
up to rank 6, every ``examples run`` name, branch, min-p and check calls over
every builder and custom matrices, valid and refused.  A change that must
keep the CLI's output byte-identical has to pass this test unchanged.

To rebuild the corpus after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change's notes which entries moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
import time

from frobcrit import cli

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
ENV_VARS = ("FROBCRIT_ENUM_CAP", "FROBCRIT_BRANCH_CAP")


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


# builder descriptors and a weight or two to branch each one at
_BRANCH = [
    ({"builder": "identity", "params": {"h": "A1"}}, ["3"]),
    ({"builder": "identity", "params": {"h": "A2"}}, ["1,1", "2,0"]),
    ({"builder": "identity", "params": {"h": "G2"}}, ["1,0"]),
    ({"builder": "identity", "params": {"h": "C3"}}, ["0,1,0"]),
    ({"builder": "levi", "params": {"g": "C3", "J": [1, 3]}}, ["1,1,1"]),
    ({"builder": "levi", "params": {"g": "F4", "J": [2, 3]}}, ["1,0,0,0"]),
    ({"builder": "levi", "params": {"g": "E6", "J": [1, 3, 4]}}, ["1,0,0,0,0,0"]),
    ({"builder": "diagonal", "params": {"h": "A1", "k": 2}}, ["2,3", "1,1"]),
    ({"builder": "diagonal", "params": {"h": "A1", "k": 3}}, ["1,1,1"]),
    ({"builder": "diagonal", "params": {"h": "A2", "k": 2}}, ["1,0,0,1"]),
    ({"builder": "diagonal", "params": {"h": "B2", "k": 2}}, ["0,1,1,0"]),
    ({"builder": "folding_AC", "params": {"m": 2}}, ["1,1,1", "0,2,0"]),
    ({"builder": "folding_AC", "params": {"m": 3}}, ["1,0,0,0,1"]),
    ({"builder": "folding_DB", "params": {"n": 4}}, ["1,0,0,1"]),
    ({"builder": "folding_DB", "params": {"n": 5}}, ["0,1,0,0,0"]),
    ({"builder": "folding_E6F4"}, ["1,0,0,0,0,0", "0,1,0,0,0,0"]),
    ({"builder": "folding_B3G2"}, ["1,1,1", "0,0,2"]),
    ({"builder": "so_in_sl", "params": {"n": 4}}, ["1,0,0"]),
    ({"builder": "so_in_sl", "params": {"n": 5}}, ["1,1,0,0"]),
    ({"builder": "so_in_sl", "params": {"n": 6}}, ["0,1,0,0,0"]),
    ({"builder": "so_in_sl", "params": {"n": 7}}, ["1,0,0,0,0,0"]),
    ({"builder": "frobenius_twisted_diagonal", "params": {"h": "A1", "p": 2}}, ["1,1"]),
    ({"builder": "frobenius_twisted_diagonal", "params": {"h": "A1", "p": 3}}, ["2,1"]),
    ({"builder": "frobenius_twisted_diagonal", "params": {"h": "A2", "p": 2}}, ["1,0,0,1"]),
]


def _custom(g, h, matrix, **extra):
    return {"custom": {"g": g, "h": h, "matrix": matrix, **extra}}


# custom matrices, including non-characters that branch refuses
_BRANCH_CUSTOM = [
    (_custom("A1,A1", "A1", [[1, 1]]), ["1,1", "2,1"]),
    (_custom("A1,A1", "A1", [["1", "3"]], twist_exponent=3), ["1,1"]),
    (_custom("A2", "A1", [[2, 2]]), ["1,0", "1,1"]),
    (_custom("A2", "A1", [[3, 2]]), ["2,2"]),
    (_custom("A2", "A1", [[1, 2]]), ["1,0"]),
    (_custom("A2", "A2", [[2, 0], [0, 2]]), ["1,1"]),
    (_custom("G2", "G2", [[2, 0], [0, 2]]), ["1,0"]),
    (_custom("A3", "C2", [[1, 0, 1], [0, 1, 0]]), ["1,1,1"]),
    (_custom("A1", "A1", [["1/2"]]), ["1"]),
    (_custom("B2", "A1", [[2, 1]]), ["1,1"]),
    (_custom("A2", "A2", [[0, 1], [1, 0]], label="swap"), ["2,1"]),
    (_custom("A1,A1", "A1", [[1, 2]]), ["3,1"]),
    # W_H-invariant restrictions whose weights are not saturated: (+-2) at
    # (1) and (+-6), (0) at (2), refused at a weight that is not a key
    (_custom("A1", "A1", [[2]]), ["1"]),
    (_custom("A1", "A1", [[3]]), ["2"]),
    # not W_H-invariant: s_2 (3, 1) = (4, -1) has no weight to match
    (_custom("A1", "A2", [[3], [1]]), ["1"]),
]

# (descriptor, J choices) per builder for the check inputs
_CHECK_TARGETS = [
    ({"builder": "identity", "params": {"h": "A2"}}, 2),
    ({"builder": "identity", "params": {"h": "B3"}}, 3),
    ({"builder": "identity", "params": {"h": "G2"}}, 2),
    ({"builder": "levi", "params": {"g": "C2", "J": [1]}}, 2),
    ({"builder": "levi", "params": {"g": "E7", "J": [1, 2, 3]}}, 7),
    ({"builder": "levi", "params": {"g": "F4", "J": [2, 3]}}, 4),
    ({"builder": "diagonal", "params": {"h": "A1", "k": 2}}, 2),
    ({"builder": "diagonal", "params": {"h": "A2", "k": 3}}, 6),
    ({"builder": "diagonal", "params": {"h": "G2", "k": 2}}, 4),
    ({"builder": "folding_AC", "params": {"m": 2}}, 3),
    ({"builder": "folding_AC", "params": {"m": 3}}, 5),
    ({"builder": "folding_DB", "params": {"n": 4}}, 4),
    ({"builder": "folding_DB", "params": {"n": 5}}, 5),
    ({"builder": "folding_E6F4"}, 6),
    ({"builder": "folding_B3G2"}, 3),
    ({"builder": "so_in_sl", "params": {"n": 5}}, 4),
    ({"builder": "so_in_sl", "params": {"n": 6}}, 5),
    ({"builder": "so_in_sl", "params": {"n": 8}}, 7),
    ({"builder": "frobenius_twisted_diagonal", "params": {"h": "A1", "p": 2}}, 2),
    ({"builder": "frobenius_twisted_diagonal", "params": {"h": "A2", "p": 3}}, 4),
    (_custom("A1,A1", "A1", [[1, 1]]), 2),
    (_custom("A2", "A1", [["2", "2"]]), 2),
]
_PRIMES = (2, 3, 5, 7, 11, 13, 97, 1000000007)
_SOURCES = ("donkin-registry", "large-p", "user-asserted", "none")


def _check_inputs(rng: random.Random) -> list[dict]:
    inputs = []
    for desc, rank in _CHECK_TARGETS:
        for _ in range(4):
            data = {"embedding": desc,
                    "J": [j for j in range(1, rank + 1) if rng.random() < 0.5],
                    "p": rng.choice(_PRIMES),
                    "surjectivity_source": rng.choice(_SOURCES)}
            if rng.random() < 0.3:
                data["lie_separability"] = rng.choice(("holds", "fails"))
            if rng.random() < 0.3:
                data["expect"] = {"condition1_dominant": rng.random() < 0.5,
                                  "tags_include": ["SPLIT_PJ"]}
            inputs.append(data)
        inputs.append({"embedding": desc, "J": list(range(1, rank + 1)), "p": 3})
    base = {"embedding": {"builder": "so_in_sl", "params": {"n": 5}}, "J": [1], "p": 3}
    for change in ({"p": 4}, {"p": 1}, {"J": [9]}, {"J": [0]}, {"J": ["x"]},
                   {"J": [1.5]}, {"p": "two"}, {"surjectivity_source": "oracle"},
                   {"lie_separability": "maybe"}, {"embedding": {"builder": "levy"}},
                   {"expect": {"tag_include": []}}, {"expect": {"tags_exclude": ["SPLIT_PJ"]}},
                   {"embedding": {"builder": "folding_AC", "params": {"m": 1}}},
                   {"embedding": _custom("A1", "A1", [[0.5]])}):
        inputs.append({**base, **change})
    return inputs


def corpus_argvs() -> list[list[str]]:
    argvs = [["verify-identities", "--max-rank", "6"],
             ["verify-identities", "--max-rank", "6", "--format", "text"],
             ["verify-identities", "--max-rank", "7"],
             ["verify-identities", "--max-rank", "0"],
             ["examples", "list"], ["examples", "list", "--format", "text"],
             ["examples", "run", "sp4", "--format", "dot"]]
    for name in ("minimal-rank", "sp4", "sln-son:4", "sln-son:5", "sln-son:6", "sln-son:7",
                 "sln-son:8", "triple-diagonal:A1", "triple-diagonal:A2",
                 "triple-diagonal:B2", "triple-diagonal:G2", "frobenius-twist",
                 "sln-son:3", "sln-son:x", "triple-diagonal:Q9", "nope"):
        for fmt in ("json", "text"):
            argvs.append(["examples", "run", name, "--format", fmt])
    argvs.append(["examples", "run", "minimal-rank", "--format", "dot"])
    for desc, weights in _BRANCH + _BRANCH_CUSTOM:
        text = json.dumps(desc)
        for k, weight in enumerate(weights):
            argvs.append(["branch", text, weight])
            if k == 0:
                argvs.append(["branch", text, weight, "--format", "text"])
        argvs.append(["min-p", text])
    identity_a2 = json.dumps({"builder": "identity", "params": {"h": "A2"}})
    argvs += [["branch", identity_a2, "1"], ["branch", identity_a2, "1,x"],
              ["branch", identity_a2, "0,-1"],
              ["branch", json.dumps({"builder": "folding_E6F4"}), "5,5,5,5,5,5"],
              ["min-p", json.dumps({"builder": "folding_DB", "params": {"n": 6}}),
               "--format", "text"]]
    rng = random.Random(20261018)
    for data in _check_inputs(rng):
        argvs.append(["check", json.dumps(data)]
                     + (["--format", "text"] if rng.random() < 0.25 else []))
    return argvs


def test_cli_output_matches_golden_corpus(monkeypatch):
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) >= 250
    start = time.perf_counter()
    moved = []
    for entry in corpus:
        got = _call(entry["argv"])
        if got != (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]):
            moved.append((entry["argv"], entry["exit"], got[0]))
    assert not moved, f"{len(moved)} calls changed, first: {moved[:3]}"
    assert time.perf_counter() - start < 20


if __name__ == "__main__":
    entries = []
    for argv in corpus_argvs():
        code, out, err = _call(argv)
        entries.append({"argv": argv, "exit": code, "stdout_sha256": out,
                        "stderr_sha256": err})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
