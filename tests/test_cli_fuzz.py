"""Generated calls of every subcommand, run through ``cli.main``: JSON for
``check``, ``branch`` and ``min-p``, names for ``examples run`` and ranks
for ``verify-identities``.

Whatever the input, no exception escapes, the exit code is 0, 1 or 2, and 1
(a failed expectation) occurs only when the input carries an ``expect``
block or runs an example, which carries its own.  An input error is one
``error:`` line on stderr.  The inputs mix well-formed descriptors,
parameters, weights, names and ranks with junk in every slot; builder
parameters, weights and ranks stay small, so that an accepted input is cheap
to run.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from frobcrit import cli, registry
from frobcrit.rootsys import MAX_RANK

BIG_P = '{"embedding": {"builder": "so_in_sl", "params": {"n": 5}}, "J": [1], "p": 1%s}' % (
    "0" * 4400)
EXPONENT_ENTRY = '{"custom": {"g": "A1", "h": "A1", "matrix": [["1e5000"]]}}'
HUGE_EXPONENT_ENTRY = '{"custom": {"g": "A1", "h": "A1", "matrix": [["1e100000000"]]}}'
IDENTITY_A1 = '{"builder": "identity", "params": {"h": "A1"}}'
DEEP = '{"embedding": ' + "[" * 100_000 + "]" * 100_000 + "}"

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
RANKS = {"A1": 1, "A2": 2, "B2": 2, "C3": 3, "G2": 2, "A1,A1": 2, "A3": 3}
RARELY = st.integers(0, 15).map(lambda i: i == 5)  # not a bound, which are drawn more often


def _mostly(strategy, other=JUNK):
    """``strategy``, or one time in sixteen ``other``: anything JSON can hold."""
    return RARELY.flatmap(lambda rare: other if rare else strategy)


SPECS = _mostly(st.sampled_from(list(RANKS)),
                st.sampled_from(["Z2", "A0", "", "A17", [["A", 2]], [["B", 1]], 2]))
NUMBERS = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-7/2", "3/0", "0.5", "1e3", "1e5000", "1e100000000",
                     "1e-100000000", "x", "", "1" * 200]),
    st.fractions(max_denominator=4).map(str))
# example names: every listed one (a parametrised name as listed, which is
# refused), its parameter in and out of range, and junk
EXAMPLE_NAMES = _mostly(
    st.sampled_from(list(registry.EXAMPLES)) | st.builds(
        "{}:{}".format, st.sampled_from(["sln-son", "triple-diagonal"]),
        st.sampled_from(["x", "2", "4", "5", "Z9", "A20", "A1", "G2", "A1,A1", ""])),
    st.text(max_size=8))
# verify-identities ranks: in range, refused below 1 or above a cap, and junk
MAX_RANKS = _mostly(st.integers(-1, 7).map(str)
                    | st.sampled_from([11, MAX_RANK + 1, 10 ** 40]).map(str),
                    st.text(max_size=4))
# builder parameters: mostly in range, sometimes just outside it
PARAMS = {
    "g": SPECS, "h": SPECS,
    "J": _mostly(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
    "k": _mostly(st.integers(1, 3), st.just(0)),
    "m": _mostly(st.integers(2, 4), st.just(1)),
    "n": _mostly(st.integers(4, 8), st.just(2)),
    "p": _mostly(st.sampled_from([2, 3, 5, 4])),
}


@st.composite
def descriptors(draw):
    if draw(st.integers(0, 2)) == 1:  # a custom matrix, else a builder
        g, h = draw(SPECS), draw(SPECS)
        shape = (RANKS.get(str(h), 1), RANKS.get(str(g), 1))
        rows, cols = (draw(st.integers(0, 3)), draw(st.integers(0, 3))) if draw(RARELY) else shape
        matrix = draw(_mostly(st.lists(st.lists(NUMBERS, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)))
        custom = {"g": g, "h": h, "matrix": matrix}
        if draw(st.booleans()):
            custom["twist_exponent"] = draw(_mostly(st.integers(1, 3)))
        return {"custom": draw(_mostly(st.just(custom)))}
    name = draw(_mostly(st.sampled_from(sorted(cli._BUILDERS)), st.just("nope")))
    params = {key: draw(_mostly(PARAMS[key]))
              for key in cli._BUILDERS.get(name, ("n",)) if not draw(RARELY)}
    return {"builder": draw(_mostly(st.just(name))), "params": draw(_mostly(st.just(params)))}


@st.composite
def cli_calls(draw):
    """(argv, whether the input carries an expect block)."""
    command = draw(st.sampled_from(["check", "branch", "min-p", "examples", "verify-identities"]))
    fmt = draw(st.sampled_from([[], ["--format", "text"]]))
    if command == "examples":
        fmt = draw(st.sampled_from([fmt, ["--format", "dot"]]))
        return ["examples", "run", draw(EXAMPLE_NAMES)] + fmt, True
    if command == "verify-identities":
        force = draw(st.sampled_from([[], ["--force"]]))
        return ["verify-identities", "--max-rank", draw(MAX_RANKS)] + force + fmt, False
    desc = draw(_mostly(descriptors()))
    if command != "check":
        # inline JSON is an argument starting with "{", anything else a path
        inline = json.dumps(desc if isinstance(desc, dict) else {"custom": desc})
        if command == "min-p":
            return ["min-p", inline] + fmt, False
        try:
            rank = cli.embedding_from_descriptor(desc).g.rank
        except cli.InputError:
            rank = 2
        size = draw(st.integers(1, 4)) if draw(RARELY) else rank
        coords = st.integers(0, 2).map(str) | NUMBERS.map(str) if draw(RARELY) else \
            st.integers(0, 2).map(str)
        weight = ",".join(draw(st.lists(coords, min_size=size, max_size=size)))
        return ["branch", inline, weight] + fmt, False
    data = {"embedding": desc, "J": draw(PARAMS["J"]),
            "p": draw(_mostly(st.sampled_from([2, 3, 5, 7, 4, 10 ** 30 + 57])))}
    for key in ("J", "p"):
        if draw(RARELY):
            del data[key]
    if draw(st.booleans()):
        data["surjectivity_source"] = draw(_mostly(st.sampled_from(
            ["donkin-registry", "large-p", "user-asserted", "none"])))
    if draw(st.booleans()):
        data["lie_separability"] = draw(_mostly(st.sampled_from(["holds", "fails"])))
    if draw(st.booleans()):
        data["expect"] = draw(_mostly(st.fixed_dictionaries({}, optional={
            "condition1_dominant": st.booleans(),
            "lie_separability": st.sampled_from(["holds", "fails", "unknown"]),
            "tags_include": st.lists(st.sampled_from(["SPLIT_PJ", "CONDITIONAL"]), max_size=2),
        })))
    return ["check", json.dumps(data)] + fmt, "expect" in data


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cli_calls())
@example((["check", BIG_P], False))
@example((["min-p", EXPONENT_ENTRY], False))
@example((["min-p", EXPONENT_ENTRY, "--format", "text"], False))
@example((["branch", HUGE_EXPONENT_ENTRY, "1"], False))
@example((["branch", IDENTITY_A1, "1e100000000"], False))
@example((["check", DEEP], False))
def test_any_json_ends_in_a_report_or_one_error_line(call):
    argv, has_expect = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert code != 1 or has_expect, argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert len(err.getvalue().splitlines()) == 1, argv
