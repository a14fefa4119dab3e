"""End-to-end conformance sweeps over the public surface.

Everything here is an exhaustive or wide-range check of a guarantee the
package advertises: the Steinberg decomposition identity across all small
types, full Weyl enumerations against closed-form orders, the worked-example
registry, oracle cross-validation of the character code over every module
of dimension at most 500, and schema validity of emitted reports.  The
narrow unit tests live next to their subjects; nothing below reaches into
private helpers.
"""

import itertools
import json
import time
from importlib import resources

import jsonschema
import pytest

from frobcrit import embed
from frobcrit.charalg import branch, freudenthal, weyl_dim
from frobcrit.cli import report_to_json
from frobcrit.criteria import (
    CriterionInput,
    check_main,
    conjugated_borel_check,
    lemma53_min_p,
)
from frobcrit.embed import detect_twist, restrict, rho_h
from frobcrit.registry import (
    example_frobenius_twist,
    example_sln_son,
    example_sp4,
    example_triple_diagonal,
    lookup_donkin,
    minimal_rank_suite,
)
from frobcrit.rootsys import Weight, build_root_system, rho
from frobcrit.weyl import enumerate_parabolic, longest_element, verify_st_decomp

from oracles import (
    KostantCounter,
    brute_weyl_with_signs,
    character_multiplicity_oracle,
)

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D4", "G2", "F4", "E6"]


def dominant_weights_upto(rs, bound):
    """All dominant integral weights whose irreducible has dim <= bound.

    The Weyl dimension formula is monotone in every fundamental coordinate,
    so a breadth-first walk from zero can prune the moment it overshoots.
    """
    zero = (0,) * rs.rank
    seen = {zero}
    frontier = [zero]
    out = []
    while frontier:
        nxt = []
        for coords in frontier:
            lam = Weight(coords)
            if weyl_dim(rs, lam) > bound:
                continue
            out.append(lam)
            for i in range(rs.rank):
                up = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
                if up not in seen:
                    seen.add(up)
                    nxt.append(up)
        frontier = nxt
    return out


def next_prime(n):
    def is_prime(m):
        if m < 2:
            return False
        f = 2
        while f * f <= m:
            if m % f == 0:
                return False
            f += 1
        return True

    while not is_prime(n):
        n += 1
    return n


def full_J(emb):
    return tuple(range(1, emb.g.rank + 1))


def registry_embeddings():
    """Every embedding the registry's worked examples construct.

    The Frobenius-twist family is deliberately not here: a twisted
    restriction is not a nonnegative combination of Weyl characters of H,
    so branch refuses it by design.  test_frobenius_twist_blocks_separability
    covers that family through its own interface.
    """
    embs = [e for e, _ in minimal_rank_suite()]
    embs.append(example_sp4().embedding)
    for n in range(4, 9):
        embs.extend(inp.embedding for inp in example_sln_son(n))
    for spec in ["A1", "A2", "G2"]:
        embs.append(example_triple_diagonal(spec).embedding)
    seen = set()
    out = []
    for e in embs:
        if e.label not in seen:
            seen.add(e.label)
            out.append(e)
    return out


# the embeddings of the branch-sweep benchmark workload
SWEEP = [getattr(embed, name)(*args) for name, args in (
    ("folding_E6F4", ()), ("folding_B3G2", ()),
    ("folding_AC", (2,)), ("folding_AC", (3,)), ("folding_AC", (4,)),
    ("folding_DB", (4,)), ("folding_DB", (5,)),
    ("so_in_sl", (5,)), ("so_in_sl", (6,)), ("so_in_sl", (8,)),
    ("diagonal", ("A1", 2)), ("diagonal", ("A1", 3)), ("diagonal", ("A2", 2)),
    ("diagonal", ("A2", 3)), ("diagonal", ("B2", 2)), ("diagonal", ("G2", 3)),
    ("levi", ("E6", (1, 3, 4, 5, 6))), ("levi", ("B4", (2, 3, 4))),
    ("levi", ("A5", (1, 2, 4, 5))), ("levi", ("F4", (1, 2, 3))))]


def test_steinberg_decomposition_identity_everywhere():
    start = time.monotonic()
    checked = 0
    for spec in SMALL_TYPES:
        rs = build_root_system(spec)
        for bits in range(1 << rs.rank):
            J = tuple(j for j in range(1, rs.rank + 1)
                      if bits & (1 << (j - 1)))
            lhs, rhs, equal = verify_st_decomp(rs, J)
            assert equal, (spec, J, lhs, rhs)
            checked += 1
    assert checked == 186
    assert time.monotonic() - start < 30.0


def test_weyl_enumeration_matches_closed_orders():
    start = time.monotonic()
    for spec, order in [("C2", 8), ("A3", 24), ("F4", 1152), ("E6", 51840)]:
        rs = build_root_system(spec)
        assert len(enumerate_parabolic(rs)) == order
        w0 = longest_element(rs)
        assert w0.length() == len(rs.positive_roots)
        assert (w0 * w0).is_identity()
    assert time.monotonic() - start < 60.0


def test_minimal_rank_suite_is_dominant():
    suite = minimal_rank_suite()
    assert len(suite) == 10
    for emb, expected in suite:
        assert expected is True
        delta = 2 * rho_h(emb) - restrict(emb, rho(emb.g))
        assert delta.is_dominant(), emb.label
        # the same weight drives condition (1) at the full parabolic
        report = check_main(CriterionInput(emb, full_J(emb), 3))
        assert report.condition1_weight == delta
        assert report.condition1_dominant is True


def test_sp4_conjugated_borel_verdicts():
    ex = example_sp4()
    computed = tuple(conjugated_borel_check(ex.embedding, x, ex.J)
                     for x in ex.conjugators)
    assert computed == (True, False, False, True)
    assert ex.expected_verdicts == computed


def test_sln_son_dominance_and_donkin():
    for n in range(4, 9):
        inputs = example_sln_son(n)
        assert len(inputs) == (1 if n % 2 == 0 else 2)
        for inp in inputs:
            report = check_main(inp)
            assert report.condition1_dominant, (n, inp.J)
            assert lookup_donkin(inp.embedding, 3).status == "yes"


def test_triple_diagonal_rho_restriction():
    for spec in ["A1", "A2", "G2"]:
        inp = example_triple_diagonal(spec)
        emb = inp.embedding
        assert restrict(emb, rho(emb.g)) == 3 * rho_h(emb)
        report = check_main(inp)
        assert report.condition1_dominant is False
        assert report.conclusions == []


def test_frobenius_twist_blocks_separability():
    for p in [2, 3, 5]:
        emb = embed.frobenius_twisted_diagonal("A1", p)
        assert detect_twist(emb, p) is True
        for J in [(), (1,), (2,)]:
            report = check_main(CriterionInput(emb, J, p, "user-asserted"))
            assert report.lie_separability.status == "fails", (p, J)
            assert report.lie_separability.source == "frobenius-twist"


@pytest.mark.parametrize("spec", ["A1", "A2", "C2", "G2"])
def test_freudenthal_matches_independent_oracle(spec):
    rs = build_root_system(spec)
    weyl = brute_weyl_with_signs(rs)
    kostant = KostantCounter(rs)
    for lam in dominant_weights_upto(rs, 500):
        char = freudenthal(rs, lam)
        for mu, mult in char.multiplicities.items():
            assert character_multiplicity_oracle(
                rs, lam, Weight(mu), weyl, kostant) == mult, (lam, mu)
        # the dimension formula closes the loop: a dominant weight missing
        # from the recursion's support would leave the orbit count short
        assert char.dimension() == weyl_dim(rs, lam), lam


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_branch_conserves_dimension(emb):
    for lam in dominant_weights_upto(emb.g, 500):
        parts = sum(mult * weyl_dim(emb.h, top)
                    for top, mult in branch(emb, lam).items())
        assert parts == weyl_dim(emb.g, lam), (emb.label, lam)


def _J_spread(rank):
    """Every J up to rank 4; above it, the full set and the full set less its middle node."""
    full = tuple(range(1, rank + 1))
    if rank > 4:
        return [full, tuple(j for j in full if j != (rank + 1) // 2)]
    return [J for k in range(rank + 1) for J in itertools.combinations(full, k)]


def test_conditional_lists_exactly_the_user_asserted_tags():
    # metamorphic: asserting surjectivity must yield what CONDITIONAL promised
    embs = registry_embeddings() + [embed.frobenius_twisted_diagonal(h, q)
                                    for h, q in (("A1", 2), ("A1", 3), ("A2", 5))]
    start = time.monotonic()
    conditional = 0
    for emb in embs:
        for J in _J_spread(emb.g.rank):
            for p in (2, 3, 5):
                for flag in (None, "holds", "fails"):
                    report = check_main(CriterionInput(emb, J, p, "none", flag))
                    if not report.condition1_dominant:
                        continue
                    [pending] = report.conclusions
                    assert pending.tag == "CONDITIONAL"
                    follow = pending.statement.split("these follow: ")[1].split(", ")
                    asserted = check_main(CriterionInput(emb, J, p, "user-asserted", flag))
                    assert len(set(follow)) == len(follow)
                    assert set(follow) == set(asserted.tags()), (emb.label, J, p, flag)
                    conditional += 1
    assert conditional > 500  # not vacuous
    assert time.monotonic() - start < 30.0


def test_large_p_bound_yields_split():
    assert lemma53_min_p(embed.identity("A1")) == 2

    cases = [(e, full_J(e)) for e, _ in minimal_rank_suite()]
    sp4 = example_sp4()
    cases.append((sp4.embedding, sp4.J))
    cases.append((sp4.embedding, (1,)))
    for n in range(4, 9):
        for inp in example_sln_son(n):
            cases.append((inp.embedding, inp.J))
    for spec in ["A1", "A2", "G2"]:
        inp = example_triple_diagonal(spec)
        cases.append((inp.embedding, inp.J))

    dominant = 0
    for emb, J in cases:
        p = next_prime(lemma53_min_p(emb))
        report = check_main(CriterionInput(emb, J, p, "large-p"))
        assert report.surjectivity.holds, (emb.label, p)
        if report.condition1_dominant:
            assert "SPLIT_PJ" in report.tags(), (emb.label, J, p)
            dominant += 1
    # the implication must not pass vacuously
    assert dominant == 19


def test_reports_are_schema_valid_tagged_strings():
    with resources.files("frobcrit").joinpath("report_schema.json").open(
            encoding="utf-8") as fh:
        schema = json.load(fh)

    suite = minimal_rank_suite()
    inputs = [CriterionInput(suite[0][0], (1, 2), 2)]
    sp4 = example_sp4()
    inputs.append(CriterionInput(sp4.embedding, sp4.J, 2))
    inputs.extend(example_sln_son(5))
    inputs.append(example_triple_diagonal("A2"))
    inputs.extend(example_frobenius_twist())

    for inp in inputs:
        report = check_main(inp)
        payload = json.loads(report_to_json(report))
        jsonschema.validate(payload, schema)
        json.dumps(payload)  # round-trips as plain JSON, nothing exotic
        # geometry travels only as tagged strings, never as computed objects
        for conclusion in report.conclusions:
            assert isinstance(conclusion.tag, str)
            assert isinstance(conclusion.statement, str)
            assert isinstance(conclusion.theorem, str)
