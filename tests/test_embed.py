import itertools
import sys
from fractions import Fraction

import pytest

from frobcrit import cli, embed
from frobcrit.charalg import _numerator_certificate
from frobcrit.embed import (
    CriterionInput,
    Embedding,
    detect_twist,
    diagonal,
    folding_AC,
    folding_B3G2,
    folding_DB,
    folding_E6F4,
    frobenius_twisted_diagonal,
    identity,
    levi,
    restrict,
    rho_h,
    root_fiber,
    so_in_sl,
    validate,
)
from frobcrit.rootsys import Weight, build_root_system, index_set, rho, root_to_weight

from oracles import root_coordinates
from test_acceptance import registry_embeddings


def all_registry_builders():
    out = [
        identity("A2"),
        diagonal("C2", 2),
        diagonal("A1", 3),
        folding_AC(2), folding_AC(3), folding_AC(4),
        folding_DB(4), folding_DB(5), folding_DB(6),
        folding_E6F4(),
        folding_B3G2(),
        so_in_sl(4), so_in_sl(5), so_in_sl(6), so_in_sl(7), so_in_sl(8),
        frobenius_twisted_diagonal("A1", 2),
        frobenius_twisted_diagonal("A1", 3),
        levi(build_root_system("C2"), (1,)),
        levi(build_root_system("F4"), (2, 3, 4)),
    ]
    return out


# -- validation --------------------------------------------------------------

@pytest.mark.parametrize("emb", all_registry_builders(), ids=lambda e: e.label)
def test_builders_validate_clean(emb):
    assert validate(emb) == []


def test_validate_flags_sign_flip():
    h = build_root_system("A1")
    emb = Embedding(h, h, [[Fraction(-1)]], label="flip")
    problems = validate(emb)
    assert len(problems) == 1 and "not the restriction" in problems[0]


# validate and root_fiber as they were on Weight, restricting every G-root
# on every call, kept as references for the coordinate tables

def _restrict_reference(emb, weight):
    return Weight(sum(row[j] * weight.coords[j] for j in range(emb.g.rank))
                  for row in emb.restriction)


def _validate_reference(emb):
    violations = []
    g_restrictions = {_restrict_reference(emb, root_to_weight(emb.g, beta))
                      for beta in emb.g.positive_roots}
    for gamma in emb.h.positive_roots:
        target = root_to_weight(emb.h, gamma)
        if target not in g_restrictions:
            violations.append(
                f"positive root {gamma} of {emb.h.spec_string()} is not the "
                f"restriction of any positive root of {emb.g.spec_string()}")
    if emb.root_lift is not None:
        for gamma in emb.h.positive_roots:
            if gamma not in emb.root_lift:
                violations.append(f"root_lift is missing the positive root {gamma}")
                continue
            if len(emb.root_lift[gamma]) == 0:
                violations.append(f"root_lift lifts the positive root {gamma} to no vector")
            # each lifted vector is +-beta for a positive G-root beta, and
            # restricts to gamma
            for vec in emb.root_lift[gamma]:
                negated = tuple(-c for c in vec)
                is_root = vec in emb.g.positive_roots or negated in emb.g.positive_roots
                if not (is_root and _restrict_reference(emb, root_to_weight(emb.g, vec))
                        == root_to_weight(emb.h, gamma)):
                    violations.append(
                        f"root_lift lifts the positive root {gamma} to {vec}, which is "
                        f"not a root of {emb.g.spec_string()} restricting to it")
    return violations


def _root_fiber_reference(emb, gamma):
    if emb.root_lift is not None and gamma in emb.root_lift:
        return emb.root_lift[gamma]
    target = root_to_weight(emb.h, gamma)
    fiber = []
    for beta in emb.g.positive_roots:
        for signed in (beta, tuple(-c for c in beta)):
            if _restrict_reference(emb, root_to_weight(emb.g, signed)) == target:
                fiber.append(signed)
    if not fiber:
        raise ValueError(f"no G-root restricts to the H-root {gamma}")
    return tuple(fiber)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return f"ValueError: {err}"


_A1 = build_root_system("A1")
_C2 = build_root_system("C2")

# A1 inside C2 at alpha_1, lifted to alpha_2 (which restricts to -gamma), to
# (5, 7) (not a root of C2) and to no vector at all: each validated clean
# while only the presence of a lift was checked
BAD_LIFTS = [
    Embedding(_C2, _A1, [[1, 0]], "lift-to-alpha2", root_lift={(1,): ((0, 1),)}),
    Embedding(_C2, _A1, [[1, 0]], "lift-to-non-root", root_lift={(1,): ((5, 7),)}),
    Embedding(_C2, _A1, [[1, 0]], "lift-to-nothing", root_lift={(1,): ()}),
    Embedding(_C2, _A1, [[1, 0]], "lift-missing-root", root_lift={}),
]

REFERENCE_CASES = registry_embeddings() + [
    Embedding(_A1, _A1, [[Fraction(-1)]], label="flip"),
    Embedding(build_root_system("A2"), _A1, [["1/2", "3/2"]], label="half-integral"),
    Embedding(build_root_system("A2"), _A1, [["1/2", "1/2"]], label="half-broken"),
] + BAD_LIFTS


@pytest.mark.parametrize("emb", REFERENCE_CASES, ids=lambda e: e.label)
def test_validate_and_root_fiber_match_the_weight_reference(emb):
    assert validate(emb) == _validate_reference(emb)
    for gamma in emb.h.positive_roots:
        assert _outcome(root_fiber, emb, gamma) == _outcome(_root_fiber_reference, emb, gamma)


@pytest.mark.parametrize("emb", REFERENCE_CASES, ids=lambda e: e.label)
def test_root_images_are_the_restrictions_of_the_positive_roots_in_order(emb):
    assert emb.root_images == tuple(
        _restrict_reference(emb, root_to_weight(emb.g, beta)).coords
        for beta in emb.g.positive_roots)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2",
                                  "B3", "C3", "A2,B2"])
def test_every_levi_lift_validates_clean(spec):
    g = build_root_system(spec)
    for k in range(1, g.rank + 1):
        for J in itertools.combinations(range(1, g.rank + 1), k):
            assert validate(levi(g, J)) == [], J


def test_a_lift_must_restrict_to_its_root():
    for emb, vec in zip(BAD_LIFTS, [(0, 1), (5, 7)]):
        assert validate(emb) == [f"root_lift lifts the positive root (1,) to {vec}, "
                                 f"which is not a root of C2 restricting to it"]
    assert validate(BAD_LIFTS[2]) == ["root_lift lifts the positive root (1,) to no vector"]
    assert validate(BAD_LIFTS[3]) == ["root_lift is missing the positive root (1,)"]
    # -beta is a lift when beta restricts to -gamma
    emb = Embedding(_C2, _A1, [[-1, 0]], "lift-to-minus-alpha1", root_lift={(1,): ((-1, 0),)})
    assert validate(emb) == []


def _count_restrict_coords(monkeypatch):
    """The coordinates of every restrict_coords call made from anywhere but
    embed.restrict, which restricts one weight and not the table."""
    calls = []
    original = Embedding.restrict_coords

    def counted(self, coords):
        if sys._getframe(1).f_code is not embed.restrict.__code__:
            calls.append(coords)
        return original(self, coords)

    monkeypatch.setattr(Embedding, "restrict_coords", counted)
    return calls


@pytest.mark.parametrize("build", [lambda: folding_B3G2(), lambda: so_in_sl(6),
                                   lambda: levi(build_root_system("F4"), (2, 3, 4))],
                         ids=["folding_B3G2", "so_in_sl:6", "levi:F4"])
def test_the_positive_roots_are_restricted_once_per_embedding(build, monkeypatch):
    emb = build()
    calls = _count_restrict_coords(monkeypatch)
    for expected in (len(emb.g.positive_roots), 0):  # a fresh embedding, then a second pass
        del calls[:]
        assert validate(emb) == []
        for gamma in emb.h.positive_roots:
            root_fiber(emb, gamma)
        _numerator_certificate(emb)
        assert len(calls) == expected


def test_two_checks_on_one_builder_descriptor_restrict_the_roots_once(monkeypatch, capsys):
    # cli._built shares the embedding between the two calls
    cli._built.cache_clear()
    calls = _count_restrict_coords(monkeypatch)
    request = '{"embedding": {"builder": "folding_DB", "params": {"n": 5}}, "J": [1], "p": 3}'
    for _ in range(2):
        assert cli.main(["check", request]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == len(build_root_system("D5").positive_roots)


def test_restriction_shape_is_checked():
    with pytest.raises(ValueError):
        Embedding(build_root_system("A2"), build_root_system("A1"),
                  [[1, 0], [0, 1]], label="bad-shape")
    with pytest.raises(ValueError):
        restrict(identity("A2"), Weight([1]))
    # a ragged matrix is named by its first row of the wrong length
    a2, a1a1 = build_root_system("A2"), build_root_system("A1,A1")
    for rows, got in [([[1, 1], [1]], "row 2 of length 1"), ([[1], [1, 1]], "row 1 of length 1"),
                      ([[1, 1], [1, 1, 0], [1]], "row 2 of length 3"),
                      ([[1, 0, 0], [0, 1, 0]], "2 x 3")]:
        with pytest.raises(ValueError, match=rf"^restriction matrix must be 2 x 2, got {got}$"):
            Embedding(a2, a1a1, rows, label="custom")


# -- frozen restriction matrices ---------------------------------------------

def test_folding_ac2_matrix():
    emb = folding_AC(2)
    assert emb.g.spec_string() == "A3" and emb.h.spec_string() == "C2"
    assert [[int(x) for x in row] for row in emb.restriction] == \
        [[1, 0, 1], [0, 1, 0]]


def test_folding_b3g2_matrix():
    emb = folding_B3G2()
    assert emb.g.spec_string() == "B3" and emb.h.spec_string() == "G2"
    assert [[int(x) for x in row] for row in emb.restriction] == \
        [[1, 0, 1], [0, 1, 0]]


def test_folding_e6f4_matrix():
    emb = folding_E6F4()
    assert emb.h.spec_string() == "F4"
    assert [[int(x) for x in row] for row in emb.restriction] == [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [1, 0, 0, 0, 0, 1],
    ]


def test_folding_db_types():
    for n in (4, 5, 6):
        emb = folding_DB(n)
        assert emb.g.spec_string() == f"D{n}"
        assert emb.h.spec_string() == f"B{n - 1}"


def test_so_in_sl_types_and_matrices():
    assert so_in_sl(3).h.spec_string() == "A1"
    assert so_in_sl(4).h.spec_string() == "A1,A1"
    assert so_in_sl(5).h.spec_string() == "B2"
    assert so_in_sl(6).h.spec_string() == "D3"
    assert so_in_sl(7).h.spec_string() == "B3"
    assert so_in_sl(8).h.spec_string() == "D4"
    assert [[int(x) for x in row] for row in so_in_sl(4).restriction] == \
        [[1, 0, 1], [1, 2, 1]]
    assert [[int(x) for x in row] for row in so_in_sl(5).restriction] == \
        [[1, 0, 0, 1], [0, 2, 2, 0]]
    assert [[int(x) for x in row] for row in so_in_sl(6).restriction] == \
        [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 1, 2, 1, 0]]
    with pytest.raises(ValueError):
        so_in_sl(2)


def test_so_in_sl6_rho_restriction_not_dominant():
    # the restriction of rho(A5) lands outside the dominant cone of D3,
    # which is why the J = I criterion cannot apply there
    emb = so_in_sl(6)
    assert restrict(emb, rho(emb.g)).coords == (2, 2, 4)


def test_levi_builder():
    rs = build_root_system("C2")
    emb = levi(rs, (1,))
    assert emb.h.spec_string() == "A1"
    assert emb.label == "levi:C2:J=[1]"
    assert restrict(emb, Weight([1, 0])).coords == (1,)
    assert emb.root_lift is not None
    with pytest.raises(ValueError):
        levi(rs, (3,))


def test_levi_of_f4():
    emb = levi(build_root_system("F4"), (2, 3, 4))
    assert emb.h.spec_string() == "C3"
    # every H positive root lifts to exactly one G positive root
    for gamma in emb.h.positive_roots:
        fiber = root_fiber(emb, gamma)
        assert len(fiber) == 1
        beta = fiber[0]
        assert all(x >= 0 for x in beta)
        assert restrict(emb, root_to_weight(emb.g, beta)) == \
            root_to_weight(emb.h, gamma)


def test_diagonal_builder():
    emb = diagonal("A1", 3)
    assert emb.g.spec_string() == "A1,A1,A1"
    assert restrict(emb, Weight([2, 3, 4])).coords == (9,)
    assert restrict(emb, rho(emb.g)) == 3 * rho_h(emb)
    # k = 1 degenerates to the identity embedding
    one = diagonal("A1", 1)
    assert one.g == one.h and restrict(one, Weight([7])).coords == (7,)
    with pytest.raises(ValueError):
        diagonal("A1", 0)


def test_identity_builder():
    emb = identity("G2")
    assert emb.g == emb.h
    assert restrict(emb, Weight([2, 5])).coords == (2, 5)


def test_frobenius_twisted_diagonal():
    emb = frobenius_twisted_diagonal("A1", 3)
    assert emb.g.spec_string() == "A1,A1"
    assert emb.twist_exponent == 3
    assert restrict(emb, Weight([1, 1])).coords == (4,)
    with pytest.raises(ValueError):
        frobenius_twisted_diagonal("A1", 1)


# -- image structure of the foldings ------------------------------------------

def test_b3g2_image_is_exactly_g2_positives():
    emb = folding_B3G2()
    g2 = emb.h
    images = []
    for beta in emb.g.positive_roots:
        w = restrict(emb, root_to_weight(emb.g, beta))
        images.append(tuple(root_coordinates(g2, w)))
    # every B3 positive root restricts to a G2 positive root; shorts are hit
    # twice, longs once, nothing collapses to zero
    counts: dict[tuple, int] = {}
    for c in images:
        counts[c] = counts.get(c, 0) + 1
    assert set(counts) == set(g2.positive_roots)
    assert sorted(counts.values()) == [1, 1, 1, 2, 2, 2]


def test_folding_ac_image_counts():
    emb = folding_AC(2)
    c2 = emb.h
    counts: dict[tuple, int] = {}
    for beta in emb.g.positive_roots:
        w = restrict(emb, root_to_weight(emb.g, beta))
        c = tuple(root_coordinates(c2, w))
        counts[c] = counts.get(c, 0) + 1
    assert set(counts) == set(c2.positive_roots)


# -- root fibers ---------------------------------------------------------------

def test_root_fiber_identity():
    emb = identity("C2")
    for gamma in emb.g.positive_roots:
        assert root_fiber(emb, gamma) == (gamma,)
        assert root_fiber(emb, list(gamma)) == (gamma,)


def test_root_fiber_diagonal():
    emb = diagonal("A1", 2)
    fiber = root_fiber(emb, (1,))
    assert set(fiber) == {(1, 0), (0, 1)}
    assert root_fiber(emb, [1]) == fiber


def test_root_fiber_of_a_lift_takes_any_sequence():
    emb = levi("C2", [1])
    assert root_fiber(emb, [1]) == root_fiber(emb, (1,)) == ((1, 0),)
    # the rank is checked before the lift is read
    for gamma in ([1, 0], (1, 0), []):
        with pytest.raises(ValueError, match="^root rank mismatch$"):
            root_fiber(emb, gamma)


def test_root_fiber_missing_root():
    emb = diagonal("A1", 2)
    with pytest.raises(ValueError):
        root_fiber(emb, (3,))
    with pytest.raises(ValueError, match=r"^no G-root restricts to the H-root \(3,\)$"):
        root_fiber(emb, [3])


# -- twist detection -----------------------------------------------------------

def test_detect_twist_explicit_exponent():
    for p in (2, 3, 5):
        emb = frobenius_twisted_diagonal("A1", p)
        assert detect_twist(emb, p)


def test_detect_twist_from_matrix():
    h = build_root_system("A1")
    g = build_root_system("A1,A1")
    emb = Embedding(g, h, [[1, 3]], label="custom")
    assert detect_twist(emb, 3)
    assert not detect_twist(emb, 2)


def test_detect_twist_negative_cases():
    assert not detect_twist(identity("A2"), 2)
    assert not detect_twist(diagonal("A1", 3), 3)
    assert not detect_twist(so_in_sl(6), 2)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_detect_twist_refuses_p_below_2(p):
    with pytest.raises(ValueError, match=rf"^p must be at least 2, got {p}$"):
        detect_twist(identity("A2"), p)


def test_detect_twist_ignores_zero_blocks():
    h = build_root_system("A1")
    g = build_root_system("A1,A1")
    # second factor acts trivially: a zero block is not a twist
    emb = Embedding(g, h, [[1, 0]], label="projection")
    assert not detect_twist(emb, 2)


# -- one J normaliser ------------------------------------------------------------

def test_criterion_input_normalises_J_like_index_set():
    emb = so_in_sl(5)
    assert CriterionInput(emb, [3, 1, 3], 5).J == index_set(emb.g, [3, 1, 3]) == (1, 3)
    inp = CriterionInput(emb, J=[3, 1, 3], p=5)  # by keyword, as README's example builds it
    assert inp.J == (1, 3)
    # a changed copy goes through the same normaliser and the same check on p
    assert inp._replace(J=[2, 1]).J == (1, 2)
    assert CriterionInput._make([emb, [2, 2], 3]).J == (2,)
    with pytest.raises(TypeError, match="p must be an integer, got 5.0"):
        inp._replace(p=5.0)
    for J, error in (([9], ValueError), ([0], ValueError), ([1.0], TypeError),
                     ([True], TypeError), (["1"], TypeError), (None, TypeError)):
        with pytest.raises(error) as raised:
            CriterionInput(emb, J, 5)
        if J is not None:
            with pytest.raises(error) as direct:
                index_set(emb.g, J)
            assert str(raised.value) == str(direct.value)
