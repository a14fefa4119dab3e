import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from frobcrit.criteria import (
    PRIMALITY_BOUND,
    CriterionInput,
    _is_prime,
    check_main,
    conjugated_borel_check,
    lemma53_min_p,
    thm41_hypotheses,
)
from frobcrit.embed import (
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
    so_in_sl,
)
from frobcrit.registry import example_sln_son, lookup_donkin
from frobcrit.rootsys import Weight, build_root_system, rho_J
from frobcrit.weyl import from_word
from frobcrit.weyl import identity as weyl_identity

from oracles import cartan_pairing
from test_acceptance import registry_embeddings


def full_J(emb):
    return tuple(range(1, emb.g.rank + 1))


# -- lemma53_min_p -------------------------------------------------------------

@pytest.mark.parametrize("emb,expected", [
    (identity("A1"), 2),
    (identity("A2"), 3),
    (levi(build_root_system("C2"), (1,)), 2),
    (diagonal("A1", 3), 2),
    (folding_B3G2(), 8),
    (folding_E6F4(), 15),
    (so_in_sl(6), 5),
    (folding_AC(2), 5),
], ids=lambda v: v.label if isinstance(v, Embedding) else str(v))
def test_min_p_frozen(emb, expected):
    assert lemma53_min_p(emb) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_min_p_twisted_diagonal_is_p_plus_one(p):
    assert lemma53_min_p(frobenius_twisted_diagonal("A1", p)) == p + 1


def _min_p_reference(emb):
    """The bound by Fraction pairings, one cartan_pairing per (omega_i, gamma)."""
    rh = rho_h(emb)
    best = Fraction(0)
    for i in range(emb.g.rank):
        omega = Weight([1 if k == i else 0 for k in range(emb.g.rank)])
        shifted = rh + restrict(emb, omega)
        for gamma in emb.h.positive_roots:
            best = max(best, cartan_pairing(emb.h, shifted, gamma))
    return math.ceil(best)


def _custom(g, h, matrix, label):
    return Embedding(build_root_system(g), build_root_system(h), matrix, label)


_FRACTIONAL_MATRICES = [
    _custom("A1", "A1", [["1/2"]], "half"),
    _custom("A1", "A1", [["-7/2"]], "negative"),  # every pairing < 0: the bound is 0
    _custom("A2", "A1", [["1/2", "3/2"]], "A2-A1"),
    _custom("B3", "G2", [["1/3", 0, "5/2"], [0, "-7/4", 1]], "B3-G2"),
    _custom("C2", "A1,A1", [["-1/2", 2], ["2/3", "1/5"]], "C2-A1A1"),
    _custom("G2", "B2", [["5/3", 1], ["-1/6", "9/4"]], "G2-B2"),
]


# registry_embeddings() starts with every embedding of minimal_rank_suite()
@pytest.mark.parametrize(
    "emb", registry_embeddings()
    + [frobenius_twisted_diagonal("B2", 3), levi("F4", [2, 3]), so_in_sl(7)]
    + _FRACTIONAL_MATRICES, ids=lambda e: e.label)
def test_min_p_matches_the_fraction_reference(emb):
    assert lemma53_min_p(emb) == _min_p_reference(emb)


# -- integer parameters are refused, never truncated ------------------------------

_INTEGER_PARAMETERS = {
    "thm41_hypotheses:p": lambda x: thm41_hypotheses(identity("A2"), Weight([4, 4]), x),
    "detect_twist:p": lambda x: detect_twist(identity("A2"), x),
    "lookup_donkin:p": lambda x: lookup_donkin(levi("C2", [1]), x),
    "diagonal:k": lambda x: diagonal("A1", x),
    "folding_AC:m": folding_AC,
    "folding_DB:n": folding_DB,
    "so_in_sl:n": so_in_sl,
    "frobenius_twisted_diagonal:p": lambda x: frobenius_twisted_diagonal("A1", x),
    "example_sln_son:n": example_sln_son,
}


@pytest.mark.parametrize("value", [2.7, True, "3"], ids=repr)
@pytest.mark.parametrize("call", sorted(_INTEGER_PARAMETERS))
def test_integer_parameters_are_refused_not_truncated(call, value):
    with pytest.raises(TypeError, match="must be an integer"):
        _INTEGER_PARAMETERS[call](value)


# -- check_main: tag outcomes ----------------------------------------------------

def test_identity_a2_all_conclusions():
    rep = check_main(CriterionInput(identity("A2"), (1, 2), 2))
    assert rep.condition1_weight == Weight([1, 1])
    assert rep.condition1_dominant and rep.condition1_regular
    assert rep.tags() == ("SPLIT_PJ", "CANONICAL_SPLIT", "GLOBALLY_F_REGULAR",
                          "COR72_HPJ", "COR73_FLAG", "COHOMOLOGY_VANISHING")
    assert rep.lie_separability.status == "holds"
    assert rep.lie_separability.source == "parabolic-is-full"
    assert rep.surjectivity.holds
    assert rep.divisor is not None
    assert rep.divisor.weight == Weight([1, 1])
    assert rep.divisor.multiplicity == 1
    assert rep.divisor.indices == (1, 2)


def test_identity_a2_orbit_labels():
    rep = check_main(CriterionInput(identity("A2"), (1, 2), 2))
    for c in rep.conclusions:
        assert c.orbit_count == 6
        assert c.orbit_labels == ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))


def test_folding_full_flag_tags():
    emb = folding_E6F4()
    rep = check_main(CriterionInput(emb, full_J(emb), 3))
    assert rep.condition1_weight == Weight([1, 1, 0, 0])
    assert rep.condition1_dominant and not rep.condition1_regular
    assert rep.tags() == ("SPLIT_PJ", "COR72_HPJ", "COR73_FLAG",
                          "COHOMOLOGY_VANISHING")
    # |W(E6)| is far past the label cap, the count is still exact
    assert rep.conclusions[0].orbit_count == 51840
    assert rep.conclusions[0].orbit_labels is None


def test_diagonal_factor_parabolic():
    emb = diagonal("C2", 2)
    rep = check_main(CriterionInput(emb, (1, 2), 3))  # first factor only
    assert rep.condition1_weight == Weight([1, 1])
    assert rep.tags() == ("SPLIT_PJ", "CANONICAL_SPLIT", "GLOBALLY_F_REGULAR")
    assert rep.lie_separability.status == "unknown"


def test_levi_proper_parabolic():
    emb = levi(build_root_system("C2"), (1,))
    rep = check_main(CriterionInput(emb, (1,), 2))
    assert rep.condition1_weight == Weight([1])
    assert rep.tags() == ("SPLIT_PJ", "CANONICAL_SPLIT", "GLOBALLY_F_REGULAR")
    assert rep.surjectivity.source == "donkin-registry"


def test_sln_son_boundary_case():
    # 2 rho_H - rho_J|_H is exactly zero: split but nothing stronger
    emb = so_in_sl(6)
    rep = check_main(CriterionInput(emb, (1, 2, 4, 5), 3))
    assert rep.condition1_weight == Weight([0, 0, 0])
    assert rep.tags() == ("SPLIT_PJ",)


def test_triple_diagonal_fails_condition1():
    rep = check_main(CriterionInput(diagonal("A1", 3), (1, 2, 3), 2))
    assert rep.condition1_weight == Weight([-1])
    assert not rep.condition1_dominant
    assert rep.tags() == ()
    assert rep.divisor is None


def test_twisted_diagonal_splits_without_separability():
    rep = check_main(CriterionInput(frobenius_twisted_diagonal("A1", 3), (1,), 3,
                                    "user-asserted"))
    assert rep.condition1_weight == Weight([1])
    assert rep.tags() == ("SPLIT_PJ", "CANONICAL_SPLIT", "GLOBALLY_F_REGULAR")
    assert rep.lie_separability.status == "fails"
    assert rep.lie_separability.source == "frobenius-twist"
    assert "COR72_HPJ" not in rep.tags()


def test_conditional_when_surjectivity_unresolved():
    emb = frobenius_twisted_diagonal("A1", 5)
    rep = check_main(CriterionInput(emb, (1,), 5, "large-p"))  # min_p is 6
    assert rep.condition1_dominant
    assert rep.surjectivity.status == "unknown"
    assert rep.tags() == ("CONDITIONAL",)
    assert rep.divisor is None
    [c] = rep.conclusions
    assert c.theorem == "pending-surjectivity"
    assert "SPLIT_PJ" in c.statement and "GLOBALLY_F_REGULAR" in c.statement


def test_conditional_source_none():
    rep = check_main(CriterionInput(identity("A2"), (1, 2), 2, "none"))
    assert rep.tags() == ("CONDITIONAL",)
    assert rep.surjectivity.status == "unknown"
    # the statement promises everything the resolved run would conclude
    [c] = rep.conclusions
    for tag in ("SPLIT_PJ", "GLOBALLY_F_REGULAR", "CANONICAL_SPLIT",
                "COR72_HPJ", "COR73_FLAG"):
        assert tag in c.statement


def test_surjectivity_sources():
    inp = CriterionInput(identity("A2"), (1, 2), 2, "user-asserted")
    assert check_main(inp).surjectivity.source == "user-asserted"
    # registry miss at small p falls through to the large-p bound
    rep = check_main(CriterionInput(identity("A2"), (1, 2), 3, "large-p"))
    assert rep.surjectivity.holds  # min_p(identity A2) == 3
    rep = check_main(CriterionInput(identity("A2"), (1, 2), 2, "large-p"))
    assert not rep.surjectivity.holds


def test_user_lie_flag():
    emb = diagonal("C2", 2)
    rep = check_main(CriterionInput(emb, (1, 2), 3, lie_separability="holds"))
    assert rep.lie_separability.status == "holds"
    assert rep.lie_separability.source == "user-flag"
    assert "COR72_HPJ" in rep.tags()
    rep = check_main(CriterionInput(emb, (1, 2), 3, lie_separability="fails"))
    assert "COR72_HPJ" not in rep.tags()


# -- input validation -------------------------------------------------------------

@pytest.mark.parametrize("p", [0, 1, -3, 4, 6, 9, 100])
def test_rejects_non_prime(p):
    with pytest.raises(ValueError, match="prime"):
        check_main(CriterionInput(identity("A2"), (1, 2), p))


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                               825265, 321197185, 3215031751, 2152302898747,
                               3474749660383, 341550071728321, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_carmichael_and_strong_pseudoprimes(n):
    assert not _is_prime(n)


# psi_k, the least strong pseudoprime to each of the first k prime bases, for
# k = 1, ..., 12 (OEIS A014233; Jaeschke, Math. Comp. 61 (1993); Sorenson and
# Webster, Math. Comp. 86 (2017)); psi_13 is PRIMALITY_BOUND
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, base):
    """Whether odd n > base passes the strong Fermat test to ``base``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _thirteen_bases(n):
    """Primality below PRIMALITY_BOUND by trial division and all 13 bases."""
    if n < 2 or n in PRIME_BASES:
        return n in PRIME_BASES
    return (all(n % b for b in PRIME_BASES)
            and all(_strong_probable_prime(n, b) for b in PRIME_BASES))


@pytest.mark.parametrize("k", range(1, 13))
def test_each_primality_tier_holds_at_its_pseudoprime(k):
    # psi_k fools the first k bases, so _is_prime must use more of them there;
    # the largest prime below psi_k must still pass the k bases it is tested on
    psi = PSI[k - 1]
    assert all(_strong_probable_prime(psi, b) for b in PRIME_BASES[:k])
    assert not _is_prime(psi)
    below = psi - 2
    while not _thirteen_bases(below):
        below -= 2
    assert _is_prime(below)


@given(st.one_of(
    st.integers(0, PRIMALITY_BOUND - 1),
    st.integers(0, 10 ** 7),
    st.builds(lambda psi, offset: psi + offset, st.sampled_from(PSI), st.integers(-200, 200))))
@example(1847)  # the largest prime that trial division alone decides
@example(1849)  # 43 ** 2, the first composite it leaves to the strong tests
@example(43 * 47)
@example(PRIMALITY_BOUND - 1)
def test_is_prime_equals_the_thirteen_base_answer(n):
    assert _is_prime(n) == _thirteen_bases(n)


def test_is_prime_large_primes_and_bound():
    assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1) and _is_prime(2 ** 79 - 67)
    assert not _is_prime((2 ** 61 - 1) * (2 ** 19 - 1))
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        _is_prime(PRIMALITY_BOUND)


@pytest.mark.parametrize("J,p", [((1.7,), 2), ((True,), 2), ((1,), 5.9), ((1,), True),
                                 (("1",), 2)])
def test_rejects_non_integer_J_and_p(J, p):
    with pytest.raises(TypeError, match="must be an integer"):
        CriterionInput(identity("A2"), J, p)


def test_rejects_bad_J():
    with pytest.raises(ValueError):
        check_main(CriterionInput(identity("A2"), (0,), 2))
    with pytest.raises(ValueError):
        check_main(CriterionInput(identity("A2"), (3,), 2))


def test_rejects_bad_source_and_flag():
    with pytest.raises(ValueError, match="surjectivity source"):
        check_main(CriterionInput(identity("A2"), (1,), 2, "folklore"))
    with pytest.raises(ValueError, match="lie_separability"):
        check_main(CriterionInput(identity("A2"), (1,), 2,
                                  lie_separability="maybe"))


def test_rejects_invalid_embedding():
    # thm41_hypotheses refuses an embedding that fails validation by
    # check_main's text
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    for bad in (Embedding(a1, a1, [[Fraction(-1)]], label="flip"),
                Embedding(a2, a1, [[0, 0]], label="collapse")):
        with pytest.raises(ValueError, match="^embedding fails validation: ") as refused:
            check_main(CriterionInput(bad, (1,), 2))
        with pytest.raises(ValueError) as audited:
            thm41_hypotheses(bad, Weight([1] * bad.g.rank), 2)
        assert str(audited.value) == str(refused.value)
    assert str(refused.value) == ("embedding fails validation: positive root (1,) of A1 "
                                  "is not the restriction of any positive root of A2")


# -- divisor data -----------------------------------------------------------------

def test_divisor_weights():
    # a report's divisor is (p-1) rho_J, one component of multiplicity p-1 per
    # index of J
    data = check_main(CriterionInput(identity("C2"), (1, 2), 3)).divisor
    assert data.weight == Weight([2, 2])
    assert data.multiplicity == 2
    assert data.indices == (1, 2)


def test_divisor_weights_refuses_unsplit_input():
    # no divisor is reported when no splitting is concluded
    rep = check_main(CriterionInput(diagonal("A1", 3), (1, 2, 3), 2))
    assert not rep.conclusions
    assert rep.divisor is None


# -- monotonicity across parabolic sizes --------------------------------------------

def test_condition1_antitone_in_J():
    # growing J subtracts more, so dominance can only be lost, and the
    # full-J weight is coordinatewise smallest
    for emb in (identity("C2"), folding_B3G2(), so_in_sl(5)):
        n = emb.g.rank
        weights = {}
        for mask in range(2 ** n):
            J = tuple(j + 1 for j in range(n) if mask >> j & 1)
            rep = check_main(CriterionInput(emb, J, 3, "none"))
            weights[J] = rep.condition1_weight
        for J, w in weights.items():
            for j in range(1, n + 1):
                if j in J:
                    continue
                bigger = tuple(sorted(J + (j,)))
                diff = w - weights[bigger]
                assert all(c >= 0 for c in diff.coords)


# -- thm41_hypotheses ----------------------------------------------------------------

def test_thm41_steinberg_weight():
    r = thm41_hypotheses(identity("A2"), Weight([1, 1]), 2)
    assert r.condition1_status == "steinberg-supplied"
    assert r.steinberg_J == (1, 2)
    assert r.condition2_weight == Weight([1, 1]) and r.condition2_holds
    assert r.canonical_weight == Weight([0, 0]) and r.canonical_holds
    assert r.surjectivity.holds


def test_thm41_generic_weight():
    r = thm41_hypotheses(identity("A2"), Weight([1, 0]), 3)
    assert r.condition1_status == "assumed"
    assert r.steinberg_J is None
    assert r.condition2_weight == Weight([3, 4])
    assert r.canonical_weight == Weight([1, 2])


def test_thm41_zero_weight():
    r = thm41_hypotheses(identity("A2"), Weight([0, 0]), 5)
    assert r.condition1_status == "steinberg-supplied"
    assert r.steinberg_J == ()


def test_thm41_rejects_bad_input():
    with pytest.raises(ValueError):
        thm41_hypotheses(identity("A2"), Weight([1, 1]), 4)
    with pytest.raises(ValueError):
        thm41_hypotheses(identity("A2"), Weight([-1, 0]), 2)
    with pytest.raises(ValueError):
        thm41_hypotheses(identity("A2"), Weight([1]), 2)


# -- conjugated Borel check -----------------------------------------------------------

def test_conjugated_borel_identity_reduces_to_condition1():
    for emb in (identity("A2"), levi(build_root_system("C2"), (1,)),
                folding_B3G2(), so_in_sl(5), diagonal("A1", 3)):
        n = emb.g.rank
        e = weyl_identity(emb.g)
        for mask in range(2 ** n):
            J = tuple(j + 1 for j in range(n) if mask >> j & 1)
            rep = check_main(CriterionInput(emb, J, 3, "none"))
            assert conjugated_borel_check(emb, e, J) == rep.condition1_dominant


def test_conjugated_borel_sp4_verdicts():
    emb = levi(build_root_system("C2"), (1,))
    J = (1, 2)
    verdicts = tuple(
        conjugated_borel_check(emb, from_word(emb.g, word), J)
        for word in ((), (2,), (2, 1), (2, 1, 2)))
    assert verdicts == (True, False, False, True)


def test_conjugated_borel_rejects_split_fiber():
    emb = diagonal("A1", 2)
    s1 = from_word(emb.g, (1,))  # flips one factor only
    with pytest.raises(ValueError, match="not a Borel"):
        conjugated_borel_check(emb, s1, (1, 2))


def test_conjugated_borel_rejects_foreign_element():
    emb = levi(build_root_system("C2"), (1,))
    x = from_word(build_root_system("A2"), (1,))
    with pytest.raises(ValueError):
        conjugated_borel_check(emb, x, (1,))
